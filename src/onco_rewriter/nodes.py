"""The immutable base of the query, comprehension and CQL tree nodes.

A node is a tuple of the fields its class annotates, in declaration order,
read through the C-level getters that ``collections.namedtuple`` makes. A
frozen dataclass sets each field through ``object.__setattr__`` in
generated ``__init__`` code; a node is made by one ``tuple.__new__`` call,
which the hottest builders make directly: ``tuple.__new__(Cls, fields)``.
``Cls(...)`` also takes keywords and defaults, as a dataclass does.

Otherwise a node behaves as the frozen dataclass it replaces:

- ``==`` holds only between nodes of one type with equal fields, and
  compares from an explicit stack, so it answers on any depth of tree;
- ``hash`` is the hash of the field tuple, as a frozen dataclass's is;
- ``repr`` reads ``Cls(field=value, ...)``;
- no field can be set and no attribute added, since every subclass
  declares ``__slots__ = ()``, so either raises ``AttributeError``;
- nodes have no order: ``<`` raises ``TypeError``.
"""

from __future__ import annotations

from collections import namedtuple


class Node(tuple):
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        if not names:
            return
        defaults = [cls.__dict__[name] for name in names if name in cls.__dict__]
        if any(name in cls.__dict__ for name in names[: len(names) - len(defaults)]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with it")
        template = namedtuple(cls.__name__, names, defaults=defaults)
        for name in names:
            setattr(cls, name, template.__dict__[name])
        if "__new__" not in cls.__dict__:
            cls.__new__ = template.__dict__["__new__"]
        cls._fields = names

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if isinstance(a, tuple):
                if type(a) is not type(b) or len(a) != len(b):
                    return False
                stack.extend(zip(a, b))
            elif a != b:
                return False
        return True

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    def __getnewargs__(self) -> tuple:
        # copy and pickle rebuild a node from its fields, not from one tuple
        return tuple(self)
