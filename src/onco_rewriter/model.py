"""Domain model for annotated UML information models and thesaurus fixtures.

The two document formats handled here are deliberately plain so fixtures stay
deterministic and diffable:

* model files are JSON documents with top-level fields ``project``,
  ``version``, ``packagePrefix``, ``classes[]`` and ``associations[]``;
* thesaurus files are UTF-8 line formats with one axiom per line:
  ``CONCEPT <name>``, ``SUB <child> <parent>``, ``DISJOINT <a> <b>`` and
  ``#`` comments.

All types are immutable after construction; loading validates every declared
invariant and reports violations with an element location instead of
silently repairing anything.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .cql import NOT_XML

DATATYPES = ("string", "integer", "float", "boolean", "date")
MAX_QUALIFIERS = 49  # the most whose generated axioms parse_axioms reads back
# parse_axioms reads a name as one run of characters other than whitespace,
# ( and ), so a name holding one of these could not be read back
SPLITS_A_NAME = re.compile(r"[\s()]")
_NOT_A_MODEL_NAME = re.compile(f"{NOT_XML.pattern}|{SPLITS_A_NAME.pattern}")
_DOCUMENT_FIELDS = frozenset(("project", "version", "packagePrefix", "classes", "associations"))
_CLASS_FIELDS = frozenset(("name", "superclasses", "annotation", "attributes"))
_ATTRIBUTE_FIELDS = frozenset(("name", "datatype", "annotation"))
_ANNOTATION_FIELDS = frozenset(("primary", "qualifiers"))
_ASSOCIATION_FIELDS = frozenset(("source", "roleName", "target"))


def closure(starts: Iterable[str], successors: Callable[[str], Collection[str]]) -> list[str]:
    """Everything reachable from ``starts`` through ``successors``, starts
    included, each once, in depth-first preorder: the order a recursive walk
    would visit them in, from an explicit stack so depth costs no recursion."""
    seen: set[str] = set()
    order: list[str] = []
    stack = [iter(starts)]
    while stack:
        for node in stack[-1]:
            if node not in seen:
                seen.add(node)
                order.append(node)
                following = successors(node)
                if following:
                    stack.append(iter(following))
                    break
        else:
            stack.pop()
    return order


class InputError(ValueError):
    """What the user gave cannot be used: a document, an option or an answer."""


class ModelLoadError(InputError):
    """Raised when a model document is malformed or violates an invariant."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class ThesaurusLoadError(InputError):
    """Raised when a thesaurus document is malformed or cyclic."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class Annotation:
    """Semantic annotation: one primary concept plus an ordered qualifier list."""

    primary: str
    qualifiers: tuple[str, ...] = ()

    def concept_names(self) -> tuple[str, ...]:
        return (self.primary,) + self.qualifiers


@dataclass(frozen=True)
class UMLAttribute:
    name: str
    datatype: str
    annotation: Annotation | None = None


@dataclass(frozen=True)
class UMLClass:
    name: str
    superclasses: tuple[str, ...] = ()
    attributes: tuple[UMLAttribute, ...] = ()
    annotation: Annotation | None = None


@dataclass(frozen=True)
class UMLAssociation:
    """A directed navigable association end identified by its role name."""

    source: str
    role_name: str
    target: str


@dataclass(frozen=True)
class UMLModel:
    project_name: str
    version: str
    package_prefix: str
    classes: tuple[UMLClass, ...] = ()
    associations: tuple[UMLAssociation, ...] = ()

    @cached_property
    def _classes_by_name(self) -> dict[str, UMLClass]:
        # the first of two same-named classes wins, as a scan would find it
        return {cls.name: cls for cls in reversed(self.classes)}

    @cached_property
    def _associations_by_source(self) -> dict[str, tuple[UMLAssociation, ...]]:
        by_source: dict[str, list[UMLAssociation]] = {}
        for assoc in self.associations:
            by_source.setdefault(assoc.source, []).append(assoc)
        return {source: tuple(assocs) for source, assocs in by_source.items()}

    def class_named(self, name: str) -> UMLClass:
        return self._classes_by_name[name]

    def has_class(self, name: str) -> bool:
        return name in self._classes_by_name

    def class_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes)

    def associations_from(self, class_name: str) -> tuple[UMLAssociation, ...]:
        """The associations declared with ``class_name`` as source, in
        declaration order."""
        return self._associations_by_source.get(class_name, ())

    def ancestors(self, class_name: str) -> tuple[str, ...]:
        """Proper ancestors in deterministic order: depth-first over the
        declared superclass lists, each ancestor reported once."""
        by_name = self._classes_by_name
        supers = by_name[class_name].superclasses
        return tuple(closure(supers, lambda name: by_name[name].superclasses))


@dataclass(frozen=True)
class Thesaurus:
    """Named concepts with subsumption and disjointness axioms.

    Declaration order is preserved; it drives deterministic serialization.
    """

    concepts: tuple[str, ...]
    subsumptions: tuple[tuple[str, str], ...]
    disjointness: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Signature:
    """The set of concept names a model's annotations refer to."""

    concept_names: frozenset[str] = field(default_factory=frozenset)

    def __contains__(self, name: str) -> bool:
        return name in self.concept_names

    def __iter__(self):
        return iter(sorted(self.concept_names))

    def __len__(self) -> int:
        return len(self.concept_names)


def _require(mapping: dict, key: str, kind: type, location: str):
    if key not in mapping:
        raise ModelLoadError(f"missing field '{key}'", location)
    value = mapping[key]
    if not isinstance(value, kind):
        raise ModelLoadError(
            f"field '{key}' must be {kind.__name__}, got {type(value).__name__}",
            location,
        )
    return value


def _cql_name(value: str, what: str, location: str) -> str:
    """``value``, which CQL documents carry; rejected if empty or if XML 1.0 cannot hold it."""
    if not value:
        raise ModelLoadError(f"{what} must be non-empty", location)
    unwritable = NOT_XML.search(value)
    if unwritable:
        code = ord(unwritable.group())
        raise ModelLoadError(f"{what} holds U+{code:04X}, which CQL cannot carry", location)
    return value


def _unreadable(value: str, what: str) -> str | None:
    """Why the ontology text cannot carry ``value`` as a name, or None."""
    split = SPLITS_A_NAME.search(value)
    if split is None:
        return None
    return f"{what} holds U+{ord(split.group()):04X}, which the ontology text cannot carry"


def _model_name(value: str, what: str, location: str) -> str:
    """``value``, which both CQL documents and the ontology text carry;
    ``_cql_name``'s errors come first."""
    if not value or _NOT_A_MODEL_NAME.search(value):
        _cql_name(value, what, location)
        raise ModelLoadError(_unreadable(value, what), location)
    return value


def _reject_unknown(mapping: dict, allowed: frozenset[str], location: str) -> None:
    if not mapping.keys() <= allowed:
        raise ModelLoadError(f"unknown field(s) {sorted(set(mapping) - allowed)}", location)


def _parse_annotation(raw, location: str) -> Annotation | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ModelLoadError("annotation must be an object", location)
    _reject_unknown(raw, _ANNOTATION_FIELDS, location)
    primary = _require(raw, "primary", str, location)
    qualifiers = raw.get("qualifiers", [])
    if not isinstance(qualifiers, list) or not all(isinstance(q, str) for q in qualifiers):
        raise ModelLoadError("qualifiers must be a list of names", location)
    if len(qualifiers) > MAX_QUALIFIERS:
        raise ModelLoadError(f"more than {MAX_QUALIFIERS} qualifiers", location)
    # one of the names holds a character iff their concatenation does
    unreadable = _unreadable(primary + "".join(qualifiers), "annotation concept name")
    if unreadable:
        raise ModelLoadError(unreadable, location)
    return Annotation(primary=primary, qualifiers=tuple(qualifiers))


def load_model(document: str) -> UMLModel:
    """Parse and validate a model document, returning an immutable UMLModel."""
    try:
        raw = json.loads(document)
    except (ValueError, RecursionError) as exc:
        # bad syntax, an integer past Python's digit limit, or nesting past the recursion limit
        raise ModelLoadError(f"malformed document: {exc}") from None
    if not isinstance(raw, dict):
        raise ModelLoadError("malformed document: top level must be an object")
    _reject_unknown(raw, _DOCUMENT_FIELDS, "document")
    project = _require(raw, "project", str, "document")
    if not project.isprintable():  # it is written into the generated ontology's c: IRI
        raise ModelLoadError("field 'project' must be printable", "document")
    version = _require(raw, "version", str, "document")
    prefix = _require(raw, "packagePrefix", str, "document")
    prefix = prefix and _cql_name(prefix, "packagePrefix", "document")  # empty is legal
    raw_classes = _require(raw, "classes", list, "document")
    raw_assocs = raw.get("associations", [])
    if not isinstance(raw_assocs, list):
        raise ModelLoadError("field 'associations' must be a list", "document")

    classes: list[UMLClass] = []
    for i, raw_cls in enumerate(raw_classes):
        loc = f"classes[{i}]"
        if not isinstance(raw_cls, dict):
            raise ModelLoadError("class entry must be an object", loc)
        _reject_unknown(raw_cls, _CLASS_FIELDS, loc)
        name = _model_name(_require(raw_cls, "name", str, loc), "class name", loc)
        supers = raw_cls.get("superclasses", [])
        if not isinstance(supers, list) or not all(isinstance(s, str) for s in supers):
            raise ModelLoadError("superclasses must be a list of names", loc)
        raw_attrs = raw_cls.get("attributes", [])
        if not isinstance(raw_attrs, list):
            raise ModelLoadError("field 'attributes' must be a list", loc)
        attributes: list[UMLAttribute] = []
        for j, raw_attr in enumerate(raw_attrs):
            aloc = f"{loc}.attributes[{j}]"
            if not isinstance(raw_attr, dict):
                raise ModelLoadError("attribute entry must be an object", aloc)
            _reject_unknown(raw_attr, _ATTRIBUTE_FIELDS, aloc)
            attr_name = _model_name(_require(raw_attr, "name", str, aloc), "attribute name", aloc)
            datatype = _require(raw_attr, "datatype", str, aloc)
            if datatype not in DATATYPES:
                raise ModelLoadError(
                    f"unknown datatype '{datatype}' (expected one of {', '.join(DATATYPES)})",
                    aloc,
                )
            attributes.append(
                UMLAttribute(
                    name=attr_name,
                    datatype=datatype,
                    annotation=_parse_annotation(raw_attr.get("annotation"), aloc),
                )
            )
        if len({a.name for a in attributes}) != len(attributes):
            attr_counts = Counter(a.name for a in attributes)
            duplicate = next(a.name for a in attributes if attr_counts[a.name] > 1)
            raise ModelLoadError(f"duplicate attribute name '{duplicate}'", loc)
        classes.append(
            UMLClass(
                name=name,
                superclasses=tuple(supers),
                attributes=tuple(attributes),
                annotation=_parse_annotation(raw_cls.get("annotation"), loc),
            )
        )

    names = [c.name for c in classes]
    name_set = set(names)
    if len(name_set) != len(names):
        name_counts = Counter(names)
        i = next(i for i, name in enumerate(names) if name_counts[name] > 1)
        raise ModelLoadError(f"duplicate class name '{names[i]}'", f"classes[{i}]")

    for i, cls in enumerate(classes):
        for sup in cls.superclasses:
            if sup not in name_set:
                raise ModelLoadError(f"unknown superclass '{sup}'", f"classes[{i}]")

    associations: list[UMLAssociation] = []
    seen_roles: set[tuple[str, str]] = set()
    for i, raw_assoc in enumerate(raw_assocs):
        loc = f"associations[{i}]"
        if not isinstance(raw_assoc, dict):
            raise ModelLoadError("association entry must be an object", loc)
        _reject_unknown(raw_assoc, _ASSOCIATION_FIELDS, loc)
        source = _require(raw_assoc, "source", str, loc)
        role = _model_name(_require(raw_assoc, "roleName", str, loc), "roleName", loc)
        target = _require(raw_assoc, "target", str, loc)
        for endpoint in (source, target):
            if endpoint not in name_set:
                raise ModelLoadError(f"association endpoint '{endpoint}' is not a declared class", loc)
        if (source, role) in seen_roles:
            raise ModelLoadError(f"duplicate role name '{role}' on class '{source}'", loc)
        seen_roles.add((source, role))
        associations.append(UMLAssociation(source=source, role_name=role, target=target))

    cycle = _find_cycle({c.name: c.superclasses for c in classes})
    if cycle is not None:
        raise ModelLoadError(f"generalization cycle: {' -> '.join(cycle)}", f"class '{cycle[-1]}'")

    return UMLModel(
        project_name=project,
        version=version,
        package_prefix=prefix,
        classes=tuple(classes),
        associations=tuple(associations),
    )


def _find_cycle(parents: Mapping[str, Sequence[str]]) -> list[str] | None:
    """The first cycle a depth-first walk over ``parents`` meets, as the path
    from its start to the repeated name, or None for an acyclic map. Every
    parent must be a key. The walk starts from each key in order, follows
    each parent list in order, and keeps a stack of iterators, as ``closure``
    does, so depth costs no recursion."""
    on_path: dict[str, bool] = {}  # True while on the path, False once done
    for start in parents:
        if start in on_path:
            continue
        on_path[start] = True
        path = [start]
        stack = [iter(parents[start])]
        while stack:
            for parent in stack[-1]:
                state = on_path.get(parent)
                if state is None:
                    on_path[parent] = True
                    path.append(parent)
                    stack.append(iter(parents[parent]))
                    break
                if state:
                    path.append(parent)
                    return path
            else:
                on_path[path.pop()] = False
                stack.pop()
    return None


def load_thesaurus(document: str) -> Thesaurus:
    """Parse and validate a thesaurus document (line format, see module docs).

    One pass splits each line at whitespace, testing the common lines first.
    The first bad line raises with its number: a wrong arity, an unknown
    keyword, an undeclared name, or a concept name holding ``(`` or ``)``,
    which the ontology text cannot carry. Then the subsumptions, less
    reflexive and repeated ones, must be acyclic (``_find_cycle``)."""
    concepts: dict[str, None] = {}  # dicts as ordered sets: declaration order
    subsumptions: dict[tuple[str, str], None] = {}
    disjoints: dict[frozenset[str], tuple[str, str]] = {}
    parents: dict[str, list[str]] = {}
    # the only characters a name split at whitespace may hold that
    # parse_axioms' tokenizer would split further
    parens = "(" in document or ")" in document

    for lineno, line in enumerate(document.splitlines(), start=1):
        parts = line.split()
        size = len(parts)
        if size == 3 and parts[0] == "SUB":
            _, child, parent = parts
            if child not in concepts:
                raise ThesaurusLoadError(f"undeclared concept '{child}'", lineno)
            if parent not in concepts:
                raise ThesaurusLoadError(f"undeclared concept '{parent}'", lineno)
            # reflexive pairs carry no information
            if child != parent and (child, parent) not in subsumptions:
                subsumptions[child, parent] = None
                parents.setdefault(child, []).append(parent)
                parents.setdefault(parent, [])
        elif size == 2 and parts[0] == "CONCEPT":
            name = parts[1]
            if parens and (unreadable := _unreadable(name, "concept name")):
                raise ThesaurusLoadError(unreadable, lineno)
            concepts[name] = None
        elif not parts or parts[0][0] == "#":
            continue
        elif parts[0] == "DISJOINT" and size == 3:
            _, a, b = parts
            for name in (a, b):
                if name not in concepts:
                    raise ThesaurusLoadError(f"undeclared concept '{name}'", lineno)
            disjoints.setdefault(frozenset((a, b)), (a, b))
        elif parts[0] == "CONCEPT":
            raise ThesaurusLoadError("CONCEPT expects one name", lineno)
        elif parts[0] in ("SUB", "DISJOINT"):
            raise ThesaurusLoadError(f"{parts[0]} expects two names", lineno)
        else:
            raise ThesaurusLoadError(f"unknown keyword '{parts[0]}'", lineno)

    cycle = _find_cycle(parents)
    if cycle is not None:
        raise ThesaurusLoadError(f"subsumption cycle: {' -> '.join(cycle)}")
    return Thesaurus(
        concepts=tuple(concepts),
        subsumptions=tuple(subsumptions),
        disjointness=tuple(disjoints.values()),
    )


def model_signature(model: UMLModel) -> Signature:
    """All primary and qualifier concept names used by any annotation."""
    names: set[str] = set()
    for cls in model.classes:
        if cls.annotation is not None:
            names.update(cls.annotation.concept_names())
        for attr in cls.attributes:
            if attr.annotation is not None:
                names.update(attr.annotation.concept_names())
    return Signature(concept_names=frozenset(names))
