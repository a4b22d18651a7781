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
from collections import Counter
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .cql import NOT_XML

DATATYPES = ("string", "integer", "float", "boolean", "date")
MAX_QUALIFIERS = 49  # the most whose generated axioms parse_axioms reads back


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


def _reject_unknown(mapping: dict, allowed: set[str], location: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ModelLoadError(f"unknown field(s) {sorted(unknown)}", location)


def _parse_annotation(raw, location: str) -> Annotation | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ModelLoadError("annotation must be an object", location)
    _reject_unknown(raw, {"primary", "qualifiers"}, location)
    primary = _require(raw, "primary", str, location)
    qualifiers = raw.get("qualifiers", [])
    if not isinstance(qualifiers, list) or not all(isinstance(q, str) for q in qualifiers):
        raise ModelLoadError("qualifiers must be a list of names", location)
    if len(qualifiers) > MAX_QUALIFIERS:
        raise ModelLoadError(f"more than {MAX_QUALIFIERS} qualifiers", location)
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
    _reject_unknown(
        raw, {"project", "version", "packagePrefix", "classes", "associations"}, "document"
    )
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
        _reject_unknown(raw_cls, {"name", "superclasses", "annotation", "attributes"}, loc)
        name = _cql_name(_require(raw_cls, "name", str, loc), "class name", loc)
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
            _reject_unknown(raw_attr, {"name", "datatype", "annotation"}, aloc)
            attr_name = _cql_name(_require(raw_attr, "name", str, aloc), "attribute name", aloc)
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
        attr_counts = Counter(a.name for a in attributes)
        for attr in attributes:
            if attr_counts[attr.name] > 1:
                raise ModelLoadError(f"duplicate attribute name '{attr.name}'", loc)
        classes.append(
            UMLClass(
                name=name,
                superclasses=tuple(supers),
                attributes=tuple(attributes),
                annotation=_parse_annotation(raw_cls.get("annotation"), loc),
            )
        )

    names = [c.name for c in classes]
    name_counts = Counter(names)
    for i, name in enumerate(names):
        if name_counts[name] > 1:
            raise ModelLoadError(f"duplicate class name '{name}'", f"classes[{i}]")
    name_set = set(names)

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
        _reject_unknown(raw_assoc, {"source", "roleName", "target"}, loc)
        source = _require(raw_assoc, "source", str, loc)
        role = _cql_name(_require(raw_assoc, "roleName", str, loc), "roleName", loc)
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
    parent must be a key."""
    # iterative DFS with colouring; a grey revisit is a cycle
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {name: WHITE for name in parents}
    for start in parents:
        if colour[start] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        colour[start] = GREY
        path = [start]
        while stack:
            name, idx = stack[-1]
            if idx < len(parents[name]):
                stack[-1] = (name, idx + 1)
                nxt = parents[name][idx]
                if colour[nxt] == GREY:
                    return path + [nxt]
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, 0))
                    path.append(nxt)
            else:
                colour[name] = BLACK
                stack.pop()
                path.pop()
    return None


def load_thesaurus(document: str) -> Thesaurus:
    """Parse and validate a thesaurus document (line format, see module docs)."""
    concepts: list[str] = []
    concept_set: set[str] = set()
    subsumptions: list[tuple[str, str]] = []
    sub_set: set[tuple[str, str]] = set()
    disjoints: list[tuple[str, str]] = []
    disjoint_set: set[frozenset[str]] = set()

    for lineno, raw_line in enumerate(document.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        keyword = parts[0]
        if keyword == "CONCEPT":
            if len(parts) != 2:
                raise ThesaurusLoadError("CONCEPT expects one name", lineno)
            if parts[1] not in concept_set:
                concept_set.add(parts[1])
                concepts.append(parts[1])
        elif keyword in ("SUB", "DISJOINT"):
            if len(parts) != 3:
                raise ThesaurusLoadError(f"{keyword} expects two names", lineno)
            a, b = parts[1], parts[2]
            for name in (a, b):
                if name not in concept_set:
                    raise ThesaurusLoadError(f"undeclared concept '{name}'", lineno)
            if keyword == "SUB":
                if a == b:
                    continue  # reflexive pairs carry no information
                if (a, b) not in sub_set:
                    sub_set.add((a, b))
                    subsumptions.append((a, b))
            else:
                key = frozenset((a, b))
                if key not in disjoint_set:
                    disjoint_set.add(key)
                    disjoints.append((a, b))
        else:
            raise ThesaurusLoadError(f"unknown keyword '{keyword}'", lineno)

    parents: dict[str, list[str]] = {}
    for child, parent in subsumptions:
        parents.setdefault(child, []).append(parent)
        parents.setdefault(parent, [])
    cycle = _find_cycle(parents)
    if cycle is not None:
        raise ThesaurusLoadError(f"subsumption cycle: {' -> '.join(cycle)}")
    return Thesaurus(
        concepts=tuple(concepts),
        subsumptions=tuple(subsumptions),
        disjointness=tuple(disjoints),
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
