"""EL-profile ontology generation from annotated UML models.

Generated axiom sets use four namespace prefixes: ``c:`` for model element
classes, ``u:`` for the upper UML vocabulary, ``n:`` for thesaurus concepts
and ``l:`` for the list vocabulary that encodes ordered qualifier
annotations. The class expression language is restricted by construction to
named classes, conjunction, existential restriction and a datatype
existential, so every generated set stays inside the EL profile. One walk
over the model (``model_facts``) holds the mapping: ``generate_ontology``
renders it as axioms, and ``ontology_facts`` reads it as the facts the
reasoner closes, rendering none.

Serialization is a functional-style line format, one axiom per line, with a
prefix-declaration header. Parsing is the exact inverse.
"""

from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from .model import Annotation, InputError, UMLModel

CLASS_PREFIX = "c"
UPPER_PREFIX = "u"
CONCEPT_PREFIX = "n"
LIST_PREFIX = "l"

UML_CLASS = "u:UMLClass"
UML_ATTRIBUTE = "u:UMLAttribute"
OWL_LIST = "l:OWLList"
HAS_ASSOCIATION = "u:hasAssociation"
HAS_ATTRIBUTE = "u:hasAttribute"
HAS_CONTENTS = "l:hasContents"
HAS_NEXT = "l:hasNext"
HAS_VALUE = "u:hasValue"

DATATYPE_MAP = {
    "string": "xsd:string",
    "integer": "xsd:integer",
    "float": "xsd:double",
    "boolean": "xsd:boolean",
    "date": "xsd:dateTime",
}

DEFAULT_PREFIXES = {
    CLASS_PREFIX: "http://onco-rewriter.local/model#",
    UPPER_PREFIX: "http://onco-rewriter.local/uml#",
    CONCEPT_PREFIX: "http://onco-rewriter.local/ncit#",
    LIST_PREFIX: "http://onco-rewriter.local/list#",
}


class OntologyError(InputError):
    pass


class AxiomParseError(InputError):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


# --- class expressions -------------------------------------------------


class ClassExpr:
    """Base class for EL class expressions. Only the four subclasses below
    are EL-conformant; anything else is flagged by el_conformance_report."""

    __slots__ = ()


@dataclass(frozen=True)
class Named(ClassExpr):
    name: str


@dataclass(frozen=True)
class Conjunction(ClassExpr):
    parts: tuple[ClassExpr, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise OntologyError("conjunction needs at least two parts")


@dataclass(frozen=True)
class Existential(ClassExpr):
    property_name: str
    filler: ClassExpr


@dataclass(frozen=True)
class DataExistential(ClassExpr):
    """Existential over the hasValue data property, filled by a datatype."""

    property_name: str
    datatype: str


# --- axioms -------------------------------------------------------------


class Axiom:
    __slots__ = ()


@dataclass(frozen=True)
class SubClassOf(Axiom):
    sub: ClassExpr
    sup: ClassExpr


@dataclass(frozen=True)
class SubPropertyOf(Axiom):
    sub: str
    sup: str


@dataclass(frozen=True)
class TransitiveProperty(Axiom):
    property_name: str


@dataclass(frozen=True)
class AxiomSet:
    axioms: tuple[Axiom, ...] = ()
    prefixes: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_PREFIXES))

    def __iter__(self):
        return iter(self.axioms)

    def __len__(self) -> int:
        return len(self.axioms)

    def class_names(self) -> frozenset[str]:
        """Every name appearing in class position anywhere in the set."""
        names: set[str] = set()
        ignored: list[str] = []  # this lists names, EL or not
        for position, axiom in enumerate(self.axioms):
            check_el_axiom(axiom, position, ignored, names)
        return frozenset(names)


def subclass_axioms(pairs: Iterable[tuple[str, str]], prefixes: dict[str, str]) -> AxiomSet:
    """One named-to-named ``SubClassOf`` per ``(sub, sup)`` name pair, in order."""
    return AxiomSet(tuple(SubClassOf(Named(sub), Named(sup)) for sub, sup in pairs), prefixes)


def merge_axiom_sets(*sets: AxiomSet) -> AxiomSet:
    """Concatenate axiom sets in order; prefix maps must agree on shared
    prefixes. No dedupe: each input is duplicate-free, and an ontology's
    ``c:``/``u:`` subjects never meet a thesaurus module's ``n:`` ones."""
    prefixes: dict[str, str] = {}
    for s in sets:
        for prefix, iri in s.prefixes.items():
            if prefixes.setdefault(prefix, iri) != iri:
                raise OntologyError(f"conflicting IRI for prefix '{prefix}'")
    return AxiomSet(axioms=tuple(a for s in sets for a in s.axioms), prefixes=prefixes)


# --- generated-name helpers ----------------------------------------------


def class_name(uml_class: str) -> str:
    return f"c:{uml_class}"


def attribute_class_name(uml_class: str, attribute: str) -> str:
    return f"c:{uml_class}_{attribute}"


def association_property_name(source: str, role: str, target: str) -> str:
    return f"c:{source}_{role}_{target}"


def concept_name(concept: str) -> str:
    return f"n:{concept}"


@dataclass(frozen=True)
class ModelNaming:
    """Reverse lookup from generated names back to model elements.

    Compound names cannot be split reliably (class and role names may
    themselves contain underscores), so the tables are built from the model.
    """

    properties: dict[str, tuple[str, str, str]]  # prop -> (source, role, target)
    attribute_classes: dict[str, tuple[str, str]]  # attr class -> (class, attribute)
    classes: dict[str, str]  # c:X -> X

    def role_of(self, property_name: str) -> str:
        return self.properties[property_name][1]

    def attribute_of(self, attribute_class: str) -> str:
        return self.attribute_classes[attribute_class][1]

    def bare_class(self, name: str) -> str:
        return self.classes[name]


def model_naming(model: UMLModel) -> ModelNaming:
    """The table of every generated class, attribute-class and association
    name. Raises OntologyError when two model elements generate one name."""
    described: dict[str, str] = {}

    def register(table: dict, name: str, element, described_as: str) -> None:
        if name in described:
            raise OntologyError(
                f"generated name collision: '{name}' is both {described[name]} and {described_as}"
            )
        described[name] = described_as
        table[name] = element

    classes: dict[str, str] = {}
    attribute_classes: dict[str, tuple[str, str]] = {}
    properties: dict[str, tuple[str, str, str]] = {}
    for c in model.classes:
        register(classes, class_name(c.name), c.name, f"class {c.name}")
    for c in model.classes:
        for a in c.attributes:
            name = attribute_class_name(c.name, a.name)
            register(attribute_classes, name, (c.name, a.name), f"attribute {c.name}.{a.name}")
    for a in model.associations:
        name = association_property_name(a.source, a.role_name, a.target)
        element = (a.source, a.role_name, a.target)
        register(properties, name, element, f"association {a.source}.{a.role_name}")
    return ModelNaming(properties=properties, attribute_classes=attribute_classes, classes=classes)


# --- generation -----------------------------------------------------------


def _annotation_expr(annotation: Annotation) -> ClassExpr:
    """Encode (primary, qualifiers) as a class expression. Qualifier order is
    kept by nesting one hasNext list cell per additional qualifier."""
    primary = Named(concept_name(annotation.primary))
    if not annotation.qualifiers:
        return primary

    def cell(index: int) -> ClassExpr:
        parts: list[ClassExpr] = [
            Named(OWL_LIST),
            Existential(HAS_CONTENTS, Named(concept_name(annotation.qualifiers[index]))),
        ]
        if index + 1 < len(annotation.qualifiers):
            parts.append(Existential(HAS_NEXT, cell(index + 1)))
        return Conjunction(tuple(parts))

    return Conjunction((primary, cell(0)))


def model_prefixes(model: UMLModel) -> dict[str, str]:
    """The prefix map of ``generate_ontology(model)``: ``c:`` names the project."""
    project = f"http://onco-rewriter.local/model/{model.project_name}#"
    return {**DEFAULT_PREFIXES, CLASS_PREFIX: project}


# model_facts' predicates besides hasAttribute, hasValue and the association properties
SUBCLASS_OF = "subClassOf"
ANNOTATED_BY = "annotatedBy"
SUBPROPERTY_OF = "subPropertyOf"


def model_facts(model: UMLModel, inherited: bool = False) -> Iterator[tuple[str, str, object]]:
    """The model as ``(subject, predicate, object)`` triples, one per axiom of
    ``generate_ontology`` and in its order; an association edge has its
    property as predicate. With ``inherited``, each class then repeats its
    proper ancestors' edges and HAS_ATTRIBUTE triples."""
    for cls in model.classes:
        c = class_name(cls.name)
        yield c, SUBCLASS_OF, UML_CLASS
        if cls.annotation is not None:
            yield c, ANNOTATED_BY, cls.annotation
        for attr in cls.attributes:
            a = attribute_class_name(cls.name, attr.name)
            yield a, SUBCLASS_OF, UML_ATTRIBUTE
            yield a, HAS_VALUE, DATATYPE_MAP[attr.datatype]
            if attr.annotation is not None:
                yield a, ANNOTATED_BY, attr.annotation
            yield c, HAS_ATTRIBUTE, a
        for assoc in model.associations_from(cls.name):
            prop = association_property_name(assoc.source, assoc.role_name, assoc.target)
            yield prop, SUBPROPERTY_OF, HAS_ASSOCIATION
            yield c, prop, class_name(assoc.target)
        for sup in dict.fromkeys(cls.superclasses):
            yield c, SUBCLASS_OF, class_name(sup)
        if not inherited:
            continue
        for ancestor in model.ancestors(cls.name):
            if ancestor == cls.name:
                continue  # a class on a superclass cycle: its own triples came above
            for assoc in model.associations_from(ancestor):
                prop = association_property_name(assoc.source, assoc.role_name, assoc.target)
                yield c, prop, class_name(assoc.target)
            for attr in model.class_named(ancestor).attributes:
                yield c, HAS_ATTRIBUTE, attribute_class_name(ancestor, attr.name)


def generate_ontology(model: UMLModel) -> AxiomSet:
    """Transform an annotated UML model into an EL axiom set: the
    transitivity of hasAssociation, then one axiom per triple of
    ``model_facts(model, inherited=True)``. Raises OntologyError, through
    ``model_naming``, when two model elements generate one name; that check
    makes every axiom unique, so none needs a duplicate check here. Only a
    superclass listed twice or a class that is its own ancestor would repeat
    one, and the walk skips both."""
    model_naming(model)
    axioms: list[Axiom] = [TransitiveProperty(HAS_ASSOCIATION)]
    for subject, predicate, obj in model_facts(model, inherited=True):
        if predicate == SUBPROPERTY_OF:
            axioms.append(SubPropertyOf(subject, obj))
            continue
        if predicate == SUBCLASS_OF:
            sup: ClassExpr = Named(obj)
        elif predicate == ANNOTATED_BY:
            sup = _annotation_expr(obj)
        elif predicate == HAS_VALUE:
            sup = DataExistential(HAS_VALUE, obj)
        else:
            sup = Existential(predicate, Named(obj))
        axioms.append(SubClassOf(Named(subject), sup))
    return AxiomSet(axioms=tuple(axioms), prefixes=model_prefixes(model))


class Facts(NamedTuple):
    """What ``reasoner.classify`` closes: every class name, and each name's
    direct superclasses, association edges ``(property, range)`` and
    attribute classes. Every name the tables mention is in ``names``."""

    names: set[str]
    direct_sup: dict[str, set[str]]
    direct_edges: dict[str, set[tuple[str, str]]]
    direct_attrs: dict[str, set[str]]


def ontology_facts(model: UMLModel, module: Iterable[tuple[str, str]]) -> Facts:
    """The Facts of ``generate_ontology(model)`` merged with a thesaurus
    module, from ``model_facts`` and the module's ``(child, parent)`` concept
    pairs, rendering no axiom. The inherited copies are left out: classify
    inherits them. An annotation gives its primary concept, and l:OWLList
    when it has qualifiers, as superclasses; its qualifiers are names only."""
    direct_sup: defaultdict[str, set[str]] = defaultdict(set)
    direct_edges: defaultdict[str, set[tuple[str, str]]] = defaultdict(set)
    direct_attrs: defaultdict[str, set[str]] = defaultdict(set)
    qualifiers: set[str] = set()
    for subject, predicate, obj in model_facts(model):
        if predicate == SUBCLASS_OF:
            direct_sup[subject].add(obj)
        elif predicate == ANNOTATED_BY:
            direct_sup[subject].add(concept_name(obj.primary))
            if obj.qualifiers:
                direct_sup[subject].add(OWL_LIST)
                qualifiers.update(map(concept_name, obj.qualifiers))
        elif predicate == HAS_ATTRIBUTE:
            direct_attrs[subject].add(obj)
        elif predicate not in (HAS_VALUE, SUBPROPERTY_OF):
            direct_edges[subject].add((predicate, obj))
    for child, parent in module:
        direct_sup[concept_name(child)].add(concept_name(parent))
    # edge ranges and attribute classes are classes with a superclass
    names = qualifiers.union(direct_sup, *direct_sup.values())
    return Facts(names, direct_sup, direct_edges, direct_attrs)


# --- EL conformance -------------------------------------------------------


def check_el_axiom(axiom: Axiom, position: int, violations: list[str], names: set[str]) -> None:
    """The EL rules, in one place. Checks the axiom at ``position``, appending
    each violation to ``violations`` and every name in class position to
    ``names``."""
    if isinstance(axiom, SubClassOf):
        _check_el_expr(axiom.sub, position, violations, names)
        _check_el_expr(axiom.sup, position, violations, names)
    elif not isinstance(axiom, (SubPropertyOf, TransitiveProperty)):
        violations.append(f"axiom {position}: unknown axiom kind {type(axiom).__name__}")


def _check_el_expr(expr, position, violations, names):
    if isinstance(expr, Named):
        names.add(expr.name)
    elif isinstance(expr, Conjunction):
        if len(expr.parts) < 2:
            violations.append(f"axiom {position}: conjunction with fewer than two parts")
        for part in expr.parts:
            _check_el_expr(part, position, violations, names)
    elif isinstance(expr, Existential):
        _check_el_expr(expr.filler, position, violations, names)
    elif isinstance(expr, DataExistential):
        if expr.datatype not in DATATYPE_MAP.values():
            violations.append(f"axiom {position}: unknown datatype '{expr.datatype}'")
    else:
        violations.append(f"axiom {position}: non-EL construct {type(expr).__name__}")


def el_conformance_report(axiom_set: AxiomSet) -> list[str]:
    """Structural EL check. Returns a list of violations, empty when the set
    only uses named classes, conjunction and existential restriction."""
    violations: list[str] = []
    names: set[str] = set()
    for position, axiom in enumerate(axiom_set.axioms):
        check_el_axiom(axiom, position, violations, names)
    return violations


# --- serialization --------------------------------------------------------


def _render_expr(expr: ClassExpr) -> str:
    if isinstance(expr, Named):
        return expr.name
    if isinstance(expr, Conjunction):
        return "ObjectIntersectionOf(" + " ".join(_render_expr(p) for p in expr.parts) + ")"
    if isinstance(expr, Existential):
        return f"ObjectSomeValuesFrom({expr.property_name} {_render_expr(expr.filler)})"
    if isinstance(expr, DataExistential):
        return f"DataSomeValuesFrom({expr.property_name} {expr.datatype})"
    raise OntologyError(f"cannot serialize {type(expr).__name__}")


def _render_axiom(axiom: Axiom) -> str:
    if isinstance(axiom, SubClassOf):
        return f"SubClassOf({_render_expr(axiom.sub)} {_render_expr(axiom.sup)})"
    if isinstance(axiom, SubPropertyOf):
        return f"SubObjectPropertyOf({axiom.sub} {axiom.sup})"
    if isinstance(axiom, TransitiveProperty):
        return f"TransitiveObjectProperty({axiom.property_name})"
    raise OntologyError(f"cannot serialize {type(axiom).__name__}")


def serialize_axioms(axiom_set: AxiomSet) -> str:
    canonical = (CLASS_PREFIX, UPPER_PREFIX, CONCEPT_PREFIX, LIST_PREFIX)
    extras = sorted(set(axiom_set.prefixes) - set(canonical))
    lines = [
        f"Prefix({prefix}:=<{axiom_set.prefixes[prefix]}>)"
        for prefix in (*canonical, *extras)
        if prefix in axiom_set.prefixes
    ]
    lines.append("")
    lines.extend(_render_axiom(a) for a in axiom_set.axioms)
    return "\n".join(lines) + "\n"


def _tokenize(line: str, lineno: int) -> list[str]:
    tokens = re.findall(r"[()]|[^\s()]+", line)
    if not tokens:
        raise AxiomParseError("empty axiom line", lineno)
    return tokens


class _TokenReader:
    def __init__(self, tokens: list[str], lineno: int):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise AxiomParseError("unexpected end of line", self.lineno)
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.take()
        if got != token:
            raise AxiomParseError(f"expected '{token}', got '{got}'", self.lineno)


# the most class constructors parse_axioms accepts nested in one expression;
# rendering, hashing and classification recurse a few frames per level, so
# this keeps a parsed axiom far from the interpreter's recursion limit
MAX_NESTING = 100


def _parse_expr(reader: _TokenReader, depth: int = 0) -> ClassExpr:
    head = reader.take()
    if head in ("ObjectIntersectionOf", "ObjectSomeValuesFrom") and depth == MAX_NESTING:
        message = f"class expression nested deeper than {MAX_NESTING} levels"
        raise AxiomParseError(message, reader.lineno)
    if head == "ObjectIntersectionOf":
        reader.expect("(")
        parts: list[ClassExpr] = []
        while reader.peek() != ")":
            parts.append(_parse_expr(reader, depth + 1))
        reader.expect(")")
        if len(parts) < 2:
            raise AxiomParseError("ObjectIntersectionOf needs at least two parts", reader.lineno)
        return Conjunction(tuple(parts))
    if head == "ObjectSomeValuesFrom":
        reader.expect("(")
        prop = reader.take()
        filler = _parse_expr(reader, depth + 1)
        reader.expect(")")
        return Existential(prop, filler)
    if head == "DataSomeValuesFrom":
        reader.expect("(")
        prop = reader.take()
        datatype = reader.take()
        reader.expect(")")
        return DataExistential(prop, datatype)
    if head in ("(", ")"):
        raise AxiomParseError(f"unexpected '{head}'", reader.lineno)
    return Named(head)


def _parse_axiom_line(line: str, lineno: int) -> Axiom:
    reader = _TokenReader(_tokenize(line, lineno), lineno)
    head = reader.take()
    if head == "SubClassOf":
        reader.expect("(")
        sub = _parse_expr(reader)
        sup = _parse_expr(reader)
        reader.expect(")")
        axiom: Axiom = SubClassOf(sub, sup)
    elif head == "SubObjectPropertyOf":
        reader.expect("(")
        sub_p = reader.take()
        sup_p = reader.take()
        reader.expect(")")
        axiom = SubPropertyOf(sub_p, sup_p)
    elif head == "TransitiveObjectProperty":
        reader.expect("(")
        prop = reader.take()
        reader.expect(")")
        axiom = TransitiveProperty(prop)
    else:
        raise AxiomParseError(f"unknown axiom kind '{head}'", lineno)
    if reader.peek() is not None:
        raise AxiomParseError(f"trailing tokens after axiom: '{reader.peek()}'", lineno)
    return axiom


def parse_axioms(document: str) -> AxiomSet:
    """Inverse of serialize_axioms: parse_axioms(serialize_axioms(x)) == x."""
    prefixes: dict[str, str] = {}
    axioms: list[Axiom] = []
    seen: set[Axiom] = set()
    for lineno, raw_line in enumerate(document.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("Prefix("):
            if not line.endswith(")"):
                raise AxiomParseError("malformed prefix declaration", lineno)
            body = line[len("Prefix(") : -1]
            if ":=" not in body:
                raise AxiomParseError("malformed prefix declaration", lineno)
            prefix, iri = body.split(":=", 1)
            prefix = prefix.rstrip(":")
            if not (iri.startswith("<") and iri.endswith(">")):
                raise AxiomParseError("prefix IRI must be enclosed in <>", lineno)
            prefixes[prefix] = iri[1:-1]
            continue
        axiom = _parse_axiom_line(line, lineno)
        if axiom in seen:
            raise AxiomParseError(f"duplicate axiom: {line}", lineno)
        seen.add(axiom)
        axioms.append(axiom)
    return AxiomSet(axioms=tuple(axioms), prefixes=prefixes)
