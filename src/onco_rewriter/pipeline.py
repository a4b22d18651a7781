"""Concept-level query rewriting into CQL.

The rewriting runs in eight stages: parse, UML extraction, data value
extraction, semantic validation, property path finding, data value
re-addition, translation to a bag-monoid comprehension, and translation of
the comprehension into a CQL query. Every stage is a pure function; the
driver calls them in turn, reading the CPU clock once per stage boundary
(``RewriteOutcome``), and keeps a provenance record of which class choices
and which association paths produced each emitted query.

Query texts use a small class-expression grammar::

    expr    := term ('and' term)*
    term    := NAME
             | 'hasAssociation' 'some' primary
             | 'hasAttribute' 'some' primary
             | 'hasValue' 'value' STRING
             | '(' expr ')'
    primary := NAME | '(' expr ')'
    NAME    := a letter or '_', then letters, digits or '_'
    STRING  := '"' ... '"', with \\" and \\\\ as escapes; any other backslash is kept as written

Letters and digits are what ``str.isalpha`` and ``str.isalnum`` accept, and
whitespace is what ``str.isspace`` accepts. Names are thesaurus concept
identifiers and keywords are case-sensitive.

A rewrite leaves no reference cycle behind, even when rejected: a recursive
helper lives at module level or is unbound in a ``finally``, and no frame
keeps an error whose traceback holds it. Cyclic garbage would wait for the
collector, whose passes land on whichever later query crosses its threshold.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from .cql import MAX_NESTING as CQL_MAX_NESTING
from .cql import NOT_XML, CqlAssociation, CqlAttribute, CqlGroup, CqlQuery, CqlTarget
from .model import InputError, Thesaurus, UMLModel, model_signature
from .module_extraction import extract_module, strip_disjoints
from .nodes import Node
from .ontology import (
    DEFAULT_PREFIXES,
    UML_ATTRIBUTE,
    UML_CLASS,
    AxiomSet,
    ModelNaming,
    OntologyError,
    concept_name,
    generate_ontology,  # noqa: F401 -- perfbench traces it through this namespace
    merge_axiom_sets,  # noqa: F401 -- likewise
    model_naming,
    ontology_facts,
    subclass_axioms,
)
from .reasoner import (
    AssociationPath,
    SubsumptionIndex,
    association_reachable,
    classify,
    find_paths,
    reach,
)

STAGES = (
    "parse",
    "umlExtract",
    "valueExtract",
    "validate",
    "pathFind",
    "valueReinsert",
    "mcc",
    "cql",
)


class PipelineError(Exception):
    """Base for stage failures; carries the name of the failing stage."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(message)


class QuerySyntaxError(PipelineError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__("parse", message)


class NoUmlCandidateError(PipelineError):
    def __init__(self, concept: str):
        self.concept = concept
        super().__init__("umlExtract", f"no UML candidate for concept '{concept}'")


class ValidationRejectedError(PipelineError):
    def __init__(self, failures: tuple[tuple[str, str, str], ...]):
        self.failures = failures
        details = "; ".join(f"{kind} {a} / {b}" for kind, a, b in failures)
        super().__init__("validate", f"query cannot be satisfied: {details}")


class NoPathError(PipelineError):
    def __init__(self, source: str, target: str):
        self.source = source
        self.target = target
        super().__init__("pathFind", f"no association path from {source} to {target}")


class NestingLimitError(PipelineError):
    def __init__(self, depth: int):
        self.depth = depth
        message = f"expansion nests {depth} CQL elements under Target, more than {CQL_MAX_NESTING}"
        super().__init__("pathFind", message)


class CandidateLimitError(PipelineError):
    """``at_least``: a path walk stopped at the limit, so ``count`` is a lower bound."""

    def __init__(self, stage: str, count: int, limit: int, at_least: bool = False):
        bound = "at least " if at_least else ""
        super().__init__(stage, f"candidate count {bound}{count} exceeds limit {limit}")


class MccError(PipelineError):
    def __init__(self, message: str):
        super().__init__("mcc", message)


# --- query AST -------------------------------------------------------------

# The hot builders make a node straight from its field tuple, running no
# Python code (nodes module); elsewhere ``Cls(...)`` takes keywords and defaults.
_new = tuple.__new__


class QueryNode(Node):
    __slots__ = ()


class ConceptRef(QueryNode):
    __slots__ = ()
    name: str


class UmlClassRef(QueryNode):
    __slots__ = ()
    name: str


class UmlAttributeRef(QueryNode):
    __slots__ = ()
    name: str


class And(QueryNode):
    __slots__ = ()
    items: tuple[QueryNode, ...]

    def __new__(cls, items: tuple[QueryNode, ...]):
        if len(items) < 2:
            raise ValueError("conjunction needs at least two items")
        return tuple.__new__(cls, (items,))


class HasAssociationSome(QueryNode):
    __slots__ = ()
    inner: QueryNode


class HasAttributeSome(QueryNode):
    __slots__ = ()
    inner: QueryNode


class HasValueEquals(QueryNode):
    __slots__ = ()
    literal: str


class AssocStep(QueryNode):
    """A concrete association step introduced by path expansion."""

    __slots__ = ()
    property_name: str
    inner: QueryNode


def _conjoin(items: list[QueryNode]) -> QueryNode:
    flat: list[QueryNode] = []
    for item in items:
        if isinstance(item, And):
            flat.extend(item.items)
        else:
            flat.append(item)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def _parts(node: QueryNode) -> tuple[QueryNode, ...]:
    return node.items if isinstance(node, And) else (node,)


# --- parsing ----------------------------------------------------------------

_KEYWORDS = frozenset({"and", "some", "value", "hasAssociation", "hasAttribute", "hasValue"})


# Tried in order, the alternatives cover every character, so the scan reads the
# whole text left to right: whitespace, a parenthesis, a string literal (its
# closing group is empty when the text ends inside it), a word, any other one.
_TOKEN = re.compile(r'(\s+)|([()])|"((?:[^"\\]|\\["\\]?)*)("?)|(\w+)|(.)', re.DOTALL)


def _unescape(body: str) -> str:
    return re.sub(r'\\(["\\])', r"\1", body)


def _quote(literal: str) -> str:
    """The string literal that scans back to ``literal``: the inverse of ``_unescape``."""
    return '"' + literal.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, 1-based position) tuples; kind is NAME, KEYWORD, STRING, "(" or ")"."""
    tokens = []
    for match in _TOKEN.finditer(text):
        space, paren, body, closing, word, other = match.groups()
        position = match.start() + 1
        if paren:
            tokens.append((paren, paren, position))
        elif body is not None:
            if not closing:
                raise QuerySyntaxError("unterminated string literal", position)
            tokens.append(("STRING", _unescape(body), position))
        elif word and (word[0].isalpha() or word[0] == "_"):
            tokens.append(("KEYWORD" if word in _KEYWORDS else "NAME", word, position))
        elif not space:
            raise QuerySyntaxError(f"unexpected character '{(word or other)[0]}'", position)
    return tokens


# Deepest parenthesis nesting a query may use. Real queries nest a few
# levels; the parser and the stages after it recurse a few frames per level,
# so this keeps every input far from the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.end = length + 1
        self.depth = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise QuerySyntaxError("unexpected end of query", self.end)
        self.pos += 1
        return token

    def expect_keyword(self, word: str) -> None:
        kind, text, position = self.take()
        if kind != "KEYWORD" or text != word:
            raise QuerySyntaxError(f"expected '{word}', got '{text}'", position)

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token is not None and token[0] == "KEYWORD" and token[1] == word

    def parse_expr(self) -> QueryNode:
        terms = [self.parse_term()]
        while self.at_keyword("and"):
            self.take()
            terms.append(self.parse_term())
        return _conjoin(terms)

    def parse_term(self) -> QueryNode:
        token = self.peek()
        if token is None or token[0] != "KEYWORD":
            return self.parse_primary()
        _, word, position = self.take()
        if word in ("hasAssociation", "hasAttribute"):
            self.expect_keyword("some")
            inner = self.parse_primary()
            if word == "hasAssociation":
                return HasAssociationSome(inner)
            return HasAttributeSome(inner)
        if word == "hasValue":
            self.expect_keyword("value")
            kind, literal, position = self.take()
            if kind != "STRING":
                raise QuerySyntaxError("expected a quoted string literal", position)
            return HasValueEquals(literal)
        raise QuerySyntaxError(f"unexpected keyword '{word}'", position)

    def parse_primary(self) -> QueryNode:
        kind, text, position = self.take()
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise QuerySyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", position
                )
            self.depth += 1
            expr = self.parse_expr()
            self.depth -= 1
            kind, _, position = self.take()
            if kind != ")":
                raise QuerySyntaxError("expected ')'", position)
            return expr
        if kind == "NAME":
            return ConceptRef(text)
        raise QuerySyntaxError(
            f"expected a concept name or parenthesized expression, got '{text}'", position
        )


def _check_structure(root: QueryNode) -> None:
    """Shape constraints beyond the grammar: each class context names exactly
    one concept, data values live only under attribute restrictions, and an
    attribute restriction combines one concept with data values only."""
    _check_class_context(root, "the query")


def _check_class_context(node: QueryNode, where: str) -> None:
    concepts = [p for p in _parts(node) if isinstance(p, ConceptRef)]
    if len(concepts) != 1:
        raise QuerySyntaxError(f"{where} must name exactly one concept")
    # a ConceptRef needs no check, and the parser builds no other part (nor And in And)
    for part in _parts(node):
        if isinstance(part, HasAssociationSome):
            _check_class_context(part.inner, "an association target")
        elif isinstance(part, HasAttributeSome):
            _check_attribute_context(part.inner)
        elif isinstance(part, HasValueEquals):
            raise QuerySyntaxError("hasValue is only allowed inside a hasAttribute restriction")


def _check_attribute_context(node: QueryNode) -> None:
    concepts = [p for p in _parts(node) if isinstance(p, ConceptRef)]
    if len(concepts) != 1:
        raise QuerySyntaxError("an attribute restriction must name exactly one concept")
    for part in _parts(node):
        if not isinstance(part, (ConceptRef, HasValueEquals)):
            raise QuerySyntaxError(
                "an attribute restriction may only combine a concept with data values"
            )


def parse_query(text: str) -> QueryNode:
    """Parse a concept-level query text into its AST."""
    parser = _Parser(_tokenize(text), len(text))
    expr = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        _, text, position = trailing
        raise QuerySyntaxError(f"unexpected trailing input '{text}'", position)
    _check_structure(expr)
    return expr


# --- UML extraction ---------------------------------------------------------


@dataclass(frozen=True)
class Provenance:
    """Which UML-class choices and which paths produced a candidate."""

    concept_choices: tuple[tuple[str, str], ...] = ()
    path_choices: tuple[tuple[str, str, tuple[str, ...]], ...] = ()


@dataclass(frozen=True)
class CandidateQuery:
    ast: QueryNode
    provenance: Provenance = field(default_factory=Provenance)


class LazyProduct(Sequence):
    """``build(combo)`` for every ``combo`` of ``itertools.product(*choices)``,
    in that order, each built only when read. ``size`` is known before any
    element exists, so a bound can be checked without building; unlike
    ``len()``, it holds counts past ``sys.maxsize``."""

    def __init__(self, choices: Sequence[Sequence], build: Callable[[tuple], object]):
        self.choices = choices
        self.build = build
        self.size = math.prod(len(options) for options in choices)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, position: int):
        if position < 0:
            position += self.size
        if not 0 <= position < self.size:
            raise IndexError("product index out of range")
        combo = []
        for options in reversed(self.choices):
            position, digit = divmod(position, len(options))
            combo.append(options[digit])
        return self.build(tuple(reversed(combo)))

    def __iter__(self):
        return map(self.build, itertools.product(*self.choices))


def extract_uml(ast: QueryNode, index: SubsumptionIndex) -> LazyProduct:
    """Replace every concept reference by each UML class (or attribute class)
    entailed to be subsumed by it; independent choices multiply out. Each
    concept's matches are sorted, so the product comes ordered
    lexicographically by the chosen names."""
    occurrences: list[tuple[str, list[str]]] = []
    _collect_matches(ast, False, index, occurrences)

    def build(combo: tuple[str, ...]) -> CandidateQuery:
        choices = tuple((concept, name) for (concept, _), name in zip(occurrences, combo))
        return CandidateQuery(
            ast=_resolve(ast, False, iter(combo)), provenance=Provenance(concept_choices=choices)
        )

    return LazyProduct([matches for _, matches in occurrences], build)


def _collect_matches(
    node: QueryNode, attribute_position: bool, index: SubsumptionIndex, occurrences: list
) -> None:
    if isinstance(node, ConceptRef):
        kind = UML_ATTRIBUTE if attribute_position else UML_CLASS
        subs = index.subclasses.get(f"n:{node.name}", ())
        matches = sorted(x for x in subs if x.startswith("c:") and kind in index.subsumers[x])
        if not matches:
            raise NoUmlCandidateError(node.name)
        occurrences.append((node.name, matches))
    elif isinstance(node, And):
        for item in node.items:
            _collect_matches(item, attribute_position, index, occurrences)
    elif isinstance(node, HasAssociationSome):
        _collect_matches(node.inner, False, index, occurrences)
    elif isinstance(node, HasAttributeSome):
        _collect_matches(node.inner, True, index, occurrences)


def _resolve(node: QueryNode, attribute_position: bool, chosen) -> QueryNode:
    """``node`` with each concept reference replaced by the next class name
    of ``chosen``, in ``extract_uml``'s order."""
    if isinstance(node, ConceptRef):
        name = next(chosen)
        return UmlAttributeRef(name) if attribute_position else UmlClassRef(name)
    if isinstance(node, And):
        return And(tuple(_resolve(i, attribute_position, chosen) for i in node.items))
    if isinstance(node, HasAssociationSome):
        return HasAssociationSome(_resolve(node.inner, False, chosen))
    if isinstance(node, HasAttributeSome):
        return HasAttributeSome(_resolve(node.inner, True, chosen))
    return node


# --- data value extraction / re-addition -------------------------------------

@dataclass(frozen=True)
class ValueBinding:
    """The data values of one attribute restriction, the ``ordinal``-th in
    depth-first order of those no other attribute restriction encloses (path
    expansion keeps that order and never enters a restriction). ``stripped``
    is its argument without the values, ``written`` its argument as written."""

    ordinal: int
    stripped: QueryNode
    written: QueryNode


def extract_data_values(ast: QueryNode) -> tuple[QueryNode, list[ValueBinding]]:
    """Remove every data value, collapsing single-child conjunctions. Each
    attribute restriction that held values gets one binding, in depth-first
    order; one nested in another belongs to the outer one's binding. A
    subtree holding no value comes back as the same object; with no values,
    ``ast`` comes back."""
    bindings: list[ValueBinding] = []
    ordinals = itertools.count()

    def walk(node: QueryNode, anchored: bool, enclosed: bool) -> QueryNode:
        # anchored: a data value here belongs to an attribute restriction;
        # enclosed: an attribute restriction holds this node
        if isinstance(node, And):
            kept: list[QueryNode] = []
            for item in node.items:
                if not isinstance(item, HasValueEquals):
                    kept.append(walk(item, anchored, enclosed))
                elif not anchored:
                    raise PipelineError(
                        "valueExtract", "data value outside an attribute restriction"
                    )
                elif unwritable := NOT_XML.search(item.literal):
                    code = ord(unwritable.group())
                    raise PipelineError(
                        "valueExtract", f"data value holds U+{code:04X}, which CQL cannot carry"
                    )
            if not kept:
                raise PipelineError("valueExtract", "attribute restriction with values only")
            if len(kept) == 1:
                return kept[0]
            unchanged = len(kept) == len(node.items) and all(map(operator.is_, kept, node.items))
            return node if unchanged else And(tuple(kept))
        if isinstance(node, HasAttributeSome):
            inner = walk(node.inner, True, True)
            ordinal = None if enclosed else next(ordinals)
            if ordinal is not None and inner is not node.inner:
                bindings.append(ValueBinding(ordinal, inner, node.inner))
            return node if inner is node.inner else HasAttributeSome(inner)
        if isinstance(node, HasAssociationSome):
            inner = walk(node.inner, False, enclosed)
            return node if inner is node.inner else HasAssociationSome(inner)
        if isinstance(node, AssocStep):
            inner = walk(node.inner, False, enclosed)
            return node if inner is node.inner else AssocStep(node.property_name, inner)
        if isinstance(node, HasValueEquals):
            raise PipelineError("valueExtract", "data value must be conjoined with a concept")
        return node

    try:
        return walk(ast, False, False), bindings
    finally:
        del walk  # no reference cycle is left, on any exit (module docstring)


def reinsert_data_values(ast: QueryNode, bindings: list[ValueBinding]) -> QueryNode:
    """Put each binding's written argument back into its attribute
    restriction, which must still hold the stripped one. A subtree in which
    nothing is restored comes back as the same object, so only the spine
    above a restored restriction is rebuilt; with no bindings, ``ast``
    comes back."""
    if not bindings:
        return ast
    pending = {binding.ordinal: binding for binding in bindings}
    ordinals = itertools.count()
    def walk(node: QueryNode) -> QueryNode:
        if not pending:
            return node
        if isinstance(node, HasAttributeSome):
            binding = pending.get(next(ordinals))
            if binding is None or node.inner != binding.stripped:
                return node
            del pending[binding.ordinal]
            return _new(HasAttributeSome, (binding.written,))
        if isinstance(node, And):
            items = node.items
            walked = tuple(map(walk, items))
            return node if all(map(operator.is_, walked, items)) else _new(And, (walked,))
        if isinstance(node, HasAssociationSome):
            inner = walk(node.inner)
            return node if inner is node.inner else _new(HasAssociationSome, (inner,))
        if isinstance(node, AssocStep):
            inner = walk(node.inner)
            return node if inner is node.inner else _new(AssocStep, (node.property_name, inner))
        return node

    result = walk(ast)
    del walk  # no reference cycle is left (module docstring)
    if pending:
        raise PipelineError(
            "valueReinsert", "binding address unresolvable: no matching attribute restriction"
        )
    return result


# --- semantic validation ------------------------------------------------------


@dataclass(frozen=True)
class ValidationOutcome:
    ok: bool
    failures: tuple[tuple[str, str, str], ...] = ()


def _context_class(node: QueryNode) -> str:
    for part in _parts(node):
        if isinstance(part, UmlClassRef):
            return part.name
    raise PipelineError("validate", "context without a resolved class")


def _context_attribute(node: QueryNode) -> str:
    for part in _parts(node):
        if isinstance(part, UmlAttributeRef):
            return part.name
    raise PipelineError("validate", "attribute restriction without a resolved attribute class")


def _relations(node: QueryNode) -> list[tuple[str, str, str]]:
    """Each relation the query fixes between two of its classes, in
    validation order: ``("attribute", class, attribute)`` for an attribute
    restriction and ``("association", source, target)`` for an association
    restriction, a context's parts in order, each association's target
    context walked right after it. The association relations, in this order,
    are also the occurrences that path finding expands."""
    relations: list[tuple[str, str, str]] = []
    _add_relations(node, _context_class(node), relations)
    return relations


def _add_relations(node: QueryNode, cls: str, relations: list[tuple[str, str, str]]) -> None:
    for part in _parts(node):
        if isinstance(part, HasAttributeSome):
            relations.append(("attribute", cls, _context_attribute(part.inner)))
        elif isinstance(part, HasAssociationSome):
            target = _context_class(part.inner)
            relations.append(("association", cls, target))
            _add_relations(part.inner, target, relations)
        elif isinstance(part, AssocStep):
            _add_relations(part.inner, _context_class(part.inner), relations)


def _related(index: SubsumptionIndex, kind: str, source: str, target: str) -> bool:
    """Whether one relation holds: the attribute belongs to its class, or the
    association target is reachable from its source."""
    if kind == "attribute":
        return target in index.attribute_of.get(source, frozenset())
    return association_reachable(index, source, target)


def validate_semantics(stripped: QueryNode, index: SubsumptionIndex) -> ValidationOutcome:
    """Check that every attribute belongs to its class and every association
    target is reachable from its source."""
    failures = tuple(r for r in _relations(stripped) if not _related(index, *r))
    return ValidationOutcome(ok=not failures, failures=failures)


# --- property path finding ------------------------------------------------------


def _chain_from_path(path: AssociationPath, final_inner: QueryNode) -> QueryNode:
    node = _new(AssocStep, (path.steps[-1][0], final_inner))
    for prop, rng in reversed(path.steps[:-1]):
        items = (_new(UmlClassRef, (rng,)), node)
        node = _new(AssocStep, (prop, _new(And, (items,))))
    return node


def _association_paths(
    index: SubsumptionIndex,
    pairs: list[tuple[str, str]],
    max_nodes: int,
    cap: int | None,
) -> list[tuple[str, str, list[AssociationPath]]]:
    """Each (source, target) of ``pairs`` with ``find_paths``' result for it
    under ``cap``; NoPathError at the first pair without a path, so a pair
    without a path drops a combination before any count is compared."""
    occurrences = []
    for source, target in pairs:
        paths = find_paths(index, source, target, max_nodes, cap)
        if not paths:
            raise NoPathError(source, target)
        occurrences.append((source, target, paths))
    return occurrences


def find_property_paths(
    stripped: QueryNode,
    index: SubsumptionIndex,
    max_nodes: int = 16,
    cap: int | None = None,
) -> LazyProduct:
    """Replace every transitive-association restriction by each concrete role
    chain that realizes it; independent occurrences multiply out in the path
    order of the reasoner. Each occurrence's walk stops past ``cap`` paths
    (``find_paths``), so a product holding a list longer than ``cap`` is
    only counted, never built; without a cap every path is listed."""
    relations = _relations(stripped)
    pairs = [(source, target) for kind, source, target in relations if kind == "association"]
    occurrences = _association_paths(index, pairs, max_nodes, cap)

    def build(combo: tuple[AssociationPath, ...]) -> CandidateQuery:
        path_choices = tuple(
            (source, target, path.properties)
            for (source, target, _), path in zip(occurrences, combo)
        )
        return CandidateQuery(
            ast=_expand(stripped, iter(combo)), provenance=Provenance(path_choices=path_choices)
        )

    return LazyProduct([paths for _, _, paths in occurrences], build)


def _expand(node: QueryNode, chosen) -> QueryNode:
    """``node`` with each association restriction replaced by the chain of
    the next path of ``chosen``, in ``find_property_paths``' order."""
    if isinstance(node, And):
        return And(tuple(_expand(i, chosen) for i in node.items))
    if isinstance(node, HasAssociationSome):
        path = next(chosen)
        return _chain_from_path(path, _expand(node.inner, chosen))
    return node


def cql_depth(
    resolved: QueryNode,
    expansions: LazyProduct,
    max_nodes: int = 16,
    cap: int | None = None,
    index: SubsumptionIndex | None = None,
) -> int:
    """The most elements ``to_xml`` nests under Target for any expansion of
    the resolved query, counting one per Association, Group and Attribute.
    ``expansions`` is ``find_property_paths``' result for ``resolved`` with
    its data values stripped, walked under ``max_nodes`` and ``cap``; its
    occurrences come in preorder. Only path lengths vary between expansions,
    so the deepest one takes each occurrence's longest path. An occurrence
    holding more than ``cap`` paths was cut short, so it takes a bound
    instead: ``max_nodes - 1`` steps, or fewer when its source reaches fewer
    other classes (``reach``), as a simple path visits each at most once.
    No class name is read, so the parsed query gives the depth of each of
    its resolutions."""
    longest = (
        min(max_nodes - 1, len(reach(index, paths[0].source_class) - {paths[0].source_class}))
        if cap is not None and len(paths) > cap
        else max(len(path.steps) for path in paths)
        for paths in expansions.choices
    )

    def height(node: QueryNode) -> int:
        heights = []
        for part in _parts(node):
            if isinstance(part, HasAssociationSome):
                heights.append(next(longest) + height(part.inner))
            elif isinstance(part, HasAttributeSome):
                heights.extend(1 for p in _parts(part.inner) if isinstance(p, HasValueEquals))
        # one item sits directly under its parent; two or more go in a Group
        return 1 + max(heights) if len(heights) > 1 else sum(heights)

    depth = height(resolved)
    del height  # no reference cycle is left (module docstring)
    return depth


def check_cql_nesting(
    resolved: QueryNode, expansions: LazyProduct, max_nodes: int, cap: int, index: SubsumptionIndex
) -> None:
    """Raise NestingLimitError when an expansion would serialize to CQL
    nested deeper than ``cql.parse_xml`` accepts. A walk cut at ``cap``
    counts at its bound (``cql_depth``, which reads ``index``), so this
    error wins over the candidate limit that the cut walk will trip."""
    # without a walk: each occurrence adds at most max_nodes - 1 Associations
    # and one Group, and the query's own context a Group and an Attribute
    if len(expansions.choices) * max_nodes + 2 <= CQL_MAX_NESTING:
        return
    depth = cql_depth(resolved, expansions, max_nodes, cap, index)
    if depth > CQL_MAX_NESTING:
        raise NestingLimitError(depth)


# --- monoid comprehension ---------------------------------------------------------


@dataclass(frozen=True)
class Monoid:
    """A collection monoid: associative accumulator with identity and a unit
    function building singleton collections."""

    accumulator: str
    identity: str
    unit: str


BAG_MONOID = Monoid(accumulator="⊎", identity="empty bag", unit="singleton bag")


class ExtentGenerator(Node):
    __slots__ = ()
    var: str
    class_name: str


class PathGenerator(Node):
    __slots__ = ()
    var: str
    source_var: str
    role_name: str


class TypeBind(Node):
    __slots__ = ()
    var: str
    class_name: str


class Filter(Node):
    __slots__ = ()
    var: str
    attribute_name: str
    predicate: str
    literal: str


Qualifier = ExtentGenerator | PathGenerator | TypeBind | Filter


class MccComprehension(Node):
    __slots__ = ()
    head_var: str
    qualifiers: tuple[Qualifier, ...]
    monoid: Monoid = BAG_MONOID


def _predicate_for(literal: str) -> str:
    return "LIKE" if ("%" in literal or "_" in literal) else "EQUAL_TO"


class _VarAllocator:
    """Variables named by the first letter of their basis: ``x``, then
    ``x2``, ``x3``, ... A letter holds no digit, so no two letters' names
    meet and one counter per letter suffices."""

    def __init__(self):
        self.counts: dict[str, int] = {}

    def fresh(self, basis: str) -> str:
        for ch in basis:
            if ch.isalpha():
                first = ch.lower()
                break
        else:
            first = "v"
        count = self.counts[first] = self.counts.get(first, 0) + 1
        return first if count == 1 else f"{first}{count}"


def to_mcc(ast: QueryNode, naming: ModelNaming) -> MccComprehension:
    """Translate a fully path-expanded query into a bag comprehension. The
    header variable ranges over the first class; each association step adds a
    path generator plus a type restriction and each data value a filter."""
    qualifiers: list[Qualifier] = []
    alloc = _VarAllocator()
    def visit(node: QueryNode, var: str) -> None:
        for part in _parts(node):
            if isinstance(part, AssocStep):
                role = naming.role_of(part.property_name)
                target_class = naming.bare_class(_context_class(part.inner))
                child = alloc.fresh(role)
                qualifiers.append(_new(PathGenerator, (child, var, role)))
                qualifiers.append(_new(TypeBind, (child, target_class)))
                visit(part.inner, child)
            elif isinstance(part, UmlClassRef):
                continue
            elif isinstance(part, HasAttributeSome):
                attr_name = naming.attribute_of(_context_attribute(part.inner))
                for sub in _parts(part.inner):
                    if isinstance(sub, HasValueEquals):
                        predicate = _predicate_for(sub.literal)
                        qualifiers.append(_new(Filter, (var, attr_name, predicate, sub.literal)))
            elif isinstance(part, HasAssociationSome):
                raise MccError("unexpanded association restriction")
            elif isinstance(part, HasValueEquals):
                raise MccError("data value outside an attribute restriction")

    head_class = naming.bare_class(_context_class(ast))
    head_var = alloc.fresh(head_class)
    qualifiers.append(_new(ExtentGenerator, (head_var, head_class)))
    try:
        visit(ast, head_var)
    finally:
        del visit  # no reference cycle is left, on any exit (module docstring)
    return _new(MccComprehension, (head_var, tuple(qualifiers), BAG_MONOID))


def mcc_to_cql(comprehension: MccComprehension, model: UMLModel) -> CqlQuery:
    """Translate a comprehension into CQL: the header variable's type becomes
    the target, each generator pair a nested association, each filter an
    attribute restriction."""
    prefix = model.package_prefix

    def qualified(cls: str) -> str:
        if not model.has_class(cls):
            raise MccError(f"class '{cls}' is not part of model '{model.project_name}'")
        return f"{prefix}.{cls}" if prefix else cls

    classes: dict[str, str] = {}
    entries: dict[str, list[tuple]] = {}
    qualifiers = comprehension.qualifiers
    if not qualifiers or not isinstance(qualifiers[0], ExtentGenerator):
        raise MccError("the first qualifier must introduce the header variable")
    head = qualifiers[0]
    if head.var != comprehension.head_var:
        raise MccError("header variable is not introduced by the first qualifier")
    classes[head.var] = head.class_name
    entries[head.var] = []

    pending_bind: str | None = None
    for qualifier in qualifiers[1:]:
        if isinstance(qualifier, ExtentGenerator):
            raise MccError("only the first qualifier may be an extent generator")
        if isinstance(qualifier, PathGenerator):
            if qualifier.source_var not in classes:
                raise MccError(f"variable '{qualifier.source_var}' used before introduction")
            if qualifier.var in classes:
                raise MccError(f"variable '{qualifier.var}' introduced twice")
            entries[qualifier.source_var].append(("assoc", qualifier.var, qualifier.role_name))
            entries[qualifier.var] = []
            classes[qualifier.var] = ""  # type bound next
            pending_bind = qualifier.var
        elif isinstance(qualifier, TypeBind):
            if qualifier.var != pending_bind:
                raise MccError(f"type restriction on '{qualifier.var}' without its generator")
            classes[qualifier.var] = qualifier.class_name
            pending_bind = None
        elif isinstance(qualifier, Filter):
            if qualifier.var not in classes or not classes[qualifier.var]:
                raise MccError(f"filter on unbound variable '{qualifier.var}'")
            entries[qualifier.var].append(("filter", qualifier))
    if pending_bind is not None:
        raise MccError(f"generator '{pending_bind}' lacks a type restriction")

    def assemble(var: str):
        items = []
        for entry in entries[var]:
            if entry[0] == "assoc":
                _, child_var, role = entry
                name = qualified(classes[child_var])
                items.append(_new(CqlAssociation, (name, role, assemble(child_var))))
            else:
                f = entry[1]
                items.append(_new(CqlAttribute, (f.attribute_name, f.predicate, f.literal)))
        if not items:
            return None
        if len(items) == 1:
            return items[0]
        return _new(CqlGroup, ("AND", tuple(items)))

    try:
        target = _new(CqlTarget, (qualified(classes[head.var]), assemble(head.var)))
        return CqlQuery(target)
    finally:
        del assemble  # no reference cycle is left, on any exit (module docstring)


# --- canonical pretty-printing -----------------------------------------------------


def format_query(node: QueryNode, naming: ModelNaming | None = None) -> str:
    """Canonical one-line rendering of a query AST. Association chains print
    flat; composite existential arguments are parenthesized."""
    if isinstance(node, (ConceptRef, UmlClassRef, UmlAttributeRef)):
        return node.name
    if isinstance(node, HasValueEquals):
        return f"hasValue value {_quote(node.literal)}"
    if isinstance(node, And):
        return " and ".join(format_query(i, naming) for i in node.items)
    if isinstance(node, HasAssociationSome):
        return f"hasAssociation some {_format_argument(node.inner, naming)}"
    if isinstance(node, HasAttributeSome):
        return f"hasAttribute some {_format_argument(node.inner, naming)}"
    if isinstance(node, AssocStep):
        role = naming.role_of(node.property_name) if naming else node.property_name
        inner = node.inner
        if (
            isinstance(inner, And)
            and len(inner.items) == 2
            and isinstance(inner.items[0], UmlClassRef)
            and isinstance(inner.items[1], AssocStep)
        ):
            return (
                f"hasAssociation({role}) some {inner.items[0].name}"
                f" and {format_query(inner.items[1], naming)}"
            )
        return f"hasAssociation({role}) some {_format_argument(inner, naming)}"
    raise ValueError(f"cannot format {type(node).__name__}")


def _format_argument(node: QueryNode, naming: ModelNaming | None) -> str:
    if isinstance(node, (ConceptRef, UmlClassRef, UmlAttributeRef)):
        return node.name
    return f"({format_query(node, naming)})"


def format_comprehension(comprehension: MccComprehension) -> str:
    """Canonical rendering of a comprehension, e.g.
    ``⊎{ s ‖ s ← SNP, g ← s.gene, g ← Gene, g.symbol = "TGFB1" }``."""
    rendered: list[str] = []
    for qualifier in comprehension.qualifiers:
        if isinstance(qualifier, ExtentGenerator):
            rendered.append(f"{qualifier.var} ← {qualifier.class_name}")
        elif isinstance(qualifier, PathGenerator):
            rendered.append(f"{qualifier.var} ← {qualifier.source_var}.{qualifier.role_name}")
        elif isinstance(qualifier, TypeBind):
            rendered.append(f"{qualifier.var} ← {qualifier.class_name}")
        else:
            op = {"EQUAL_TO": "=", "LIKE": "LIKE"}.get(qualifier.predicate, qualifier.predicate)
            literal = _quote(qualifier.literal)
            rendered.append(f"{qualifier.var}.{qualifier.attribute_name} {op} {literal}")
    body = ", ".join(rendered)
    acc = comprehension.monoid.accumulator
    return f"{acc}{{ {comprehension.head_var} ‖ {body} }}"


# --- the rewrite driver ---------------------------------------------------------------


@dataclass(frozen=True)
class RewriteOptions:
    """Bounds for one rewrite, and whether it builds ``"all"`` results or the ``"first"``."""

    max_nodes: int = 16
    candidate_limit: int = 64
    selection: str = "all"

    def __post_init__(self):
        # a path has at least two nodes; checked here so no stage runs on a budget no path fits
        if self.max_nodes < 2:
            raise InputError("max_nodes must be at least 2")
        if self.selection not in ("all", "first"):
            raise InputError(f"selection must be 'all' or 'first', not {self.selection!r}")


@dataclass(frozen=True)
class RewriteContext:
    """What the per-query stages read, prepared once per model."""

    model: UMLModel
    naming: ModelNaming
    index: SubsumptionIndex


@dataclass(frozen=True)
class RewriteResult:
    cql: CqlQuery
    provenance: Provenance
    resolved: QueryNode
    stripped: QueryNode
    expanded: QueryNode
    restored: QueryNode
    mcc: MccComprehension


@dataclass(frozen=True)
class RewriteOutcome:
    """``durations_us`` holds each stage's process CPU µs: one clock read per
    stage boundary, each span since the previous read charged to the stage
    it ends, so glue counts toward the next and the eight sum to the whole."""

    results: tuple[RewriteResult, ...]
    durations_us: dict[str, float]
    dropped: tuple[tuple[Provenance, str], ...] = ()


def _module_pairs(model: UMLModel, thesaurus: Thesaurus) -> tuple[tuple[str, str], ...]:
    """The concept pairs of the disjointness-free thesaurus' module for the
    model's annotation signature. Raises OntologyError naming the first
    (sorted) annotation concept the thesaurus does not declare; a declared
    one need not occur in any kept pair (a root, or a concept in no SUB line)."""
    signature = model_signature(model)
    undeclared = signature.concept_names.difference(thesaurus.concepts)
    if undeclared:
        raise OntologyError(f"annotation concept '{min(undeclared)}' is not in the thesaurus")
    return extract_module(strip_disjoints(thesaurus), signature)


def thesaurus_module(model: UMLModel, thesaurus: Thesaurus) -> AxiomSet:
    """The module as the ``n:`` axioms ``ontogen`` and ``module`` write."""
    named = ((concept_name(c), concept_name(p)) for c, p in _module_pairs(model, thesaurus))
    return subclass_axioms(named, {"n": DEFAULT_PREFIXES["n"]})


def prepare_context(model: UMLModel, thesaurus: Thesaurus) -> RewriteContext:
    """Classify the model's facts with the thesaurus module's subsumptions,
    rendering no axiom, and keep the index. Raises the undeclared-concept
    OntologyError first, then ``model_naming``'s."""
    module = _module_pairs(model, thesaurus)
    naming = model_naming(model)
    index = classify(ontology_facts(model, module))
    return RewriteContext(model=model, naming=naming, index=index)


def _check_count(expansions: LazyProduct, planned: int, limit: int) -> None:
    """CandidateLimitError when ``planned`` plus the product's size passes
    ``limit``. Its paths were walked under the cap ``limit - planned``, so a
    list longer than that was cut, and the count is then a lower bound."""
    budget = limit - planned
    if expansions.size > budget:
        cut = any(len(paths) > budget for paths in expansions.choices)
        raise CandidateLimitError("pathFind", planned + expansions.size, limit, cut)


def _plan(
    ast: QueryNode,
    candidates: LazyProduct,
    index: SubsumptionIndex,
    options: RewriteOptions,
    lap: Callable,
) -> tuple[list[tuple[str, ...]], list[tuple[Provenance, str]]]:
    """The combinations of ``extract_uml``'s product worth building, in
    product order, and the others with why each is dropped, building no
    candidate. Only class names differ between candidates, so the query's
    relations are read once, and each combination's validation failures,
    missing path and expansion count come from tables holding each distinct
    class pair once. Raises the last drop's error when every combination is
    dropped, and CandidateLimitError (on the running expansion count) or
    NestingLimitError at the first combination that trips it. Each pair's
    walk stops past the budget the limit leaves, and every pair of a
    combination is walked before its count is compared; ``lap`` ends each stage."""
    # at most candidate_limit combinations: all are validated before any path
    combos = list(itertools.product(*candidates.choices))
    # resolving each concept occurrence to its own position gives the
    # query's relations as pairs of positions in a combination
    template = candidates.build(tuple(range(len(candidates.choices))))
    relations = _relations(template.ast)
    related: dict[tuple[str, str, str], bool] = {}
    rejected = []
    for combo in combos:
        failures = []
        for kind, i, j in relations:
            relation = (kind, combo[i], combo[j])
            holds = related.get(relation)
            if holds is None:
                holds = related[relation] = _related(index, *relation)
            if not holds:
                failures.append(relation)
        rejected.append(failures)
    lap("validate")

    concepts = [concept for concept, _ in template.provenance.concept_choices]
    associations = [(i, j) for kind, i, j in relations if kind == "association"]
    survivors = []
    dropped = []
    planned = 0
    last_error: PipelineError | None = None
    try:
        for combo, failures in zip(combos, rejected):
            budget = options.candidate_limit - planned
            error: PipelineError | None = None
            if failures:
                error = ValidationRejectedError(tuple(failures))
            else:
                pairs = [(combo[i], combo[j]) for i, j in associations]
                try:
                    occurrences = _association_paths(index, pairs, options.max_nodes, budget)
                except NoPathError as no_path:
                    error = no_path
            if error is not None:
                dropped.append((Provenance(tuple(zip(concepts, combo))), str(error)))
                last_error = error
                continue
            # the paths each occurrence may take; no expansion is built from them
            expansions = LazyProduct([paths for *_, paths in occurrences], tuple)
            check_cql_nesting(ast, expansions, options.max_nodes, budget, index)
            _check_count(expansions, planned, options.candidate_limit)
            planned += expansions.size
            survivors.append(combo)
        if not survivors:
            raise last_error
        return lap("pathFind", (survivors, dropped))
    finally:
        # a caught or raised error's traceback holds this frame: unbind it
        error = last_error = None


def rewrite_prepared(
    context: RewriteContext, text: str, options: RewriteOptions | None = None
) -> RewriteOutcome:
    """Run the eight rewriting stages over a prepared context, in two phases.

    The plan checks every UML candidate and counts the expansions, building
    none; the candidate limit is checked on the running count, and every
    path walk stops past the budget the limit leaves. Each class pair's
    paths are listed once per context (``find_paths`` keeps them on the
    index). With several candidates, ``_plan`` checks each from per-pair
    tables, and only the survivors are resolved and run through valueExtract
    and pathFind. A lone candidate shares no pair with another, so it is
    resolved and checked directly: valueExtract, validate, pathFind. The
    build then runs valueReinsert, mcc and cql for every expansion, or only
    for the first under ``selection="first"``. So a later candidate's plan error
    (``CandidateLimitError``, ``NestingLimitError``) is raised before an
    earlier candidate's build error (``MccError``, an unresolvable binding);
    the build errors signal broken internal invariants, not rejected input.
    Each ``lap(stage, value)`` ends ``stage`` with one clock read (``RewriteOutcome``).
    """
    options = options or RewriteOptions()
    durations = dict.fromkeys(STAGES, 0.0)
    # process CPU clock: monotonic and immune to scheduler preemption,
    # which would dwarf microsecond stages
    last = time.process_time_ns()

    def lap(stage: str, value=None):
        nonlocal last
        now = time.process_time_ns()
        durations[stage] += (now - last) / 1000.0
        last = now
        return value

    ast = lap("parse", parse_query(text))
    candidates = lap("umlExtract", extract_uml(ast, context.index))
    limit = options.candidate_limit
    if candidates.size > limit:
        raise CandidateLimitError("umlExtract", candidates.size, limit)

    first = options.selection == "first"
    plans: list[tuple[CandidateQuery, QueryNode, list[ValueBinding], LazyProduct]] = []
    dropped: list[tuple[Provenance, str]] = []
    if candidates.size > 1:
        survivors, dropped = _plan(ast, candidates, context.index, options, lap)
        # every survivor has at least one expansion, so "first" builds one
        built = lap("umlExtract", list(map(candidates.build, survivors[: 1 if first else None])))
        for candidate in built:
            stripped, bindings = lap("valueExtract", extract_data_values(candidate.ast))
            expansions = find_property_paths(stripped, context.index, options.max_nodes, limit)
            plans.append(lap("pathFind", (candidate, stripped, bindings, expansions)))
    else:
        (candidate,) = lap("umlExtract", list(candidates))
        stripped, bindings = lap("valueExtract", extract_data_values(candidate.ast))
        outcome = lap("validate", validate_semantics(stripped, context.index))
        if not outcome.ok:
            raise ValidationRejectedError(outcome.failures)
        expansions = find_property_paths(stripped, context.index, options.max_nodes, limit)
        check_cql_nesting(candidate.ast, expansions, options.max_nodes, limit, context.index)
        _check_count(expansions, 0, limit)
        plans.append(lap("pathFind", (candidate, stripped, bindings, expansions)))

    results: list[RewriteResult] = []
    for candidate, stripped, bindings, expansions in plans:
        wanted = itertools.islice(expansions, 1 if first else None)
        for expansion in lap("pathFind", list(wanted)):
            provenance = Provenance(
                candidate.provenance.concept_choices, expansion.provenance.path_choices
            )
            restored = lap("valueReinsert", reinsert_data_values(expansion.ast, bindings))
            comprehension = lap("mcc", to_mcc(restored, context.naming))
            cql_query = lap("cql", mcc_to_cql(comprehension, context.model))
            results.append(
                RewriteResult(
                    cql=cql_query,
                    provenance=provenance,
                    resolved=candidate.ast,
                    stripped=stripped,
                    expanded=expansion.ast,
                    restored=restored,
                    mcc=comprehension,
                )
            )

    return RewriteOutcome(
        results=tuple(results), durations_us=durations, dropped=tuple(dropped)
    )


def rewrite(
    text: str,
    model: UMLModel,
    thesaurus: Thesaurus,
    options: RewriteOptions | None = None,
) -> list[RewriteResult]:
    """Full pipeline: prepare the model context and rewrite the query text
    into ordered CQL candidates with provenance."""
    context = prepare_context(model, thesaurus)
    return list(rewrite_prepared(context, text, options).results)
