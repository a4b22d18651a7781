"""The tuple-backed tree nodes against the frozen dataclasses they replace.

The reference below restates the earlier frozen-dataclass definition of
every converted query, comprehension and CQL node type: its fields in
order, their defaults and ``And``'s check, under the same class name. On
drawn trees whose fields hold strings, ``None``, tuples and other nodes,
each node and its dataclass twin must give the same ``repr``, ``hash``,
``==`` and ``!=`` (also between nodes of different types with the same
field values), raise ``AttributeError`` on any assignment or deletion and
``TypeError`` on ordering. ``And`` must reject a short conjunction with the
same error, and ``reinsert_data_values`` must hand back, as the same object,
every subtree in which it restores nothing.

The checks are plain functions, so that the hypothesis-free tests below
also run without pytest: ``python tests/test_node_types.py``.
"""

from __future__ import annotations

import copy
import dataclasses
import operator
import pickle
import random
from dataclasses import dataclass
from pathlib import Path

from onco_rewriter import cql as C
from onco_rewriter import pipeline as P
from onco_rewriter.model import load_model, load_thesaurus
from onco_rewriter.nodes import Node
from onco_rewriter.synthetic import random_resolved_tree

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# --- the reference: the frozen dataclasses -----------------------------------


@dataclass(frozen=True)
class ConceptRef:
    name: str


@dataclass(frozen=True)
class UmlClassRef:
    name: str


@dataclass(frozen=True)
class UmlAttributeRef:
    name: str


@dataclass(frozen=True)
class And:
    items: tuple

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("conjunction needs at least two items")


@dataclass(frozen=True)
class HasAssociationSome:
    inner: object


@dataclass(frozen=True)
class HasAttributeSome:
    inner: object


@dataclass(frozen=True)
class HasValueEquals:
    literal: str


@dataclass(frozen=True)
class AssocStep:
    property_name: str
    inner: object


@dataclass(frozen=True)
class ExtentGenerator:
    var: str
    class_name: str


@dataclass(frozen=True)
class PathGenerator:
    var: str
    source_var: str
    role_name: str


@dataclass(frozen=True)
class TypeBind:
    var: str
    class_name: str


@dataclass(frozen=True)
class Filter:
    var: str
    attribute_name: str
    predicate: str
    literal: str


@dataclass(frozen=True)
class MccComprehension:
    head_var: str
    qualifiers: tuple
    monoid: P.Monoid = P.BAG_MONOID


@dataclass(frozen=True)
class CqlAttribute:
    name: str
    predicate: str
    value: str | None = None


@dataclass(frozen=True)
class CqlAssociation:
    name: str
    role_name: str
    child: object = None


@dataclass(frozen=True)
class CqlGroup:
    logical_op: str
    items: tuple = ()


@dataclass(frozen=True)
class CqlTarget:
    name: str
    child: object = None


@dataclass(frozen=True)
class QueryModifier:
    distinct_attribute: str | None = None
    attribute_names: tuple[str, ...] = ()


TWIN = {getattr(P, cls.__name__, None) or getattr(C, cls.__name__): cls for cls in (
    ConceptRef, UmlClassRef, UmlAttributeRef, And, HasAssociationSome, HasAttributeSome,
    HasValueEquals, AssocStep, ExtentGenerator, PathGenerator, TypeBind, Filter,
    MccComprehension, CqlAttribute, CqlAssociation, CqlGroup, CqlTarget, QueryModifier,
)}  # fmt: skip
AST_TYPES = {getattr(P, name) for name in (
    "ConceptRef", "UmlClassRef", "UmlAttributeRef", "And", "HasAssociationSome",
    "HasAttributeSome", "HasValueEquals", "AssocStep",
)}  # fmt: skip


def twin(value):
    """``value`` with every node replaced by its dataclass twin."""
    if isinstance(value, Node):
        return TWIN[type(value)](*map(twin, value))
    if type(value) is tuple:
        return tuple(map(twin, value))
    return value


def raised(call, *args, **kwargs) -> Exception | None:
    try:
        call(*args, **kwargs)
    except Exception as error:
        return error
    return None


# --- the checks ------------------------------------------------------------------


def check_alone(node: Node) -> None:
    """One node against its twin: repr, hash, fields, immutability, order,
    isinstance and copies."""
    reference = twin(node)
    assert repr(node) == repr(reference)
    assert hash(node) == hash(reference)
    names = [f.name for f in dataclasses.fields(reference)]
    assert node._fields == tuple(names)
    assert [twin(getattr(node, name)) for name in names] == [
        getattr(reference, name) for name in names
    ]
    for name in (*names, "other"):
        assert isinstance(raised(setattr, node, name, "x"), AttributeError), name
        assert isinstance(raised(setattr, reference, name, "x"), AttributeError), name
        assert isinstance(raised(delattr, node, name), AttributeError), name
    for order in (operator.lt, operator.le, operator.gt, operator.ge):
        error = raised(order, node, node)
        assert type(error) is TypeError
        assert str(error) == str(raised(order, reference, reference))
    assert isinstance(node, P.QueryNode) == (type(node) in AST_TYPES)
    assert not dataclasses.is_dataclass(node)
    assert not hasattr(node, "__dict__")
    for copied in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert copied == node and type(copied) is type(node)
    fields = dict(zip(node._fields, node))
    assert type(node)(**fields) == type(node)(*node) == node


def check_pair(a: Node, b: Node) -> None:
    """``==``, ``!=`` and ``hash`` of a pair against their twins'."""
    ta, tb = twin(a), twin(b)
    assert (a == b) == (ta == tb), (a, b)
    assert (a != b) == (ta != tb), (a, b)
    assert (b == a) == (tb == ta), (a, b)
    if a == b:
        assert hash(a) == hash(b)


def retyped(node: Node) -> list[Node]:
    """``node``'s field values under every other type of the same arity."""
    return [
        cls(*node)
        for cls in TWIN
        if cls is not type(node) and len(cls._fields) == len(node) and cls is not P.And
    ]


def rebuilt(value):
    """An equal copy of ``value`` that shares no node with it."""
    if isinstance(value, Node):
        return type(value)(*map(rebuilt, value))
    if type(value) is tuple:
        return tuple(map(rebuilt, value))
    return value


def check_reinsert_shares(ast: P.QueryNode, bindings: list) -> None:
    """Every subtree that ``reinsert_data_values`` leaves equal comes back
    as the same object."""
    pairs = [(ast, P.reinsert_data_values(ast, bindings))]
    while pairs:
        before, after = pairs.pop()
        assert (before == after) == (before is after), before
        if before is not after and isinstance(before, P.And):
            pairs.extend(zip(before.items, after.items))
        elif before is not after and isinstance(before, (P.HasAssociationSome, P.AssocStep)):
            pairs.append((before.inner, after.inner))


def nodes_under(value):
    """Every node under ``value``, ``value`` included."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, Node):
            yield value
        if isinstance(value, tuple):
            stack.extend(value)


def expanded(node: P.QueryNode) -> P.QueryNode:
    """Each association restriction as a two-step role chain, as path
    finding builds it."""
    if isinstance(node, P.And):
        return P.And(tuple(map(expanded, node.items)))
    if isinstance(node, P.HasAssociationSome):
        last = P.AssocStep("second", expanded(node.inner))
        return P.AssocStep("first", P.And((P.UmlClassRef("c:Via"), last)))
    return node


# --- the tests that need no hypothesis ----------------------------------------------


def test_no_converted_type_is_a_dataclass():
    for cls in TWIN:
        assert issubclass(cls, Node) and not dataclasses.is_dataclass(cls)
    assert dataclasses.is_dataclass(C.CqlQuery)


def test_and_rejects_a_short_conjunction_as_before():
    for items in ((), (P.ConceptRef("Gene"),)):
        for call in (lambda cls: cls(items), lambda cls: cls(items=items)):
            error, reference = raised(call, P.And), raised(call, And)
            assert (type(error), str(error)) == (type(reference), str(reference))
            assert str(error) == "conjunction needs at least two items"


def test_defaults_and_keywords_as_before():
    made = [
        (C.CqlAttribute("n", "IS_NULL"), CqlAttribute("n", "IS_NULL")),
        (C.CqlAssociation(name="a", role_name="r"), CqlAssociation(name="a", role_name="r")),
        (C.CqlGroup("AND"), CqlGroup("AND")),
        (C.CqlTarget(name="T"), CqlTarget(name="T")),
        (C.QueryModifier(), QueryModifier()),
        (P.MccComprehension("x", ()), MccComprehension("x", ())),
    ]
    for node, reference in made:
        assert repr(node) == repr(reference) and hash(node) == hash(reference)
    assert C.CqlAttribute("n", "IS_NULL") == tuple.__new__(C.CqlAttribute, ("n", "IS_NULL", None))


def test_nodes_behave_as_their_twins_on_rewrite_outputs():
    """Every node of the caBIO suite's intermediate trees, comprehensions
    and CQL queries and of random resolved trees, alone, against an equal
    copy, retyped and against another; and ``==`` on the deepest CQL group
    chain ``parse_xml`` admits."""
    model = load_model((FIXTURES / "cabio_fragment.model.json").read_text(encoding="utf-8"))
    thesaurus = (FIXTURES / "ncit_fragment.thesaurus.txt").read_text(encoding="utf-8")
    context = P.prepare_context(model, load_thesaurus(thesaurus))
    lines = (FIXTURES / "cabio.suite.txt").read_text(encoding="utf-8").splitlines()
    trees = []
    for query in (line for line in lines if line.strip() and not line.startswith("#")):
        for result in P.rewrite_prepared(context, query).results:
            trees += [result.resolved, result.stripped, result.expanded, result.restored]
            trees += [result.mcc, *result.mcc.qualifiers, result.cql.target]
    rng = random.Random(26)
    trees += [random_resolved_tree(rng, rng.randint(0, 3)) for _ in range(60)]
    child = C.CqlAttribute(name="leaf", predicate="IS_NOT_NULL")
    for level in range(C.MAX_NESTING - 1):
        child = C.CqlGroup("AND", (C.CqlAttribute(f"a{level}", "IS_NULL"), child))
    deep = C.CqlTarget("org.example.Root", child)
    assert deep == rebuilt(deep) and deep != C.CqlTarget("org.example.Root", child.items[0])
    nodes = [node for tree in trees for node in nodes_under(tree)]
    for node in nodes:
        check_alone(node)
        check_pair(node, rebuilt(node))
        for other in retyped(node):
            check_pair(node, other)
    for a, b in zip(nodes, rng.sample(nodes, len(nodes))):
        check_pair(a, b)


def test_reinsert_shares_what_it_leaves_alone():
    rng = random.Random(2610)
    for _ in range(300):
        tree = random_resolved_tree(rng, rng.randint(0, 4))
        stripped, bindings = P.extract_data_values(tree)
        for ast in (stripped, expanded(stripped)):
            check_reinsert_shares(ast, bindings)
            assert P.reinsert_data_values(ast, []) is ast


# --- the hypothesis tests, which the plain-script run leaves out ---------------------

if __name__ != "__main__":
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # few distinct texts, so that drawn trees often meet in equal fields
    leaves = st.none() | st.sampled_from(["", "a", "b", "EQUAL_TO", "AND"]) | st.text(max_size=3)

    def typed(cls, children):
        if cls is P.And:
            return st.lists(children, min_size=2, max_size=3).map(lambda i: P.And(tuple(i)))
        return st.tuples(*[children] * len(cls._fields)).map(lambda fields: cls(*fields))

    values = st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=3).map(tuple)
        | st.one_of(*[typed(cls, children) for cls in TWIN]),
        max_leaves=10,
    )
    nodes = st.one_of(*[typed(cls, values) for cls in TWIN])

    @settings(max_examples=300, deadline=None)
    @given(nodes)
    def test_a_drawn_node_behaves_as_its_twin(node):
        check_alone(node)
        check_pair(node, rebuilt(node))
        for other in retyped(node):
            check_pair(node, other)

    @settings(max_examples=300, deadline=None)
    @given(nodes, nodes)
    def test_a_drawn_pair_compares_as_its_twins(a, b):
        check_pair(a, b)
        check_pair(a, type(a)(*b) if type(a) is not P.And and len(a) == len(b) else b)

if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("passed", name)
