"""classify over the condensation against the per-name closure it replaces.

The reference below copies the earlier ``classify``, which made three walks
over the axioms (``el_conformance_report``, ``AxiomSet.class_names`` and
``_decompose``, all copied here too, so the reference shares no code with
``decompose``'s walk), ran one ``closure`` per name, and unioned the edges and
attributes of every subsumer of every name. ``classify`` takes the facts
``decompose`` reads from the axioms. On random EL axiom sets (with
cycles), the same with attribute restrictions and compound fillers, random
association graphs, and any of these with faults inserted, both must give
equal subsumption, attribute and edge tables, keys included, or raise
``ReasonerError`` with the same text. Hand-built cases pin cycles whose
members carry edges and attributes, a cycle below a cycle, and which error
wins when several are present.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter.model import closure
from onco_rewriter.ontology import (
    DATATYPE_MAP,
    HAS_ASSOCIATION,
    HAS_ATTRIBUTE,
    HAS_VALUE,
    Axiom,
    AxiomSet,
    ClassExpr,
    Conjunction,
    DataExistential,
    Existential,
    Named,
    SubClassOf,
    SubPropertyOf,
    TransitiveProperty,
    generate_ontology,
    merge_axiom_sets,
)
from onco_rewriter.pipeline import thesaurus_module
from onco_rewriter.reasoner import ReasonerError, SubsumptionIndex, classify
from onco_rewriter.synthetic import benchmark_model, random_association_graph, random_el_axiom_set

from axiom_decomposition import decompose
from conftest import el_with_extras

# --- reference implementation -------------------------------------------------


def reference_el_report(axiom_set: AxiomSet) -> list[str]:
    violations: list[str] = []

    def check_expr(expr, where: str) -> None:
        if isinstance(expr, Named):
            return
        if isinstance(expr, Conjunction):
            if len(expr.parts) < 2:
                violations.append(f"{where}: conjunction with fewer than two parts")
            for part in expr.parts:
                check_expr(part, where)
            return
        if isinstance(expr, Existential):
            check_expr(expr.filler, where)
            return
        if isinstance(expr, DataExistential):
            if expr.datatype not in DATATYPE_MAP.values():
                violations.append(f"{where}: unknown datatype '{expr.datatype}'")
            return
        violations.append(f"{where}: non-EL construct {type(expr).__name__}")

    for i, axiom in enumerate(axiom_set.axioms):
        where = f"axiom {i}"
        if isinstance(axiom, SubClassOf):
            check_expr(axiom.sub, where)
            check_expr(axiom.sup, where)
        elif isinstance(axiom, (SubPropertyOf, TransitiveProperty)):
            continue
        else:
            violations.append(f"{where}: unknown axiom kind {type(axiom).__name__}")
    return violations


def reference_class_names(axiom_set: AxiomSet) -> frozenset[str]:
    names: set[str] = set()

    def walk(expr: ClassExpr) -> None:
        if isinstance(expr, Named):
            names.add(expr.name)
        elif isinstance(expr, Conjunction):
            for part in expr.parts:
                walk(part)
        elif isinstance(expr, Existential):
            walk(expr.filler)

    for axiom in axiom_set.axioms:
        if isinstance(axiom, SubClassOf):
            walk(axiom.sub)
            walk(axiom.sup)
    return frozenset(names)


def _decompose(lhs: str, expr, named_out, exist_out) -> None:
    if isinstance(expr, Named):
        named_out.append((lhs, expr.name))
    elif isinstance(expr, Conjunction):
        for part in expr.parts:
            _decompose(lhs, part, named_out, exist_out)
    elif isinstance(expr, Existential):
        exist_out.append((lhs, expr.property_name, expr.filler))
    elif isinstance(expr, DataExistential):
        pass  # datatype restrictions carry no class information
    else:
        raise ReasonerError(f"non-EL expression {type(expr).__name__}")


def reference_classify(axiom_set: AxiomSet) -> SubsumptionIndex:
    violations = reference_el_report(axiom_set)
    if violations:
        raise ReasonerError(f"non-EL axiom encountered: {violations[0]}")

    named_subs: list[tuple[str, str]] = []
    existentials: list[tuple[str, str, object]] = []
    prop_parents: dict[str, set[str]] = {}
    names = reference_class_names(axiom_set)

    for axiom in axiom_set.axioms:
        if isinstance(axiom, SubClassOf):
            if not isinstance(axiom.sub, Named):
                raise ReasonerError("subclass axioms must have a named left-hand side")
            _decompose(axiom.sub.name, axiom.sup, named_subs, existentials)
        elif isinstance(axiom, SubPropertyOf):
            prop_parents.setdefault(axiom.sub, set()).add(axiom.sup)
            prop_parents.setdefault(axiom.sup, set())
        elif isinstance(axiom, TransitiveProperty):
            prop_parents.setdefault(axiom.property_name, set())

    # reflexive-transitive closure of the property hierarchy
    prop_subsumers = {prop: set(closure([prop], prop_parents.__getitem__)) for prop in prop_parents}

    def under_association(prop: str) -> bool:
        return HAS_ASSOCIATION in prop_subsumers.get(prop, {prop})

    # direct relations prior to closure
    direct_sup: defaultdict[str, set[str]] = defaultdict(set)
    direct_edges: defaultdict[str, set[tuple[str, str]]] = defaultdict(set)
    direct_attrs: defaultdict[str, set[str]] = defaultdict(set)
    for sub, sup in named_subs:
        direct_sup[sub].add(sup)
    for lhs, prop, filler in existentials:
        # compound fillers (noted qualifier lists) contribute no index entries
        if isinstance(filler, Named):
            if prop == HAS_ATTRIBUTE:
                direct_attrs[lhs].add(filler.name)
            elif under_association(prop):
                direct_edges[lhs].add((prop, filler.name))

    # reflexive-transitive closure of named subsumption (cycles permitted)
    subsumers = {name: frozenset(closure([name], direct_sup.__getitem__)) for name in names}

    # inherit edges and attributes down the subsumption hierarchy
    assoc_edges: dict[str, frozenset[tuple[str, str]]] = {}
    attribute_of: dict[str, frozenset[str]] = {}
    for name in names:
        edges: set[tuple[str, str]] = set()
        attrs: set[str] = set()
        for sup in subsumers[name]:
            edges.update(direct_edges.get(sup, ()))
            attrs.update(direct_attrs.get(sup, ()))
        assoc_edges[name] = frozenset(edges)
        attribute_of[name] = frozenset(attrs)

    return SubsumptionIndex(
        subsumers=subsumers, attribute_of=attribute_of, assoc_edges=assoc_edges
    )


def assert_classify_matches(axiom_set: AxiomSet) -> SubsumptionIndex | None:
    """classify and the reference agree on every table or on the error text;
    returns the index, or None when both raised."""
    try:
        expected = reference_classify(axiom_set)
    except ReasonerError as error:
        with pytest.raises(ReasonerError) as raised:
            classify(decompose(axiom_set))
        assert type(raised.value) is ReasonerError
        assert str(raised.value) == str(error)
        return None
    index = classify(decompose(axiom_set))
    assert index.subsumers == expected.subsumers
    assert index.attribute_of == expected.attribute_of
    assert index.assoc_edges == expected.assoc_edges
    assert index.reach == {}
    assert index.toward == {}
    return index


# --- faults --------------------------------------------------------------------


class Universal(ClassExpr):
    """Not an EL construct."""

    def __init__(self, prop: str, filler: ClassExpr):
        self.prop = prop
        self.filler = filler


@dataclass(frozen=True)
class DisjointClasses(Axiom):
    """An axiom kind the EL profile here does not know."""

    names: tuple[str, ...]


def one_part_conjunction(part: ClassExpr) -> Conjunction:
    """A conjunction the constructor would refuse, as a foreign builder might make."""
    conjunction = object.__new__(Conjunction)
    object.__setattr__(conjunction, "parts", (part,))
    return conjunction


def A(name: str) -> Named:
    return Named(f"c:{name}")


FAULTS = {
    "conjunction_lhs": lambda a, b, c: SubClassOf(Conjunction((a, b)), c),
    "existential_lhs": lambda a, b, c: SubClassOf(Existential("c:p0", a), b),
    "universal_rhs": lambda a, b, c: SubClassOf(a, Conjunction((b, Universal("c:p0", c)))),
    "universal_lhs": lambda a, b, c: SubClassOf(Universal("c:p0", a), b),
    "universal_filler": lambda a, b, c: SubClassOf(a, Existential("c:p0", Universal("c:p1", b))),
    "one_part_conjunction": lambda a, b, c: SubClassOf(a, one_part_conjunction(b)),
    "unknown_datatype": lambda a, b, c: SubClassOf(a, DataExistential(HAS_VALUE, "xsd:bogus")),
    "unknown_axiom_kind": lambda a, b, c: DisjointClasses((a.name, b.name)),
    "known_datatype": lambda a, b, c: SubClassOf(a, DataExistential(HAS_VALUE, "xsd:string")),
}


def with_faults(rng: random.Random) -> AxiomSet:
    """A random input from the other kinds with one to three axioms from
    FAULTS (one of them legal) inserted at random positions."""
    base = INPUTS[rng.choice(["el", "el_with_extras", "graph"])](rng)
    axioms = list(base.axioms)
    pool = sorted(reference_class_names(base)) + ["c:X0"]
    for _ in range(rng.randint(1, 3)):
        fault = FAULTS[rng.choice(sorted(FAULTS))]
        axiom = fault(*(Named(rng.choice(pool)) for _ in range(3)))
        axioms.insert(rng.randint(0, len(axioms)), axiom)
    return AxiomSet(axioms=tuple(axioms))


INPUTS = {
    "el": lambda rng: random_el_axiom_set(rng, max_axioms=50),
    "el_with_extras": el_with_extras,
    "graph": lambda rng: random_association_graph(rng, max_graph_nodes=16)[2],
    "faulty": with_faults,
}


# --- differential tests ---------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(INPUTS)), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_classify_matches_per_name_closure(kind, seed):
    assert_classify_matches(INPUTS[kind](random.Random(seed)))


def _axioms(*axioms) -> AxiomSet:
    return AxiomSet(axioms=(SubPropertyOf("c:p", HAS_ASSOCIATION), *axioms))


def edge(name: str, target: str) -> SubClassOf:
    return SubClassOf(A(name), Existential("c:p", A(target)))


def attr(name: str, attribute: str) -> SubClassOf:
    return SubClassOf(A(name), Existential(HAS_ATTRIBUTE, A(attribute)))


def sub(name: str, *sups: str) -> SubClassOf:
    parts = tuple(A(s) for s in sups)
    return SubClassOf(A(name), parts[0] if len(parts) == 1 else Conjunction(parts))


HAND_BUILT = {
    "two_cycle": _axioms(
        sub("A", "B"), sub("B", "A"), edge("A", "T"), attr("B", "Attr"), sub("X", "A")
    ),
    "three_cycle": _axioms(
        sub("A", "B"), sub("B", "C"), sub("C", "A"),
        edge("A", "T"), edge("B", "U"), attr("C", "Attr"), sub("Y", "B"), edge("Y", "V"),
    ),
    "cycle_below_cycle": _axioms(
        sub("A", "B"), sub("B", "A", "C"), sub("C", "D"), sub("D", "C"),
        edge("D", "T"), attr("C", "Attr"), edge("A", "U"), sub("Leaf", "A"),
    ),
    "self_loop": _axioms(sub("A", "A"), edge("A", "T"), sub("B", "A")),
    "property_hierarchy": AxiomSet(axioms=(
        SubPropertyOf("c:r", "c:p"), SubPropertyOf("c:p", "c:q"), SubPropertyOf("c:q", "c:p"),
        SubPropertyOf("c:q", HAS_ASSOCIATION), SubPropertyOf("c:s", "c:t"),
        SubClassOf(A("A"), Existential("c:r", A("T"))),
        SubClassOf(A("A"), Existential("c:s", A("U"))),
        SubClassOf(A("B"), Existential(HAS_ASSOCIATION, A("V"))), sub("B", "A"),
    )),
    "compound_filler": _axioms(
        SubClassOf(A("A"), Existential("c:p", Conjunction((A("T"), A("U"))))), sub("A", "B"),
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_cases_match_per_name_closure(case):
    assert assert_classify_matches(HAND_BUILT[case]) is not None


def test_cycle_members_share_their_tables():
    index = classify(decompose(HAND_BUILT["cycle_below_cycle"]))
    assert index.subsumers["c:A"] == {"c:A", "c:B", "c:C", "c:D"}
    assert index.subsumers["c:A"] is index.subsumers["c:B"]
    assert index.subsumers["c:C"] is index.subsumers["c:D"]
    assert index.assoc_edges["c:C"] == {("c:p", "c:T")}
    assert index.assoc_edges["c:A"] == {("c:p", "c:T"), ("c:p", "c:U")}
    assert index.attribute_of["c:Leaf"] == {"c:Attr"}
    # names that inherit nothing share one empty set
    assert index.assoc_edges["c:T"] is index.attribute_of["c:U"]


ERRORS = {
    "non_named_lhs": (
        _axioms(sub("A", "B"), SubClassOf(Existential("c:p", A("A")), A("B"))),
        "subclass axioms must have a named left-hand side",
    ),
    "universal": (
        _axioms(SubClassOf(A("A"), Universal("c:p", A("B")))),
        "non-EL axiom encountered: axiom 1: non-EL construct Universal",
    ),
    "one_part_conjunction": (
        _axioms(SubClassOf(A("A"), one_part_conjunction(A("B")))),
        "non-EL axiom encountered: axiom 1: conjunction with fewer than two parts",
    ),
    "unknown_datatype": (
        _axioms(SubClassOf(A("A"), DataExistential(HAS_VALUE, "xsd:bogus"))),
        "non-EL axiom encountered: axiom 1: unknown datatype 'xsd:bogus'",
    ),
    "unknown_axiom_kind": (
        _axioms(DisjointClasses(("c:A", "c:B"))),
        "non-EL axiom encountered: axiom 1: unknown axiom kind DisjointClasses",
    ),
    "el_error_after_non_named_lhs_wins": (
        _axioms(
            SubClassOf(Conjunction((A("A"), A("B"))), A("C")),
            sub("C", "D"),
            SubClassOf(A("C"), Existential("c:p", Universal("c:p", A("D")))),
        ),
        "non-EL axiom encountered: axiom 3: non-EL construct Universal",
    ),
    "left_side_reported_before_right": (
        _axioms(SubClassOf(
            Universal("c:p", A("A")), DataExistential(HAS_VALUE, "xsd:bogus")
        )),
        "non-EL axiom encountered: axiom 1: non-EL construct Universal",
    ),
    "first_axiom_reported": (
        _axioms(
            SubClassOf(A("A"), Conjunction((A("B"), DataExistential(HAS_VALUE, "xsd:bogus")))),
            DisjointClasses(("c:A",)),
        ),
        "non-EL axiom encountered: axiom 1: unknown datatype 'xsd:bogus'",
    ),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_errors_match_per_name_closure(case):
    axiom_set, message = ERRORS[case]
    assert assert_classify_matches(axiom_set) is None
    with pytest.raises(ReasonerError) as raised:
        classify(decompose(axiom_set))
    assert str(raised.value) == message


def test_fixture_and_benchmark_model_match_per_name_closure(cabio_model, ncit_thesaurus):
    model, thesaurus, _, _ = benchmark_model()
    for m, t in ((cabio_model, ncit_thesaurus), (model, thesaurus)):
        merged = merge_axiom_sets(generate_ontology(m), thesaurus_module(m, t))
        assert assert_classify_matches(merged) is not None
