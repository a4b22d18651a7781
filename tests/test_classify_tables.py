"""classify's tables and on-demand reachability against the code they replace.

The reference below copies the earlier ``classify``, which filled every
relation up front, reachability for every name included, and the earlier
``association_reachable``, which read that table. On random EL axiom sets
(with attribute restrictions and compound fillers mixed in) and random
association graphs, the subsumption, attribute and edge tables must be
equal, keys included, and reachability must agree for every source/target
pair. The reachability memo must stay empty until a query runs and then
hold exactly the sources that were queried.

The umlExtract reference copies the earlier lookup, which scanned a sorted
pool of every UML class (or attribute class) for the ones a concept
subsumes. On random prepared contexts, every thesaurus concept and some
unknown names, in class and in attribute position, must give the same
matches in the same order, or no match and ``NoUmlCandidateError``.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter.model import closure
from onco_rewriter.ontology import (
    HAS_ASSOCIATION,
    HAS_ATTRIBUTE,
    UML_ATTRIBUTE,
    UML_CLASS,
    AxiomSet,
    Conjunction,
    DataExistential,
    Existential,
    Named,
    SubClassOf,
    SubPropertyOf,
    TransitiveProperty,
)
from onco_rewriter.pipeline import (
    ConceptRef,
    HasAttributeSome,
    NoUmlCandidateError,
    extract_uml,
    prepare_context,
)
from onco_rewriter.reasoner import (
    ReasonerError,
    SubsumptionIndex,
    association_reachable,
    classify,
)
from onco_rewriter.synthetic import (
    benchmark_model,
    random_association_graph,
    random_el_axiom_set,
)

from axiom_decomposition import decompose
from conftest import el_with_extras, random_context

# --- reference implementation -------------------------------------------------


class Tables(NamedTuple):
    subsumers: dict[str, frozenset[str]]
    attribute_of: dict[str, frozenset[str]]
    assoc_edges: dict[str, frozenset[tuple[str, str]]]
    reach: dict[str, frozenset[str]]


def _decompose(lhs: str, expr, named_out, exist_out) -> None:
    """Split a right-hand side into named subsumers and existential parts."""
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


def eager_classify(axiom_set: AxiomSet) -> Tables:
    named_subs: list[tuple[str, str]] = []
    existentials: list[tuple[str, str, object]] = []
    prop_parents: dict[str, set[str]] = {}
    names: set[str] = set(axiom_set.class_names())

    for axiom in axiom_set.axioms:
        if isinstance(axiom, SubClassOf):
            _decompose(axiom.sub.name, axiom.sup, named_subs, existentials)
        elif isinstance(axiom, SubPropertyOf):
            prop_parents.setdefault(axiom.sub, set()).add(axiom.sup)
            prop_parents.setdefault(axiom.sup, set())
        elif isinstance(axiom, TransitiveProperty):
            prop_parents.setdefault(axiom.property_name, set())

    prop_subsumers = {prop: set(closure([prop], prop_parents.__getitem__)) for prop in prop_parents}

    def under_association(prop: str) -> bool:
        return HAS_ASSOCIATION in prop_subsumers.get(prop, {prop})

    direct_sup: dict[str, set[str]] = {name: set() for name in names}
    direct_edges: dict[str, set[tuple[str, str]]] = {name: set() for name in names}
    direct_attrs: dict[str, set[str]] = {name: set() for name in names}
    for sub, sup in named_subs:
        direct_sup.setdefault(sub, set()).add(sup)
        direct_sup.setdefault(sup, set())
        names.update((sub, sup))
    for lhs, prop, filler in existentials:
        names.add(lhs)
        direct_sup.setdefault(lhs, set())
        if isinstance(filler, Named):
            names.add(filler.name)
            direct_sup.setdefault(filler.name, set())
            direct_edges.setdefault(filler.name, set())
            direct_attrs.setdefault(filler.name, set())
            if prop == HAS_ATTRIBUTE:
                direct_attrs.setdefault(lhs, set()).add(filler.name)
            elif under_association(prop):
                direct_edges.setdefault(lhs, set()).add((prop, filler.name))
        direct_edges.setdefault(lhs, set())
        direct_attrs.setdefault(lhs, set())
    for name in names:
        direct_sup.setdefault(name, set())
        direct_edges.setdefault(name, set())
        direct_attrs.setdefault(name, set())

    subsumers = {name: frozenset(closure([name], direct_sup.__getitem__)) for name in names}

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

    targets = {name: [r for _, r in edges] for name, edges in assoc_edges.items()}
    reach = {name: frozenset(closure(targets[name], targets.__getitem__)) for name in names}
    return Tables(subsumers, attribute_of, assoc_edges, reach)


def eager_reachable(tables: Tables, source: str, target: str) -> bool:
    reached_set = tables.reach[source]
    if target != source and target in reached_set:
        return True
    return any(
        target in tables.subsumers[reached] or reached in tables.subsumers[target]
        for reached in reached_set
        if reached != source
    )


def pool_scan(index: SubsumptionIndex, name: str, attribute_position: bool) -> list[str]:
    kind = UML_ATTRIBUTE if attribute_position else UML_CLASS
    pool = tuple(sorted(
        x for x, sups in index.subsumers.items() if x.startswith("c:") and kind in sups
    ))
    concept = f"n:{name}"
    return [x for x in pool if concept in index.subsumers[x]]


# --- random inputs -----------------------------------------------------------


INPUTS = {
    "el": lambda rng: random_el_axiom_set(rng, max_axioms=50),
    "el_with_extras": el_with_extras,
    "graph": lambda rng: random_association_graph(rng, max_graph_nodes=16)[2],
}


# --- differential test -------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(INPUTS)), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_classify_and_reachability_match_eager_tables(kind, seed):
    rng = random.Random(seed)
    axiom_set = INPUTS[kind](rng)
    expected = eager_classify(axiom_set)
    index = classify(decompose(axiom_set))

    assert index.subsumers == expected.subsumers
    assert index.attribute_of == expected.attribute_of
    assert index.assoc_edges == expected.assoc_edges
    assert index.reach == {}

    names = sorted(index.subsumers)
    sources = rng.sample(names, len(names))
    for done, source in enumerate(sources, start=1):
        for target in names:
            # the second call answers from the memo
            for _ in range(2):
                got = association_reachable(index, source, target)
                assert got == eager_reachable(expected, source, target), (source, target)
        assert index.reach == {s: expected.reach[s] for s in sources[:done]}



def assert_uml_lookup_matches_pool_scan(index: SubsumptionIndex, names) -> None:
    for name in (*names, "Absent", "UMLClass", "C0"):
        for attribute_position in (False, True):
            ast = HasAttributeSome(ConceptRef(name)) if attribute_position else ConceptRef(name)
            expected = pool_scan(index, name, attribute_position)
            if not expected:
                with pytest.raises(NoUmlCandidateError):
                    extract_uml(ast, index)
                continue
            got = [c.provenance.concept_choices[0][1] for c in extract_uml(ast, index)]
            assert got == expected, (name, attribute_position)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_uml_lookup_matches_pool_scan(seed):
    context, thesaurus = random_context(random.Random(seed))
    assert_uml_lookup_matches_pool_scan(context.index, thesaurus.concepts)


def test_uml_lookup_matches_pool_scan_on_fixed_models(cabio_context, ncit_thesaurus):
    assert_uml_lookup_matches_pool_scan(cabio_context.index, ncit_thesaurus.concepts)
    model, thesaurus, _, _ = benchmark_model()
    context = prepare_context(model, thesaurus)
    assert_uml_lookup_matches_pool_scan(context.index, thesaurus.concepts)
