"""The path walk against the recursive walk it replaced.

The reference below copies the earlier ``find_paths``: a recursive
depth-first walk that took each class's edges in sorted order and extended
every simple path up to the node budget, whether or not a match was still
reachable. On random association models (cycles, self-loops, parallel
roles, generalizations, so that a target can match through a sub- or
superclass) both must return the same paths in the same order. Counting
tests then check that the distance bound keeps the walk off dead ends and
that its per-target tables are built on demand and reused.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter.model import load_model
from onco_rewriter.ontology import generate_ontology
from onco_rewriter.reasoner import (
    AssociationPath,
    SubsumptionIndex,
    association_reachable,
    classify,
    find_paths,
)

from axiom_decomposition import decompose

# --- reference implementation -------------------------------------------------


def recursive_find_paths(
    index: SubsumptionIndex, source: str, target: str, max_nodes: int
) -> list[AssociationPath]:
    def matches(reached: str) -> bool:
        return target in index.subsumers[reached] or reached in index.subsumers[target]

    found: list[AssociationPath] = []
    steps: list[tuple[str, str]] = []
    visited: set[str] = {source}

    def walk(current: str) -> None:
        for prop, rng in sorted(index.assoc_edges[current]):
            if rng in visited:
                continue
            steps.append((prop, rng))
            if matches(rng):
                found.append(AssociationPath(source_class=source, steps=tuple(steps)))
            if len(steps) + 1 < max_nodes:
                visited.add(rng)
                walk(rng)
                visited.discard(rng)
            steps.pop()

    walk(source)
    found.sort(key=lambda p: (p.node_count, p.properties, p.nodes))
    return found


def index_of(classes, associations) -> SubsumptionIndex:
    document = {"project": "t", "version": "1", "packagePrefix": "p", "classes": classes}
    model = load_model(json.dumps(document | {"associations": associations}))
    return classify(decompose(generate_ontology(model)))


# --- random inputs -----------------------------------------------------------


@st.composite
def association_models(draw):
    """Classes whose generalizations point to classes declared before them,
    and associations that join any two classes, a class to itself included,
    often by more than one role, some of them repeating an earlier pair."""
    size = draw(st.integers(min_value=2, max_value=12))
    names = [f"C{i}" for i in range(size)]
    classes = []
    for i, name in enumerate(names):
        supers = draw(st.lists(st.sampled_from(names[:i]), unique=True, max_size=2)) if i else []
        classes.append({"name": name, "superclasses": supers})
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=24))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=6))
    associations = [
        {"source": source, "roleName": f"r{k}", "target": target}
        for k, (source, target) in enumerate(pairs)
    ]
    return names, classes, associations


# --- differential test -------------------------------------------------------


@settings(deadline=None, max_examples=100)
@given(association_models())
def test_walk_matches_recursive_reference(generated):
    names, classes, associations = generated
    index = index_of(classes, associations)
    # the reference walks every simple path within the budget, so its time
    # grows exponentially with the inherited edges: past about 40 a single
    # model can take it minutes over budgets to 9, so larger ones stop sooner
    edges = sum(len(out) for out in index.assoc_edges.values())
    top = 9 if edges <= 40 else 6 if edges <= 60 else 4
    for source in names:
        for target in names:
            for max_nodes in range(2, top + 1):
                got = find_paths(index, f"c:{source}", f"c:{target}", max_nodes)
                assert got == recursive_find_paths(index, f"c:{source}", f"c:{target}", max_nodes)


# --- depth regression --------------------------------------------------------


def test_long_association_chain_needs_no_recursion():
    # deeper than the interpreter's default recursion limit
    size = 1500
    classes = [{"name": f"C{i}"} for i in range(size)]
    associations = [
        {"source": f"C{i}", "roleName": "next", "target": f"C{i + 1}"} for i in range(size - 1)
    ]
    index = index_of(classes, associations)
    paths = find_paths(index, "c:C0", f"c:C{size - 1}", 5000)
    assert len(paths) == 1
    assert paths[0].nodes == tuple(f"c:C{i}" for i in range(size))


# --- pruning and memo ----------------------------------------------------------


class CountingEdges(dict):
    """An ``assoc_edges`` table that counts the walk's lookups: one for the
    source and one for each range the walk extends a path through."""

    lookups = 0

    def __getitem__(self, name):
        self.lookups += 1
        return super().__getitem__(name)


def counting_index(edges: dict[str, set[tuple[str, str]]]) -> SubsumptionIndex:
    names = set(edges) | {rng for out in edges.values() for _, rng in out}
    return SubsumptionIndex(
        subsumers={name: frozenset({name}) for name in names},
        attribute_of={name: frozenset() for name in names},
        assoc_edges=CountingEdges({name: frozenset(edges.get(name, ())) for name in names}),
    )


def test_dead_end_fan_out_is_never_expanded():
    edges = {"S": {("r", f"D{i}") for i in range(2000)} | {("r", "A")}, "A": {("r", "T")}}
    index = counting_index(edges)
    paths = find_paths(index, "S", "T", 16)
    assert [p.nodes for p in paths] == [("S", "A", "T")]
    assert index.assoc_edges.lookups == 2  # S and A, none of the dead ends


def test_match_beyond_the_budget_is_not_walked_toward():
    chain = [f"A{i}" for i in range(6)]
    edges = {a: {("r", b)} for a, b in zip(chain, chain[1:])}
    index = counting_index(edges)
    assert find_paths(index, "A0", "A5", 5) == []
    assert index.assoc_edges.lookups == 1  # the source only
    assert [p.nodes for p in find_paths(index, "A0", "A5", 6)] == [tuple(chain)]


def test_unreachable_target_returns_before_walking():
    index = counting_index({"S": {("r", "A")}, "T": {("r", "S")}})
    assert find_paths(index, "S", "T", 16) == []
    assert index.assoc_edges.lookups == 0


def test_target_tables_are_built_on_demand_and_reused():
    classes = [{"name": "A"}, {"name": "B", "superclasses": ["A"]}, {"name": "C"}]
    associations = [
        {"source": "C", "roleName": "r", "target": "A"},
        {"source": "A", "roleName": "s", "target": "C"},
    ]
    index = index_of(classes, associations)
    assert index.toward == {}
    assert "subclasses" not in vars(index) and "edges_into" not in vars(index)

    paths = find_paths(index, "c:C", "c:B", 16)
    assert [p.nodes for p in paths] == [("c:C", "c:A")]
    tables = index.toward["c:B"]
    matches, need = tables
    assert matches >= {"c:A", "c:B"}
    assert need["c:C"] == 1 and need["c:A"] == need["c:B"] == 2

    assert find_paths(index, "c:C", "c:B", 16) == paths
    assert association_reachable(index, "c:C", "c:B")
    assert index.toward["c:B"] is tables
    assert list(index.toward) == ["c:B"]
