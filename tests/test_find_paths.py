"""The iterative path walk against the recursive walk it replaced.

The reference below copies the earlier ``find_paths``: a recursive
depth-first walk that took each class's edges in sorted order. On random
association models (cycles, parallel roles, generalizations, so that a
target can match through a sub- or superclass) both must return the same
paths in the same order, for every node budget from 2 to 6.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter.model import load_model
from onco_rewriter.ontology import generate_ontology
from onco_rewriter.reasoner import AssociationPath, SubsumptionIndex, classify, find_paths

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
    return classify(generate_ontology(model))


# --- random inputs -----------------------------------------------------------


@st.composite
def association_models(draw):
    """Classes whose generalizations point to classes declared before them,
    and associations that join any two classes, a class to itself included,
    often by more than one role."""
    size = draw(st.integers(min_value=2, max_value=7))
    names = [f"C{i}" for i in range(size)]
    classes = []
    for i, name in enumerate(names):
        supers = draw(st.lists(st.sampled_from(names[:i]), unique=True, max_size=2)) if i else []
        classes.append({"name": name, "superclasses": supers})
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=14))
    associations = [
        {"source": source, "roleName": f"r{k}", "target": target}
        for k, (source, target) in enumerate(pairs)
    ]
    return names, classes, associations


# --- differential test -------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(association_models())
def test_walk_matches_recursive_reference(generated):
    names, classes, associations = generated
    index = index_of(classes, associations)
    for source in names:
        for target in names:
            for max_nodes in range(2, 7):
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
