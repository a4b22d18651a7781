"""path_metrics' explicit-stack walk against the recursive walk it replaces.

The reference below copies the earlier ``path_metrics``, which recursed once
per path node and collected journeys as a set of (source, target) pairs. On
random association graphs with parallel roles, cycles and generalizations the
reports must be equal; on a chain deeper than the interpreter's recursion
limit the walk must still finish.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter.metrics import PathMetrics, association_edges, path_metrics
from onco_rewriter.model import UMLAssociation, UMLClass, UMLModel


def recursive_path_metrics(model: UMLModel, max_nodes: int) -> PathMetrics:
    edges = association_edges(model)
    longest = 0
    path_count = 0
    node_sum = 0
    journeys: set[tuple[str, str]] = set()

    def walk(source: str, current: str, visited: set[str], depth: int) -> None:
        nonlocal longest, path_count, node_sum
        for _, target in edges[current]:
            if target in visited:
                continue
            nodes = depth + 1
            path_count += 1
            node_sum += nodes
            journeys.add((source, target))
            if nodes > longest:
                longest = nodes
            if nodes < max_nodes:
                visited.add(target)
                walk(source, target, visited, nodes)
                visited.discard(target)

    for cls in model.classes:
        walk(cls.name, cls.name, {cls.name}, 1)

    return PathMetrics(
        longest_path=longest,
        journey_count=len(journeys),
        path_count=path_count,
        avg_paths_per_journey=(
            Fraction(path_count, len(journeys)) if journeys else Fraction(0)
        ),
        avg_nodes_per_path=(Fraction(node_sum, path_count) if path_count else Fraction(0)),
        max_nodes=max_nodes,
    )


@st.composite
def graph_models(draw) -> UMLModel:
    size = draw(st.integers(1, 7))
    names = [f"G{i}" for i in range(size)]
    # each class may specialize one earlier class, so generalization stays acyclic
    classes = tuple(
        UMLClass(
            name=name,
            superclasses=draw(st.sampled_from([(), *[(earlier,) for earlier in names[:i]]])),
        )
        for i, name in enumerate(names)
    )
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(["r", "s"]), st.sampled_from(names)),
            max_size=12,
            unique=True,
        )
    )
    return UMLModel(
        project_name="g",
        version="1",
        package_prefix="org.example",
        classes=classes,
        associations=tuple(UMLAssociation(source=s, role_name=r, target=t) for s, r, t in edges),
    )


@settings(max_examples=300, deadline=None)
@given(graph_models(), st.integers(2, 8))
def test_walk_matches_recursive_reference(model, max_nodes):
    assert path_metrics(model, max_nodes) == recursive_path_metrics(model, max_nodes)


def test_long_association_chain_needs_no_recursion():
    # deeper than the interpreter's default recursion limit
    size = 1100
    model = UMLModel(
        project_name="chain",
        version="1",
        package_prefix="org.example",
        classes=tuple(UMLClass(name=f"C{i}") for i in range(size)),
        associations=tuple(
            UMLAssociation(source=f"C{i}", role_name="next", target=f"C{i + 1}")
            for i in range(size - 1)
        ),
    )
    metrics = path_metrics(model, max_nodes=5000)
    assert metrics.longest_path == size
    assert metrics.journey_count == size * (size - 1) // 2 == 604_450
    assert metrics.path_count == 604_450
