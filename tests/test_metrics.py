from __future__ import annotations

import random
from fractions import Fraction

import pytest

from onco_rewriter.metrics import (
    association_edges,
    path_metrics,
    render_metrics_csv,
    render_timing_csv,
    render_timing_table,
    stage_timings,
)
from onco_rewriter.model import UMLAssociation, UMLClass, UMLModel
from onco_rewriter.synthetic import benchmark_model, resolve_seed


def graph_model(nodes: list[str], edges: list[tuple[str, str, str]]) -> UMLModel:
    return UMLModel(
        project_name="g",
        version="1",
        package_prefix="org.example",
        classes=tuple(UMLClass(name=n) for n in nodes),
        associations=tuple(
            UMLAssociation(source=s, role_name=r, target=t) for s, r, t in edges
        ),
    )


def oracle_metrics(model: UMLModel, max_nodes: int):
    """Independent enumeration: expand partial paths breadth-first."""
    edges = association_edges(model)
    complete: list[tuple[str, tuple[str, ...], str]] = []
    queue = [((node,), ()) for node in model.class_names()]
    while queue:
        visited, steps = queue.pop(0)
        if steps:
            complete.append((visited[0], tuple(label for label, _ in steps), visited[-1]))
        if len(visited) >= max_nodes:
            continue
        for label, target in edges[visited[-1]]:
            if target in visited:
                continue
            queue.append((visited + (target,), steps + ((label, target),)))
    journey_set = set()
    node_total = 0
    longest = 0
    for source, labels, last in complete:
        nodes = len(labels) + 1
        node_total += nodes
        journey_set.add((source, last))
        longest = max(longest, nodes)
    count = len(complete)
    return {
        "longest": longest,
        "journeys": len(journey_set),
        "paths": count,
        "avg_paths": Fraction(count, len(journey_set)) if journey_set else Fraction(0),
        "avg_nodes": Fraction(node_total, count) if count else Fraction(0),
    }


def assert_matches_oracle(model: UMLModel, max_nodes: int) -> None:
    metrics = path_metrics(model, max_nodes)
    expected = oracle_metrics(model, max_nodes)
    assert metrics.longest_path == expected["longest"]
    assert metrics.journey_count == expected["journeys"]
    assert metrics.path_count == expected["paths"]
    assert metrics.avg_paths_per_journey == expected["avg_paths"]
    assert metrics.avg_nodes_per_path == expected["avg_nodes"]


def test_node_budget_below_two_is_rejected():
    model = graph_model(["A", "B"], [("A", "ab", "B")])
    for max_nodes in (1, 0):
        with pytest.raises(ValueError, match="max_nodes must be at least 2"):
            path_metrics(model, max_nodes)


def test_three_cycle_hand_values():
    model = graph_model(
        ["A", "B", "C"],
        [("A", "ab", "B"), ("B", "bc", "C"), ("C", "ca", "A")],
    )
    metrics = path_metrics(model, 16)
    assert metrics.longest_path == 3
    assert metrics.journey_count == 6
    assert metrics.path_count == 6
    assert metrics.avg_paths_per_journey == Fraction(1)
    assert metrics.avg_nodes_per_path == Fraction(5, 2)


def test_no_associations_all_zero():
    model = graph_model(["A", "B"], [])
    metrics = path_metrics(model, 16)
    assert metrics.longest_path == 0
    assert metrics.journey_count == 0
    assert metrics.path_count == 0
    assert metrics.avg_paths_per_journey == Fraction(0)
    assert metrics.avg_nodes_per_path == Fraction(0)


def test_single_edge():
    model = graph_model(["A", "B"], [("A", "r", "B")])
    metrics = path_metrics(model, 16)
    assert metrics.longest_path == 2
    assert metrics.journey_count == 1
    assert metrics.path_count == 1
    assert metrics.avg_nodes_per_path == Fraction(2)


def test_parallel_roles_are_distinct_paths():
    model = graph_model(["A", "B"], [("A", "r1", "B"), ("A", "r2", "B")])
    metrics = path_metrics(model, 16)
    assert metrics.path_count == 2
    assert metrics.journey_count == 1
    assert metrics.avg_paths_per_journey == Fraction(2)


def test_inherited_edges_count():
    model = UMLModel(
        project_name="g",
        version="1",
        package_prefix="org.example",
        classes=(
            UMLClass(name="Base"),
            UMLClass(name="Derived", superclasses=("Base",)),
            UMLClass(name="T"),
        ),
        associations=(UMLAssociation(source="Base", role_name="r", target="T"),),
    )
    metrics = path_metrics(model, 16)
    # Base -> T and Derived -> T (inherited)
    assert metrics.path_count == 2
    assert metrics.journey_count == 2


def random_graph_model(rng: random.Random, max_graph_nodes: int = 12) -> UMLModel:
    node_count = rng.randint(2, max_graph_nodes)
    nodes = [f"G{i}" for i in range(node_count)]
    edges = []
    used = set()
    for k in range(rng.randint(1, int(node_count * 1.5))):
        source, target = rng.choice(nodes), rng.choice(nodes)
        if source == target or (source, f"r{k}") in used:
            continue
        used.add((source, f"r{k}"))
        edges.append((source, f"r{k}", target))
    return graph_model(nodes, edges)


def test_cabio_fixture_matches_oracle(cabio_model):
    assert_matches_oracle(cabio_model, max_nodes=16)
    metrics = path_metrics(cabio_model, 16)
    assert metrics.path_count > 0
    assert metrics.longest_path >= 3  # SNP -> GeneRelativeLocation -> Gene


def test_random_graphs_match_oracle_small():
    rng = random.Random(resolve_seed())
    for _ in range(50):
        model = random_graph_model(rng)
        assert_matches_oracle(model, max_nodes=rng.randint(2, 12))


def test_adding_edge_never_decreases_counts():
    rng = random.Random(resolve_seed() + 4)
    for _ in range(20):
        model = random_graph_model(rng, max_graph_nodes=8)
        before = path_metrics(model, 10)
        names = model.class_names()
        source, target = rng.choice(names), rng.choice(names)
        if source == target:
            continue
        extended = UMLModel(
            project_name=model.project_name,
            version=model.version,
            package_prefix=model.package_prefix,
            classes=model.classes,
            associations=model.associations
            + (UMLAssociation(source=source, role_name="extra", target=target),),
        )
        after = path_metrics(extended, 10)
        assert after.path_count >= before.path_count
        assert after.longest_path >= before.longest_path


def test_invariants_hold():
    rng = random.Random(resolve_seed() + 5)
    for _ in range(30):
        metrics = path_metrics(random_graph_model(rng), 12)
        if metrics.path_count:
            assert metrics.avg_nodes_per_path <= metrics.longest_path
        if metrics.journey_count:
            assert metrics.path_count >= metrics.journey_count


def test_csv_rendering_is_deterministic():
    model = graph_model(["A", "B"], [("A", "r", "B")])
    assert render_metrics_csv(path_metrics(model, 16)) == render_metrics_csv(
        path_metrics(model, 16)
    )
    assert render_metrics_csv(path_metrics(model, 16)).startswith("longest_path,")


# --- timing harness -------------------------------------------------------------


def test_stage_timings_report_shape():
    model, thesaurus, group_one, group_two = benchmark_model()
    report = stage_timings(group_one + group_two, model, thesaurus, repetitions=2)
    assert len(report.rows) == 10
    assert set(report.group_means_us) == {1, 2}
    assert [row.path_length for row in report.rows] == [1] * 5 + [2] * 5
    assert report.failed == ()
    csv_text = render_timing_csv(report)
    assert csv_text.splitlines()[0] == "query,stage,mean_us,pathLength"
    table = render_timing_table(report)
    for stage in ("parse", "pathFind", "cql"):
        assert stage in table


def test_single_repetition_single_sample():
    model, thesaurus, group_one, _ = benchmark_model()
    report = stage_timings(group_one[:1], model, thesaurus, repetitions=1)
    assert len(report.rows) == 1
    assert report.rows[0].repetitions == 1


def test_failed_queries_are_noted():
    model, thesaurus, group_one, _ = benchmark_model()
    report = stage_timings(
        ["NoSuchConcept"] + group_one[:1], model, thesaurus, repetitions=1
    )
    assert len(report.rows) == 1
    assert len(report.failed) == 1
    assert "umlExtract" in report.failed[0][1]


def test_stage_sums_within_end_to_end_budget():
    model, thesaurus, group_one, group_two = benchmark_model()
    report = stage_timings(group_one + group_two, model, thesaurus, repetitions=3)
    for row in report.rows:
        stage_sum = sum(row.stage_means_us.values())
        assert stage_sum <= row.end_to_end_us * 1.10
