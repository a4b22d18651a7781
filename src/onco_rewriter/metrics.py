"""Path-complexity metrics and the per-stage timing harness.

Path lengths are counted in nodes including both endpoints. A journey is an
ordered class pair with at least one path; a journey may have many paths.
Longest-simple-path enumeration is exponential in general, so everything
runs under an explicit node budget which is carried in the report.

The timing harness reruns the rewriting stages over a prepared context with
a monotonic clock, discards one warm-up run, takes the repetitions
round-robin over the queries, and groups query rows by the path length of
their rewriting.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from fractions import Fraction

from .model import InputError, Thesaurus, UMLModel
from .pipeline import (
    STAGES,
    PipelineError,
    RewriteOptions,
    prepare_context,
    rewrite_prepared,
)


@dataclass(frozen=True)
class PathMetrics:
    longest_path: int
    journey_count: int
    path_count: int
    avg_paths_per_journey: Fraction
    avg_nodes_per_path: Fraction
    max_nodes: int


def association_edges(model: UMLModel) -> dict[str, tuple[tuple[str, str], ...]]:
    """Directed association graph with inherited edges made explicit.

    Edge labels keep the declaring class, role and target so parallel roles
    count as distinct routes.
    """
    own: dict[str, list[tuple[str, str]]] = {c.name: [] for c in model.classes}
    for assoc in model.associations:
        label = f"{assoc.source}_{assoc.role_name}_{assoc.target}"
        own[assoc.source].append((label, assoc.target))
    edges: dict[str, tuple[tuple[str, str], ...]] = {}
    for cls in model.classes:
        combined = list(own[cls.name])
        for ancestor in model.ancestors(cls.name):
            combined.extend(own[ancestor])
        edges[cls.name] = tuple(sorted(set(combined)))
    return edges


def path_metrics(model: UMLModel, max_nodes: int = 16) -> PathMetrics:
    """Enumerate every simple association path up to the node budget and
    aggregate longest path, paths per journey, and nodes per path. The walk
    is depth-first: the edge iterator of the path's last node is a local,
    and the iterators of the nodes before it wait on an explicit stack."""
    if max_nodes < 2:
        raise InputError("max_nodes must be at least 2")
    edges = association_edges(model)
    longest = 0
    path_count = 0
    node_sum = 0
    journey_count = 0
    path: list[str] = []
    visited: set[str] = set()
    stack: list = []
    for cls in model.classes:
        reached: set[str] = set()
        path.append(cls.name)
        visited.add(cls.name)
        edge_iter = iter(edges[cls.name])
        nodes = 2  # of a path that ends at the next target of edge_iter
        while True:
            for _, target in edge_iter:
                if target in visited:
                    continue
                path_count += 1
                node_sum += nodes
                reached.add(target)
                if nodes > longest:
                    longest = nodes
                if nodes < max_nodes:
                    path.append(target)
                    visited.add(target)
                    stack.append(edge_iter)
                    edge_iter = iter(edges[target])
                    nodes += 1
                    break
            else:
                visited.discard(path.pop())
                if not stack:
                    break
                edge_iter = stack.pop()
                nodes -= 1
        journey_count += len(reached)

    return PathMetrics(
        longest_path=longest,
        journey_count=journey_count,
        path_count=path_count,
        avg_paths_per_journey=(
            Fraction(path_count, journey_count) if journey_count else Fraction(0)
        ),
        avg_nodes_per_path=(Fraction(node_sum, path_count) if path_count else Fraction(0)),
        max_nodes=max_nodes,
    )


# --- timing harness ---------------------------------------------------------


@dataclass(frozen=True)
class QueryTiming:
    query: str
    path_length: int
    repetitions: int
    stage_means_us: dict[str, float]
    end_to_end_us: float


@dataclass(frozen=True)
class TimingReport:
    rows: tuple[QueryTiming, ...]
    group_means_us: dict[int, dict[str, float]]
    repetitions: int
    failed: tuple[tuple[str, str], ...] = ()


def stage_timings(
    queries: list[str],
    model: UMLModel,
    thesaurus: Thesaurus,
    repetitions: int = 5,
    options: RewriteOptions | None = None,
) -> TimingReport:
    """Mean per-stage times for each query, plus group means keyed by the
    path length of the rewriting, from the process CPU clock; the stages of
    a row sum to nearly its end-to-end time (``RewriteOutcome``). Queries
    that fail to rewrite are reported in ``failed`` and contribute no row."""
    context = prepare_context(model, thesaurus)
    rows: list[QueryTiming] = []
    failed: list[tuple[str, str]] = []
    # one discarded warm-up pass over the whole suite, so no measured row
    # pays first-run costs and failing queries are known up front
    runnable: list[str] = []
    for query in queries:
        try:
            rewrite_prepared(context, query, options)
            runnable.append(query)
        except PipelineError as error:
            failed.append((query, f"{error.stage}: {error}"))
    sums = [dict.fromkeys(STAGES, 0.0) for _ in runnable]
    end_to_end = [0.0] * len(runnable)
    outcomes = [None] * len(runnable)
    # collector pauses would dwarf microsecond stages; keep it out of the
    # measured section, and take the repetitions round-robin over the
    # queries, so a slow spell of the machine falls on every query alike
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repetitions):
            for i, query in enumerate(runnable):
                start = time.process_time_ns()
                outcomes[i] = outcome = rewrite_prepared(context, query, options)
                end_to_end[i] += (time.process_time_ns() - start) / 1000.0
                for stage in STAGES:
                    sums[i][stage] += outcome.durations_us[stage]
    finally:
        if gc_was_enabled:
            gc.enable()
    for query, stage_sums, total, outcome in zip(runnable, sums, end_to_end, outcomes):
        assert outcome is not None
        path_length = max(
            (len(props) for _, _, props in outcome.results[0].provenance.path_choices),
            default=0,
        )
        rows.append(
            QueryTiming(
                query=query,
                path_length=path_length,
                repetitions=repetitions,
                stage_means_us={stage: stage_sums[stage] / repetitions for stage in STAGES},
                end_to_end_us=total / repetitions,
            )
        )

    groups: dict[int, list[QueryTiming]] = {}
    for row in rows:
        groups.setdefault(row.path_length, []).append(row)
    group_means = {
        length: {
            stage: sum(row.stage_means_us[stage] for row in members) / len(members)
            for stage in STAGES
        }
        for length, members in sorted(groups.items())
    }
    return TimingReport(
        rows=tuple(rows),
        group_means_us=group_means,
        repetitions=repetitions,
        failed=tuple(failed),
    )


# --- report rendering ---------------------------------------------------------


def _fraction_str(value: Fraction) -> str:
    return f"{float(value):.6g}"


def render_metrics_table(metrics: PathMetrics) -> str:
    lines = [
        f"longest path (nodes):    {metrics.longest_path}",
        f"journeys:                {metrics.journey_count}",
        f"paths:                   {metrics.path_count}",
        f"avg paths per journey:   {_fraction_str(metrics.avg_paths_per_journey)}",
        f"avg nodes per path:      {_fraction_str(metrics.avg_nodes_per_path)}",
        f"node budget:             {metrics.max_nodes}",
    ]
    return "\n".join(lines) + "\n"


def render_metrics_csv(metrics: PathMetrics) -> str:
    header = "longest_path,journeys,paths,avg_paths_per_journey,avg_nodes_per_path,max_nodes"
    row = ",".join(
        [
            str(metrics.longest_path),
            str(metrics.journey_count),
            str(metrics.path_count),
            _fraction_str(metrics.avg_paths_per_journey),
            _fraction_str(metrics.avg_nodes_per_path),
            str(metrics.max_nodes),
        ]
    )
    return header + "\n" + row + "\n"


def render_timing_table(report: TimingReport) -> str:
    """Wide table: one row per query with the eight stage columns."""
    header = ["query", "pathLen"] + list(STAGES) + ["total"]
    rows: list[list[str]] = []
    for row in report.rows:
        label = row.query if len(row.query) <= 40 else row.query[:37] + "..."
        rows.append(
            [label, str(row.path_length)]
            + [f"{row.stage_means_us[stage]:.1f}" for stage in STAGES]
            + [f"{row.end_to_end_us:.1f}"]
        )
    for length, means in report.group_means_us.items():
        rows.append(
            [f"mean(pathLen={length})", str(length)]
            + [f"{means[stage]:.1f}" for stage in STAGES]
            + [""]
        )
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row_cells in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row_cells)))
    if report.failed:
        lines.append("")
        for query, error in report.failed:
            lines.append(f"failed: {query}: {error}")
    return "\n".join(lines) + "\n"


def render_timing_csv(report: TimingReport) -> str:
    """Long CSV: query, stage, mean_us, pathLength; group means appended."""
    lines = ["query,stage,mean_us,pathLength"]

    def csv_quote(value: str) -> str:
        if any(ch in value for ch in ',"\n'):
            return '"' + value.replace('"', '""') + '"'
        return value

    for row in report.rows:
        for stage in STAGES:
            lines.append(
                f"{csv_quote(row.query)},{stage},{row.stage_means_us[stage]:.3f},{row.path_length}"
            )
    for length, means in report.group_means_us.items():
        for stage in STAGES:
            lines.append(f"group-mean,{stage},{means[stage]:.3f},{length}")
    return "\n".join(lines) + "\n"
