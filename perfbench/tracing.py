"""Spans recorded from outside the program, and the arithmetic over them.

Wrappers replace the public functions that ``onco_rewriter.pipeline`` calls
through its module namespace, so the program itself carries no hooks. Every
span keeps its name, start, end, parent span and request id, on the one
wall clock (``perf_counter_ns``), in memory until the run ends.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

# pipeline-module name -> span name; all of them are looked up through the
# pipeline module's globals at call time
PIPELINE_CALLS = {
    "parse_query": "pipeline.parse",
    "extract_uml": "pipeline.umlExtract",
    "extract_data_values": "pipeline.valueExtract",
    "validate_semantics": "pipeline.validate",
    "find_property_paths": "pipeline.pathFind",
    "reinsert_data_values": "pipeline.valueReinsert",
    "to_mcc": "pipeline.mcc",
    "mcc_to_cql": "pipeline.cql",
    "strip_disjoints": "module_extraction.strip",
    "extract_module": "module_extraction.extract",
    "generate_ontology": "ontology.generate",
    "merge_axiom_sets": "ontology.merge",
    "classify": "reasoner.classify",
    "find_paths": "reasoner.find_paths",
    "association_reachable": "reasoner.reachable",
}


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int  # index into the span list, -1 for a root
    request: str


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.request = ""
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """``fn`` recording one span per call; ``on_result(counts, result)``
        and ``on_error(counts, exc)`` update counters at the same boundary."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[index] = Span(name, start, clock(), parent, self.request)
                stack.pop()
                if on_error is not None:
                    on_error(self.counts, exc)
                raise
            spans[index] = Span(name, start, clock(), parent, self.request)
            stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str, request: str):
        """A root span around benchmark code, e.g. one query."""
        self.request = request
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[index] = Span(name, start, time.perf_counter_ns(), parent, request)
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


@contextmanager
def installed(module, replacements: dict):
    """Swap ``module.<attr>`` for each wrapper, restoring on exit."""
    originals = {attr: getattr(module, attr) for attr in replacements}
    for attr, wrapper in replacements.items():
        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for attr, original in originals.items():
            setattr(module, attr, original)


def malformed(spans: list[Span | None]) -> list[str]:
    """Why the spans cannot be read as a tree of calls: a span never closed,
    a span outside its parent's interval or of another request, or siblings
    that overlap. Empty for a well-formed tree, on which the self times of
    a root's spans add up to the root's duration."""
    problems = []
    last_end: dict[int, int] = {}  # per parent, the end of its latest child
    for i, span in enumerate(spans):
        if span is None:
            problems.append(f"span {i} was never closed")
            continue
        if span.end < span.start:
            problems.append(f"span {i} ({span.name}) ends before it starts")
        if span.parent < 0:
            continue
        parent = spans[span.parent]
        if parent is None:
            continue  # reported as unclosed
        if span.start < parent.start or span.end > parent.end:
            problems.append(f"span {i} ({span.name}) lies outside its parent {parent.name}")
        if span.request != parent.request:
            problems.append(f"span {i} ({span.name}) has another request than its parent")
        if span.start < last_end.get(span.parent, span.start):
            problems.append(f"span {i} ({span.name}) overlaps an earlier sibling")
        last_end[span.parent] = span.end
    return problems


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def layer_totals(spans: list[Span], roots: set[str]) -> tuple[dict[str, int], dict[str, int], int]:
    """Summed self time per span name under root spans named in ``roots``.

    Returns (self time by layer, self time of the roots by root name, number
    of root spans). A root's self time is what no layer span covers: the
    unattributed residual.
    """
    own = self_times(spans)
    in_scope = [False] * len(spans)
    layers: Counter = Counter()
    residual: Counter = Counter()
    count = 0
    for i, span in enumerate(spans):
        if span.parent < 0:
            in_scope[i] = span.name in roots
            if in_scope[i]:
                residual[span.name] += own[i]
                count += 1
        else:
            in_scope[i] = in_scope[span.parent]
            if in_scope[i]:
                layers[span.name] += own[i]
    return dict(layers), dict(residual), count
