"""One benchmark run in a fresh single-threaded process.

``run.py`` starts this script, writes one JSON job to its standard input
(the generated documents as text plus the run settings) and reads one JSON
report from the last line of its standard output. A single closed-loop
client sends each query only after the previous one has completed.

A warm workload prepares one context, runs one discarded warm-up pass over
its query suite and then repeats the suite on that context in seeded orders
until the run's seconds are spent. Once a second, between two suite
passes, it makes further preparations from the document text, each timed
and dropped at once (the median over all preparations, the first included,
is ``setup_s``), and then times ``path_metrics`` on the model. Each suite
pass also records its busy time, the sum of its queries' latencies;
``queries_per_s`` is the suite size over the median of these, so a rare
stall of the machine moves a few passes rather than the whole figure. The
cold workload makes fresh preparations from the document text until the
seconds are spent (at least three); each answers the suite once, in a
seeded order, with no warm-up, and ``path_metrics`` is timed once a second
on the latest one.

Timings go to fixed-size sample buffers allocated before anything is
measured, so the memory the benchmark itself holds does not grow with the
program's speed and ``peak_rss_mb`` stays the program's.

With tracing on, the preparations run under spans and every query runs
twice on the same context, untraced and then traced, so the traced run also
yields the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402

MIN_PREPARATIONS = 3
PLANNED = 7  # preparations (warm workloads) and path_metrics calls at least
SETUP_SHARE = 0.1
PATH_METRICS_SHARE = 0.05
LATENCY_CAPACITY = 1 << 16  # above what the fastest workload runs in 30 s today
TIMING_CAPACITY = 1 << 10  # preparations and path_metrics calls
ROUND_NS = 1_000_000_000  # the interleaved calls run in a burst once a second
COLD_CALL_NS = 10_000_000  # a path_metrics burst's first call below this is untimed

clock = time.perf_counter_ns


def _count(**sizes):
    """A span counter adding ``len`` or a function of the call's result."""

    def update(counts, result):
        for name, size in sizes.items():
            counts[name] += size(result)

    return update


def _keep(**sizes):
    """A span counter keeping the latest size (per-context facts)."""

    def update(counts, result):
        for name, size in sizes.items():
            counts[name] = size(result)

    return update


ON_RESULT = {
    "extract_uml": _count(candidates_extracted=len),
    "validate_semantics": _count(candidates_dropped=lambda r: 0 if r.ok else 1),
    "find_property_paths": _count(expansions=len),
    "find_paths": _count(find_paths_calls=lambda r: 1, paths_found=len),
    "strip_disjoints": _keep(strip_axioms=len),
    "extract_module": _keep(module_axioms=len),
    "merge_axiom_sets": _keep(ontology_axioms=len),
    "classify": _keep(
        index_names=lambda r: len(r.subsumers),
        reach_pairs=lambda r: sum(len(v) for v in r.reach.values()),
    ),
}


def _dropped_without_path(counts, error):
    if type(error).__name__ == "NoPathError":
        counts["candidates_dropped"] += 1


ON_ERROR = {"find_property_paths": _dropped_without_path}


def import_program():
    """The rewriter from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "onco_rewriter" / "__init__.py").is_file():
        raise SystemExit(f"no onco_rewriter sources under {src}")
    sys.path.insert(0, str(src))
    import onco_rewriter

    if Path(onco_rewriter.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"imported onco_rewriter from {onco_rewriter.__file__}, not {src}")
    return onco_rewriter


class Samples:
    """A uniform seeded choice of at most ``capacity`` of the values offered
    (reservoir sampling), in a buffer allocated up front, plus the count and
    sum of every value offered."""

    def __init__(self, capacity: int, seed: str):
        self.buffer = array("q", [0]) * capacity
        self.count = 0
        self.total = 0
        self._rng = random.Random(seed)

    def add(self, value: int) -> None:
        capacity = len(self.buffer)
        if self.count < capacity:
            self.buffer[self.count] = value
        else:
            slot = self._rng.randrange(self.count + 1)
            if slot < capacity:
                self.buffer[slot] = value
        self.count += 1
        self.total += value

    def values(self) -> list[int]:
        return self.buffer[: min(self.count, len(self.buffer))].tolist()


class Run:
    def __init__(self, job: dict, program):
        self.job = job
        self.program = program
        self.pipeline = program.pipeline
        self.queries: list[str] = job["queries"]
        self.first: dict[int, dict] = {}
        self.mismatches: Counter = Counter()
        self.executions: Counter = Counter()
        seed = job["seed"]
        self.latency_ns = Samples(LATENCY_CAPACITY, f"{seed}:latency")
        self.pass_busy_ns = Samples(LATENCY_CAPACITY, f"{seed}:pass")
        self.setup_ns = Samples(TIMING_CAPACITY, f"{seed}:setup")
        self.path_metrics_ns = Samples(TIMING_CAPACITY, f"{seed}:path_metrics")
        self.tracer = tracing.Tracer() if job["trace"] else None
        # call-site functions; the traced run swaps in wrapped ones
        self.load_model = program.load_model
        self.load_thesaurus = program.load_thesaurus
        self.prepare_context = program.prepare_context
        self.to_xml = program.to_xml
        self.thesaurus_axioms = 0

    # --- set-up -------------------------------------------------------------

    def setup(self):
        start = clock()
        model = self.load_model(self.job["model"])
        thesaurus = self.load_thesaurus(self.job["thesaurus"])
        context = self.prepare_context(model, thesaurus)
        self.setup_ns.add(clock() - start)
        self.thesaurus_axioms = len(thesaurus.subsumptions) + len(thesaurus.disjointness)
        return context

    def traced_setup(self):
        with self.traced_calls(), self.tracer.span("setup", f"setup{self.setup_ns.count}"):
            return self.setup()

    def prepare(self):
        if self.tracer is not None:
            return self.traced_setup()
        # the garbage of the previous preparation goes here, so every
        # preparation starts from the same heap and peak_rss_mb sees the same
        # contexts alive on every run (the traced run skips this: its spans
        # fill the heap)
        gc.collect()
        return self.setup()

    # --- queries --------------------------------------------------------------

    def execute(self, context, text: str):
        """One timed query: text in, every candidate serialized or the
        rejection out. Returns (elapsed ns, outcome or None, xml list, error)."""
        outcome = xmls = error = None
        start = clock()
        try:
            outcome = self.pipeline.rewrite_prepared(context, text)
            xmls = [self.to_xml(result.cql) for result in outcome.results]
        except Exception as exc:  # a rejection, or a failure the checks count
            error = exc
        return clock() - start, outcome, xmls, error

    def record(self, outcome, xmls, error) -> dict:
        if error is not None:
            return {"error": type(error).__name__, "stage": getattr(error, "stage", None)}
        return {
            "results": [
                {
                    "xml": xml,
                    "provenance": checks.provenance_json(
                        result.provenance.concept_choices, result.provenance.path_choices
                    ),
                }
                for result, xml in zip(outcome.results, xmls)
            ]
        }

    def program_checks(self, outcome, xmls, error) -> list[str]:
        if error is not None:
            if isinstance(error, self.pipeline.PipelineError):
                return []
            return [f"unexpected {type(error).__name__}: {error}"]
        problems = []
        for n, (result, xml) in enumerate(zip(outcome.results, xmls)):
            violations = self.program.validate_grammar(result.cql)
            if violations:
                problems.append(f"candidate {n} breaks the CQL grammar: {violations[0]}")
            try:
                if self.program.parse_xml(xml) != result.cql:
                    problems.append(f"candidate {n} does not round-trip through parse_xml")
            except ValueError as exc:
                problems.append(f"candidate {n} does not parse back: {exc}")
        return problems

    def query(self, context, index: int, measured: bool, traced: bool = False) -> int:
        if traced:
            with self.tracer.span("query", f"query{len(self.tracer.spans)}:q{index}"):
                elapsed, outcome, xmls, error = self.execute(context, self.queries[index])
        else:
            elapsed, outcome, xmls, error = self.execute(context, self.queries[index])
        if measured:
            self.latency_ns.add(elapsed)
        self.executions[index] += 1
        record = self.record(outcome, xmls, error)
        digest = checks.outcome_digest(record)
        if index not in self.first:
            record["program_checks"] = self.program_checks(outcome, xmls, error)
            record["digest"] = digest
            self.first[index] = record
        elif digest != self.first[index]["digest"]:
            self.mismatches[index] += 1
        if traced:
            counts = self.tracer.counts
            if outcome is not None:
                counts["results"] += len(outcome.results)
                counts["xml_bytes"] += sum(len(x.encode()) for x in xmls)
            elif isinstance(error, self.pipeline.CandidateLimitError):
                counts["limit_rejections"] += 1
        return elapsed

    def order(self, number: int) -> list[int]:
        """The seeded query order of suite pass ``number``."""
        order = list(range(len(self.queries)))
        random.Random(f"{self.job['seed']}:{number}").shuffle(order)
        return order

    def suite_pass(self, context, number: int, measured: bool = True) -> int:
        return sum(self.query(context, i, measured) for i in self.order(number))

    # --- tracing ----------------------------------------------------------------

    @contextmanager
    def traced_calls(self):
        """Span wrappers on the pipeline's module-level calls and on this
        run's own call sites, for the duration of the block."""
        t = self.tracer
        wrappers = {
            attr: t.wrap(span, getattr(self.pipeline, attr), ON_RESULT.get(attr), ON_ERROR.get(attr))
            for attr, span in tracing.PIPELINE_CALLS.items()
        }
        originals = (self.load_model, self.load_thesaurus, self.prepare_context, self.to_xml)
        self.load_model = t.wrap("model.load_model", originals[0])
        self.load_thesaurus = t.wrap("model.load_thesaurus", originals[1])
        self.prepare_context = t.wrap("pipeline.prepare_context", originals[2])
        self.to_xml = t.wrap("cql.to_xml", originals[3])
        try:
            with tracing.installed(self.pipeline, wrappers):
                yield
        finally:
            self.load_model, self.load_thesaurus, self.prepare_context, self.to_xml = originals

    def layer_metrics(self, passes: int, untraced_ns: int, traced_ns: int) -> dict:
        spans = self.tracer.spans
        problems = tracing.malformed(spans)
        if problems:
            raise SystemExit("the spans do not form a call tree: " + "; ".join(problems[:5]))
        setup_layers, _, setups = tracing.layer_totals(spans, {"setup"})
        query_layers, residual, queries = tracing.layer_totals(spans, {"query"})
        wall = sum(s.end - s.start for s in spans if s.parent < 0 and s.name == "query")
        c = self.tracer.counts

        def ms(name):
            return setup_layers.get(name, 0) / setups / 1e6

        def us(name):
            return query_layers.get(name, 0) / queries / 1e3

        def per_pass(name):
            return c[name] / passes

        built = c["candidates_extracted"] + c["expansions"]
        metrics = {
            "model.load_model_ms": (ms("model.load_model"), "ms"),
            "model.load_thesaurus_ms": (ms("model.load_thesaurus"), "ms"),
            "model.thesaurus_axioms": (self.thesaurus_axioms, "count"),
            "module_extraction.strip_ms": (ms("module_extraction.strip"), "ms"),
            "module_extraction.extract_ms": (ms("module_extraction.extract"), "ms"),
            "module_extraction.kept_ratio": (c["module_axioms"] / c["strip_axioms"], "ratio"),
            "ontology.generate_ms": (ms("ontology.generate"), "ms"),
            "ontology.merge_ms": (ms("ontology.merge"), "ms"),
            "ontology.axioms": (c["ontology_axioms"], "count"),
            "reasoner.classify_ms": (ms("reasoner.classify"), "ms"),
            "reasoner.index_names": (c["index_names"], "count"),
            "reasoner.reach_pairs": (c["reach_pairs"], "count"),
            "reasoner.find_paths_us": (us("reasoner.find_paths"), "us"),
            "reasoner.find_paths_calls": (per_pass("find_paths_calls"), "count"),
            "reasoner.paths_found": (per_pass("paths_found"), "count"),
            "reasoner.reachable_us": (us("reasoner.reachable"), "us"),
        }
        for stage in self.pipeline.STAGES:
            metrics[f"pipeline.{stage}_us"] = (us(f"pipeline.{stage}"), "us")
        metrics.update({
            "pipeline.candidates_extracted": (per_pass("candidates_extracted"), "count"),
            "pipeline.candidates_dropped": (per_pass("candidates_dropped"), "count"),
            "pipeline.expansions": (per_pass("expansions"), "count"),
            "pipeline.results": (per_pass("results"), "count"),
            "pipeline.limit_rejections": (per_pass("limit_rejections"), "count"),
            "pipeline.useful_ratio": (c["results"] / built if built else 0.0, "ratio"),
            "pipeline.unattributed_us": (residual.get("query", 0) / queries / 1e3, "us"),
            "cql.to_xml_us": (us("cql.to_xml"), "us"),
            "cql.xml_bytes": (per_pass("xml_bytes"), "bytes"),
            "trace.query_wall_us": (wall / queries / 1e3, "us"),
            "trace.overhead_pct": ((traced_ns / untraced_ns - 1.0) * 100.0, "%"),
        })
        return {
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            "traced_queries": queries,
        }


def measure(run: Run, seconds: float) -> dict:
    """The run's measured phase; see the module docstring.

    At the first suite-pass boundary of every second, the warm workloads'
    throwaway preparations and then the ``path_metrics`` calls run in a
    burst, each until it has its share of the elapsed time and its planned
    count. So every metric samples the whole run, and a slow spell of the
    machine moves all of them a little rather than one of them a lot; and
    queries and ``path_metrics`` calls mostly run one after another of their
    own kind, on caches they warmed themselves. (A ``path_metrics`` call on
    the caBIO model took 65 us right after a query and 42 us right after
    another call, on a 2.1 GHz Xeon; how much of that refill cost shows
    depends on what the machine's other tenants leave in the shared cache.)
    A burst's first ``path_metrics`` call, when shorter than
    ``COLD_CALL_NS``, is its untimed warm-up.
    """
    warm = run.job["kind"] == "warm"
    traced = run.tracer is not None
    budget = seconds * 1e9
    summary = None
    passes = untraced_ns = traced_ns = 0
    context = None
    if warm:
        context = run.prepare()  # the query context, kept for the whole run
        run.suite_pass(context, 0, measured=False)  # discarded warm-up
    # what is alive now (modules, documents, the warm query context) lives
    # for the whole run; frozen, it drops out of the collector's full passes,
    # whose cost would otherwise fall on whichever queries they interrupt,
    # which depends on when the time-driven interleaved calls happened
    gc.collect()
    gc.freeze()
    setups = setup_spent = path_spent = 0  # since the measured phase began
    start = clock()

    def due(spent: int, count: int, share: float) -> bool:
        elapsed = clock() - start
        return spent < share * elapsed or count < PLANNED * min(elapsed / budget, 1)

    next_round = 0
    while run.setup_ns.count < MIN_PREPARATIONS or clock() - start < budget:
        if not warm:
            context = None
            context = run.prepare()
        elapsed = clock() - start
        if elapsed >= next_round:
            next_round = (elapsed // ROUND_NS + 1) * ROUND_NS
            made = setups
            while warm and due(setup_spent, setups, SETUP_SHARE):
                before = run.setup_ns.total
                run.prepare()  # timed for setup_s and dropped
                setups += 1
                setup_spent += run.setup_ns.total - before
            if setups > made and not traced:
                gc.collect()  # the last throwaway's garbage, outside the queries
            warming = True
            while not traced and due(path_spent, run.path_metrics_ns.count, PATH_METRICS_SHARE):
                begin = clock()
                result = run.program.path_metrics(context.model)
                took = clock() - begin
                path_spent += took
                if not (warming and took < COLD_CALL_NS):
                    run.path_metrics_ns.add(took)
                warming = False
                current = [result.longest_path, result.journey_count, result.path_count]
                if summary is not None and current != summary:
                    raise RuntimeError("path_metrics changed between repetitions")
                summary = current
        passes += 1
        busy = 0
        for i in run.order(passes):
            busy += run.query(context, i, measured=True)
            if traced:
                with run.traced_calls():
                    traced_ns += run.query(context, i, measured=False, traced=True)
        run.pass_busy_ns.add(busy)
        untraced_ns += busy
    gc.unfreeze()
    if traced:
        return {"trace": run.layer_metrics(passes, untraced_ns, traced_ns)}
    return {"path_metrics": summary}


def main() -> int:
    job = json.loads(sys.stdin.read())
    program = import_program()
    run = Run(job, program)
    report = measure(run, job["seconds"])
    # read before the report's own lists and strings are built
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if run.tracer is not None:
        run.tracer.write(Path(job["spans_path"]))
    report.update(
        setups=run.setup_ns.count,
        setup_ns=run.setup_ns.values(),
        queries=run.latency_ns.count,
        pass_busy_ns=run.pass_busy_ns.values(),
        latency_ns=run.latency_ns.values(),
        path_metrics_calls=run.path_metrics_ns.count,
        path_metrics_ns=run.path_metrics_ns.values(),
        outcomes=[run.first[i] for i in range(len(run.queries))],
        executions=[run.executions[i] for i in range(len(run.queries))],
        mismatches=[run.mismatches[i] for i in range(len(run.queries))],
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
