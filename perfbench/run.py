"""The rewrite benchmark.

    python3 perfbench/run.py --workload ladder400-warm --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The parent process generates the workload's
documents from the seed, computes the expected outcome of every query with
the independent reference in ``oracle.py``, and hands the documents as text
to ``worker.py`` in a fresh process, which runs the rewriter from the
checkout's ``src``. The parent then checks every output and prints each
metric by name with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, from a separate traced run
whose spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import generate  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = {"cabio-warm": "warm", "ladder400-warm": "warm", "ncit-cold": "cold"}
WORKER_TIMEOUT_S = 170
PINNED = HERE / "pinned.json"


def percentile_90(values: list[int]) -> float:
    return statistics.quantiles(values, n=10)[8]


def check_outputs(name: str, seed: int, work: generate.Workload, report: dict,
                  pinned: dict) -> tuple[dict[int, list[str]], list[str]]:
    """Problems per query index, and problems that spoil the whole run."""
    general: list[str] = []
    if name == "cabio-warm" or seed == pinned["default_seed"]:
        if work.digests() != pinned["documents"][name]:
            general.append("generated documents differ from the pinned digests")
    key = "any" if name == "cabio-warm" else str(seed)
    pinned_outputs = pinned["outputs"][name].get(key)
    pinned_paths = pinned["path_metrics"][name].get(key)
    if pinned_paths is not None and report.get("path_metrics") not in (None, pinned_paths):
        general.append(f"path_metrics gave {report['path_metrics']}, pinned {pinned_paths}")

    facts = oracle.Facts(json.loads(work.model_json), work.thesaurus_text)
    per_query: dict[int, list[str]] = {}
    for i, (spec, outcome) in enumerate(zip(work.queries, report["outcomes"])):
        problems = checks.check_query(
            outcome, facts.expected(spec), pinned_outputs[i] if pinned_outputs else None
        )
        if name == "cabio-warm" and i == 0:
            results = outcome.get("results") or []
            if len(results) != 1 or not checks.xml_semantically_equal(
                results[0]["xml"], checks.TGFB1_DOCUMENT
            ):
                problems.append("the SNP query differs from the reference listing")
        if report["mismatches"][i]:
            problems.append(f"{report['mismatches'][i]} repeats gave other bytes than the first")
        if problems:
            per_query[i] = problems
    return per_query, general


def end_to_end(report: dict, attempted: int, failed: int) -> dict:
    latency = report["latency_ns"]
    suite = len(report["outcomes"])
    return {
        "setup_s": (statistics.median(report["setup_ns"]) / 1e9, "s"),
        "query_p50_us": (statistics.median(latency) / 1e3, "us"),
        "query_p90_us": (percentile_90(latency) / 1e3, "us"),
        "queries_per_s": (suite / (statistics.median(report["pass_busy_ns"]) / 1e9), "1/s"),
        "path_metrics_s": (statistics.median(report["path_metrics_ns"]) / 1e9, "s"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024, "MB"),
        "failed_share": (failed / attempted, "share"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "onco_rewriter" / "__init__.py").is_file():
        print(f"no onco_rewriter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = generate.workload(args.workload, args.seed)
    spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    job = {
        "kind": WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "model": work.model_json,
        "thesaurus": work.thesaurus_text,
        "queries": [q.text() for q in work.queries],
        "spans_path": str(spans),
    }
    # a fixed hash seed keeps set iteration order, and so timing, alike
    # across runs; no output depends on it
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"worker failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    pinned = json.loads(PINNED.read_text())
    per_query, general = check_outputs(args.workload, args.seed, work, report, pinned)
    executions = report["executions"]
    attempted = report["setups"] + sum(executions)
    if general:
        failed = attempted
    else:
        failed = sum(
            executions[i] if i in per_query else report["mismatches"][i]
            for i in range(len(executions))
        )
    for problem in general:
        print(f"problem: {problem}")
    for i, problems in sorted(per_query.items()):
        for problem in problems:
            print(f"problem: query {i} ({work.queries[i].text()}): {problem}")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if args.trace:
        trace = report["trace"]
        metrics = {name: (m["value"], m["unit"]) for name, m in trace["metrics"].items()}
        print(f"traced queries {trace['traced_queries']}; the spans form a call tree, so layer "
              f"self times plus pipeline.unattributed_us add up to trace.query_wall_us")
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(report, attempted, failed)
        kept = len(report["latency_ns"])
        print(f"queries {report['queries']}, of which {kept} kept as latency samples "
              f"(about {kept - round(0.9 * kept)} beyond p90); set-ups {report['setups']}; "
              f"path_metrics repetitions {report['path_metrics_calls']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    metrics.pop("failed_share", None)  # zero when correct; carried by attempted/failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
