"""Regenerate ``pinned.json``.

    python3 perfbench/pin.py

Records the digests of the generated documents for the default seed (and of
the fixed caBIO inputs), and for each pinned seed the output digest of every
query and the ``path_metrics`` summary. It refuses to pin an output that the
independent reference in ``oracle.py`` rejects. The rewriter's output is
meant to stay byte-identical, so re-pin only when a change of the benchmark
itself alters the inputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import generate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

DEFAULT_SEED = 1
PINNED_SEEDS = range(20)


def outputs(program, name: str, seed: int) -> tuple[list[str], list[int]]:
    work = generate.workload(name, seed)
    job = {
        "kind": run.WORKLOADS[name],
        "seed": seed,
        "trace": 0,
        "model": work.model_json,
        "thesaurus": work.thesaurus_text,
        "queries": [q.text() for q in work.queries],
    }
    runner = worker.Run(job, program)
    context = runner.setup()
    runner.suite_pass(context, 0, measured=False)
    facts = oracle.Facts(json.loads(work.model_json), work.thesaurus_text)
    digests = []
    for i, spec in enumerate(work.queries):
        outcome = runner.first[i]
        problems = checks.check_query(outcome, facts.expected(spec), None)
        if problems:
            raise SystemExit(f"{name} seed {seed} query {i}: {problems}")
        digests.append(outcome["digest"])
    summary = program.path_metrics(context.model)
    return digests, [summary.longest_path, summary.journey_count, summary.path_count]


def main() -> int:
    program = worker.import_program()
    pinned: dict = {"default_seed": DEFAULT_SEED, "documents": {}, "outputs": {}, "path_metrics": {}}
    for name in run.WORKLOADS:
        pinned["documents"][name] = generate.workload(name, DEFAULT_SEED).digests()
        seeds = ["any"] if name == "cabio-warm" else [str(s) for s in PINNED_SEEDS]
        pinned["outputs"][name] = {}
        pinned["path_metrics"][name] = {}
        for key in seeds:
            seed = DEFAULT_SEED if key == "any" else int(key)
            digests, paths = outputs(program, name, seed)
            pinned["outputs"][name][key] = digests
            pinned["path_metrics"][name][key] = paths
            print(f"pinned {name} seed {key}", flush=True)
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
