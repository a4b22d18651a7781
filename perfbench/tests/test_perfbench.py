"""Tests of the benchmark itself: generators, checker, span arithmetic and
the traced run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import generate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

PINNED = json.loads((BENCH / "pinned.json").read_text())


@pytest.fixture(scope="module")
def program():
    return worker.import_program()


def cabio_run(program, trace: int) -> worker.Run:
    work = generate.cabio()
    job = {
        "kind": "warm",
        "seed": 1,
        "trace": trace,
        "model": work.model_json,
        "thesaurus": work.thesaurus_text,
        "queries": [q.text() for q in work.queries],
    }
    return worker.Run(job, program)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_generators_are_deterministic_and_pinned(name):
    seed = PINNED["default_seed"]
    first = generate.workload(name, seed)
    assert generate.workload(name, seed).documents() == first.documents()
    assert first.digests() == PINNED["documents"][name]
    if name != "cabio-warm":
        other = generate.workload(name, seed + 1)
        assert other.documents()["model"] != first.documents()["model"]
        assert other.documents()["thesaurus"] != first.documents()["thesaurus"]


def test_checker_flags_one_corrupted_xml_byte(program):
    runner = cabio_run(program, trace=0)
    context = runner.setup()
    runner.suite_pass(context, 0, measured=False)
    work = generate.cabio()
    facts = oracle.Facts(json.loads(work.model_json), work.thesaurus_text)
    pinned = PINNED["outputs"]["cabio-warm"]["any"]
    outcome = runner.first[0]
    assert checks.check_query(outcome, facts.expected(work.queries[0]), pinned[0]) == []
    assert checks.xml_semantically_equal(outcome["results"][0]["xml"], checks.TGFB1_DOCUMENT)

    xml = outcome["results"][0]["xml"]
    at = xml.index("TGFB1")
    corrupted = dict(outcome, results=[dict(outcome["results"][0], xml=xml[:at] + "X" + xml[at + 1:])])
    problems = checks.check_query(corrupted, facts.expected(work.queries[0]), pinned[0])
    assert problems == ["output bytes differ from the pinned digest"]
    assert not checks.xml_semantically_equal(corrupted["results"][0]["xml"], checks.TGFB1_DOCUMENT)


def test_checker_compares_rejections_by_class_and_stage_only():
    expected = oracle.Outcome("CandidateLimitError", "pathFind", frozenset(), 70)
    same = {"error": "CandidateLimitError", "stage": "pathFind", "program_checks": []}
    assert checks.check_query(same, expected, None) == []
    wrong_stage = dict(same, stage="umlExtract")
    assert checks.check_query(wrong_stage, expected, None)
    wrong_class = dict(same, error="NoPathError")
    assert checks.check_query(wrong_class, expected, None)
    # the digest of a rejection leaves the message out
    assert checks.outcome_digest(same) == checks.outcome_digest(dict(same, message="65 > 64"))


def test_self_time_and_residual_on_a_hand_built_tree():
    S = tracing.Span
    spans = [
        S("query", 0, 100, -1, "r1"),
        S("pipeline.parse", 5, 15, 0, "r1"),
        S("pipeline.pathFind", 20, 80, 0, "r1"),
        S("reasoner.find_paths", 30, 50, 2, "r1"),
        S("reasoner.find_paths", 55, 70, 2, "r1"),
        S("cql.to_xml", 85, 95, 0, "r1"),
        S("setup", 200, 300, -1, "s1"),
        S("model.load_model", 200, 260, 6, "s1"),
    ]
    assert tracing.self_times(spans) == [20, 10, 25, 20, 15, 10, 40, 60]
    layers, residual, roots = tracing.layer_totals(spans, {"query"})
    assert roots == 1
    assert layers == {
        "pipeline.parse": 10,
        "pipeline.pathFind": 25,
        "reasoner.find_paths": 35,
        "cql.to_xml": 10,
    }
    assert residual == {"query": 20}
    assert sum(layers.values()) + residual["query"] == 100
    assert tracing.malformed(spans) == []


def test_malformed_spans_are_flagged():
    S = tracing.Span
    root = S("query", 0, 100, -1, "r1")
    assert tracing.malformed([root, None]) == ["span 1 was never closed"]
    outside = tracing.malformed([root, S("pipeline.parse", 90, 110, 0, "r1")])
    assert outside == ["span 1 (pipeline.parse) lies outside its parent query"]
    overlap = tracing.malformed([root, S("a", 10, 50, 0, "r1"), S("b", 40, 60, 0, "r1")])
    assert overlap == ["span 2 (b) overlaps an earlier sibling"]
    other = tracing.malformed([root, S("a", 10, 50, 0, "r2")])
    assert other == ["span 1 (a) has another request than its parent"]


def test_samples_keep_a_fixed_buffer_and_every_total():
    samples = worker.Samples(4, "s")
    buffer = samples.buffer
    for value in range(1, 101):
        samples.add(value)
    assert samples.buffer is buffer and len(buffer) == 4
    assert (samples.count, samples.total) == (100, 5050)
    kept = samples.values()
    assert len(kept) == 4 and len(set(kept)) == 4 and set(kept) <= set(range(1, 101))


def test_traced_run_gives_the_untraced_digests(program):
    runner = cabio_run(program, trace=1)
    report = worker.measure(runner, seconds=1)
    # every query ran untraced and then traced, and each traced execution was
    # compared with the digest of the query's first, untraced one
    executions = list(runner.executions.values())
    assert len(executions) == len(generate.CABIO_QUERIES)
    assert all(n == executions[0] and n % 2 == 1 for n in executions)
    assert sum(runner.mismatches.values()) == 0
    names = {span.name for span in runner.tracer.spans}
    assert {f"pipeline.{stage}" for stage in program.pipeline.STAGES} <= names
    assert {"reasoner.find_paths", "reasoner.classify", "model.load_model", "cql.to_xml"} <= names
    assert tracing.malformed(runner.tracer.spans) == []
    # one untraced warm-up execution per query, then untraced and traced pairs
    assert report["trace"]["traced_queries"] == (sum(executions) - len(executions)) // 2
    # the wrappers are gone again
    assert program.pipeline.find_paths is program.reasoner.find_paths


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cabio-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
