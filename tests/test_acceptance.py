"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Randomized corpora are seeded (override with ONCO_REWRITER_SEED).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from onco_rewriter.cql import parse_xml, semantically_equal, to_xml, validate_grammar
from onco_rewriter.metrics import path_metrics, stage_timings
from onco_rewriter.model import Signature
from onco_rewriter.module_extraction import extract_module, strip_disjoints
from onco_rewriter.ontology import generate_ontology
from onco_rewriter.pipeline import (
    RewriteOptions,
    extract_data_values,
    format_comprehension,
    format_query,
    prepare_context,
    reinsert_data_values,
    rewrite,
    rewrite_prepared,
)
from onco_rewriter.reasoner import classify, find_paths
from onco_rewriter.synthetic import (
    benchmark_model,
    random_annotated_model,
    random_association_graph,
    random_el_axiom_set,
    random_resolved_tree,
    random_satisfiable_query,
    random_thesaurus,
    resolve_seed,
)

from axiom_decomposition import decompose
from conftest import CABIO_QUERY, FIXTURES
from test_cql import TGFB1_DOCUMENT, TGFB1_QUERY
from test_metrics import assert_matches_oracle, random_graph_model
from test_reasoner import oracle_simple_paths, oracle_subsumers


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({description}): PASS")


def test_criterion_1_end_to_end_reproduction(cabio_model, ncit_thesaurus):
    with criterion(1, "end-to-end reproduction of the published CQL listing"):
        start = time.perf_counter()
        results = rewrite(CABIO_QUERY, cabio_model, ncit_thesaurus)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"rewrite took {elapsed:.3f}s"
        assert len(results) == 1
        document = to_xml(results[0].cql)
        assert semantically_equal(document, TGFB1_DOCUMENT)
        assert parse_xml(document) == TGFB1_QUERY


def test_criterion_2_intermediate_stages(cabio_context):
    with criterion(2, "intermediate stage outputs match the published expressions"):
        outcome = rewrite_prepared(cabio_context, CABIO_QUERY)
        result = outcome.results[0]
        naming = cabio_context.naming
        assert format_query(result.resolved, naming) == (
            "c:SNP and hasAssociation some "
            '(c:Gene and hasAttribute some (c:Gene_symbol and hasValue value "TGFB1"))'
        )
        assert format_query(result.stripped, naming) == (
            "c:SNP and hasAssociation some (c:Gene and hasAttribute some c:Gene_symbol)"
        )
        assert format_query(result.expanded, naming) == (
            "c:SNP and hasAssociation(relativeLocationCollection) some "
            "c:GeneRelativeLocation and hasAssociation(gene) some "
            "(c:Gene and hasAttribute some c:Gene_symbol)"
        )
        assert format_query(result.restored, naming) == (
            "c:SNP and hasAssociation(relativeLocationCollection) some "
            "c:GeneRelativeLocation and hasAssociation(gene) some "
            '(c:Gene and hasAttribute some (c:Gene_symbol and hasValue value "TGFB1"))'
        )
        assert format_comprehension(result.mcc) == (
            "⊎{ s ‖ s ← SNP, r ← s.relativeLocationCollection, r ← GeneRelativeLocation, "
            'g ← r.gene, g ← Gene, g.symbol = "TGFB1" }'
        )


def test_criterion_3_grammar_soundness_on_generated_outputs():
    with criterion(3, "1,000 generated pipeline outputs: grammar valid, XML round-trip"):
        rng = random.Random(resolve_seed() + 30)
        options = RewriteOptions(candidate_limit=4096)
        checked = 0
        attempts = 0
        while checked < 1000:
            attempts += 1
            assert attempts < 2000, "generator failed to produce enough outputs"
            model, thesaurus = random_annotated_model(rng)
            context = prepare_context(model, thesaurus)
            for _ in range(8):
                query = random_satisfiable_query(rng, model)
                if query is None:
                    continue
                outcome = rewrite_prepared(context, query, options)
                for result in outcome.results:
                    assert validate_grammar(result.cql) == []
                    assert parse_xml(to_xml(result.cql)) == result.cql
                    checked += 1
        assert checked >= 1000


def test_criterion_4_reasoner_oracle_equivalence():
    with criterion(4, "classify and find_paths match brute-force oracles (200 + 200)"):
        rng = random.Random(resolve_seed() + 40)
        for _ in range(200):
            axiom_set = random_el_axiom_set(rng, max_axioms=50)
            index = classify(decompose(axiom_set))
            assert {k: set(v) for k, v in index.subsumers.items()} == oracle_subsumers(
                axiom_set
            )
        for _ in range(200):
            nodes, edges, axioms = random_association_graph(rng, max_graph_nodes=20)
            index = classify(decompose(axioms))
            source, target = rng.choice(nodes), rng.choice(nodes)
            cap = max(2, len(nodes))
            got = find_paths(index, source, target, cap)
            expected = oracle_simple_paths(
                edges,
                source,
                lambda t: target in index.subsumers[t] or t in index.subsumers[target],
                cap,
            )
            assert {p.steps for p in got} == expected
            assert len(got) == len(expected)


def _bfs_entails(pairs: set[tuple[str, str]]) -> dict[str, set[str]]:
    parents: dict[str, set[str]] = {}
    names: set[str] = set()
    for child, parent in pairs:
        parents.setdefault(child, set()).add(parent)
        names.update((child, parent))
    out: dict[str, set[str]] = {}
    for name in names:
        reached = {name}
        frontier = [name]
        while frontier:
            for parent in parents.get(frontier.pop(), ()):
                if parent not in reached:
                    reached.add(parent)
                    frontier.append(parent)
        out[name] = reached
    return out


def test_criterion_5_module_correctness():
    with criterion(5, "module extraction preserves signature entailment (100 thesauri)"):
        rng = random.Random(resolve_seed() + 50)
        for _ in range(100):
            thesaurus = random_thesaurus(rng, max_axioms=200)
            stripped = strip_disjoints(thesaurus)
            count = rng.randint(0, len(thesaurus.concepts))
            sigma = Signature(frozenset(rng.sample(thesaurus.concepts, count)))
            module = extract_module(stripped, sigma)

            full_pairs = set(stripped)
            module_pairs = set(module)
            scope = set(sigma.concept_names)
            scope |= {name for pair in module_pairs for name in pair}

            full = _bfs_entails(full_pairs)
            part = _bfs_entails(module_pairs)
            for x in scope:
                for y in scope:
                    full_holds = x == y or y in full.get(x, {x})
                    part_holds = x == y or y in part.get(x, {x})
                    assert full_holds == part_holds, (x, y)

            # idempotence
            assert extract_module(module, sigma) == module
            # monotonicity against a random sub-signature
            names = sorted(sigma.concept_names)
            sub_sigma = Signature(frozenset(rng.sample(names, rng.randint(0, len(names)))))
            smaller = extract_module(stripped, sub_sigma)
            assert set(smaller) <= set(module)


def test_criterion_6_path_metrics_oracle():
    with criterion(6, "path metrics match exhaustive enumeration (500 graphs + 3-cycle)"):
        from fractions import Fraction

        from test_metrics import graph_model

        cycle = graph_model(
            ["A", "B", "C"], [("A", "ab", "B"), ("B", "bc", "C"), ("C", "ca", "A")]
        )
        metrics = path_metrics(cycle, 16)
        assert metrics.longest_path == 3
        assert metrics.avg_paths_per_journey == Fraction(1)
        assert metrics.avg_nodes_per_path == Fraction(5, 2)

        rng = random.Random(resolve_seed() + 60)
        for _ in range(500):
            model = random_graph_model(rng, max_graph_nodes=12)
            assert_matches_oracle(model, max_nodes=12)


def test_criterion_7_stage_timing_shape():
    with criterion(7, "path length drives pathFind time; other stages comparable"):
        model, thesaurus, group_one, group_two = benchmark_model()

        start = time.perf_counter()
        module = extract_module(
            strip_disjoints(thesaurus),
            Signature(frozenset(thesaurus.concepts)),
        )
        ontology = generate_ontology(model)
        generation_elapsed = time.perf_counter() - start
        assert generation_elapsed < 10.0, f"generation took {generation_elapsed:.3f}s"

        start = time.perf_counter()
        classify(decompose(ontology))
        classification_elapsed = time.perf_counter() - start
        assert classification_elapsed < 0.5, f"classification took {classification_elapsed:.3f}s"

        # stages complete in microseconds on the desk-scale fixture, so means
        # need more samples than the wall-clock protocol's five to be stable;
        # interleaving the groups spreads measurement-order drift evenly
        interleaved = [q for pair in zip(group_one, group_two) for q in pair]
        report = stage_timings(interleaved, model, thesaurus, repetitions=25)
        assert report.failed == ()
        means_one = report.group_means_us[1]
        means_two = report.group_means_us[2]
        assert means_two["pathFind"] > means_one["pathFind"], (
            f"pathFind: len-2 {means_two['pathFind']:.1f}us "
            f"vs len-1 {means_one['pathFind']:.1f}us"
        )
        for stage in ("parse", "umlExtract", "valueExtract", "validate", "valueReinsert", "mcc", "cql"):
            a, b = means_one[stage], means_two[stage]
            ratio = max(a, b) / min(a, b)
            assert ratio < 1.5, f"{stage}: group means differ by {ratio:.2f}x"


def test_criterion_8_round_trip_and_determinism(tmp_path):
    with criterion(8, "value extract/reinsert identity; CLI outputs byte-identical"):
        rng = random.Random(resolve_seed() + 80)
        for _ in range(500):
            tree = random_resolved_tree(rng)
            stripped, bindings = extract_data_values(tree)
            assert reinsert_data_values(stripped, bindings) == tree

        from onco_rewriter.cli import main

        model = str(FIXTURES / "cabio_fragment.model.json")
        thesaurus = str(FIXTURES / "ncit_fragment.thesaurus.txt")
        runs = {
            "ontogen": ["ontogen", "--model", model, "--thesaurus", thesaurus],
            "module": ["module", "--model", model, "--thesaurus", thesaurus],
            "classify": ["classify", "--model", model, "--thesaurus", thesaurus],
            "rewrite": [
                "rewrite",
                "--model",
                model,
                "--thesaurus",
                thesaurus,
                "--query",
                CABIO_QUERY,
            ],
            "metrics": ["metrics", "--model", model, "--format", "csv"],
        }
        for name, argv in runs.items():
            out_a = tmp_path / name / "a"
            out_b = tmp_path / name / "b"
            for out in (out_a, out_b):
                assert main(argv + ["--out", str(out)]) == 0
            files_a = sorted(p.name for p in out_a.iterdir())
            files_b = sorted(p.name for p in out_b.iterdir())
            assert files_a == files_b and files_a
            for file_name in files_a:
                assert (out_a / file_name).read_bytes() == (out_b / file_name).read_bytes()

        # bench reports measured CPU times, so byte identity cannot hold there;
        # its structure (rows, stages, path lengths) must still be stable
        suite = tmp_path / "suite.txt"
        suite.write_text("\n".join(benchmark_model()[2][:2]) + "\n", encoding="utf-8")
        structures = []
        for out in (tmp_path / "bench" / "a", tmp_path / "bench" / "b"):
            report_lines = _run_bench(suite, out)
            structures.append(
                [tuple(line.split(",")[:2] + line.split(",")[3:]) for line in report_lines]
            )
        assert structures[0] == structures[1]


def _run_bench(suite_path, out_dir):
    from onco_rewriter.cli import main

    model, thesaurus, _, _ = benchmark_model()
    model_file = out_dir.parent / "model.json"
    thesaurus_file = out_dir.parent / "thesaurus.txt"
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    model_file.write_text(_model_to_json(model), encoding="utf-8")
    thesaurus_file.write_text(_thesaurus_to_text(thesaurus), encoding="utf-8")
    code = main(
        [
            "bench",
            "--model",
            str(model_file),
            "--thesaurus",
            str(thesaurus_file),
            "--suite",
            str(suite_path),
            "--repetitions",
            "1",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    return (out_dir / "bench.csv").read_text(encoding="utf-8").strip().splitlines()


def _model_to_json(model) -> str:
    import json

    return json.dumps(
        {
            "project": model.project_name,
            "version": model.version,
            "packagePrefix": model.package_prefix,
            "classes": [
                {
                    "name": cls.name,
                    "superclasses": list(cls.superclasses),
                    **(
                        {
                            "annotation": {
                                "primary": cls.annotation.primary,
                                "qualifiers": list(cls.annotation.qualifiers),
                            }
                        }
                        if cls.annotation
                        else {}
                    ),
                    "attributes": [
                        {
                            "name": attr.name,
                            "datatype": attr.datatype,
                            **(
                                {
                                    "annotation": {
                                        "primary": attr.annotation.primary,
                                        "qualifiers": list(attr.annotation.qualifiers),
                                    }
                                }
                                if attr.annotation
                                else {}
                            ),
                        }
                        for attr in cls.attributes
                    ],
                }
                for cls in model.classes
            ],
            "associations": [
                {"source": a.source, "roleName": a.role_name, "target": a.target}
                for a in model.associations
            ],
        },
        indent=2,
    )


def _thesaurus_to_text(thesaurus) -> str:
    lines = [f"CONCEPT {c}" for c in thesaurus.concepts]
    lines += [f"SUB {a} {b}" for a, b in thesaurus.subsumptions]
    lines += [f"DISJOINT {a} {b}" for a, b in thesaurus.disjointness]
    return "\n".join(lines) + "\n"
