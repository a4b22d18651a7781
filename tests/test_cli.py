from __future__ import annotations

import hashlib
import io
import subprocess
import sys

import pytest

from onco_rewriter.cli import main
from onco_rewriter.cql import parse_xml
from onco_rewriter.ontology import parse_axioms, el_conformance_report

from conftest import CABIO_QUERY, FIXTURES

MODEL = str(FIXTURES / "cabio_fragment.model.json")
THESAURUS = str(FIXTURES / "ncit_fragment.thesaurus.txt")
SUITE = str(FIXTURES / "cabio.suite.txt")


def run(argv: list[str]) -> int:
    return main(argv)


def test_ontogen_writes_conformant_files(tmp_path):
    out = tmp_path / "gen"
    assert run(["ontogen", "--model", MODEL, "--thesaurus", THESAURUS, "--out", str(out)]) == 0
    ontology = parse_axioms((out / "ontology.axioms").read_text(encoding="utf-8"))
    module = parse_axioms((out / "module.axioms").read_text(encoding="utf-8"))
    assert el_conformance_report(ontology) == []
    assert el_conformance_report(module) == []
    assert len(module) > 0


# sha256 of each file that ``ontogen`` and ``classify`` write, per fixture pair;
# ``module`` writes the same ``module.axioms`` as ``ontogen``
WRITTEN = {
    ("cabio_fragment", "ncit_fragment"): {
        "ontology.axioms": "1128f4e29f52ddd93780875c6fde75bcebb5f84ba423cae930ea9c2b3ba59511",
        "module.axioms": "1cd3fc90cd9bd74fb374a3f8ff21f6fe4dbea5955cd379529d082a0beddeedf6",
        "inferred.axioms": "8ce65af812f2b5de22ad32fde2cd786e6be914e9f758b4cd0872b63821b9d1f5",
    },
    ("biobank", "biobank"): {
        "ontology.axioms": "5685d7fd0796608acfbda7e2e340e37f8731b9a84bb6194e295c23f218d2b04c",
        "module.axioms": "311ef9f4166488e6be313e02be390ce07ab7cf1358bc4e5d4a37484b879694fd",
        "inferred.axioms": "69ed3f88b7e6645909810146b675652be4ce7f880211ceb36ccfa9cf1fd4b491",
    },
}


@pytest.mark.parametrize("model, thesaurus", sorted(WRITTEN), ids="/".join)
def test_written_axiom_files_keep_their_bytes(model, thesaurus, tmp_path):
    documents = [
        "--model",
        str(FIXTURES / f"{model}.model.json"),
        "--thesaurus",
        str(FIXTURES / f"{thesaurus}.thesaurus.txt"),
    ]
    for command in ("ontogen", "module", "classify"):
        assert run([command, *documents, "--out", str(tmp_path / command)]) == 0
    written = {
        name: hashlib.sha256((tmp_path / command / name).read_bytes()).hexdigest()
        for command, name in (
            ("ontogen", "ontology.axioms"),
            ("ontogen", "module.axioms"),
            ("classify", "inferred.axioms"),
        )
    }
    assert written == WRITTEN[model, thesaurus]
    module = (tmp_path / "module" / "module.axioms").read_bytes()
    assert module == (tmp_path / "ontogen" / "module.axioms").read_bytes()


def test_ontogen_missing_model_exits_one(tmp_path, capsys):
    code = run(
        ["ontogen", "--model", "/nonexistent.json", "--thesaurus", THESAURUS, "--out", str(tmp_path)]
    )
    assert code == 1
    assert "model file not found" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error():
    assert run(["ontogen", "--model", MODEL]) == 1


@pytest.mark.parametrize(
    "command, option",
    [
        ("rewrite", "max-nodes"),
        ("rewrite", "candidate-limit"),
        ("metrics", "max-nodes"),
        ("bench", "max-nodes"),
        ("bench", "repetitions"),
    ],
)
def test_non_positive_count_is_usage_error(command, option, capsys):
    needs = {
        "rewrite": ["--thesaurus", THESAURUS, "--query", CABIO_QUERY],
        "metrics": [],
        "bench": ["--thesaurus", THESAURUS, "--suite", SUITE],
    }
    assert run([command, "--model", MODEL, *needs[command], f"--{option}", "0"]) == 1
    err = capsys.readouterr().err
    assert f"--{option}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["ontogen", "module", "classify"])
def test_max_nodes_is_offered_only_where_paths_are_searched(command, tmp_path):
    base = [command, "--model", MODEL, "--thesaurus", THESAURUS, "--out", str(tmp_path)]
    assert run(base + ["--max-nodes", "4"]) == 1
    assert run(base) == 0


def test_regeneration_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["ontogen", "--model", MODEL, "--thesaurus", THESAURUS, "--out", str(out)]) == 0
    for name in ("ontology.axioms", "module.axioms"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_module_command(tmp_path):
    assert run(["module", "--model", MODEL, "--thesaurus", THESAURUS, "--out", str(tmp_path)]) == 0
    content = (tmp_path / "module.axioms").read_text(encoding="utf-8")
    assert "SubClassOf(n:Gene n:Anatomic_Structure_System_or_Substance)" in content
    assert "Neoplasm" not in content


def test_classify_command(tmp_path):
    assert run(["classify", "--model", MODEL, "--thesaurus", THESAURUS, "--out", str(tmp_path)]) == 0
    content = (tmp_path / "inferred.axioms").read_text(encoding="utf-8")
    assert "SubClassOf(c:Chromosome n:Chromosome)" in content
    assert "SubClassOf(c:CytogeneticLocation c:Location)" in content


def test_rewrite_writes_published_listing(tmp_path):
    out = tmp_path / "rw"
    code = run(
        [
            "rewrite",
            "--model",
            MODEL,
            "--thesaurus",
            THESAURUS,
            "--query",
            CABIO_QUERY,
            "--out",
            str(out),
        ]
    )
    assert code == 0
    document = (out / "candidate_001.xml").read_text(encoding="utf-8")
    query = parse_xml(document)
    assert query.target.name == "gov.nih.nci.cabio.domain.SNP"
    provenance = (out / "provenance.txt").read_text(encoding="utf-8")
    assert "c:SNP" in provenance and "relativeLocationCollection" in provenance


def test_rewrite_stdout_when_no_out(capsys):
    code = run(["rewrite", "--model", MODEL, "--thesaurus", THESAURUS, "--query", CABIO_QUERY])
    assert code == 0
    captured = capsys.readouterr()
    assert "<ns1:CQLQuery" in captured.out
    assert "provenance" in captured.err


def test_rewrite_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(CABIO_QUERY + "\n"))
    code = run(["rewrite", "--model", MODEL, "--thesaurus", THESAURUS])
    assert code == 0
    assert "<ns1:CQLQuery" in capsys.readouterr().out


def test_rewrite_query_file(tmp_path, capsys):
    query_file = tmp_path / "query.txt"
    query_file.write_text(CABIO_QUERY + "\n", encoding="utf-8")
    code = run(["rewrite", "--model", MODEL, "--thesaurus", THESAURUS, str(query_file)])
    assert code == 0
    assert "<ns1:CQLQuery" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["option", "file", "stdin"])
def test_rewrite_blank_query_is_usage_error(source, tmp_path, monkeypatch, capsys):
    blank = " \t\n"
    argv = ["rewrite", "--model", MODEL, "--thesaurus", THESAURUS]
    if source == "option":
        argv += ["--query", blank]
    elif source == "file":
        query_file = tmp_path / "query.txt"
        query_file.write_text(blank, encoding="utf-8")
        argv.append(str(query_file))
    else:
        monkeypatch.setattr(sys, "stdin", io.StringIO(blank))
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: empty query\n"


def test_rewrite_query_option_positions_count_from_the_text_as_typed(capsys):
    argv = ["rewrite", "--model", MODEL, "--thesaurus", THESAURUS, "--query", "  Gene Gene"]
    assert run(argv) == 2
    assert "(at position 8)" in capsys.readouterr().err


def test_rewrite_unsatisfiable_exits_two_with_stage(capsys):
    code = run(
        [
            "rewrite",
            "--model",
            MODEL,
            "--thesaurus",
            THESAURUS,
            "--query",
            "Gene and hasAssociation some (Single_Nucleotide_Polymorphism)",
        ]
    )
    assert code == 2
    assert "stage validate" in capsys.readouterr().err


def test_rewrite_rejected_parse_exits_two(capsys):
    code = run(["rewrite", "--model", MODEL, "--thesaurus", THESAURUS, "--query", "and and"])
    assert code == 2
    assert "stage parse" in capsys.readouterr().err


def test_rewrite_deeply_nested_query_exits_two(capsys):
    query = "(" * 3000 + "Gene" + ")" * 3000
    code = run(["rewrite", "--model", MODEL, "--thesaurus", THESAURUS, "--query", query])
    assert code == 2
    assert "stage parse: parentheses nested deeper than" in capsys.readouterr().err


def test_rewrite_candidate_count_past_maxsize_exits_two(capsys):
    names = ["Location", "Chromosome"] * 50
    query = " and hasAssociation some (".join(names) + ")" * (len(names) - 1)
    code = run(["rewrite", "--model", MODEL, "--thesaurus", THESAURUS, "--query", query])
    assert code == 2
    err = capsys.readouterr().err
    assert "stage umlExtract" in err and "exceeds limit 64" in err


def test_rewrite_byte_identical_runs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert (
            run(
                [
                    "rewrite",
                    "--model",
                    MODEL,
                    "--thesaurus",
                    THESAURUS,
                    "--query",
                    CABIO_QUERY,
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert (out_a / "candidate_001.xml").read_bytes() == (out_b / "candidate_001.xml").read_bytes()
    assert (out_a / "provenance.txt").read_bytes() == (out_b / "provenance.txt").read_bytes()


DIAMOND_MODEL = {
    "project": "d",
    "version": "1",
    "packagePrefix": "org.example",
    "classes": [
        {"name": "S", "annotation": {"primary": "CS", "qualifiers": []}},
        {"name": "A", "annotation": {"primary": "CA", "qualifiers": []}},
        {"name": "B", "annotation": {"primary": "CB", "qualifiers": []}},
        {"name": "T", "annotation": {"primary": "CT", "qualifiers": []}},
    ],
    "associations": [
        {"source": "S", "roleName": "viaA", "target": "A"},
        {"source": "S", "roleName": "viaB", "target": "B"},
        {"source": "A", "roleName": "toT", "target": "T"},
        {"source": "B", "roleName": "toT", "target": "T"},
    ],
}
DIAMOND_THESAURUS = "\n".join(
    ["CONCEPT Root"]
    + [f"CONCEPT C{x}" for x in "SABT"]
    + [f"SUB C{x} Root" for x in "SABT"]
)


@pytest.fixture()
def diamond_paths(tmp_path):
    import json

    model_path = tmp_path / "diamond.json"
    model_path.write_text(json.dumps(DIAMOND_MODEL), encoding="utf-8")
    thesaurus_path = tmp_path / "diamond.thesaurus.txt"
    thesaurus_path.write_text(DIAMOND_THESAURUS, encoding="utf-8")
    return str(model_path), str(thesaurus_path)


DIAMOND_PROMPT = (
    "multiple rewritings found:\n"
    "  1) c:S -> c:T via c:S_viaA_A, c:A_toT_T\n"
    "  2) c:S -> c:T via c:S_viaB_B, c:B_toT_T\n"
    "select a rewriting [1-2]: "
)


def run_interactive(diamond_paths, monkeypatch, answer: str | io.TextIOBase) -> int:
    model_path, thesaurus_path = diamond_paths
    monkeypatch.setattr(sys, "stdin", io.StringIO(answer) if isinstance(answer, str) else answer)
    return run(
        [
            "rewrite",
            "--model",
            model_path,
            "--thesaurus",
            thesaurus_path,
            "--query",
            "CS and hasAssociation some (CT)",
            "--selection",
            "interactive",
        ]
    )


def test_interactive_selection_prompts_and_emits_choice(diamond_paths, monkeypatch, capsys):
    code = run_interactive(diamond_paths, monkeypatch, "2\n")
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith(DIAMOND_PROMPT + "<ns1:CQLQuery")
    assert captured.out.count("<ns1:CQLQuery") == 1
    assert 'roleName="viaB"' in captured.out
    assert captured.err.endswith(
        "candidate 001\n"
        "  concept CS -> c:S\n"
        "  concept CT -> c:T\n"
        "  journey c:S -> c:T via c:S_viaB_B, c:B_toT_T\n"
    )


@pytest.mark.parametrize(
    "answer, message",
    [
        ("3\n", "selection 3 out of range 1-2"),
        ("0\n", "selection 0 out of range 1-2"),
        ("x\n", "invalid selection 'x'"),
        ("", "invalid selection ''"),
    ],
)
def test_interactive_selection_rejects_bad_answer(
    diamond_paths, monkeypatch, capsys, answer, message
):
    assert run_interactive(diamond_paths, monkeypatch, answer) == 1
    captured = capsys.readouterr()
    assert captured.out == DIAMOND_PROMPT
    assert captured.err == f"error: {message}\n"


def test_interactive_selection_rejects_non_utf8_answer(diamond_paths, monkeypatch, capsys):
    # a stdin that decodes strictly, as under a UTF-8 locale other than C or C.UTF-8
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8")
    assert run_interactive(diamond_paths, monkeypatch, stdin) == 1
    captured = capsys.readouterr()
    assert captured.out == DIAMOND_PROMPT
    assert captured.err == (
        "error: selection from stdin is not UTF-8: 'utf-8' codec can't decode byte 0xff"
        " in position 0: invalid start byte\n"
    )


def test_metrics_fixture_row(capsys):
    assert run(["metrics", "--model", MODEL, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "longest_path,journeys,paths,avg_paths_per_journey,avg_nodes_per_path,max_nodes"
    assert len(lines) == 2


def test_metrics_node_budget_below_two_is_usage_error(capsys):
    assert run(["metrics", "--model", MODEL, "--max-nodes", "1"]) == 1
    assert capsys.readouterr().err == "error: max_nodes must be at least 2\n"


@pytest.mark.parametrize(
    "query",
    [
        'Gene and hasAttribute some (Gene_Symbol and hasValue value "BRCA%")',
        "Location and hasAssociation some (Chromosome)",
    ],
    ids=["no_path_search", "path_search"],
)
def test_rewrite_node_budget_below_two_is_usage_error(query, tmp_path, capsys):
    argv = ["rewrite", "--model", MODEL, "--thesaurus", THESAURUS, "--max-nodes", "1"]
    assert run([*argv, "--query", query, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", "error: max_nodes must be at least 2\n")
    assert not any(tmp_path.iterdir())


def test_bench_node_budget_below_two_is_usage_error(capsys):
    argv = ["bench", "--model", MODEL, "--thesaurus", THESAURUS, "--suite", SUITE]
    assert run([*argv, "--max-nodes", "1"]) == 1
    assert capsys.readouterr() == ("", "error: max_nodes must be at least 2\n")


def test_metrics_empty_model(tmp_path, capsys):
    import json

    empty = tmp_path / "empty.json"
    empty.write_text(
        json.dumps(
            {"project": "e", "version": "1", "packagePrefix": "x", "classes": [], "associations": []}
        ),
        encoding="utf-8",
    )
    assert run(["metrics", "--model", str(empty), "--format", "csv"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert row.startswith("0,0,0,")


def test_bench_csv_has_eight_stages(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text("# suite\nSpecimen\n", encoding="utf-8")
    model = str(FIXTURES / "biobank.model.json")
    thesaurus = str(FIXTURES / "biobank.thesaurus.txt")
    code = run(
        [
            "bench",
            "--model",
            model,
            "--thesaurus",
            thesaurus,
            "--suite",
            str(suite),
            "--repetitions",
            "1",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "query,stage,mean_us,pathLength"
    stages = {line.split(",")[1] for line in lines[1:] if line.startswith("Specimen")}
    assert stages == {
        "parse",
        "umlExtract",
        "valueExtract",
        "validate",
        "pathFind",
        "valueReinsert",
        "mcc",
        "cql",
    }


def test_bench_empty_suite_is_usage_error(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text("# nothing here\n", encoding="utf-8")
    code = run(
        ["bench", "--model", MODEL, "--thesaurus", THESAURUS, "--suite", str(suite)]
    )
    assert code == 1


def test_console_entry_point_runs():
    completed = subprocess.run(
        [sys.executable, "-m", "onco_rewriter", "metrics", "--model", MODEL],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0
    assert "longest path" in completed.stdout
