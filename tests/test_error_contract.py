"""The CLI's failure contract and the raise sites no other test reaches.

Exit codes follow from three kinds of failure: an ``InputError`` (a document,
option or answer that cannot be used) or an ``OSError`` exits 1, a
``PipelineError`` exits 2, and anything else exits 3 with a traceback. A
builtin ``ValueError`` raised by the program's own code is a fault, not a
usage error.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import replace

import pytest

from onco_rewriter import cli, pipeline
from onco_rewriter.cli import main
from onco_rewriter.cql import CqlError, CqlXmlError
from onco_rewriter.model import InputError, ModelLoadError, ThesaurusLoadError, load_model
from onco_rewriter.ontology import (
    Axiom,
    AxiomParseError,
    AxiomSet,
    ClassExpr,
    Conjunction,
    Named,
    OntologyError,
    SubClassOf,
    serialize_axioms,
)
from onco_rewriter.pipeline import ConceptRef, PipelineError, QueryNode, format_query
from onco_rewriter.reasoner import AssociationPath, ReasonerError, UnknownNameError

from conftest import CABIO_QUERY, FIXTURES

MODEL = str(FIXTURES / "cabio_fragment.model.json")
THESAURUS = str(FIXTURES / "ncit_fragment.thesaurus.txt")
CABIO = json.loads((FIXTURES / "cabio_fragment.model.json").read_text(encoding="utf-8"))


def test_user_errors_are_input_errors_and_still_value_errors():
    for kind in (ModelLoadError, ThesaurusLoadError, OntologyError, AxiomParseError):
        assert issubclass(kind, InputError) and issubclass(kind, ValueError)
    # raised only on the program's own products, so a fault when the CLI meets one
    for kind in (ReasonerError, CqlError, CqlXmlError, UnknownNameError, PipelineError):
        assert not issubclass(kind, InputError)


@pytest.mark.parametrize(
    "fault",
    [ValueError("planted fault"), CqlError("invalid query AST: planted fault")],
    ids=["ValueError", "CqlError"],
)
def test_value_error_from_inside_the_pipeline_exits_three(fault, monkeypatch, capsys):
    def fail(*args):
        raise fault

    monkeypatch.setattr(pipeline, "reinsert_data_values", fail)
    argv = ["rewrite", "--model", MODEL, "--thesaurus", THESAURUS, "--query", CABIO_QUERY]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith(f"{type(fault).__name__}: {fault}\n")


def _message_of(call) -> str:
    try:
        call()
    except (ValueError, RecursionError) as error:
        return str(error)
    raise AssertionError("expected the call to fail")


def _with_first_class(**fields) -> str:
    model = json.loads(json.dumps(CABIO))
    model["classes"][0].update(fields)
    return json.dumps(model)


DEEP = "[" * 100_000 + "]" * 100_000
BIG_INTEGER = '{"project": ' + "1" * 5000 + "}"
MODEL_DOCUMENTS = [
    (_with_first_class(attributes=5), "classes[0]", "field 'attributes' must be a list"),
    (_with_first_class(attributes=None), "classes[0]", "field 'attributes' must be a list"),
    (_with_first_class(attributes="x"), "classes[0]", "field 'attributes' must be a list"),
    (DEEP, "", "malformed document: " + _message_of(lambda: json.loads(DEEP))),
    (BIG_INTEGER, "", "malformed document: " + _message_of(lambda: int("1" * 5000))),
    (_with_first_class(name=""), "classes[0]", "class name must be non-empty"),
    (
        _with_first_class(attributes=[{"name": "", "datatype": "string"}]),
        "classes[0].attributes[0]",
        "attribute name must be non-empty",
    ),
    (
        json.dumps({**CABIO, "associations": [{**CABIO["associations"][0], "roleName": ""}]}),
        "associations[0]",
        "roleName must be non-empty",
    ),
]
MODEL_IDS = [
    "attributes-int",
    "attributes-null",
    "attributes-string",
    "deep-nesting",
    "integer-digits",
    "empty-class-name",
    "empty-attribute-name",
    "empty-role-name",
]


@pytest.mark.parametrize("document, location, message", MODEL_DOCUMENTS, ids=MODEL_IDS)
def test_model_document_is_a_located_load_error_that_exits_one(
    document, location, message, tmp_path, capsys
):
    with pytest.raises(ModelLoadError) as raised:
        load_model(document)
    text = f"{location}: {message}" if location else message
    assert (type(raised.value), raised.value.location, str(raised.value)) == (
        ModelLoadError,
        location,
        text,
    )
    path = tmp_path / "model.json"
    path.write_text(document, encoding="utf-8")
    rewrite = ["rewrite", "--thesaurus", THESAURUS, "--query", CABIO_QUERY, "--out", str(tmp_path)]
    for argv in (["metrics"], rewrite):
        assert main([*argv, "--model", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {text}\n")
    assert list(tmp_path.iterdir()) == [path]


def test_empty_package_prefix_stays_legal():
    model = load_model(json.dumps({**CABIO, "packagePrefix": ""}))
    assert model.package_prefix == ""


@pytest.mark.parametrize("which", ["model", "thesaurus", "query"])
def test_non_utf8_file_is_an_input_error_from_read_text(which, tmp_path, capsys):
    path = tmp_path / f"{which}.txt"
    path.write_bytes(b'{"project": "\xff"}')
    with pytest.raises(InputError) as raised:
        cli._read_text(str(path), which)
    expected = (
        f"{which} from {path} is not UTF-8: 'utf-8' codec can't decode byte 0xff"
        " in position 13: invalid start byte"
    )
    assert (type(raised.value), str(raised.value)) == (InputError, expected)
    files = {"model": MODEL, "thesaurus": THESAURUS, which: str(path)}
    argv = ["rewrite", "--model", files["model"], "--thesaurus", files["thesaurus"]]
    argv += [files["query"]] if which == "query" else ["--query", CABIO_QUERY]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {expected}\n")


def test_non_utf8_stdin_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"Gene\xff"), encoding="utf-8"))
    assert main(["rewrite", "--model", MODEL, "--thesaurus", THESAURUS]) == 1
    assert capsys.readouterr().err == (
        "error: query from stdin is not UTF-8: 'utf-8' codec can't decode byte 0xff"
        " in position 4: invalid start byte\n"
    )


def test_more_qualifiers_than_the_bound_is_a_load_error():
    from onco_rewriter.model import MAX_QUALIFIERS
    from onco_rewriter.ontology import generate_ontology, parse_axioms

    def document(count: int) -> str:
        return _with_first_class(annotation={"primary": "Gene", "qualifiers": ["Gene"] * count})

    # the bound is the most qualifiers a generated ontology can carry and still read back
    model = load_model(document(MAX_QUALIFIERS))
    ontology = generate_ontology(model)
    assert parse_axioms(serialize_axioms(ontology)) == ontology
    first = model.classes[0]
    longer = replace(first.annotation, qualifiers=(*first.annotation.qualifiers, "Gene"))
    past = replace(model, classes=(replace(first, annotation=longer), *model.classes[1:]))
    with pytest.raises(AxiomParseError, match="class expression nested deeper than"):
        parse_axioms(serialize_axioms(generate_ontology(past)))
    for count in (MAX_QUALIFIERS + 1, 3000):
        with pytest.raises(ModelLoadError) as raised:
            load_model(document(count))
        assert str(raised.value) == f"classes[0]: more than {MAX_QUALIFIERS} qualifiers"


@pytest.mark.parametrize("project", ["\ud800", "a\nb", "\x00"])
def test_unprintable_project_is_a_load_error(project):
    with pytest.raises(ModelLoadError) as raised:
        load_model(json.dumps({**CABIO, "project": project}))
    assert str(raised.value) == "document: field 'project' must be printable"


def test_positive_int_rejects_a_non_integer_in_process(capsys):
    assert main(["metrics", "--model", MODEL, "--max-nodes", "x"]) == 1
    err = capsys.readouterr().err
    assert err.endswith(
        "onco-rewriter metrics: error: argument --max-nodes: invalid int value: 'x'\n"
    )


# --- raise sites no command reaches -------------------------------------------


class _Unknown(ClassExpr, Axiom):
    __slots__ = ()


def test_serializer_rejects_an_unknown_expression_and_axiom():
    unknown_expr = AxiomSet(axioms=(SubClassOf(Named("c:A"), _Unknown()),))
    with pytest.raises(OntologyError) as raised:
        serialize_axioms(unknown_expr)
    assert (type(raised.value), str(raised.value)) == (OntologyError, "cannot serialize _Unknown")
    with pytest.raises(OntologyError) as raised:
        serialize_axioms(AxiomSet(axioms=(_Unknown(),)))
    assert (type(raised.value), str(raised.value)) == (OntologyError, "cannot serialize _Unknown")


@pytest.mark.parametrize("parts", [(), (Named("c:A"),)])
def test_conjunction_needs_two_parts(parts):
    with pytest.raises(OntologyError) as raised:
        Conjunction(parts)
    assert (type(raised.value), str(raised.value)) == (
        OntologyError,
        "conjunction needs at least two parts",
    )


@pytest.mark.parametrize("items", [(), (ConceptRef("Gene"),)])
def test_query_and_needs_two_items(items):
    with pytest.raises(ValueError) as raised:
        pipeline.And(items)
    assert (type(raised.value), str(raised.value)) == (
        ValueError,
        "conjunction needs at least two items",
    )


def test_format_query_rejects_an_unknown_node():
    class Stray(QueryNode):
        __slots__ = ()

    with pytest.raises(ValueError) as raised:
        format_query(pipeline.HasAssociationSome(Stray()))
    assert (type(raised.value), str(raised.value)) == (ValueError, "cannot format Stray")


def test_association_path_needs_a_step():
    with pytest.raises(ReasonerError) as raised:
        AssociationPath(source_class="c:A", steps=())
    assert (type(raised.value), str(raised.value)) == (
        ReasonerError,
        "a path needs at least one step",
    )
