"""Expansions nested deeper than a CQL document may hold stop at pathFind.

``cql.parse_xml`` accepts at most ``cql.MAX_NESTING`` elements nested under
Target, and ``to_xml`` writes one per Association, Group and Attribute. A
query whose association restrictions expand past that is rejected with a
typed error at pathFind before any later stage runs, while the deepest
accepted expansion still round-trips. ``cql_depth`` must count exactly the
elements ``to_xml`` writes, and the walk-free bound that lets
``check_cql_nesting`` skip the count must never be below it.
"""

from __future__ import annotations

import itertools
import json
import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter import pipeline
from onco_rewriter.cli import main
from onco_rewriter.cql import MAX_NESTING, parse_xml, to_xml
from onco_rewriter.model import closure, load_model, load_thesaurus
from onco_rewriter.pipeline import (
    NestingLimitError,
    NoPathError,
    cql_depth,
    extract_data_values,
    extract_uml,
    find_property_paths,
    mcc_to_cql,
    parse_query,
    prepare_context,
    reinsert_data_values,
    rewrite_prepared,
    to_mcc,
    validate_semantics,
)
from onco_rewriter.synthetic import random_annotated_model

CHAIN_LENGTH = 541  # room for 36 hops of 15 steps


def chain_documents(length: int) -> tuple[str, str]:
    """A model C0 -> C1 -> ... with each Ci annotated Ki, and its thesaurus."""
    model = {
        "project": "chain",
        "version": "1",
        "packagePrefix": "org.example",
        "classes": [{"name": f"C{i}", "annotation": {"primary": f"K{i}"}} for i in range(length)],
        "associations": [
            {"source": f"C{i}", "roleName": "next", "target": f"C{i + 1}"}
            for i in range(length - 1)
        ],
    }
    thesaurus = "CONCEPT Top\n" + "".join(f"CONCEPT K{i}\nSUB K{i} Top\n" for i in range(length))
    return json.dumps(model), thesaurus


def nested_query(hops: list[int]) -> str:
    """One nesting level per hop, each hop walking that many chain steps:
    ``K0 and hasAssociation some (K<hop> and hasAssociation some (...))``."""
    stops = list(itertools.accumulate(hops, initial=0))
    query = f"K{stops[-1]}"
    for stop in reversed(stops[:-1]):
        query = f"K{stop} and hasAssociation some ({query})"
    return query


@pytest.fixture(scope="module")
def chain_context():
    model, thesaurus = chain_documents(CHAIN_LENGTH)
    return prepare_context(load_model(model), load_thesaurus(thesaurus))


@pytest.fixture()
def chain_files(tmp_path):
    model, thesaurus = chain_documents(CHAIN_LENGTH)
    (tmp_path / "chain.json").write_text(model, encoding="utf-8")
    (tmp_path / "chain.txt").write_text(thesaurus, encoding="utf-8")
    return ["--model", str(tmp_path / "chain.json"), "--thesaurus", str(tmp_path / "chain.txt")]


@pytest.mark.parametrize("levels", [18, 36])
def test_expansion_deeper_than_a_cql_document_exits_two(levels, chain_files, tmp_path, capsys):
    query_file = tmp_path / "query.txt"
    query_file.write_text(nested_query([15] * levels), encoding="utf-8")
    assert main(["rewrite", *chain_files, str(query_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: stage pathFind: expansion nests {15 * levels} CQL elements under Target"
    )
    assert "Traceback" not in captured.err


def test_one_long_path_exits_two(chain_files, capsys):
    query = f"K0 and hasAssociation some (K{CHAIN_LENGTH - 1})"
    assert main(["rewrite", *chain_files, "--max-nodes", "5000", "--query", query]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: stage pathFind: expansion nests {CHAIN_LENGTH - 1} CQL elements")


def test_deepest_accepted_expansion_round_trips(chain_context):
    (result,) = rewrite_prepared(chain_context, nested_query([15] * 17 + [1])).results
    document = to_xml(result.cql)
    assert document.count("<ns1:Association ") == MAX_NESTING == 15 * 17 + 1
    assert parse_xml(document) == result.cql
    assert to_xml(parse_xml(document)) == document


def test_one_step_deeper_is_rejected_before_later_stages(chain_context, monkeypatch):
    def later_stage(*args):
        raise AssertionError("a stage after pathFind ran")

    monkeypatch.setattr(pipeline, "reinsert_data_values", later_stage)
    with pytest.raises(NestingLimitError) as raised:
        rewrite_prepared(chain_context, nested_query([15] * 17 + [2]))
    assert (raised.value.stage, raised.value.depth) == ("pathFind", MAX_NESTING + 1)


# --- exactness of the count --------------------------------------------------------


def random_nested_query(rng: random.Random, model, cls=None, depth: int = 0) -> str:
    """A class concept with zero to two attribute restrictions of zero to two
    values each and, above the third level, zero to two association
    restrictions on classes reachable from it."""
    cls = cls or rng.choice(model.classes)
    parts = [cls.annotation.primary]
    for attr in rng.sample(cls.attributes, rng.randint(0, len(cls.attributes))):
        values = [f'hasValue value "v{i}"' for i in range(rng.randint(0, 2))]
        parts.append(f"hasAttribute some ({' and '.join([attr.annotation.primary, *values])})")
    reachable = closure(
        [a.target for a in model.associations_from(cls.name)],
        lambda name: [a.target for a in model.associations_from(name)],
    )
    if depth < 3 and reachable:
        for _ in range(rng.randint(0, 2)):
            target = model.class_named(rng.choice(reachable))
            parts.append(f"hasAssociation some ({random_nested_query(rng, model, target, depth + 1)})")
    return " and ".join(parts)


def written_depth(document: str) -> int:
    """Elements nested under Target in a CQL document."""

    def height(element) -> int:
        return 1 + max((height(child) for child in element), default=0)

    target = ET.fromstring(document)[0]
    return max((height(child) for child in target), default=0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_cql_depth_counts_what_to_xml_writes(seed):
    rng = random.Random(seed)
    model, thesaurus = random_annotated_model(rng)
    context = prepare_context(model, thesaurus)
    max_nodes = rng.randint(2, 6)
    for _ in range(5):
        for candidate in extract_uml(parse_query(random_nested_query(rng, model)), context.index):
            stripped, bindings = extract_data_values(candidate.ast)
            if not validate_semantics(stripped, context.index).ok:
                continue
            try:
                expansions = find_property_paths(stripped, context.index, max_nodes)
            except NoPathError:
                continue
            if expansions.size > 500:
                continue
            written = max(
                written_depth(
                    to_xml(
                        mcc_to_cql(
                            to_mcc(reinsert_data_values(e.ast, bindings), context.naming),
                            context.model,
                        )
                    )
                )
                for e in expansions
            )
            assert cql_depth(candidate.ast, expansions) == written
            assert len(expansions.choices) * max_nodes + 2 >= written
