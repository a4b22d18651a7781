"""Candidates are counted before they are built.

``extract_uml`` and ``find_property_paths`` return a ``LazyProduct`` whose
length is known up front, so the candidate limit rejects a query before any
candidate exists; the product itself must read like the list it replaced.
"""

from __future__ import annotations

import itertools
import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from onco_rewriter import pipeline
from onco_rewriter.model import load_model, load_thesaurus
from onco_rewriter.pipeline import (
    CandidateLimitError,
    LazyProduct,
    RewriteOptions,
    prepare_context,
    rewrite_prepared,
)


def context(classes, associations, concepts):
    document = {"project": "t", "version": "1", "packagePrefix": "p", "classes": classes}
    model = load_model(json.dumps(document | {"associations": associations}))
    # a concept enters the module through a subsumption axiom
    lines = ["CONCEPT Root"] + [f"CONCEPT {c}\nSUB {c} Root" for c in concepts]
    thesaurus = load_thesaurus("\n".join(lines))
    return prepare_context(model, thesaurus)


def annotated(name, concept):
    return {"name": name, "annotation": {"primary": concept, "qualifiers": []}}


def calls_to(monkeypatch, name):
    """Record each call to ``pipeline.<name>`` while passing it through."""
    calls = []
    original = getattr(pipeline, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counted)
    return calls


# --- the limit fires before anything is built -------------------------------------


def test_uml_limit_builds_no_candidate(monkeypatch):
    things = context([annotated(f"A{i}", "Thing") for i in range(5)], [], ["Thing"])
    built = calls_to(monkeypatch, "CandidateQuery")
    with pytest.raises(CandidateLimitError, match="candidate count 25 exceeds limit 24") as info:
        rewrite_prepared(
            things, "Thing and hasAssociation some (Thing)", RewriteOptions(candidate_limit=24)
        )
    assert info.value.stage == "umlExtract"
    assert built == []


def test_path_limit_builds_no_chain(monkeypatch):
    roles = [{"source": "S", "roleName": f"r{k}", "target": "T"} for k in range(3)]
    parallel = context([annotated("S", "CS"), annotated("T", "CT")], roles, ["CS", "CT"])
    chains = calls_to(monkeypatch, "_chain_from_path")
    query = "CS and hasAssociation some (CT)"
    # the walk stops one path past the limit, so the count is a lower bound
    cut = "candidate count at least 3 exceeds limit 2"
    with pytest.raises(CandidateLimitError, match=cut) as info:
        rewrite_prepared(parallel, query, RewriteOptions(candidate_limit=2))
    assert info.value.stage == "pathFind"
    assert chains == []
    # at the limit every chain is built, once
    outcome = rewrite_prepared(parallel, query, RewriteOptions(candidate_limit=3))
    assert [r.provenance.path_choices[0][2] for r in outcome.results] == [
        ("c:S_r0_T",), ("c:S_r1_T",), ("c:S_r2_T",)
    ]
    assert len(chains) == 3


# --- the lazy product reads like the list ---------------------------------------------


@given(st.lists(st.lists(st.integers(0, 9), max_size=4), max_size=4))
def test_lazy_product_matches_eager_product(choices):
    built = []

    def build(combo):
        built.append(combo)
        return ("built",) + combo

    product = LazyProduct(choices, build)
    expected = [build(combo) for combo in itertools.product(*choices)]
    built.clear()
    assert len(product) == product.size == len(expected)
    assert built == []
    assert list(product) == expected
    for position in range(-len(expected), len(expected)):
        assert product[position] == expected[position]
    for position in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            product[position]
    # a count past sys.maxsize is still a plain int that a limit can be compared with
    huge = LazyProduct([range(10)] * 20, build)
    assert huge.size == 10**20 > sys.maxsize
    assert huge[-1] == ("built",) + (9,) * 20
