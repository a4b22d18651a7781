"""The prepared context's path table against fresh contexts.

``find_paths`` stops a capped walk one path past its cap, and keeps every
complete list it walked under a cap on the index, per (source, target,
node budget); ``rewrite_prepared`` caps every walk at the budget the
candidate limit leaves. So one context answering a sequence of queries,
each with its own node budget, candidate limit and selection, must answer
each exactly as a fresh context does: the same XML bytes, provenance and
dropped list, or an error of the same class, stage and text. A kept list
serves a later, smaller cap cut to ``cap + 1`` paths, so even a limit
error's lower bound ("at least N") reads the same. The table holds only complete lists, none longer
than the cap of the walk that filled it, and a list cut under one limit is
walked again under a larger one.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter import pipeline as P
from onco_rewriter.cql import to_xml
from onco_rewriter.model import load_model, load_thesaurus
from onco_rewriter.pipeline import (
    CandidateLimitError,
    PipelineError,
    RewriteOptions,
    prepare_context,
    rewrite_prepared,
)
from onco_rewriter.reasoner import find_paths

from document_strategies import chain_specs, documents


@st.composite
def sequences(draw):
    model, thesaurus, concepts, attribute_concepts = draw(documents(far=False))
    options = st.builds(
        lambda max_nodes, limit, selection: RewriteOptions(max_nodes, limit, selection),
        st.integers(2, 6),
        st.integers(1, 8),
        st.sampled_from(("all", "first")),
    )
    # a few queries, each asked again under other options
    specs = draw(st.lists(chain_specs(concepts, attribute_concepts), min_size=1, max_size=3))
    queries = st.tuples(st.sampled_from(specs), options)
    return model, thesaurus, draw(st.lists(queries, min_size=1, max_size=8))


def answer(context, text, options):
    try:
        outcome = rewrite_prepared(context, text, options)
    except PipelineError as error:
        return ("error", type(error).__name__, error.stage, str(error))
    results = [(to_xml(r.cql), r.provenance) for r in outcome.results]
    return ("ok", results, outcome.dropped)


@contextlib.contextmanager
def fills(index):
    """Each (key, cap) under which a call to ``find_paths`` from the
    pipeline added ``key`` to the index's path table."""
    filled = []

    def recording(index_, source, target, max_nodes, cap=None):
        key = (source, target, max_nodes)
        new = key not in index.paths
        paths = find_paths(index_, source, target, max_nodes, cap)
        if new and key in index.paths:
            filled.append((key, cap))
        return paths

    P.find_paths = recording
    try:
        yield filled
    finally:
        P.find_paths = find_paths


@settings(max_examples=200, deadline=None)
@given(sequence=sequences())
def test_warm_context_answers_like_fresh_ones(sequence):
    document, thesaurus_text, queries = sequence
    model = load_model(json.dumps(document))
    thesaurus = load_thesaurus(thesaurus_text)
    warm = prepare_context(model, thesaurus)
    for spec, options in queries:
        with fills(warm.index) as filled:
            got = answer(warm, spec.text(), options)
        fresh = answer(prepare_context(model, thesaurus), spec.text(), options)
        assert got == fresh, (spec.text(), options)
        for key, cap in filled:
            assert cap is not None and len(warm.index.paths[key]) <= cap, (key, cap)

    # every kept list is the complete, sorted one; and a walk under any cap
    # returns min(count, cap + 1) paths, all of them when they fit
    for (source, target, max_nodes), kept in warm.index.paths.items():
        cold = replace(warm.index, paths={})
        every = find_paths(cold, source, target, max_nodes)
        assert list(kept) == every
        for cap in range(len(every) + 2):
            cut = find_paths(replace(warm.index, paths={}), source, target, max_nodes, cap)
            assert len(cut) == min(len(every), cap + 1)
            assert cut == every if len(every) <= cap else set(cut) <= set(every)


def parallel_context(*hops, roles=3):
    """Classes annotated CS, CM, ... along ``hops``, each joined to the next
    by ``roles`` parallel associations."""
    document = {
        "project": "t",
        "version": "1",
        "packagePrefix": "org.example",
        "classes": [{"name": h, "annotation": {"primary": f"C{h}"}} for h in hops],
        "associations": [
            {"source": s, "roleName": f"r{k}", "target": t}
            for s, t in zip(hops, hops[1:])
            for k in range(roles)
        ],
    }
    lines = ["CONCEPT Root"] + [f"CONCEPT C{h}\nSUB C{h} Root" for h in hops]
    return prepare_context(load_model(json.dumps(document)), load_thesaurus("\n".join(lines)))


def test_cut_list_is_walked_again_under_a_larger_limit():
    context = parallel_context("S", "T")
    query = "CS and hasAssociation some (CT)"
    key = ("c:S", "c:T", 16)
    with pytest.raises(CandidateLimitError, match="^candidate count at least 3 exceeds limit 2$"):
        rewrite_prepared(context, query, RewriteOptions(candidate_limit=2))
    assert key not in context.index.paths
    outcome = rewrite_prepared(context, query, RewriteOptions(candidate_limit=3))
    assert len(outcome.results) == 3
    assert [p.properties for p in context.index.paths[key]] == [
        ("c:S_r0_T",), ("c:S_r1_T",), ("c:S_r2_T",)
    ]
    # the kept list serves the smaller limit again, cut as a walk would be
    with pytest.raises(CandidateLimitError, match="^candidate count at least 3 exceeds limit 2$"):
        rewrite_prepared(context, query, RewriteOptions(candidate_limit=2))


def test_count_stays_exact_when_no_walk_is_cut():
    """Each of the two pairs has 3 paths, within the limit of 8, so neither
    walk is cut; their product, 9, passes the limit and is exact."""
    context = parallel_context("S", "M", "T")
    query = "CS and hasAssociation some (CM and hasAssociation some (CT))"
    with pytest.raises(CandidateLimitError, match="^candidate count 9 exceeds limit 8$"):
        rewrite_prepared(context, query, RewriteOptions(candidate_limit=8))


def test_node_budget_is_part_of_the_key():
    """S reaches T in one step and through M in two: one path under a node
    budget of 2, two under 3. The list kept under either budget never
    answers the other."""
    document = {
        "project": "t",
        "version": "1",
        "packagePrefix": "org.example",
        "classes": [{"name": h, "annotation": {"primary": f"C{h}"}} for h in "SMT"],
        "associations": [
            {"source": s, "roleName": f"to{t}", "target": t} for s, t in ("ST", "SM", "MT")
        ],
    }
    lines = ["CONCEPT Root"] + [f"CONCEPT C{h}\nSUB C{h} Root" for h in "SMT"]
    model, thesaurus = load_model(json.dumps(document)), load_thesaurus("\n".join(lines))
    warm = prepare_context(model, thesaurus)
    query = "CS and hasAssociation some (CT)"
    for max_nodes, count in ((2, 1), (3, 2), (2, 1)):
        options = RewriteOptions(max_nodes=max_nodes)
        got = answer(warm, query, options)
        assert got == answer(prepare_context(model, thesaurus), query, options)
        assert len(got[1]) == count
