"""Any query text either rewrites into CQL that reads back or fails with a
typed pipeline error.

The texts are of three kinds: grammar-shaped queries over the caBIO
context's concept names and one name no model annotates; soups of keywords,
parentheses, quotes, backslashes, ``#`` and names; and arbitrary text. Each
runs under a small node budget, a candidate limit around the number of
candidates the fixture can give, and ``all`` or ``first`` selection. An
outcome is acceptable only as a ``PipelineError`` (so never a
``RecursionError`` or another builtin exception) or as results whose
``to_xml`` document ``parse_xml`` reads back equal.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter.cql import parse_xml, to_xml
from onco_rewriter.model import load_model, load_thesaurus
from onco_rewriter.pipeline import (
    PipelineError,
    RewriteOptions,
    _quote,
    rewrite_prepared,
)

from conftest import FIXTURES

CONCEPTS = load_thesaurus(
    (FIXTURES / "ncit_fragment.thesaurus.txt").read_text(encoding="utf-8")
).concepts
MODEL = load_model((FIXTURES / "cabio_fragment.model.json").read_text(encoding="utf-8"))
# the concepts that annotate a class or an attribute, drawn as often as the
# whole thesaurus plus the unknown name, so that some texts rewrite
ANNOTATING = tuple(
    sorted(
        {
            concept
            for element in (*MODEL.classes, *(a for c in MODEL.classes for a in c.attributes))
            if element.annotation is not None
            for concept in element.annotation.concept_names()
        }
    )
)
names = st.sampled_from(ANNOTATING) | st.sampled_from(CONCEPTS + ("Unannotated_Concept",))
literals = st.text(st.sampled_from('ab%_ "\\') | st.characters(), max_size=6).map(_quote)


def parenthesized(inner: str, wrap: bool) -> str:
    return f"({inner})" if wrap else inner


def restrictions(concepts):
    values = st.lists(literals.map(lambda literal: f"hasValue value {literal}"), max_size=2)
    attribute = st.builds(
        lambda name, values, wrap: "hasAttribute some "
        + parenthesized(" and ".join([name, *values]), wrap or bool(values)),
        names,
        values,
        st.booleans(),
    )
    association = st.builds(
        lambda inner, wrap: "hasAssociation some " + parenthesized(inner, wrap or " " in inner),
        concepts,
        st.booleans(),
    )
    return attribute | association


grammar_shaped = st.recursive(
    names,
    lambda concepts: st.builds(
        lambda head, rest: " and ".join([head, *rest]),
        names,
        st.lists(restrictions(concepts), min_size=1, max_size=3),
    ),
    max_leaves=8,
)
soup_tokens = st.sampled_from(
    ("and", "some", "value", "hasAssociation", "hasAttribute", "hasValue")
    + ("(", ")", '"', "\\", "#", '"x"')
    + CONCEPTS[:4]
)
soups = st.builds(
    lambda tokens, separator: separator.join(tokens),
    st.lists(soup_tokens, max_size=20),
    st.sampled_from((" ", "")),
)
query_texts = grammar_shaped | soups | st.text(max_size=60)
options = st.builds(
    RewriteOptions,
    max_nodes=st.integers(min_value=2, max_value=6),
    candidate_limit=st.integers(min_value=1, max_value=70),
    selection=st.sampled_from(("all", "first")),
)


@settings(max_examples=300, deadline=None)
@given(text=query_texts, options=options)
def test_query_text_rewrites_to_cql_that_reads_back_or_fails_typed(cabio_context, text, options):
    try:
        outcome = rewrite_prepared(cabio_context, text, options)
    except PipelineError:
        return
    for result in outcome.results:
        assert parse_xml(to_xml(result.cql)) == result.cql
