"""The CQL XML writer against the code it replaces.

The reference below copies the earlier ``_escape`` (a per-character loop),
``_open_tag`` and ``to_xml`` (one branch per tag, each writing its own
self-close or open/children/close). On random grammar-valid queries, with and
without a query modifier, and on hypothesis-built queries whose names and
values mix markup characters, whitespace and non-ASCII text (and which are
often invalid), the new writer must return the same bytes or raise the same
error text.
"""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter.cql import (
    CQL_NAMESPACE,
    LOGICAL_OPS,
    PREDICATES,
    CqlAssociation,
    CqlAttribute,
    CqlError,
    CqlGroup,
    CqlQuery,
    CqlTarget,
    QueryModifier,
    to_xml,
    validate_grammar,
)
from onco_rewriter.synthetic import random_cql_query

SRC = Path(__file__).resolve().parent.parent / "src"

# --- reference implementation -------------------------------------------------


def reference_escape(value: str) -> str:
    out = []
    for ch in value:
        if ch == "&":
            out.append("&amp;")
        elif ch == "<":
            out.append("&lt;")
        elif ch == ">":
            out.append("&gt;")
        elif ch == '"':
            out.append("&quot;")
        elif ch == "\n":
            out.append("&#10;")
        elif ch == "\t":
            out.append("&#9;")
        elif ch == "\r":
            out.append("&#13;")
        else:
            out.append(ch)
    return "".join(out)


def reference_open_tag(tag: str, attrs: list[tuple[str, str]], self_close: bool) -> str:
    rendered = "".join(f' {k}="{reference_escape(v)}"' for k, v in attrs)
    return f"<ns1:{tag}{rendered}{'/' if self_close else ''}>"


def reference_to_xml(query: CqlQuery) -> str:
    violations = validate_grammar(query)
    if violations:
        raise CqlError("invalid query AST: " + "; ".join(violations))

    lines: list[str] = [f'<ns1:CQLQuery xmlns:ns1="{CQL_NAMESPACE}">']

    def emit(node, depth: int) -> None:
        indent = " " * depth
        if isinstance(node, CqlAttribute):
            attrs = [("name", node.name), ("predicate", node.predicate)]
            if node.value is not None:
                attrs.append(("value", node.value))
            lines.append(indent + reference_open_tag("Attribute", attrs, self_close=True))
        elif isinstance(node, CqlAssociation):
            attrs = [("name", node.name), ("roleName", node.role_name)]
            if node.child is None:
                lines.append(indent + reference_open_tag("Association", attrs, self_close=True))
            else:
                lines.append(indent + reference_open_tag("Association", attrs, self_close=False))
                emit(node.child, depth + 1)
                lines.append(indent + "</ns1:Association>")
        elif isinstance(node, CqlGroup):
            attrs = [("logicalOp", node.logical_op)]
            lines.append(indent + reference_open_tag("Group", attrs, self_close=False))
            for item in node.items:
                emit(item, depth + 1)
            lines.append(indent + "</ns1:Group>")
        else:
            raise CqlError(f"cannot serialize {type(node).__name__}")

    target_attrs = [("name", query.target.name)]
    if query.target.child is None:
        lines.append(" " + reference_open_tag("Target", target_attrs, self_close=True))
    else:
        lines.append(" " + reference_open_tag("Target", target_attrs, self_close=False))
        emit(query.target.child, 2)
        lines.append(" </ns1:Target>")

    if query.modifier is not None:
        m = query.modifier
        attrs = []
        if m.distinct_attribute is not None:
            attrs.append(("distinctAttribute", m.distinct_attribute))
        if not m.attribute_names:
            lines.append(" " + reference_open_tag("QueryModifier", attrs, self_close=True))
        else:
            lines.append(" " + reference_open_tag("QueryModifier", attrs, self_close=False))
            for name in m.attribute_names:
                lines.append(f"  <ns1:AttributeNames>{reference_escape(name)}</ns1:AttributeNames>")
            lines.append(" </ns1:QueryModifier>")

    lines.append("</ns1:CQLQuery>")
    return "\n".join(lines) + "\n"


# --- helpers ------------------------------------------------------------------


def outcome(write, query: CqlQuery) -> tuple[str, str]:
    try:
        return ("xml", write(query))
    except CqlError as error:
        return ("error", str(error))


def random_modifier(rng: random.Random) -> QueryModifier:
    names = tuple(f"attr{rng.randint(0, 9)}" for _ in range(rng.randint(0, 3)))
    distinct = f"attr{rng.randint(0, 9)}" if not names or rng.random() < 0.5 else None
    return QueryModifier(distinct_attribute=distinct, attribute_names=names)


MARKUP = '&<>"\n\t\r'
texts = st.text(st.sampled_from(MARKUP) | st.characters(), max_size=10)
attributes = st.builds(
    CqlAttribute,
    name=texts,
    predicate=st.sampled_from(PREDICATES + ("BOGUS",)),
    value=st.none() | texts,
)
nodes = st.recursive(
    attributes,
    lambda children: st.builds(
        CqlAssociation, name=texts, role_name=texts, child=st.none() | children
    )
    | st.builds(
        CqlGroup,
        logical_op=st.sampled_from(LOGICAL_OPS + ("XOR",)),
        items=st.lists(children, min_size=1, max_size=4).map(tuple),
    ),
    max_leaves=6,
)
modifiers = st.none() | st.builds(
    QueryModifier,
    distinct_attribute=st.none() | texts,
    attribute_names=st.lists(texts, max_size=3).map(tuple),
)
queries = st.builds(
    CqlQuery,
    # a bare string or number stands for a node of no CQL type
    target=st.builds(CqlTarget, name=texts, child=st.none() | nodes | texts | st.integers()),
    modifier=modifiers,
)


# --- tests --------------------------------------------------------------------


def test_same_bytes_on_random_grammar_valid_queries():
    rng = random.Random(20101)
    for _ in range(3000):
        query = random_cql_query(rng)
        if rng.random() < 0.3:
            query = dataclasses.replace(query, modifier=random_modifier(rng))
        assert to_xml(query) == reference_to_xml(query)


@settings(max_examples=400, deadline=None)
@given(queries)
def test_same_bytes_or_error_on_hypothesis_queries(query):
    assert outcome(to_xml, query) == outcome(reference_to_xml, query)


def test_import_leaves_the_network_and_sax_modules_out():
    # xml.sax.saxutils pulls in urllib.request, ssl, http.client and email,
    # several MB of resident memory that no query needs
    probe = (
        "import sys, onco_rewriter\n"
        "heavy = ('urllib.request', 'ssl', 'email', 'xml.sax')\n"
        "print(','.join(m for m in heavy if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )
    assert result.stdout.strip() == ""
