"""The one-walk grammar check and XML writer against the code it replaces.

The reference below copies, verbatim but for the ``reference_`` prefix on the
names it defines, the earlier ``validate_grammar`` (a walk that only checked),
``_escape`` and ``to_xml`` (a second walk that wrote, run only after the
check found nothing). On random grammar-valid queries, with and without a
query modifier, and on hypothesis-built queries whose names and values mix
markup characters, whitespace, non-ASCII text and wrong-typed values, whose
predicates and operators may be unknown or wrong-typed and whose children may
be stray non-node values (and which are mostly invalid), ``to_xml`` must
return the same bytes or raise the same error text, and ``validate_grammar``
must return the same violations.
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
    VALUELESS_PREDICATES,
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


def reference_validate_grammar(query: CqlQuery) -> list[str]:
    """Check derivability from the CQL grammar. Empty report means valid."""
    violations: list[str] = []

    def not_text(value, where: str, what: str) -> None:
        violations.append(f"{where}: {what} must be a string, not {type(value).__name__}")

    def check_attribute(attr: CqlAttribute, where: str) -> None:
        if not isinstance(attr.name, str):
            not_text(attr.name, where, "attribute name")
        if not (attr.value is None or isinstance(attr.value, str)):
            not_text(attr.value, where, "attribute value")
        if not attr.name:
            violations.append(f"{where}: attribute name must be non-empty")
        if attr.predicate not in PREDICATES:
            violations.append(f"{where}: unknown predicate '{attr.predicate}'")
        elif attr.predicate in VALUELESS_PREDICATES:
            if attr.value is not None:
                violations.append(f"{where}: predicate {attr.predicate} takes no value")
        elif attr.value is None:
            violations.append(f"{where}: predicate {attr.predicate} requires a value")

    def check_child(node, where: str) -> None:
        if node is None:
            return
        if isinstance(node, CqlAttribute):
            check_attribute(node, where)
        elif isinstance(node, CqlAssociation):
            if not isinstance(node.name, str):
                not_text(node.name, where, "association name")
            if not isinstance(node.role_name, str):
                not_text(node.role_name, where, "association roleName")
            if not node.name:
                violations.append(f"{where}: association name must be non-empty")
            if not node.role_name:
                violations.append(f"{where}: association roleName must be non-empty")
            check_child(node.child, f"{where}/Association")
        elif isinstance(node, CqlGroup):
            if node.logical_op not in LOGICAL_OPS:
                violations.append(f"{where}: unknown logical operator '{node.logical_op}'")
            if len(node.items) < 2:
                violations.append(f"{where}: group must combine at least two constraints")
            for item in node.items:
                check_child(item, f"{where}/Group")
        else:
            violations.append(f"{where}: unexpected node {type(node).__name__}")

    if not isinstance(query.target.name, str):
        not_text(query.target.name, "Target", "name")
    if not query.target.name:
        violations.append("Target: name must be non-empty")
    check_child(query.target.child, "Target")
    if query.modifier is not None:
        m = query.modifier
        if m.distinct_attribute is None and not m.attribute_names:
            violations.append("QueryModifier: at least one field must be populated")
        if not (m.distinct_attribute is None or isinstance(m.distinct_attribute, str)):
            not_text(m.distinct_attribute, "QueryModifier", "distinctAttribute")
        for name in m.attribute_names:
            if not isinstance(name, str):
                not_text(name, "QueryModifier", "attribute name")
    return violations


def reference_escape(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
        .replace("\r", "&#13;")
    )


def reference_to_xml(query: CqlQuery) -> str:
    """Serialize to the canonical CQL XML document."""
    violations = reference_validate_grammar(query)
    if violations:
        raise CqlError("invalid query AST: " + "; ".join(violations))

    lines: list[str] = [f'<ns1:CQLQuery xmlns:ns1="{CQL_NAMESPACE}">']

    def element(head: str, children: tuple, depth: int, tag: str) -> None:
        """Self-close when there are no children."""
        if not children:
            lines.append(head + "/>")
            return
        lines.append(head + ">")
        for child in children:
            emit(child, depth + 1)
        lines.append(f"{' ' * depth}</ns1:{tag}>")

    def emit(node, depth: int) -> None:
        # validate_grammar has admitted only these node types, a predicate
        # from PREDICATES and an operator from LOGICAL_OPS (neither needs
        # escaping), and a value of None only where the predicate takes none;
        # a str is one of a QueryModifier's attribute names
        indent = " " * depth
        if isinstance(node, CqlAssociation):
            name, role = reference_escape(node.name), reference_escape(node.role_name)
            head = f'{indent}<ns1:Association name="{name}" roleName="{role}"'
            element(head, () if node.child is None else (node.child,), depth, "Association")
        elif isinstance(node, CqlAttribute):
            name, predicate = reference_escape(node.name), node.predicate
            value = "" if node.value is None else f' value="{reference_escape(node.value)}"'
            lines.append(f'{indent}<ns1:Attribute name="{name}" predicate="{predicate}"{value}/>')
        elif isinstance(node, CqlGroup):
            element(f'{indent}<ns1:Group logicalOp="{node.logical_op}"', node.items, depth, "Group")
        else:
            lines.append(f"{indent}<ns1:AttributeNames>{reference_escape(node)}</ns1:AttributeNames>")

    target = query.target
    head = f' <ns1:Target name="{reference_escape(target.name)}"'
    element(head, () if target.child is None else (target.child,), 1, "Target")
    m = query.modifier
    if m is not None:
        distinct = m.distinct_attribute
        head = " <ns1:QueryModifier" + (
            "" if distinct is None else f' distinctAttribute="{reference_escape(distinct)}"'
        )
        element(head, m.attribute_names, 1, "QueryModifier")
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
# the AST's annotations are not enforced, so any field may hold another type
wrong = st.none() | st.integers() | st.floats() | st.binary(max_size=4)
fields = texts | wrong
# a bare string or number stands for a node of no CQL type; None is left out
# of group items, where the walk reports it and the earlier check let it pass
strays = texts | st.integers()
attributes = st.builds(
    CqlAttribute,
    name=fields,
    predicate=st.sampled_from(PREDICATES + ("BOGUS",)) | wrong,
    value=fields,
)
nodes = st.recursive(
    attributes,
    lambda children: st.builds(
        CqlAssociation, name=fields, role_name=fields, child=st.none() | children | strays
    )
    | st.builds(
        CqlGroup,
        logical_op=st.sampled_from(LOGICAL_OPS + ("XOR",)) | wrong,
        items=st.lists(children | strays, min_size=1, max_size=4).map(tuple),
    ),
    max_leaves=6,
)
modifiers = st.none() | st.builds(
    QueryModifier,
    distinct_attribute=fields,
    attribute_names=st.lists(fields, max_size=3).map(tuple),
)
queries = st.builds(
    CqlQuery,
    target=st.builds(CqlTarget, name=fields, child=st.none() | nodes | strays),
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
        assert validate_grammar(query) == reference_validate_grammar(query) == []


@settings(max_examples=400, deadline=None)
@given(queries)
def test_same_bytes_or_error_on_hypothesis_queries(query):
    assert outcome(to_xml, query) == outcome(reference_to_xml, query)
    assert validate_grammar(query) == reference_validate_grammar(query)


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
