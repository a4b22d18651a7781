"""CQL query AST, grammar validation and XML codec.

The AST mirrors the CQL context-free grammar: a query holds a target, the
target holds at most one child (attribute, association or group),
associations nest recursively and groups combine two or more constraints
under AND or OR. A bare target (no child) is accepted so that "retrieve all
objects of a type" queries stay expressible.

The XML wire format is the caGrid CQL document: root ``ns1:CQLQuery`` bound
to ``http://CQL.caBIG/1/gov.nih.nci.cagrid.CQLQuery`` with ``ns1:Target``,
``ns1:Association``, ``ns1:Attribute``, ``ns1:Group`` and
``ns1:QueryModifier`` children. Serialization is byte-deterministic: LF line
endings, one-space indentation per nesting level, attributes emitted in the
order name, roleName, predicate, value. One walk checks a query and writes
it. Both sides bound nesting at ``MAX_NESTING`` elements under Target:
``to_xml`` and ``validate_grammar`` report a deeper tree as a violation and
``parse_xml`` rejects a deeper document.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from .nodes import Node

CQL_NAMESPACE = "http://CQL.caBIG/1/gov.nih.nci.cagrid.CQLQuery"

PREDICATES = (
    "EQUAL_TO",
    "NOT_EQUAL_TO",
    "LIKE",
    "IS_NULL",
    "IS_NOT_NULL",
    "LESS_THAN",
    "LESS_THAN_EQUAL_TO",
    "GREATER_THAN",
    "GREATER_THAN_EQUAL_TO",
)
VALUELESS_PREDICATES = ("IS_NULL", "IS_NOT_NULL")
LOGICAL_OPS = ("AND", "OR")
# the most elements nested under Target that parse_xml reads and that to_xml
# and validate_grammar accept; both sides recurse a frame or two per level,
# so this keeps any query far from the interpreter's recursion limit
MAX_NESTING = 256
_TOO_DEEP = f"elements nested deeper than {MAX_NESTING} levels under Target"
# the characters XML 1.0 admits in no form, so no CQL document can hold them
NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class CqlError(ValueError):
    pass


class CqlXmlError(ValueError):
    pass


class CqlAttribute(Node):
    __slots__ = ()
    name: str
    predicate: str
    value: str | None = None


class CqlAssociation(Node):
    __slots__ = ()
    name: str
    role_name: str
    child: "CqlAttribute | CqlAssociation | CqlGroup | None" = None


class CqlGroup(Node):
    __slots__ = ()
    logical_op: str
    items: tuple["CqlAttribute | CqlAssociation | CqlGroup", ...] = ()


class CqlTarget(Node):
    __slots__ = ()
    name: str
    child: CqlAttribute | CqlAssociation | CqlGroup | None = None


class QueryModifier(Node):
    __slots__ = ()
    distinct_attribute: str | None = None
    attribute_names: tuple[str, ...] = ()


@dataclass(frozen=True)
class CqlQuery:
    target: CqlTarget
    modifier: QueryModifier | None = None


# --- grammar check and XML encoding ----------------------------------------


def _walk(query: CqlQuery) -> tuple[list[str], list[str]]:
    """Check ``query`` against the CQL grammar and write its XML lines in one
    pass; the lines are a document only when no violation is recorded."""
    violations: list[str] = []
    lines: list[str] = [f'<ns1:CQLQuery xmlns:ns1="{CQL_NAMESPACE}">']

    def text(value, where: str, what: str) -> str:
        if not isinstance(value, str):
            violations.append(f"{where}: {what} must be a string, not {type(value).__name__}")
            return ""
        return (
            value.replace("&", "&amp;")
            .replace("<", "&lt;")
            .replace(">", "&gt;")
            .replace('"', "&quot;")
            .replace("\n", "&#10;")
            .replace("\t", "&#9;")
            .replace("\r", "&#13;")
        )

    def element(head: str, children, where: str, depth: int, tag: str) -> None:
        if not children:
            lines.append(head + "/>")
            return
        lines.append(head + ">")
        for child in children:
            node(child, where, depth + 1)
        lines.append(f"{' ' * (depth + 1)}</ns1:{tag}>")

    def node(item, where: str, depth: int) -> None:
        # depth counts elements under Target, as in parse_xml; a predicate or
        # operator is written raw, as any that would need escaping is a violation
        if depth > MAX_NESTING:
            if _TOO_DEEP not in violations:
                violations.append(_TOO_DEEP)
            return
        indent = " " * (depth + 1)
        if isinstance(item, CqlAttribute):
            name = text(item.name, where, "attribute name")
            value = ""
            if item.value is not None:
                value = f' value="{text(item.value, where, "attribute value")}"'
            if not item.name:
                violations.append(f"{where}: attribute name must be non-empty")
            if item.predicate not in PREDICATES:
                violations.append(f"{where}: unknown predicate '{item.predicate}'")
            elif item.predicate in VALUELESS_PREDICATES:
                if item.value is not None:
                    violations.append(f"{where}: predicate {item.predicate} takes no value")
            elif item.value is None:
                violations.append(f"{where}: predicate {item.predicate} requires a value")
            lines.append(
                f'{indent}<ns1:Attribute name="{name}" predicate="{item.predicate}"{value}/>'
            )
        elif isinstance(item, CqlAssociation):
            name = text(item.name, where, "association name")
            role = text(item.role_name, where, "association roleName")
            if not item.name:
                violations.append(f"{where}: association name must be non-empty")
            if not item.role_name:
                violations.append(f"{where}: association roleName must be non-empty")
            head = f'{indent}<ns1:Association name="{name}" roleName="{role}"'
            child = () if item.child is None else (item.child,)
            element(head, child, f"{where}/Association", depth, "Association")
        elif isinstance(item, CqlGroup):
            if item.logical_op not in LOGICAL_OPS:
                violations.append(f"{where}: unknown logical operator '{item.logical_op}'")
            if len(item.items) < 2:
                violations.append(f"{where}: group must combine at least two constraints")
            head = f'{indent}<ns1:Group logicalOp="{item.logical_op}"'
            element(head, item.items, f"{where}/Group", depth, "Group")
        else:
            violations.append(f"{where}: unexpected node {type(item).__name__}")

    target = query.target
    name = text(target.name, "Target", "name")
    if not target.name:
        violations.append("Target: name must be non-empty")
    child = () if target.child is None else (target.child,)
    element(f' <ns1:Target name="{name}"', child, "Target", 0, "Target")
    m = query.modifier
    if m is not None:
        if m.distinct_attribute is None and not m.attribute_names:
            violations.append("QueryModifier: at least one field must be populated")
        head = " <ns1:QueryModifier"
        if m.distinct_attribute is not None:
            distinct = text(m.distinct_attribute, "QueryModifier", "distinctAttribute")
            head += f' distinctAttribute="{distinct}"'
        names = [text(n, "QueryModifier", "attribute name") for n in m.attribute_names]
        body = "".join(f"\n  <ns1:AttributeNames>{n}</ns1:AttributeNames>" for n in names)
        lines.append(head + (f">{body}\n </ns1:QueryModifier>" if names else "/>"))
    lines.append("</ns1:CQLQuery>")
    # element and node refer to each other: unbound, they are freed now, not
    # by a cycle collection landing on a later query
    del element, node
    return violations, lines


def validate_grammar(query: CqlQuery) -> list[str]:
    """Check derivability from the CQL grammar. Empty report means valid."""
    return _walk(query)[0]


def to_xml(query: CqlQuery) -> str:
    """Serialize to the canonical CQL XML document."""
    violations, lines = _walk(query)
    if violations:
        raise CqlError("invalid query AST: " + "; ".join(violations))
    return "\n".join(lines) + "\n"


# --- XML decoding ---------------------------------------------------------


def _local(tag: str) -> str:
    if not tag.startswith("{"):
        raise CqlXmlError(f"element '{tag}' is not namespace-qualified")
    namespace, _, local = tag[1:].partition("}")
    if namespace != CQL_NAMESPACE:
        raise CqlXmlError(f"namespace mismatch: '{namespace}'")
    return local


def _parse_child(element: ET.Element, depth: int = 1):
    if depth > MAX_NESTING:
        raise CqlXmlError(_TOO_DEEP)
    local = _local(element.tag)
    if local == "Attribute":
        name = element.get("name")
        predicate = element.get("predicate")
        if name is None or predicate is None:
            raise CqlXmlError("Attribute requires name and predicate")
        if len(element) != 0:
            raise CqlXmlError("Attribute cannot have children")
        return CqlAttribute(name=name, predicate=predicate, value=element.get("value"))
    if local == "Association":
        name = element.get("name")
        role = element.get("roleName")
        if name is None or role is None:
            raise CqlXmlError("Association requires name and roleName")
        if len(element) > 1:
            raise CqlXmlError("Association can hold at most one child")
        child = _parse_child(element[0], depth + 1) if len(element) else None
        return CqlAssociation(name=name, role_name=role, child=child)
    if local == "Group":
        op = element.get("logicalOp")
        if op is None:
            raise CqlXmlError("Group requires logicalOp")
        items = tuple(_parse_child(item, depth + 1) for item in element)
        if not items:
            raise CqlXmlError("Group cannot be empty")
        if len(items) == 1:
            return items[0]  # degenerate group normalizes to its sole item
        return CqlGroup(logical_op=op, items=items)
    raise CqlXmlError(f"unknown element '{local}'")


def parse_xml(document: str) -> CqlQuery:
    """Parse a CQL XML document back into the AST."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise CqlXmlError(f"malformed XML: {exc}") from None
    if _local(root.tag) != "CQLQuery":
        raise CqlXmlError(f"unexpected root element '{root.tag}'")

    target: CqlTarget | None = None
    modifier: QueryModifier | None = None
    for element in root:
        local = _local(element.tag)
        if local == "Target":
            if target is not None:
                raise CqlXmlError("multiple Target elements")
            name = element.get("name")
            if name is None:
                raise CqlXmlError("Target requires a name")
            if len(element) > 1:
                raise CqlXmlError("Target can hold at most one child")
            child = _parse_child(element[0]) if len(element) else None
            target = CqlTarget(name=name, child=child)
        elif local == "QueryModifier":
            names = []
            for sub in element:
                if _local(sub.tag) != "AttributeNames":
                    raise CqlXmlError(f"unknown element '{sub.tag}' in QueryModifier")
                names.append(sub.text or "")
            modifier = QueryModifier(
                distinct_attribute=element.get("distinctAttribute"),
                attribute_names=tuple(names),
            )
        else:
            raise CqlXmlError(f"unknown element '{local}'")
    if target is None:
        raise CqlXmlError("missing Target element")
    return CqlQuery(target=target, modifier=modifier)


def semantically_equal(document_a: str, document_b: str) -> bool:
    """Whitespace-insensitive structural equality of two CQL XML documents.
    Node equality compares from an explicit stack, so any depth
    ``parse_xml`` admits costs no recursion."""
    return parse_xml(document_a) == parse_xml(document_b)
