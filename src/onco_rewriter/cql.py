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
order name, roleName, predicate, value.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

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
# the most elements parse_xml accepts nested under Target; to_xml and
# validate_grammar recurse a few frames per level, so this keeps a parsed
# query far from the interpreter's recursion limit
MAX_NESTING = 256


class CqlError(ValueError):
    pass


class CqlXmlError(ValueError):
    pass


@dataclass(frozen=True)
class CqlAttribute:
    name: str
    predicate: str
    value: str | None = None


@dataclass(frozen=True)
class CqlAssociation:
    name: str
    role_name: str
    child: "CqlAttribute | CqlAssociation | CqlGroup | None" = None


@dataclass(frozen=True)
class CqlGroup:
    logical_op: str
    items: tuple["CqlAttribute | CqlAssociation | CqlGroup", ...] = ()


@dataclass(frozen=True)
class CqlTarget:
    name: str
    child: CqlAttribute | CqlAssociation | CqlGroup | None = None


@dataclass(frozen=True)
class QueryModifier:
    distinct_attribute: str | None = None
    attribute_names: tuple[str, ...] = ()


@dataclass(frozen=True)
class CqlQuery:
    target: CqlTarget
    modifier: QueryModifier | None = None


def validate_grammar(query: CqlQuery) -> list[str]:
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


# --- XML encoding ---------------------------------------------------------


def _escape(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
        .replace("\r", "&#13;")
    )


def to_xml(query: CqlQuery) -> str:
    """Serialize to the canonical CQL XML document."""
    violations = validate_grammar(query)
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
            name, role = _escape(node.name), _escape(node.role_name)
            head = f'{indent}<ns1:Association name="{name}" roleName="{role}"'
            element(head, () if node.child is None else (node.child,), depth, "Association")
        elif isinstance(node, CqlAttribute):
            name, predicate = _escape(node.name), node.predicate
            value = "" if node.value is None else f' value="{_escape(node.value)}"'
            lines.append(f'{indent}<ns1:Attribute name="{name}" predicate="{predicate}"{value}/>')
        elif isinstance(node, CqlGroup):
            element(f'{indent}<ns1:Group logicalOp="{node.logical_op}"', node.items, depth, "Group")
        else:
            lines.append(f"{indent}<ns1:AttributeNames>{_escape(node)}</ns1:AttributeNames>")

    target = query.target
    head = f' <ns1:Target name="{_escape(target.name)}"'
    element(head, () if target.child is None else (target.child,), 1, "Target")
    m = query.modifier
    if m is not None:
        distinct = m.distinct_attribute
        head = " <ns1:QueryModifier" + (
            "" if distinct is None else f' distinctAttribute="{_escape(distinct)}"'
        )
        element(head, m.attribute_names, 1, "QueryModifier")
    lines.append("</ns1:CQLQuery>")
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
        raise CqlXmlError(f"elements nested deeper than {MAX_NESTING} levels under Target")
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
    """Whitespace-insensitive structural equality of two CQL XML documents."""
    return parse_xml(document_a) == parse_xml(document_b)
