from __future__ import annotations

import random

import pytest

from onco_rewriter.cql import (
    MAX_NESTING,
    CqlAssociation,
    CqlAttribute,
    CqlError,
    CqlGroup,
    CqlQuery,
    CqlTarget,
    CqlXmlError,
    QueryModifier,
    parse_xml,
    semantically_equal,
    to_xml,
    validate_grammar,
)
from onco_rewriter.synthetic import random_cql_query, resolve_seed

TGFB1_QUERY = CqlQuery(
    target=CqlTarget(
        name="gov.nih.nci.cabio.domain.SNP",
        child=CqlAssociation(
            name="gov.nih.nci.cabio.domain.GeneRelativeLocation",
            role_name="relativeLocationCollection",
            child=CqlAssociation(
                name="gov.nih.nci.cabio.domain.Gene",
                role_name="gene",
                child=CqlAttribute(name="symbol", predicate="EQUAL_TO", value="TGFB1"),
            ),
        ),
    )
)

# the published wire rendering of the same query, exercising foreign whitespace
TGFB1_DOCUMENT = """\
<ns1:CQLQuery xmlns:ns1="http://CQL.caBIG/1/gov.nih.nci.cagrid.CQLQuery">
<ns1:Target name="gov.nih.nci.cabio.domain.SNP">
  <ns1:Association name="gov.nih.nci.cabio.domain.GeneRelativeLocation"
  roleName= "relativeLocationCollection">
   <ns1:Association name="gov.nih.nci.cabio.domain.Gene" roleName="gene">
    <ns1:Attribute name="symbol" predicate="EQUAL_TO" value="TGFB1"/>
   </ns1:Association>
   </ns1:Association>
</ns1:Target>
 </ns1:CQLQuery>
"""


def test_tgfb1_ast_is_grammar_valid():
    assert validate_grammar(TGFB1_QUERY) == []


def test_bare_target_is_grammar_valid():
    assert validate_grammar(CqlQuery(target=CqlTarget(name="Specimen"))) == []


def test_single_item_group_is_violation():
    query = CqlQuery(
        target=CqlTarget(
            name="X",
            child=CqlGroup(
                logical_op="AND",
                items=(CqlAttribute(name="a", predicate="IS_NULL"),),
            ),
        )
    )
    report = validate_grammar(query)
    assert any("two constraints" in v for v in report)


def test_predicate_value_consistency():
    missing = CqlQuery(
        target=CqlTarget(name="X", child=CqlAttribute(name="a", predicate="EQUAL_TO"))
    )
    assert any("requires a value" in v for v in validate_grammar(missing))
    spurious = CqlQuery(
        target=CqlTarget(
            name="X", child=CqlAttribute(name="a", predicate="IS_NULL", value="x")
        )
    )
    assert any("takes no value" in v for v in validate_grammar(spurious))


def test_modifier_needs_a_field():
    query = CqlQuery(target=CqlTarget(name="X"), modifier=QueryModifier())
    assert any("QueryModifier" in v for v in validate_grammar(query))
    populated = CqlQuery(
        target=CqlTarget(name="X"),
        modifier=QueryModifier(distinct_attribute="id"),
    )
    assert validate_grammar(populated) == []


def test_to_xml_matches_published_document():
    assert semantically_equal(to_xml(TGFB1_QUERY), TGFB1_DOCUMENT)


def test_parse_published_document():
    assert parse_xml(TGFB1_DOCUMENT) == TGFB1_QUERY


def test_to_xml_bare_target_self_closes():
    xml = to_xml(CqlQuery(target=CqlTarget(name="org.example.Specimen")))
    assert '<ns1:Target name="org.example.Specimen"/>' in xml
    assert parse_xml(xml) == CqlQuery(target=CqlTarget(name="org.example.Specimen"))


def test_to_xml_rejects_invalid_ast():
    with pytest.raises(CqlError):
        to_xml(CqlQuery(target=CqlTarget(name="")))


@pytest.mark.parametrize(
    "query, violation",
    [
        (
            CqlQuery(target=CqlTarget(name="T", child=CqlAttribute("a", "EQUAL_TO", 5))),
            "Target: attribute value must be a string, not int",
        ),
        (
            CqlQuery(target=CqlTarget(name="T"), modifier=QueryModifier(attribute_names=(None,))),
            "QueryModifier: attribute name must be a string, not NoneType",
        ),
        (
            CqlQuery(target=CqlTarget(name="T", child=CqlAttribute(7, "IS_NULL"))),
            "Target: attribute name must be a string, not int",
        ),
        (
            CqlQuery(target=CqlTarget(name="T", child=CqlAssociation("A", b"role"))),
            "Target: association roleName must be a string, not bytes",
        ),
        (
            CqlQuery(target=CqlTarget(name="T"), modifier=QueryModifier(distinct_attribute=1.5)),
            "QueryModifier: distinctAttribute must be a string, not float",
        ),
    ],
)
def test_non_string_text_is_a_grammar_violation(query, violation):
    assert violation in validate_grammar(query)
    with pytest.raises(CqlError, match=violation):
        to_xml(query)


def test_parse_rejects_missing_target():
    with pytest.raises(CqlXmlError, match="missing Target"):
        parse_xml('<ns1:CQLQuery xmlns:ns1="http://CQL.caBIG/1/gov.nih.nci.cagrid.CQLQuery"/>')


def test_parse_rejects_unknown_element():
    document = (
        '<ns1:CQLQuery xmlns:ns1="http://CQL.caBIG/1/gov.nih.nci.cagrid.CQLQuery">'
        '<ns1:Frob name="x"/></ns1:CQLQuery>'
    )
    with pytest.raises(CqlXmlError, match="unknown element"):
        parse_xml(document)


def test_parse_rejects_namespace_mismatch():
    document = '<ns1:CQLQuery xmlns:ns1="http://other"><ns1:Target name="x"/></ns1:CQLQuery>'
    with pytest.raises(CqlXmlError, match="namespace mismatch"):
        parse_xml(document)


def test_parse_rejects_malformed_xml():
    with pytest.raises(CqlXmlError, match="malformed"):
        parse_xml("<ns1:CQLQuery")


def _document(body: str) -> str:
    namespace = "http://CQL.caBIG/1/gov.nih.nci.cagrid.CQLQuery"
    return f'<ns1:CQLQuery xmlns:ns1="{namespace}">{body}</ns1:CQLQuery>'


def _under_target(child: str) -> str:
    return _document(f'<ns1:Target name="x">{child}</ns1:Target>')


_NULL_A = '<ns1:Attribute name="a" predicate="IS_NULL"/>'
_NULL_B = '<ns1:Attribute name="b" predicate="IS_NULL"/>'


@pytest.mark.parametrize(
    "document, message",
    [
        (
            '<ns1:Query xmlns:ns1="http://CQL.caBIG/1/gov.nih.nci.cagrid.CQLQuery"/>',
            "unexpected root element '{http://CQL.caBIG/1/gov.nih.nci.cagrid.CQLQuery}Query'",
        ),
        (_document('<ns1:Target name="x"/><ns1:Target name="y"/>'), "multiple Target elements"),
        (_document("<ns1:Target/>"), "Target requires a name"),
        (_under_target(_NULL_A + _NULL_B), "Target can hold at most one child"),
        (
            _document('<ns1:Target name="x"/><ns1:QueryModifier><ns1:Frob/></ns1:QueryModifier>'),
            "unknown element '{http://CQL.caBIG/1/gov.nih.nci.cagrid.CQLQuery}Frob'"
            " in QueryModifier",
        ),
    ],
)
def test_parse_xml_rejects(document, message):
    with pytest.raises(CqlXmlError) as raised:
        parse_xml(document)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "child, message",
    [
        ('<ns1:Attribute predicate="IS_NULL"/>', "Attribute requires name and predicate"),
        ('<ns1:Attribute name="a"/>', "Attribute requires name and predicate"),
        (
            f'<ns1:Attribute name="a" predicate="IS_NULL">{_NULL_B}</ns1:Attribute>',
            "Attribute cannot have children",
        ),
        ('<ns1:Association name="C"/>', "Association requires name and roleName"),
        (
            f'<ns1:Association name="C" roleName="r">{_NULL_A}{_NULL_B}</ns1:Association>',
            "Association can hold at most one child",
        ),
        (f"<ns1:Group>{_NULL_A}{_NULL_B}</ns1:Group>", "Group requires logicalOp"),
        ('<ns1:Group logicalOp="AND"/>', "Group cannot be empty"),
        ("<ns1:Frob/>", "unknown element 'Frob'"),
    ],
)
def test_parse_child_rejects(child, message):
    with pytest.raises(CqlXmlError) as raised:
        parse_xml(_under_target(child))
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "document, message",
    [
        ("<CQLQuery/>", "element 'CQLQuery' is not namespace-qualified"),
        (_document('<Target name="x"/>'), "element 'Target' is not namespace-qualified"),
        ('<ns1:CQLQuery xmlns:ns1="http://other"/>', "namespace mismatch: 'http://other'"),
    ],
)
def test_local_rejects(document, message):
    with pytest.raises(CqlXmlError) as raised:
        parse_xml(document)
    assert str(raised.value) == message


def test_parse_accepts_any_prefix_bound_to_namespace():
    document = (
        '<q:CQLQuery xmlns:q="http://CQL.caBIG/1/gov.nih.nci.cagrid.CQLQuery">'
        '<q:Target name="x"/></q:CQLQuery>'
    )
    assert parse_xml(document) == CqlQuery(target=CqlTarget(name="x"))


def test_degenerate_single_item_group_normalizes():
    document = (
        '<ns1:CQLQuery xmlns:ns1="http://CQL.caBIG/1/gov.nih.nci.cagrid.CQLQuery">'
        '<ns1:Target name="x"><ns1:Group logicalOp="AND">'
        '<ns1:Attribute name="a" predicate="IS_NULL"/>'
        "</ns1:Group></ns1:Target></ns1:CQLQuery>"
    )
    assert parse_xml(document) == CqlQuery(
        target=CqlTarget(name="x", child=CqlAttribute(name="a", predicate="IS_NULL"))
    )


def test_nested_associations_to_depth_twelve():
    child = CqlAttribute(name="leaf", predicate="IS_NOT_NULL")
    for depth in range(12):
        child = CqlAssociation(name=f"org.example.C{depth}", role_name=f"r{depth}", child=child)
    query = CqlQuery(target=CqlTarget(name="org.example.Root", child=child))
    assert validate_grammar(query) == []
    assert parse_xml(to_xml(query)) == query


def _association_chain(depth: int) -> CqlQuery:
    """A query with depth elements nested under its Target."""
    child = CqlAttribute(name="leaf", predicate="IS_NOT_NULL")
    for level in range(depth - 1):
        child = CqlAssociation(name=f"org.example.C{level}", role_name=f"r{level}", child=child)
    return CqlQuery(target=CqlTarget(name="org.example.Root", child=child))


def _group_chain(depth: int) -> CqlQuery:
    """A query with depth elements nested under its Target, each level a group
    of an attribute and the next level down."""
    child = CqlAttribute(name="leaf", predicate="IS_NOT_NULL")
    for level in range(depth - 1):
        leaf = CqlAttribute(name=f"a{level}", predicate="IS_NULL")
        child = CqlGroup(logical_op="AND", items=(leaf, child))
    return CqlQuery(target=CqlTarget(name="org.example.Root", child=child))


def _one_level_deeper(document: str, open_tag: str, close_tag: str) -> str:
    """The document with its Target's child wrapped in one more element."""
    start = document.index(">\n", document.index("<ns1:Target")) + 2
    end = document.rindex(" </ns1:Target>")
    return document[:start] + open_tag + document[start:end] + close_tag + document[end:]


def test_parse_bounds_element_nesting():
    query = _association_chain(MAX_NESTING)
    document = to_xml(query)
    assert parse_xml(document) == query
    assert to_xml(parse_xml(document)) == document
    message = f"nested deeper than {MAX_NESTING} levels under Target"
    deeper = _one_level_deeper(
        document, '<ns1:Association name="C" roleName="r">', "</ns1:Association>"
    )
    with pytest.raises(CqlXmlError, match=message):
        parse_xml(deeper)
    # a chain far deeper than to_xml can write is still a typed error
    document = (
        '<ns1:CQLQuery xmlns:ns1="http://CQL.caBIG/1/gov.nih.nci.cagrid.CQLQuery">'
        '<ns1:Target name="x">'
        + '<ns1:Association name="C" roleName="r">' * 1500
        + "</ns1:Association>" * 1500
        + "</ns1:Target></ns1:CQLQuery>"
    )
    with pytest.raises(CqlXmlError, match=message):
        parse_xml(document)


def test_parse_bounds_group_nesting():
    document = to_xml(_group_chain(MAX_NESTING))
    assert to_xml(parse_xml(document)) == document
    group = '<ns1:Group logicalOp="OR"><ns1:Attribute name="b" predicate="IS_NULL"/>'
    deeper = _one_level_deeper(document, group, "</ns1:Group>")
    with pytest.raises(CqlXmlError, match=f"nested deeper than {MAX_NESTING} levels"):
        parse_xml(deeper)


@pytest.mark.parametrize("chain", [_association_chain, _group_chain])
def test_semantic_equality_at_the_deepest_nesting_parse_xml_admits(chain):
    document = to_xml(chain(MAX_NESTING))
    assert semantically_equal(document, document)
    assert parse_xml(document) == parse_xml(document)
    changed = document.replace('name="leaf"', 'name="leaf2"')
    assert changed != document
    assert not semantically_equal(document, changed)
    assert not semantically_equal(changed, document)
    assert parse_xml(document) != parse_xml(changed)


def test_semantic_equality_matches_ast_equality():
    rng = random.Random(resolve_seed())
    verdicts = []
    for _ in range(400):
        copy, modify = rng.random() < 0.3, rng.random() < 0.3
        state = rng.getstate()
        a = random_cql_query(rng, max_depth=rng.randint(0, 2))
        if copy:
            rng.setstate(state)  # an equal tree, built separately
        b = random_cql_query(rng, max_depth=rng.randint(0, 2))
        if modify:  # for a copy, a pair that differs only in its modifier
            b = CqlQuery(target=b.target, modifier=QueryModifier(attribute_names=("a",)))
        document_a, document_b = to_xml(a), to_xml(b)
        expected = parse_xml(document_a) == parse_xml(document_b)
        assert semantically_equal(document_a, document_b) == expected, (document_a, document_b)
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 300, 1200])
@pytest.mark.parametrize("chain", [_association_chain, _group_chain])
def test_to_xml_bounds_nesting_as_parse_xml_does(chain, depth):
    # one violation, worded as parse_xml words it, and never a RecursionError
    too_deep = f"elements nested deeper than {MAX_NESTING} levels under Target"
    query = chain(depth)
    assert validate_grammar(query) == [too_deep]
    with pytest.raises(CqlError) as raised:
        to_xml(query)
    assert str(raised.value) == f"invalid query AST: {too_deep}"


def test_a_missing_group_item_is_a_grammar_violation():
    # the item is None where a node belongs; it is reported, not written
    leaf = CqlAttribute(name="a", predicate="IS_NULL")
    query = CqlQuery(target=CqlTarget(name="T", child=CqlGroup("AND", (leaf, None, leaf))))
    assert validate_grammar(query) == ["Target/Group: unexpected node NoneType"]
    with pytest.raises(CqlError, match="unexpected node NoneType"):
        to_xml(query)


def test_round_trip_on_generated_corpus():
    rng = random.Random(resolve_seed())
    for _ in range(100):
        query = random_cql_query(rng)
        assert validate_grammar(query) == []
        assert parse_xml(to_xml(query)) == query


def test_tricky_attribute_values_round_trip():
    for value in ['a"b', "a<b>c", "a&b", "line\nbreak", "tab\tchar", "  spaces  ", ""]:
        query = CqlQuery(
            target=CqlTarget(
                name="X", child=CqlAttribute(name="a", predicate="EQUAL_TO", value=value)
            )
        )
        assert parse_xml(to_xml(query)) == query


def test_modifier_round_trip():
    query = CqlQuery(
        target=CqlTarget(name="X"),
        modifier=QueryModifier(distinct_attribute="id", attribute_names=("a", "b")),
    )
    assert parse_xml(to_xml(query)) == query


def test_serialization_is_byte_deterministic():
    assert to_xml(TGFB1_QUERY) == to_xml(TGFB1_QUERY)
    assert to_xml(TGFB1_QUERY).endswith("\n")
    assert "\r" not in to_xml(TGFB1_QUERY)
