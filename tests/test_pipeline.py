from __future__ import annotations

import gc
import json
import random

import pytest

from onco_rewriter import pipeline
from onco_rewriter.cql import (
    CqlAssociation,
    CqlAttribute,
    CqlGroup,
    CqlQuery,
    CqlTarget,
    parse_xml,
    to_xml,
    validate_grammar,
)
from onco_rewriter.model import load_model, load_thesaurus
from onco_rewriter.pipeline import (
    And,
    CandidateLimitError,
    ConceptRef,
    ExtentGenerator,
    Filter,
    HasAssociationSome,
    HasAttributeSome,
    HasValueEquals,
    MAX_NESTING,
    MccComprehension,
    MccError,
    NoPathError,
    NoUmlCandidateError,
    PipelineError,
    PathGenerator,
    QuerySyntaxError,
    RewriteOptions,
    TypeBind,
    UmlAttributeRef,
    UmlClassRef,
    ValueBinding,
    _context_attribute,
    _context_class,
    cql_depth,
    extract_data_values,
    extract_uml,
    find_property_paths,
    format_comprehension,
    format_query,
    mcc_to_cql,
    parse_query,
    prepare_context,
    reinsert_data_values,
    rewrite,
    rewrite_prepared,
    to_mcc,
    validate_semantics,
)
from onco_rewriter.reasoner import reach
from onco_rewriter.synthetic import random_resolved_tree, resolve_seed

from conftest import CABIO_QUERY, FIXTURES
from test_factored_plan import QUERY, chain_context


def context_from(classes, associations, thesaurus_lines):
    model = load_model(
        json.dumps(
            {
                "project": "t",
                "version": "1",
                "packagePrefix": "org.example",
                "classes": classes,
                "associations": associations,
            }
        )
    )
    thesaurus = load_thesaurus("\n".join(thesaurus_lines))
    return model, thesaurus, prepare_context(model, thesaurus)


def annotated(name, concept, attributes=None, superclasses=None):
    entry = {"name": name, "annotation": {"primary": concept, "qualifiers": []}}
    if attributes:
        entry["attributes"] = attributes
    if superclasses:
        entry["superclasses"] = superclasses
    return entry


# --- parsing ---------------------------------------------------------------


def test_parse_bare_concept():
    assert parse_query("Specimen") == ConceptRef("Specimen")


def test_parse_attribute_value_query():
    ast = parse_query('Gene and hasAttribute some (Gene_Symbol and hasValue value "BRCA%")')
    assert ast == And(
        (
            ConceptRef("Gene"),
            HasAttributeSome(And((ConceptRef("Gene_Symbol"), HasValueEquals("BRCA%")))),
        )
    )


def test_parse_association_query():
    ast = parse_query(CABIO_QUERY)
    assert ast == And(
        (
            ConceptRef("Single_Nucleotide_Polymorphism"),
            HasAssociationSome(
                And(
                    (
                        ConceptRef("Gene"),
                        HasAttributeSome(
                            And((ConceptRef("Gene_Symbol"), HasValueEquals("TGFB1")))
                        ),
                    )
                )
            ),
        )
    )


def test_parse_rejects_keyword_soup():
    with pytest.raises(QuerySyntaxError, match="position"):
        parse_query("and and")


@pytest.mark.parametrize("text", [")", '"abc"', "Gene and )"])
def test_parse_rejects_non_concept_in_term_position(text):
    with pytest.raises(QuerySyntaxError, match="expected a concept name or parenthesized") as info:
        parse_query(text)
    assert info.value.stage == "parse"


def test_parse_rejects_trailing_tokens():
    with pytest.raises(QuerySyntaxError, match="trailing"):
        parse_query("Gene Gene")


def test_parse_rejects_unterminated_string():
    with pytest.raises(QuerySyntaxError, match="unterminated"):
        parse_query('Gene and hasValue value "oops')


def test_parse_rejects_value_outside_attribute():
    with pytest.raises(QuerySyntaxError, match="hasAttribute"):
        parse_query('Gene and hasValue value "x"')


def test_parse_rejects_value_without_concept():
    with pytest.raises(QuerySyntaxError, match="exactly one concept"):
        parse_query('Gene and hasAttribute some (hasValue value "x")')


def test_parse_rejects_two_concepts_in_one_context():
    with pytest.raises(QuerySyntaxError, match="exactly one concept"):
        parse_query("Gene and Chromosome")


def test_parse_rejects_association_inside_attribute():
    with pytest.raises(QuerySyntaxError, match="attribute restriction"):
        parse_query("Gene and hasAttribute some (Gene_Symbol and hasAssociation some (Gene))")


def test_parse_flattens_nested_conjunction():
    flat = parse_query("Gene and (hasAttribute some (Name) and hasAttribute some (Gene_Symbol))")
    assert isinstance(flat, And)
    assert len(flat.items) == 3


def test_parse_bounds_parenthesis_nesting(cabio_context):
    query = "Gene"
    for level in range(MAX_NESTING):
        concept = "Single_Nucleotide_Polymorphism" if level % 2 == 0 else "Gene"
        query = f"{concept} and hasAssociation some ({query})"
    # the deepest accepted query also passes the recursive stages after parsing
    candidates = extract_uml(parse_query(query), cabio_context.index)
    assert len(candidates) == 1
    assert format_query(candidates[0].ast).count("hasAssociation some") == MAX_NESTING
    with pytest.raises(QuerySyntaxError, match=f"nested deeper than {MAX_NESTING} levels"):
        parse_query(f"Gene and hasAssociation some ({query})")
    with pytest.raises(QuerySyntaxError, match=r"\(at position 101\)"):
        parse_query("(" * 3000 + "Gene" + ")" * 3000)


# --- UML extraction -----------------------------------------------------------


def test_extract_uml_cabio_candidate(cabio_context):
    candidates = extract_uml(parse_query(CABIO_QUERY), cabio_context.index)
    assert len(candidates) == 1
    assert format_query(candidates[0].ast) == (
        "c:SNP and hasAssociation some "
        '(c:Gene and hasAttribute some (c:Gene_symbol and hasValue value "TGFB1"))'
    )
    assert candidates[0].provenance.concept_choices == (
        ("Single_Nucleotide_Polymorphism", "c:SNP"),
        ("Gene", "c:Gene"),
        ("Gene_Symbol", "c:Gene_symbol"),
    )


def test_extract_uml_two_classes_for_one_concept():
    _, _, context = context_from(
        [annotated("A", "Thing"), annotated("B", "Thing")],
        [],
        ["CONCEPT Root", "CONCEPT Thing", "SUB Thing Root"],
    )
    candidates = extract_uml(parse_query("Thing"), context.index)
    assert [c.ast for c in candidates] == [UmlClassRef("c:A"), UmlClassRef("c:B")]


def test_extract_uml_matches_thesaurus_ancestors():
    _, _, context = context_from(
        [annotated("A", "Leaf")],
        [],
        ["CONCEPT Root", "CONCEPT Leaf", "SUB Leaf Root"],
    )
    candidates = extract_uml(parse_query("Root"), context.index)
    assert [c.ast for c in candidates] == [UmlClassRef("c:A")]


def test_extract_uml_no_candidate():
    _, _, context = context_from(
        [annotated("A", "Thing")],
        [],
        ["CONCEPT Root", "CONCEPT Thing", "CONCEPT Unused", "SUB Thing Root", "SUB Unused Root"],
    )
    with pytest.raises(NoUmlCandidateError, match="Unused"):
        extract_uml(parse_query("Unused"), context.index)


def test_extract_uml_attribute_position_selects_attribute_classes(cabio_context):
    ast = parse_query("Gene and hasAttribute some (Gene_Symbol)")
    candidates = extract_uml(ast, cabio_context.index)
    assert candidates[0].ast == And(
        (UmlClassRef("c:Gene"), HasAttributeSome(UmlAttributeRef("c:Gene_symbol")))
    )


# --- data value extraction ------------------------------------------------------


def test_extract_values_cabio(cabio_context):
    candidate = extract_uml(parse_query(CABIO_QUERY), cabio_context.index)[0]
    stripped, bindings = extract_data_values(candidate.ast)
    assert format_query(stripped) == (
        "c:SNP and hasAssociation some (c:Gene and hasAttribute some c:Gene_symbol)"
    )
    assert bindings == [
        ValueBinding(
            ordinal=0,
            stripped=UmlAttributeRef("c:Gene_symbol"),
            written=And((UmlAttributeRef("c:Gene_symbol"), HasValueEquals("TGFB1"))),
        )
    ]


def test_extract_values_identity_when_absent():
    tree = And((UmlClassRef("c:A"), HasAttributeSome(UmlAttributeRef("c:A_x"))))
    stripped, bindings = extract_data_values(tree)
    assert stripped == tree
    assert bindings == []


def test_extract_values_returns_what_holds_no_value_as_the_same_object():
    plain = parse_query(
        "Gene and hasAttribute some (Gene_Symbol) and hasAssociation some (Chromosome)"
    )
    stripped, bindings = extract_data_values(plain)
    assert stripped is plain and bindings == []
    valued = parse_query(
        'Gene and hasAttribute some (Gene_Symbol and hasValue value "TGFB1")'
        " and hasAssociation some (Chromosome and hasAttribute some (Name))"
    )
    stripped, bindings = extract_data_values(valued)
    assert [binding.written for binding in bindings] == [valued.items[1].inner]
    assert stripped.items[1] == HasAttributeSome(ConceptRef("Gene_Symbol"))
    assert stripped.items[0] is valued.items[0]
    assert stripped.items[2] is valued.items[2]
    rng = random.Random(resolve_seed())
    for _ in range(100):
        tree = random_resolved_tree(rng)
        stripped, bindings = extract_data_values(tree)
        assert (stripped is tree) == (not bindings)


def test_extract_values_depth_first_order():
    tree = And(
        (
            UmlClassRef("c:A"),
            HasAttributeSome(And((UmlAttributeRef("c:A_x"), HasValueEquals("first")))),
            HasAttributeSome(And((UmlAttributeRef("c:A_y"), HasValueEquals("second")))),
        )
    )
    _, bindings = extract_data_values(tree)
    assert [(b.ordinal, b.written.items[1].literal) for b in bindings] == [
        (0, "first"),
        (1, "second"),
    ]


def test_extract_then_reinsert_identity():
    rng = random.Random(resolve_seed())
    for _ in range(100):
        tree = random_resolved_tree(rng)
        stripped, bindings = extract_data_values(tree)
        assert reinsert_data_values(stripped, bindings) == tree


def test_reinsert_empty_bindings_is_identity():
    tree = And((UmlClassRef("c:A"), HasAttributeSome(UmlAttributeRef("c:A_x"))))
    assert reinsert_data_values(tree, []) is tree


def test_values_under_a_nested_conjunction_round_trip():
    # outside the grammar; the address scheme extracted it and then refused
    # its own binding with "binding address unresolvable: (0, 1, 1)"
    tree = HasAttributeSome(
        And((UmlAttributeRef("c:A_x"), And((UmlAttributeRef("c:A_y"), HasValueEquals("w")))))
    )
    stripped, bindings = extract_data_values(tree)
    assert stripped == HasAttributeSome(
        And((UmlAttributeRef("c:A_x"), UmlAttributeRef("c:A_y")))
    )
    assert reinsert_data_values(stripped, bindings) == tree


@pytest.mark.parametrize(
    "ast, message",
    [
        (
            And((UmlClassRef("c:Gene"), HasValueEquals("x"))),
            "data value outside an attribute restriction",
        ),
        (
            HasAttributeSome(And((HasValueEquals("a"), HasValueEquals("b")))),
            "attribute restriction with values only",
        ),
        (HasValueEquals("x"), "data value must be conjoined with a concept"),
    ],
)
def test_extract_values_rejects(ast, message):
    with pytest.raises(PipelineError) as raised:
        extract_data_values(ast)
    assert (type(raised.value), raised.value.stage, str(raised.value)) == (
        PipelineError,
        "valueExtract",
        message,
    )


_GENE_SYMBOL_X = And((UmlAttributeRef("c:Gene_symbol"), HasValueEquals("x")))


@pytest.mark.parametrize(
    "binding, message",
    [
        # the restriction holds another argument than the stripped one
        (
            ValueBinding(0, UmlAttributeRef("c:Gene_name"), _GENE_SYMBOL_X),
            "binding address unresolvable: no matching attribute restriction",
        ),
        (
            ValueBinding(0, _GENE_SYMBOL_X, _GENE_SYMBOL_X),
            "binding address unresolvable: no matching attribute restriction",
        ),
        (
            ValueBinding(1, UmlAttributeRef("c:Gene_symbol"), _GENE_SYMBOL_X),
            "binding address unresolvable: no matching attribute restriction",
        ),
    ],
)
def test_reinsert_values_rejects(binding, message):
    ast = And((UmlClassRef("c:Gene"), HasAttributeSome(UmlAttributeRef("c:Gene_symbol"))))
    with pytest.raises(PipelineError) as raised:
        reinsert_data_values(ast, [binding])
    assert (type(raised.value), raised.value.stage, str(raised.value)) == (
        PipelineError,
        "valueReinsert",
        message,
    )


# --- semantic validation -----------------------------------------------------------


def test_validate_cabio_candidate(cabio_context):
    candidate = extract_uml(parse_query(CABIO_QUERY), cabio_context.index)[0]
    stripped, _ = extract_data_values(candidate.ast)
    assert validate_semantics(stripped, cabio_context.index).ok


def test_validate_rejects_foreign_attribute(cabio_context):
    stripped = And(
        (UmlClassRef("c:Chromosome"), HasAttributeSome(UmlAttributeRef("c:Gene_symbol")))
    )
    outcome = validate_semantics(stripped, cabio_context.index)
    assert not outcome.ok
    assert outcome.failures == (("attribute", "c:Chromosome", "c:Gene_symbol"),)


def test_validate_rejects_unreachable_association(cabio_context):
    stripped = And((UmlClassRef("c:Gene"), HasAssociationSome(UmlClassRef("c:SNP"))))
    outcome = validate_semantics(stripped, cabio_context.index)
    assert outcome.failures == (("association", "c:Gene", "c:SNP"),)


def test_validate_bare_class_ok(cabio_context):
    assert validate_semantics(UmlClassRef("c:Gene"), cabio_context.index).ok


def test_validate_accepts_inherited_attribute(cabio_context):
    # CytogeneticLocation inherits nothing here, but Chromosome's own works
    stripped = And(
        (UmlClassRef("c:Chromosome"), HasAttributeSome(UmlAttributeRef("c:Chromosome_number")))
    )
    assert validate_semantics(stripped, cabio_context.index).ok


@pytest.mark.parametrize(
    "context_of, node, message",
    [
        (_context_class, ConceptRef("C16612"), "context without a resolved class"),
        (
            _context_class,
            HasAttributeSome(UmlAttributeRef("c:Gene_symbol")),
            "context without a resolved class",
        ),
        (
            _context_attribute,
            UmlClassRef("c:Gene"),
            "attribute restriction without a resolved attribute class",
        ),
    ],
)
def test_context_lookup_rejects(context_of, node, message):
    with pytest.raises(PipelineError) as raised:
        context_of(node)
    assert (type(raised.value), raised.value.stage, str(raised.value)) == (
        PipelineError,
        "validate",
        message,
    )


# --- property path finding -----------------------------------------------------------


def test_path_expansion_cabio(cabio_context):
    candidate = extract_uml(parse_query(CABIO_QUERY), cabio_context.index)[0]
    stripped, _ = extract_data_values(candidate.ast)
    expanded = find_property_paths(stripped, cabio_context.index, 16)
    assert len(expanded) == 1
    assert format_query(expanded[0].ast, cabio_context.naming) == (
        "c:SNP and hasAssociation(relativeLocationCollection) some c:GeneRelativeLocation"
        " and hasAssociation(gene) some (c:Gene and hasAttribute some c:Gene_symbol)"
    )
    assert expanded[0].provenance.path_choices == (
        (
            "c:SNP",
            "c:Gene",
            (
                "c:SNP_relativeLocationCollection_GeneRelativeLocation",
                "c:GeneRelativeLocation_gene_Gene",
            ),
        ),
    )


def test_direct_edge_single_candidate():
    _, _, context = context_from(
        [annotated("X", "CX"), annotated("Y", "CY")],
        [{"source": "X", "roleName": "r", "target": "Y"}],
        ["CONCEPT Root", "CONCEPT CX", "CONCEPT CY", "SUB CX Root", "SUB CY Root"],
    )
    stripped = And((UmlClassRef("c:X"), HasAssociationSome(UmlClassRef("c:Y"))))
    expanded = find_property_paths(stripped, context.index, 16)
    assert len(expanded) == 1
    assert format_query(expanded[0].ast, context.naming) == (
        "c:X and hasAssociation(r) some c:Y"
    )


def diamond_context():
    return context_from(
        [
            annotated("S", "CS"),
            annotated("A", "CA"),
            annotated("B", "CB"),
            annotated("T", "CT"),
        ],
        [
            {"source": "S", "roleName": "viaA", "target": "A"},
            {"source": "S", "roleName": "viaB", "target": "B"},
            {"source": "A", "roleName": "toT", "target": "T"},
            {"source": "B", "roleName": "toT", "target": "T"},
        ],
        [
            "CONCEPT Root",
            "CONCEPT CS",
            "CONCEPT CA",
            "CONCEPT CB",
            "CONCEPT CT",
            "SUB CS Root",
            "SUB CA Root",
            "SUB CB Root",
            "SUB CT Root",
        ],
    )


def test_diamond_yields_two_candidates():
    _, _, context = diamond_context()
    stripped = And((UmlClassRef("c:S"), HasAssociationSome(UmlClassRef("c:T"))))
    expanded = find_property_paths(stripped, context.index, 16)
    assert len(expanded) == 2
    renderings = [format_query(c.ast, context.naming) for c in expanded]
    assert renderings == [
        "c:S and hasAssociation(viaA) some c:A and hasAssociation(toT) some c:T",
        "c:S and hasAssociation(viaB) some c:B and hasAssociation(toT) some c:T",
    ]


def test_no_path_error_names_the_pair():
    _, _, context = context_from(
        [annotated("X", "CX"), annotated("Y", "CY")],
        [{"source": "Y", "roleName": "r", "target": "X"}],
        ["CONCEPT Root", "CONCEPT CX", "CONCEPT CY", "SUB CX Root", "SUB CY Root"],
    )
    # X -> Y is unreachable, so validation rejects before path finding;
    # a capped budget turns a reachable pair into a NoPath case instead
    chain_model, chain_thesaurus, chain_context = context_from(
        [annotated("A", "KA"), annotated("B", "KB"), annotated("C", "KC")],
        [
            {"source": "A", "roleName": "ab", "target": "B"},
            {"source": "B", "roleName": "bc", "target": "C"},
        ],
        [
            "CONCEPT Root",
            "CONCEPT KA",
            "CONCEPT KB",
            "CONCEPT KC",
            "SUB KA Root",
            "SUB KB Root",
            "SUB KC Root",
        ],
    )
    stripped = And((UmlClassRef("c:A"), HasAssociationSome(UmlClassRef("c:C"))))
    with pytest.raises(NoPathError, match="c:A.*c:C"):
        find_property_paths(stripped, chain_context.index, 2)


def test_cql_depth_reads_reach_without_a_validation_first(cabio_model, ncit_thesaurus):
    """A walk cut at ``cap`` is bounded by the classes its source reaches,
    which ``cql_depth`` reads through ``reach``; the memo used to be filled
    only by ``association_reachable``, so without a validation first the
    read raised ``KeyError``."""
    index = prepare_context(cabio_model, ncit_thesaurus).index
    resolved = extract_uml(parse_query(CABIO_QUERY), index)[0].ast
    stripped, _ = extract_data_values(resolved)
    expansions = find_property_paths(stripped, index, cap=0)
    assert index.reach == {}
    depth = cql_depth(resolved, expansions, cap=0, index=index)
    assert set(index.reach) == {"c:SNP"}

    validated = prepare_context(cabio_model, ncit_thesaurus).index
    assert validate_semantics(stripped, validated).ok
    assert validated.reach == index.reach
    assert cql_depth(resolved, expansions, cap=0, index=validated) == depth
    assert reach(index, "c:SNP") is index.reach["c:SNP"]


# --- monoid comprehension -----------------------------------------------------------


def test_to_mcc_cabio(cabio_context):
    candidate = extract_uml(parse_query(CABIO_QUERY), cabio_context.index)[0]
    stripped, bindings = extract_data_values(candidate.ast)
    expanded = find_property_paths(stripped, cabio_context.index, 16)[0]
    restored = reinsert_data_values(expanded.ast, bindings)
    comprehension = to_mcc(restored, cabio_context.naming)
    assert comprehension.head_var == "s"
    assert format_comprehension(comprehension) == (
        "⊎{ s ‖ s ← SNP, r ← s.relativeLocationCollection, r ← GeneRelativeLocation, "
        'g ← r.gene, g ← Gene, g.symbol = "TGFB1" }'
    )


def test_to_mcc_bare_class(cabio_context):
    comprehension = to_mcc(UmlClassRef("c:Gene"), cabio_context.naming)
    assert format_comprehension(comprehension) == "⊎{ g ‖ g ← Gene }"


def test_wildcard_literal_maps_to_like(cabio_context):
    restored = And(
        (
            UmlClassRef("c:Gene"),
            HasAttributeSome(And((UmlAttributeRef("c:Gene_symbol"), HasValueEquals("BRCA%")))),
        )
    )
    comprehension = to_mcc(restored, cabio_context.naming)
    filters = [q for q in comprehension.qualifiers if hasattr(q, "predicate")]
    assert [f.predicate for f in filters] == ["LIKE"]


def test_mcc_to_cql_cabio(cabio_model, cabio_context):
    candidate = extract_uml(parse_query(CABIO_QUERY), cabio_context.index)[0]
    stripped, bindings = extract_data_values(candidate.ast)
    expanded = find_property_paths(stripped, cabio_context.index, 16)[0]
    restored = reinsert_data_values(expanded.ast, bindings)
    comprehension = to_mcc(restored, cabio_context.naming)
    query = mcc_to_cql(comprehension, cabio_model)
    assert query == CqlQuery(
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


def test_mcc_to_cql_bare_class(cabio_model, cabio_context):
    comprehension = to_mcc(UmlClassRef("c:Gene"), cabio_context.naming)
    query = mcc_to_cql(comprehension, cabio_model)
    assert query == CqlQuery(target=CqlTarget(name="gov.nih.nci.cabio.domain.Gene"))


def test_multiple_filters_become_and_group(cabio_model, cabio_context):
    restored = And(
        (
            UmlClassRef("c:Gene"),
            HasAttributeSome(
                And(
                    (
                        UmlAttributeRef("c:Gene_symbol"),
                        HasValueEquals("TGFB1"),
                        HasValueEquals("BRCA%"),
                    )
                )
            ),
        )
    )
    query = mcc_to_cql(to_mcc(restored, cabio_context.naming), cabio_model)
    assert isinstance(query.target.child, CqlGroup)
    assert query.target.child.logical_op == "AND"
    assert len(query.target.child.items) == 2
    assert validate_grammar(query) == []


@pytest.mark.parametrize(
    "ast, message",
    [
        (
            And((UmlClassRef("c:SNP"), HasAssociationSome(UmlClassRef("c:Gene")))),
            "unexpanded association restriction",
        ),
        (
            And((UmlClassRef("c:SNP"), HasValueEquals("x"))),
            "data value outside an attribute restriction",
        ),
    ],
)
def test_to_mcc_rejects(cabio_context, ast, message):
    with pytest.raises(MccError) as raised:
        to_mcc(ast, cabio_context.naming)
    assert (raised.value.stage, str(raised.value)) == ("mcc", message)


SNP = ExtentGenerator("s", "SNP")
TO_GENE = PathGenerator("g", "s", "gene")


@pytest.mark.parametrize(
    "head_var, qualifiers, message",
    [
        ("s", (ExtentGenerator("s", "Ghost"),), "class 'Ghost' is not part of model 'caBIO'"),
        ("s", (), "the first qualifier must introduce the header variable"),
        ("s", (TO_GENE,), "the first qualifier must introduce the header variable"),
        ("t", (SNP,), "header variable is not introduced by the first qualifier"),
        ("s", (SNP, SNP), "only the first qualifier may be an extent generator"),
        ("s", (SNP, PathGenerator("g", "q", "gene")), "variable 'q' used before introduction"),
        ("s", (SNP, PathGenerator("s", "s", "gene")), "variable 's' introduced twice"),
        ("s", (SNP, TypeBind("g", "Gene")), "type restriction on 'g' without its generator"),
        (
            "s",
            (SNP, Filter("q", "symbol", "EQUAL_TO", "x")),
            "filter on unbound variable 'q'",
        ),
        (
            "s",
            (SNP, TO_GENE, Filter("g", "symbol", "EQUAL_TO", "x")),
            "filter on unbound variable 'g'",
        ),
        ("s", (SNP, TO_GENE), "generator 'g' lacks a type restriction"),
    ],
)
def test_mcc_to_cql_rejects(cabio_model, head_var, qualifiers, message):
    with pytest.raises(MccError) as raised:
        mcc_to_cql(MccComprehension(head_var, qualifiers), cabio_model)
    assert (raised.value.stage, str(raised.value)) == ("mcc", message)


# --- the full rewrite ---------------------------------------------------------------


def test_rewrite_cabio_reproduces_published_listing(cabio_model, ncit_thesaurus):
    results = rewrite(CABIO_QUERY, cabio_model, ncit_thesaurus)
    assert len(results) == 1
    assert results[0].cql.target.name == "gov.nih.nci.cabio.domain.SNP"


def test_rewrite_wildcard_query_end_to_end(cabio_model, ncit_thesaurus):
    results = rewrite(
        'Gene and hasAttribute some (Gene_Symbol and hasValue value "BRCA%")',
        cabio_model,
        ncit_thesaurus,
    )
    assert len(results) == 1
    assert results[0].cql == CqlQuery(
        target=CqlTarget(
            name="gov.nih.nci.cabio.domain.Gene",
            child=CqlAttribute(name="symbol", predicate="LIKE", value="BRCA%"),
        )
    )


def test_rewrite_bare_specimen(biobank_model, biobank_thesaurus):
    results = rewrite("Specimen", biobank_model, biobank_thesaurus)
    assert len(results) == 1
    assert results[0].cql == CqlQuery(
        target=CqlTarget(name="org.example.biobank.domain.Specimen")
    )


def test_rewrite_unreachable_association_is_validate_rejection(cabio_context):
    from onco_rewriter.pipeline import ValidationRejectedError

    with pytest.raises(ValidationRejectedError) as info:
        rewrite_prepared(cabio_context, "Gene and hasAssociation some (Single_Nucleotide_Polymorphism)")
    assert info.value.stage == "validate"


def test_rewrite_capped_budget_raises_no_path():
    _, _, context = context_from(
        [annotated("A", "KA"), annotated("B", "KB"), annotated("C", "KC")],
        [
            {"source": "A", "roleName": "ab", "target": "B"},
            {"source": "B", "roleName": "bc", "target": "C"},
        ],
        [
            "CONCEPT Root",
            "CONCEPT KA",
            "CONCEPT KB",
            "CONCEPT KC",
            "SUB KA Root",
            "SUB KB Root",
            "SUB KC Root",
        ],
    )
    with pytest.raises(NoPathError) as info:
        rewrite_prepared(
            context, "KA and hasAssociation some (KC)", RewriteOptions(max_nodes=2)
        )
    assert info.value.stage == "pathFind"


def test_rewrite_deterministic(cabio_model, ncit_thesaurus):
    from onco_rewriter.cql import to_xml

    first = [to_xml(r.cql) for r in rewrite(CABIO_QUERY, cabio_model, ncit_thesaurus)]
    second = [to_xml(r.cql) for r in rewrite(CABIO_QUERY, cabio_model, ncit_thesaurus)]
    assert first == second


def test_rewrite_outputs_are_grammar_valid(cabio_model, ncit_thesaurus):
    for result in rewrite(CABIO_QUERY, cabio_model, ncit_thesaurus):
        assert validate_grammar(result.cql) == []


def test_nested_association_restrictions():
    _, _, context = context_from(
        [annotated("A", "KA"), annotated("B", "KB"), annotated("C", "KC")],
        [
            {"source": "A", "roleName": "ab", "target": "B"},
            {"source": "B", "roleName": "bc", "target": "C"},
        ],
        [
            "CONCEPT Root",
            "CONCEPT KA",
            "CONCEPT KB",
            "CONCEPT KC",
            "SUB KA Root",
            "SUB KB Root",
            "SUB KC Root",
        ],
    )
    outcome = rewrite_prepared(
        context, "KA and hasAssociation some (KB and hasAssociation some (KC))"
    )
    assert len(outcome.results) == 1
    cql_query = outcome.results[0].cql
    assert cql_query.target.name == "org.example.A"
    assert cql_query.target.child.name == "org.example.B"
    assert cql_query.target.child.child.name == "org.example.C"


def test_concept_matching_subclasses_orders_candidates(cabio_context):
    # every class below c:Location entails n:Location, each with one path
    outcome = rewrite_prepared(cabio_context, "Location and hasAssociation some (Chromosome)")
    chosen = [r.provenance.concept_choices[0][1] for r in outcome.results]
    assert chosen == [
        "c:CytogeneticLocation",
        "c:GeneRelativeLocation",
        "c:Location",
        "c:PhysicalLocation",
        "c:SNPCytogeneticLocation",
    ]


def test_candidate_count_law():
    # two classes for the source concept, a diamond for the journey:
    # 2 uml candidates x 2 paths = 4 outputs
    model, thesaurus, context = context_from(
        [
            annotated("S1", "CS"),
            annotated("S2", "CS"),
            annotated("A", "CA"),
            annotated("B", "CB"),
            annotated("T", "CT"),
        ],
        [
            {"source": "S1", "roleName": "viaA", "target": "A"},
            {"source": "S1", "roleName": "viaB", "target": "B"},
            {"source": "S2", "roleName": "viaA", "target": "A"},
            {"source": "S2", "roleName": "viaB", "target": "B"},
            {"source": "A", "roleName": "toT", "target": "T"},
            {"source": "B", "roleName": "toT", "target": "T"},
        ],
        [
            "CONCEPT Root",
            "CONCEPT CS",
            "CONCEPT CA",
            "CONCEPT CB",
            "CONCEPT CT",
            "SUB CS Root",
            "SUB CA Root",
            "SUB CB Root",
            "SUB CT Root",
        ],
    )
    outcome = rewrite_prepared(context, "CS and hasAssociation some (CT)")
    assert len(outcome.results) == 4
    order_keys = [r.provenance for r in outcome.results]
    assert order_keys == sorted(
        order_keys, key=lambda p: (p.concept_choices, p.path_choices)
    )


def test_candidate_limit_is_hard_error():
    _, _, context = diamond_context()
    with pytest.raises(CandidateLimitError):
        rewrite_prepared(
            context,
            "CS and hasAssociation some (CT)",
            RewriteOptions(candidate_limit=1),
        )


def test_selection_first():
    _, _, context = diamond_context()
    outcome = rewrite_prepared(
        context, "CS and hasAssociation some (CT)", RewriteOptions(selection="first")
    )
    assert len(outcome.results) == 1
    assert outcome.results[0].provenance.path_choices[0][2][0] == "c:S_viaA_A"


def test_selection_other_than_all_or_first_is_rejected():
    # choosing among results is the CLI's prompt; the library only builds them
    for selection in ("interactive", "", "First", None):
        with pytest.raises(ValueError) as raised:
            RewriteOptions(selection=selection)
        assert str(raised.value) == f"selection must be 'all' or 'first', not {selection!r}"


def test_stage_independence_on_direct_edges():
    from onco_rewriter.cql import to_xml

    model, thesaurus, context = context_from(
        [
            annotated(
                "X",
                "CX",
                attributes=[
                    {
                        "name": "f",
                        "datatype": "string",
                        "annotation": {"primary": "CF", "qualifiers": []},
                    }
                ],
            ),
            annotated("Y", "CY"),
        ],
        [{"source": "X", "roleName": "r", "target": "Y"}],
        [
            "CONCEPT Root",
            "CONCEPT CX",
            "CONCEPT CY",
            "CONCEPT CF",
            "SUB CX Root",
            "SUB CY Root",
            "SUB CF Root",
        ],
    )
    query = 'CX and hasAssociation some (CY) and hasAttribute some (CF and hasValue value "v")'
    full = rewrite_prepared(context, query, RewriteOptions())
    direct = rewrite_prepared(context, query, RewriteOptions(max_nodes=2))
    assert [to_xml(r.cql) for r in full.results] == [to_xml(r.cql) for r in direct.results]


def test_end_to_end_soundness_invariants(cabio_model, ncit_thesaurus, cabio_context):
    # every association chain must exist in the model graph and every
    # attribute must belong to its enclosing class
    results = rewrite(CABIO_QUERY, cabio_model, ncit_thesaurus)
    edges = {
        (a.source, a.role_name, a.target) for a in cabio_model.associations
    }

    def walk(node, owner):
        if isinstance(node, CqlAssociation):
            bare_owner = owner.rsplit(".", 1)[-1]
            bare_target = node.name.rsplit(".", 1)[-1]
            declared = {
                (source, role, target)
                for source, role, target in edges
                if role == node.role_name and target == bare_target
            }
            ancestors = set(cabio_model.ancestors(bare_owner)) | {bare_owner}
            assert any(source in ancestors for source, _, _ in declared)
            if node.child is not None:
                walk(node.child, node.name)
        elif isinstance(node, CqlGroup):
            for item in node.items:
                walk(item, owner)
        elif isinstance(node, CqlAttribute):
            bare_owner = owner.rsplit(".", 1)[-1]
            chain = [bare_owner] + list(cabio_model.ancestors(bare_owner))
            attrs = {a.name for cls in chain for a in cabio_model.class_named(cls).attributes}
            assert node.name in attrs

    for result in results:
        assert validate_grammar(result.cql) == []
        if result.cql.target.child is not None:
            walk(result.cql.target.child, result.cql.target.name)


# XML 1.0 admits these in no form, escaped or not, so no CQL document holds them
@pytest.mark.parametrize("char", ["\x00", "\x08", "\x0b", "\x1f", "\ud800", "\ufffe", "\uffff"])
def test_a_data_value_no_cql_document_can_hold_is_rejected(cabio_context, char):
    query = f'Gene and hasAttribute some (Gene_Symbol and hasValue value "a{char}b")'
    with pytest.raises(PipelineError) as raised:
        rewrite_prepared(cabio_context, query)
    assert raised.value.stage == "valueExtract"
    assert str(raised.value) == f"data value holds U+{ord(char):04X}, which CQL cannot carry"


def test_data_values_with_whitespace_controls_read_back(cabio_context):
    query = 'Gene and hasAttribute some (Gene_Symbol and hasValue value "a\tb\nc\rd\x7f\x85")'
    (result,) = rewrite_prepared(cabio_context, query).results
    assert parse_xml(to_xml(result.cql)) == result.cql
    assert result.cql.target.child.value == "a\tb\nc\rd\x7f\x85"


def _rejections(cabio_context):
    """One query per rejection kind that the caBIO fixture and the chain
    models of ``test_factored_plan`` reach, with the error and stage it gets;
    the last is accepted after the plan drops a candidate with no path."""
    chain, long_chain = chain_context(20, parallel=3), chain_context(260, parallel=3)
    limited = RewriteOptions(max_nodes=300, candidate_limit=3)
    return [
        (cabio_context, "Gene and and", None, "QuerySyntaxError", "parse"),
        (
            cabio_context,
            "Gene and hasAssociation some (Unused)",
            None,
            "NoUmlCandidateError",
            "umlExtract",
        ),
        (
            cabio_context,
            "Location and hasAssociation some (Chromosome)",
            RewriteOptions(candidate_limit=1),
            "CandidateLimitError",
            "umlExtract",
        ),
        (
            cabio_context,
            'Gene and hasAttribute some (Gene_Symbol and hasValue value "a\x00b")',
            None,
            "PipelineError",
            "valueExtract",
        ),
        (
            cabio_context,
            "Gene and hasAssociation some (Single_Nucleotide_Polymorphism)",
            None,
            "ValidationRejectedError",
            "validate",
        ),
        (
            cabio_context,
            "Location and hasAssociation some (Single_Nucleotide_Polymorphism)",
            None,
            "ValidationRejectedError",
            "validate",
        ),
        (
            cabio_context,
            "Single_Nucleotide_Polymorphism and hasAssociation some (Gene)",
            RewriteOptions(max_nodes=2),
            "NoPathError",
            "pathFind",
        ),
        (
            cabio_context,
            "Location and hasAssociation some (Location)",
            RewriteOptions(max_nodes=2),
            "NoPathError",
            "pathFind",
        ),
        (chain, QUERY, limited, "CandidateLimitError", "pathFind"),
        (long_chain, QUERY, limited, "NestingLimitError", "pathFind"),
        (chain, QUERY, RewriteOptions(max_nodes=5), None, None),
    ]


def _outcome_kind(context, query, options):
    """The rejection's (error class, stage), or None for an accepted query,
    whose results are written; no error outlives this call."""
    try:
        outcome = rewrite_prepared(context, query, options)
    except PipelineError as error:
        return type(error).__name__, error.stage
    assert [to_xml(result.cql) for result in outcome.results]
    return None


def test_rewrite_leaves_no_reference_cycles(cabio_context):
    """Recursive helpers live at module level or are unbound before their
    function exits, and no frame keeps an error past its exit, so rewriting,
    writing and formatting the caBIO suite, and rejecting one query of each
    kind, leaves no cyclic garbage, whose collection would otherwise land on
    a later query."""
    lines = (FIXTURES / "cabio.suite.txt").read_text(encoding="utf-8").splitlines()
    queries = [line for line in lines if line.strip() and not line.startswith("#")]
    for query in queries:  # fills the context's lazy tables first
        rewrite_prepared(cabio_context, query)
    gc.collect()
    results = []
    for query in queries:
        outcome = rewrite_prepared(cabio_context, query)
        assert [to_xml(result.cql) for result in outcome.results]
        results += outcome.results
    assert gc.collect() == 0
    for result in results:
        for tree in (result.resolved, result.stripped, result.expanded, result.restored):
            assert format_query(tree) and format_query(tree, cabio_context.naming)
        assert format_comprehension(result.mcc)
    assert gc.collect() == 0
    for context, query, options, *kind in _rejections(cabio_context):
        expected = None if kind == [None, None] else tuple(kind)
        assert _outcome_kind(context, query, options) == expected  # fills the lazy tables
        gc.collect()
        assert _outcome_kind(context, query, options) == expected
        assert gc.collect() == 0, (query, expected)


class OneMicrosecondClock:
    """A stand-in for the ``time`` module whose process clock advances
    1,000 ns at every read."""

    def __init__(self):
        self.reads = 0

    def process_time_ns(self) -> int:
        self.reads += 1
        return self.reads * 1000


@pytest.mark.parametrize(
    "query, candidates",
    [(CABIO_QUERY, 1), ("Location and hasAssociation some (Chromosome)", 5)],
)
def test_stage_durations_add_up_to_the_time_between_the_first_and_last_read(
    cabio_context, monkeypatch, query, candidates
):
    """The driver reads the clock once at the start and once per stage
    boundary, so the eight stages hold every microsecond but the first."""
    assert extract_uml(parse_query(query), cabio_context.index).size == candidates
    clock = OneMicrosecondClock()
    monkeypatch.setattr(pipeline, "time", clock)
    outcome = rewrite_prepared(cabio_context, query)
    assert list(outcome.durations_us) == list(pipeline.STAGES)
    assert min(outcome.durations_us.values()) >= 1.0
    assert sum(outcome.durations_us.values()) == clock.reads - 1
