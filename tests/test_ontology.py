from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter.model import load_model, load_thesaurus
from onco_rewriter.ontology import (
    DEFAULT_PREFIXES,
    HAS_ASSOCIATION,
    HAS_ATTRIBUTE,
    HAS_CONTENTS,
    HAS_NEXT,
    HAS_VALUE,
    OWL_LIST,
    UML_ATTRIBUTE,
    UML_CLASS,
    AxiomSet,
    ClassExpr,
    Conjunction,
    DataExistential,
    Existential,
    Named,
    OntologyError,
    SubClassOf,
    SubPropertyOf,
    TransitiveProperty,
    el_conformance_report,
    generate_ontology,
    merge_axiom_sets,
    model_naming,
    parse_axioms,
    serialize_axioms,
)
from onco_rewriter.pipeline import thesaurus_module
from onco_rewriter.synthetic import random_el_axiom_set, resolve_seed


def model_from(classes, associations=None):
    return load_model(
        json.dumps(
            {
                "project": "t",
                "version": "1",
                "packagePrefix": "org.example",
                "classes": classes,
                "associations": associations or [],
            }
        )
    )


def test_attribute_class_axioms():
    model = model_from(
        [
            {
                "name": "Chromosome",
                "attributes": [{"name": "number", "datatype": "string"}],
            }
        ]
    )
    axioms = set(generate_ontology(model))
    assert SubClassOf(Named("c:Chromosome"), Named(UML_CLASS)) in axioms
    assert SubClassOf(Named("c:Chromosome_number"), Named(UML_ATTRIBUTE)) in axioms
    assert (
        SubClassOf(Named("c:Chromosome_number"), DataExistential(HAS_VALUE, "xsd:string"))
        in axioms
    )
    assert (
        SubClassOf(
            Named("c:Chromosome"),
            Existential(HAS_ATTRIBUTE, Named("c:Chromosome_number")),
        )
        in axioms
    )


def test_inherited_association_made_explicit(cabio_model):
    axioms = set(generate_ontology(cabio_model))
    assert (
        SubClassOf(
            Named("c:CytogeneticLocation"),
            Existential("c:Location_chromosome_Chromosome", Named("c:Chromosome")),
        )
        in axioms
    )
    # and inherited attributes get the same treatment
    model = model_from(
        [
            {"name": "Base", "attributes": [{"name": "x", "datatype": "string"}]},
            {"name": "Derived", "superclasses": ["Base"]},
        ]
    )
    derived = set(generate_ontology(model))
    assert SubClassOf(Named("c:Derived"), Existential(HAS_ATTRIBUTE, Named("c:Base_x"))) in derived


def test_qualifier_list_axiom_shape():
    model = model_from(
        [
            {
                "name": "SNPCytogeneticLocation",
                "annotation": {
                    "primary": "Location",
                    "qualifiers": ["Chromosome_Band", "Single_Nucleotide_Polymorphism"],
                },
            }
        ]
    )
    axioms = generate_ontology(model)
    annotation_axioms = [
        a
        for a in axioms
        if isinstance(a, SubClassOf)
        and a.sub == Named("c:SNPCytogeneticLocation")
        and isinstance(a.sup, Conjunction)
    ]
    assert len(annotation_axioms) == 1
    expected = Conjunction(
        (
            Named("n:Location"),
            Conjunction(
                (
                    Named(OWL_LIST),
                    Existential(HAS_CONTENTS, Named("n:Chromosome_Band")),
                    Existential(
                        HAS_NEXT,
                        Conjunction(
                            (
                                Named(OWL_LIST),
                                Existential(
                                    HAS_CONTENTS,
                                    Named("n:Single_Nucleotide_Polymorphism"),
                                ),
                            )
                        ),
                    ),
                )
            ),
        )
    )
    assert annotation_axioms[0].sup == expected


def _recover_annotation(expr: ClassExpr) -> tuple[str, list[str]]:
    # structural walk, independent of the generator
    if isinstance(expr, Named):
        return expr.name, []
    assert isinstance(expr, Conjunction)
    primary = expr.parts[0]
    assert isinstance(primary, Named)
    qualifiers: list[str] = []
    cell = expr.parts[1]
    while cell is not None:
        assert isinstance(cell, Conjunction)
        next_cell = None
        for part in cell.parts:
            if isinstance(part, Existential) and part.property_name == HAS_CONTENTS:
                assert isinstance(part.filler, Named)
                qualifiers.append(part.filler.name)
            elif isinstance(part, Existential) and part.property_name == HAS_NEXT:
                next_cell = part.filler
        cell = next_cell
    return primary.name, qualifiers


@pytest.mark.parametrize("qualifier_count", [0, 1, 2, 3, 5])
def test_qualifier_order_recoverable(qualifier_count):
    qualifiers = [f"Q{i}" for i in range(qualifier_count)]
    model = model_from(
        [{"name": "A", "annotation": {"primary": "P", "qualifiers": qualifiers}}]
    )
    axioms = [
        a
        for a in generate_ontology(model)
        if isinstance(a, SubClassOf)
        and a.sub == Named("c:A")
        and a.sup != Named(UML_CLASS)
    ]
    assert len(axioms) == 1
    primary, recovered = _recover_annotation(axioms[0].sup)
    assert primary == "n:P"
    assert recovered == [f"n:Q{i}" for i in range(qualifier_count)]


def test_empty_model_yields_upper_vocabulary_only():
    axioms = generate_ontology(model_from([]))
    assert tuple(axioms) == (TransitiveProperty(HAS_ASSOCIATION),)


def test_association_axioms():
    model = model_from(
        [{"name": "Chromosome"}, {"name": "Location"}],
        [{"source": "Chromosome", "roleName": "locationCollection", "target": "Location"}],
    )
    axioms = set(generate_ontology(model))
    prop = "c:Chromosome_locationCollection_Location"
    assert SubPropertyOf(prop, HAS_ASSOCIATION) in axioms
    assert SubClassOf(Named("c:Chromosome"), Existential(prop, Named("c:Location"))) in axioms


def test_multiple_inheritance_emits_one_subsumption_each():
    model = model_from(
        [
            {"name": "A"},
            {"name": "B"},
            {"name": "C", "superclasses": ["A", "B"]},
        ]
    )
    axioms = set(generate_ontology(model))
    assert SubClassOf(Named("c:C"), Named("c:A")) in axioms
    assert SubClassOf(Named("c:C"), Named("c:B")) in axioms


def test_count_laws(cabio_model):
    axioms = list(generate_ontology(cabio_model))
    class_axioms = [
        a for a in axioms if isinstance(a, SubClassOf) and a.sup == Named(UML_CLASS)
    ]
    property_axioms = [a for a in axioms if isinstance(a, SubPropertyOf)]
    assert len(class_axioms) == len(cabio_model.classes)
    assert len(property_axioms) == len(cabio_model.associations)


def test_generation_deterministic(cabio_model, ncit_thesaurus):
    module_axioms = thesaurus_module(cabio_model, ncit_thesaurus)
    first = serialize_axioms(generate_ontology(cabio_model))
    second = serialize_axioms(generate_ontology(cabio_model))
    assert first == second


def test_no_duplicate_axioms(cabio_model):
    axioms = list(generate_ontology(cabio_model))
    assert len(axioms) == len(set(axioms))


def test_name_collision_is_hard_error():
    model = model_from(
        [
            {"name": "A_b"},
            {"name": "A", "attributes": [{"name": "b", "datatype": "string"}]},
        ]
    )
    with pytest.raises(OntologyError, match="collision"):
        generate_ontology(model)


@pytest.mark.parametrize(
    "classes, associations, message",
    [
        (
            [
                {"name": "A_b", "attributes": [{"name": "c", "datatype": "string"}]},
                {"name": "A", "attributes": [{"name": "b_c", "datatype": "string"}]},
            ],
            [],
            "'c:A_b_c' is both attribute A_b.c and attribute A.b_c",
        ),
        (
            [{"name": "A_r"}, {"name": "A"}, {"name": "B"}],
            [
                {"source": "A_r", "roleName": "s", "target": "B"},
                {"source": "A", "roleName": "r_s", "target": "B"},
            ],
            "'c:A_r_s_B' is both association A_r.s and association A.r_s",
        ),
    ],
)
def test_name_collision_within_one_kind_is_hard_error(classes, associations, message):
    model = model_from(classes, associations)
    for build in (generate_ontology, model_naming):
        with pytest.raises(OntologyError, match=f"generated name collision: {re.escape(message)}"):
            build(model)


def test_merge_concatenates_in_input_order():
    first = AxiomSet(axioms=(TransitiveProperty("u:p"), SubPropertyOf("c:q", "u:p")))
    second = AxiomSet(
        axioms=(SubClassOf(Named("n:B"), Named("n:A")), TransitiveProperty("u:p")),
        prefixes={"n": DEFAULT_PREFIXES["n"], "x": "http://example.org/x#"},
    )
    merged = merge_axiom_sets(first, second)
    assert merged.axioms == first.axioms + second.axioms
    assert merged.prefixes == {**DEFAULT_PREFIXES, "x": "http://example.org/x#"}


def test_merge_rejects_a_prefix_conflict():
    clashing = AxiomSet(axioms=(), prefixes={"n": "http://example.org/other#"})
    with pytest.raises(OntologyError, match="conflicting IRI for prefix 'n'"):
        merge_axiom_sets(AxiomSet(axioms=()), clashing)


def test_annotation_concept_missing_from_module():
    model = model_from([{"name": "A", "annotation": {"primary": "Mystery"}}])
    with pytest.raises(OntologyError, match="Mystery"):
        thesaurus_module(model, load_thesaurus("CONCEPT Other"))


def test_datatype_mapping():
    attributes = [
        {"name": "s", "datatype": "string"},
        {"name": "i", "datatype": "integer"},
        {"name": "f", "datatype": "float"},
        {"name": "b", "datatype": "boolean"},
        {"name": "d", "datatype": "date"},
    ]
    model = model_from([{"name": "A", "attributes": attributes}])
    axioms = set(generate_ontology(model))
    for attr, datatype in [
        ("s", "xsd:string"),
        ("i", "xsd:integer"),
        ("f", "xsd:double"),
        ("b", "xsd:boolean"),
        ("d", "xsd:dateTime"),
    ]:
        assert SubClassOf(Named(f"c:A_{attr}"), DataExistential(HAS_VALUE, datatype)) in axioms


def test_generated_ontologies_are_el(cabio_model, ncit_thesaurus):
    module_axioms = thesaurus_module(cabio_model, ncit_thesaurus)
    axioms = generate_ontology(cabio_model)
    assert el_conformance_report(axioms) == []


def test_el_report_flags_foreign_constructs():
    class Universal(ClassExpr):  # test back-door: not an EL construct
        def __init__(self, prop, filler):
            self.prop = prop
            self.filler = filler

    bad = AxiomSet(axioms=(SubClassOf(Named("c:A"), Universal("c:p", Named("c:B"))),))
    report = el_conformance_report(bad)
    assert len(report) == 1
    assert "Universal" in report[0]


def test_el_report_empty_for_empty_set():
    assert el_conformance_report(AxiomSet(axioms=())) == []


def test_serialize_inherited_association_line(cabio_model):
    text = serialize_axioms(generate_ontology(cabio_model))
    assert (
        "SubClassOf(c:CytogeneticLocation "
        "ObjectSomeValuesFrom(c:Location_chromosome_Chromosome c:Chromosome))" in text
    )


def test_serialize_empty_set_is_header_only():
    text = serialize_axioms(AxiomSet(axioms=()))
    body = [line for line in text.splitlines() if line and not line.startswith("Prefix(")]
    assert body == []


def test_round_trip_on_fixture(cabio_model, ncit_thesaurus):
    module_axioms = thesaurus_module(cabio_model, ncit_thesaurus)
    axioms = generate_ontology(cabio_model)
    assert parse_axioms(serialize_axioms(axioms)) == axioms


def test_round_trip_on_random_axiom_sets():
    rng = random.Random(resolve_seed())
    for _ in range(50):
        axioms = random_el_axiom_set(rng)
        assert parse_axioms(serialize_axioms(axioms)) == axioms


def test_parse_errors_carry_line_numbers():
    from onco_rewriter.ontology import AxiomParseError

    with pytest.raises(AxiomParseError, match="line 2"):
        parse_axioms("Prefix(c:=<http://x#>)\nNonsense(c:A)\n")


@pytest.mark.parametrize(
    "document, line, message",
    [
        ("Prefix(c:=<http://x#>\n", 1, "malformed prefix declaration"),
        ("Prefix(c: <http://x#>)\n", 1, "malformed prefix declaration"),
        ("Prefix(c:=http://x#)\n", 1, "prefix IRI must be enclosed in <>"),
        (
            "SubClassOf(c:A c:B)\n# again\nSubClassOf( c:A  c:B )\n",
            3,
            "duplicate axiom: SubClassOf( c:A  c:B )",
        ),
        ("\nSubClassOf(c:A c:B) c:C\n", 2, "trailing tokens after axiom: 'c:C'"),
        ("Nonsense(c:A)\n", 1, "unknown axiom kind 'Nonsense'"),
        ("SubClassOf(c:A\n", 1, "unexpected end of line"),
        ("SubClassOf c:A c:B\n", 1, "expected '(', got 'c:A'"),
        ("SubClassOf(c:A ) c:B)\n", 1, "unexpected ')'"),
        (
            "SubClassOf(c:A ObjectIntersectionOf(c:B))\n",
            1,
            "ObjectIntersectionOf needs at least two parts",
        ),
    ],
)
def test_parse_errors(document, line, message):
    from onco_rewriter.ontology import AxiomParseError

    with pytest.raises(AxiomParseError) as raised:
        parse_axioms(document)
    assert (raised.value.line, str(raised.value)) == (line, f"line {line}: {message}")


@pytest.mark.parametrize("wrap", ["ObjectIntersectionOf(n:B {})", "ObjectSomeValuesFrom(c:p {})"])
def test_parse_bounds_expression_nesting(wrap):
    from onco_rewriter.ontology import MAX_NESTING, AxiomParseError

    def document(levels: int) -> str:
        expr = "n:A"
        for _ in range(levels):
            expr = wrap.format(expr)
        return f"Prefix(n:=<http://x#>)\n\nSubClassOf(n:X n:Y)\nSubClassOf(n:X {expr})\n"

    at_bound = document(MAX_NESTING)
    assert serialize_axioms(parse_axioms(at_bound)) == at_bound
    message = f"line 4: class expression nested deeper than {MAX_NESTING} levels"
    for levels in (MAX_NESTING + 1, 3000):
        with pytest.raises(AxiomParseError, match=message):
            parse_axioms(document(levels))


def _character_loop_tokens(line: str) -> list[str]:
    # the tokenizer's earlier character loop, kept as the reference
    tokens: list[str] = []
    current = ""
    for ch in line:
        if ch in "()":
            if current:
                tokens.append(current)
                current = ""
            tokens.append(ch)
        elif ch.isspace():
            if current:
                tokens.append(current)
                current = ""
        else:
            current += ch
    if current:
        tokens.append(current)
    return tokens


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from("() \t\x0b\x0c\x1c\x85\xa0\u3000ab:") | st.characters()))
def test_tokenizer_matches_the_character_loop(line):
    from onco_rewriter.ontology import AxiomParseError, _tokenize

    expected = _character_loop_tokens(line)
    if expected:
        assert _tokenize(line, 7) == expected
    else:
        with pytest.raises(AxiomParseError, match="line 7: empty axiom line"):
            _tokenize(line, 7)
