from __future__ import annotations

import json

import pytest

from onco_rewriter.model import (
    ModelLoadError,
    ThesaurusLoadError,
    load_model,
    load_thesaurus,
    model_signature,
)

from conftest import FIXTURES


def minimal_model(classes=None, associations=None) -> str:
    return json.dumps(
        {
            "project": "t",
            "version": "1",
            "packagePrefix": "org.example",
            "classes": classes or [],
            "associations": associations or [],
        }
    )


def test_cabio_fixture_classes_and_associations(cabio_model):
    assert set(cabio_model.class_names()) == {
        "Gene",
        "Chromosome",
        "Location",
        "CytogeneticLocation",
        "PhysicalLocation",
        "SNP",
        "GeneRelativeLocation",
        "SNPCytogeneticLocation",
    }
    triples = {(a.source, a.role_name, a.target) for a in cabio_model.associations}
    assert triples == {
        ("Location", "chromosome", "Chromosome"),
        ("Chromosome", "locationCollection", "Location"),
        ("SNP", "relativeLocationCollection", "GeneRelativeLocation"),
        ("GeneRelativeLocation", "gene", "Gene"),
    }


def test_empty_classes_list_is_valid():
    model = load_model(minimal_model())
    assert model.classes == ()
    assert model.associations == ()


def test_dangling_association_endpoint_rejected():
    document = minimal_model(
        classes=[{"name": "A"}],
        associations=[{"source": "A", "roleName": "r", "target": "Ghost"}],
    )
    with pytest.raises(ModelLoadError, match="Ghost"):
        load_model(document)


def test_duplicate_class_name_rejected():
    document = minimal_model(classes=[{"name": "A"}, {"name": "A"}])
    with pytest.raises(ModelLoadError, match="duplicate class name"):
        load_model(document)


def test_duplicate_attribute_name_rejected():
    document = minimal_model(
        classes=[
            {
                "name": "A",
                "attributes": [
                    {"name": "x", "datatype": "string"},
                    {"name": "x", "datatype": "integer"},
                ],
            }
        ]
    )
    with pytest.raises(ModelLoadError, match="duplicate attribute name"):
        load_model(document)


def test_generalization_cycle_rejected():
    document = minimal_model(
        classes=[
            {"name": "A", "superclasses": ["B"]},
            {"name": "B", "superclasses": ["A"]},
        ]
    )
    with pytest.raises(ModelLoadError, match="generalization cycle"):
        load_model(document)


def test_unknown_datatype_rejected():
    document = minimal_model(
        classes=[{"name": "A", "attributes": [{"name": "x", "datatype": "blob"}]}]
    )
    with pytest.raises(ModelLoadError, match="unknown datatype"):
        load_model(document)


def test_duplicate_role_name_rejected():
    document = minimal_model(
        classes=[{"name": "A"}, {"name": "B"}],
        associations=[
            {"source": "A", "roleName": "r", "target": "B"},
            {"source": "A", "roleName": "r", "target": "B"},
        ],
    )
    with pytest.raises(ModelLoadError, match="duplicate role name"):
        load_model(document)


@pytest.mark.parametrize(
    "document, message",
    [
        (
            minimal_model().replace("org.example", "org.ex\\u0008ample"),
            "document: packagePrefix holds U+0008",
        ),
        (
            minimal_model(classes=[{"name": "A"}, {"name": "B\x1f"}]),
            "classes[1]: class name holds U+001F",
        ),
        (
            minimal_model(
                classes=[{"name": "A", "attributes": [{"name": "x\ufffe", "datatype": "string"}]}]
            ),
            "classes[0].attributes[0]: attribute name holds U+FFFE",
        ),
        (
            minimal_model(
                classes=[{"name": "A"}],
                associations=[{"source": "A", "roleName": "\x00r", "target": "A"}],
            ),
            "associations[0]: roleName holds U+0000",
        ),
    ],
    ids=["packagePrefix", "class", "attribute", "roleName"],
)
def test_name_xml_cannot_carry_rejected(document, message):
    with pytest.raises(ModelLoadError) as raised:
        load_model(document)
    assert str(raised.value) == f"{message}, which CQL cannot carry"


@pytest.mark.parametrize(
    "document, message",
    [
        (
            minimal_model(classes=[{"name": "A"}, {"name": "K L"}]),
            "classes[1]: class name holds U+0020",
        ),
        (minimal_model(classes=[{"name": "K("}]), "classes[0]: class name holds U+0028"),
        (
            minimal_model(
                classes=[{"name": "A", "attributes": [{"name": "a\u2028b", "datatype": "string"}]}]
            ),
            "classes[0].attributes[0]: attribute name holds U+2028",
        ),
        (
            minimal_model(
                classes=[{"name": "A"}],
                associations=[{"source": "A", "roleName": "r)", "target": "A"}],
            ),
            "associations[0]: roleName holds U+0029",
        ),
        (
            minimal_model(classes=[{"name": "A", "annotation": {"primary": "Gene Symbol"}}]),
            "classes[0]: annotation concept name holds U+0020",
        ),
        (
            minimal_model(
                classes=[
                    {
                        "name": "A",
                        "attributes": [
                            {
                                "name": "x",
                                "datatype": "string",
                                "annotation": {"primary": "G", "qualifiers": ["Q", "\xa0Q"]},
                            }
                        ],
                    }
                ]
            ),
            "classes[0].attributes[0]: annotation concept name holds U+00A0",
        ),
    ],
    ids=["class-space", "class-paren", "attribute", "roleName", "primary", "qualifier"],
)
def test_name_the_ontology_text_cannot_carry_rejected(document, message):
    # parse_axioms reads a name as one run outside whitespace, ( and ), so
    # ontogen's output would not read back
    with pytest.raises(ModelLoadError) as raised:
        load_model(document)
    assert str(raised.value) == f"{message}, which the ontology text cannot carry"


def test_cabio_class_renamed_with_backspace_rejected():
    # renamed in its class, its association ends and its superclass references
    document = (FIXTURES / "cabio_fragment.model.json").read_text(encoding="utf-8")
    renamed = document.replace('"Gene"', '"Ge\\bne"')
    assert renamed != document
    with pytest.raises(ModelLoadError) as raised:
        load_model(renamed)
    assert str(raised.value) == "classes[0]: class name holds U+0008, which CQL cannot carry"


def test_malformed_document_rejected_with_location():
    with pytest.raises(ModelLoadError, match="malformed document"):
        load_model("{not json")
    with pytest.raises(ModelLoadError, match="classes\\[0\\]"):
        load_model(minimal_model(classes=[{"nameX": "A"}]))


def _document(**fields) -> str:
    base = {"project": "t", "version": "1", "packagePrefix": "org.example", "classes": []}
    return json.dumps({**base, **fields})


@pytest.mark.parametrize(
    "document, location, message",
    [
        ("[]", "", "malformed document: top level must be an object"),
        (json.dumps({"version": "1", "classes": []}), "document", "missing field 'project'"),
        (_document(project=1), "document", "field 'project' must be str, got int"),
        (_document(associations={}), "document", "field 'associations' must be a list"),
        (_document(classes=["A"]), "classes[0]", "class entry must be an object"),
        (
            _document(classes=[{"name": "A", "superclasses": "B"}]),
            "classes[0]",
            "superclasses must be a list of names",
        ),
        (
            _document(classes=[{"name": "A", "superclasses": [1]}]),
            "classes[0]",
            "superclasses must be a list of names",
        ),
        (
            _document(classes=[{"name": "A", "attributes": ["x"]}]),
            "classes[0].attributes[0]",
            "attribute entry must be an object",
        ),
        (
            _document(classes=[{"name": "A", "annotation": "Gene"}]),
            "classes[0]",
            "annotation must be an object",
        ),
        (
            _document(classes=[{"name": "A", "annotation": {"primary": "G", "qualifiers": "Q"}}]),
            "classes[0]",
            "qualifiers must be a list of names",
        ),
        (
            _document(classes=[{"name": "A", "annotation": {"primary": "G", "qualifiers": [2]}}]),
            "classes[0]",
            "qualifiers must be a list of names",
        ),
        (
            _document(classes=[{"name": "A"}, {"name": "B", "superclasses": ["Ghost"]}]),
            "classes[1]",
            "unknown superclass 'Ghost'",
        ),
        (
            _document(classes=[{"name": "A"}], associations=[["A", "r", "A"]]),
            "associations[0]",
            "association entry must be an object",
        ),
    ],
)
def test_document_shape_rejected(document, location, message):
    with pytest.raises(ModelLoadError) as raised:
        load_model(document)
    text = f"{location}: {message}" if location else message
    assert (raised.value.location, str(raised.value)) == (location, text)


def test_loading_is_deterministic(cabio_model):
    text = (FIXTURES / "cabio_fragment.model.json").read_text(encoding="utf-8")
    assert load_model(text) == load_model(text)


def test_thesaurus_fixture_counts(ncit_thesaurus):
    text = (FIXTURES / "ncit_fragment.thesaurus.txt").read_text(encoding="utf-8")
    lines = [l.strip() for l in text.splitlines() if l.strip() and not l.startswith("#")]
    concept_lines = [l for l in lines if l.startswith("CONCEPT ")]
    sub_lines = [l for l in lines if l.startswith("SUB ")]
    disjoint_lines = [l for l in lines if l.startswith("DISJOINT ")]
    assert len(ncit_thesaurus.concepts) == len(concept_lines)
    assert len(ncit_thesaurus.subsumptions) == len(sub_lines)
    assert len(ncit_thesaurus.disjointness) == len(disjoint_lines)
    assert ("Gene", "Anatomic_Structure_System_or_Substance") in ncit_thesaurus.subsumptions


def test_single_concept_no_axioms():
    thesaurus = load_thesaurus("CONCEPT Lonely\n")
    assert thesaurus.concepts == ("Lonely",)
    assert thesaurus.subsumptions == ()


def test_subsumption_cycle_rejected():
    document = "CONCEPT A\nCONCEPT B\nSUB A B\nSUB B A\n"
    with pytest.raises(ThesaurusLoadError, match="cycle"):
        load_thesaurus(document)


def test_undeclared_concept_rejected():
    with pytest.raises(ThesaurusLoadError, match="undeclared concept"):
        load_thesaurus("CONCEPT A\nSUB A B\n")


def test_malformed_thesaurus_line_rejected():
    with pytest.raises(ThesaurusLoadError, match="line 1"):
        load_thesaurus("FROB A B\n")
    with pytest.raises(ThesaurusLoadError, match="expects two names"):
        load_thesaurus("CONCEPT A\nSUB A\n")


@pytest.mark.parametrize(
    "document, line, code",
    [
        ("CONCEPT A(\nCONCEPT B)\nSUB A( B)\n", 1, "0028"),
        ("# (\nCONCEPT A\nCONCEPT x)y(\n", 3, "0029"),
        ("CONCEPT A\nCONCEPT A)\n", 2, "0029"),
    ],
)
def test_concept_name_with_a_parenthesis_rejected(document, line, code):
    # parse_axioms would read the module's SubClassOf(n:A( n:B)) as a stray '('
    with pytest.raises(ThesaurusLoadError) as raised:
        load_thesaurus(document)
    message = f"line {line}: concept name holds U+{code}, which the ontology text cannot carry"
    assert (raised.value.line, str(raised.value)) == (line, message)


def test_parentheses_in_a_comment_are_legal():
    thesaurus = load_thesaurus("# Concepts (the caBIO ones)\n  #SUB A( B\nCONCEPT A\n")
    assert thesaurus.concepts == ("A",)


@pytest.mark.parametrize("line", ["CONCEPT", "CONCEPT A B"])
def test_concept_line_needs_one_name(line):
    with pytest.raises(ThesaurusLoadError) as raised:
        load_thesaurus(f"CONCEPT Z\n\n{line}\n")
    assert (raised.value.line, str(raised.value)) == (3, "line 3: CONCEPT expects one name")


def test_cabio_signature_matches_annotations(cabio_model):
    signature = model_signature(cabio_model)
    assert signature.concept_names == {
        "Chromosome",
        "Name",
        "Location",
        "Chromosome_Band",
        "Single_Nucleotide_Polymorphism",
        "Gene",
        "Gene_Symbol",
    }


def test_signature_empty_without_annotations():
    model = load_model(minimal_model(classes=[{"name": "A"}, {"name": "B"}]))
    assert len(model_signature(model)) == 0


def test_signature_includes_qualifiers():
    document = minimal_model(
        classes=[
            {
                "name": "A",
                "annotation": {"primary": "P", "qualifiers": ["Q1", "Q2"]},
            }
        ]
    )
    signature = model_signature(load_model(document))
    assert signature.concept_names == {"P", "Q1", "Q2"}


def test_signature_against_naive_scan_oracle(cabio_model):
    # independent single-pass scan over every annotation
    expected: set[str] = set()
    for cls in cabio_model.classes:
        annotations = [cls.annotation] + [a.annotation for a in cls.attributes]
        for annotation in annotations:
            if annotation is not None:
                expected.add(annotation.primary)
                expected.update(annotation.qualifiers)
    assert model_signature(cabio_model).concept_names == expected
