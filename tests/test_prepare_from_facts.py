"""Preparation from the model's facts against classifying the rendered axioms.

``prepare_context`` builds its index from ``ontology_facts``: one walk over
the model plus the thesaurus module's named pairs, with no axiom rendered.
The reference renders ``generate_ontology(model)``, merges it with the
module, takes the merged set apart again (``decompose``) and classifies
that. On drawn models both must give equal subsumption, attribute and edge
tables and equal naming tables, or raise the same ``OntologyError`` with the
same text. The draws hold qualifier lists up to ``MAX_QUALIFIERS``, multiple
inheritance, a superclass listed twice, unannotated classes, annotated
attributes, self-associations and parallel roles, names that generate one
name twice, and annotation concepts the thesaurus does not declare. The
three perfbench workloads' documents at seeds 0 and 1 are compared too.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter.model import MAX_QUALIFIERS, load_model, load_thesaurus
from onco_rewriter.ontology import OntologyError, generate_ontology, merge_axiom_sets, model_naming
from onco_rewriter.pipeline import prepare_context, thesaurus_module
from onco_rewriter.reasoner import classify

from axiom_decomposition import decompose
from test_preparation import index_tables, naming_tables

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import generate  # noqa: E402

# "A_r" against attribute A.r, and roles A.r_s against A_r.s to one target,
# generate one name twice
CLASS_NAMES = ("A", "B", "C", "A_r", "D", "E", "F")
MEMBER_NAMES = ("x", "r", "r_s", "s")
# Ghost is never declared; Lonely is declared but in no SUB line
CONCEPTS = ("Ca", "Cb", "Cc", "Cd", "Lonely", "Ghost")
DECLARED = CONCEPTS[:-1]


def reference(model, thesaurus):
    module = thesaurus_module(model, thesaurus)
    merged = merge_axiom_sets(generate_ontology(model), module)
    return model_naming(model), classify(decompose(merged))


def outcome(prepare, model, thesaurus):
    """What ``prepare`` returns, or the class and text of its OntologyError."""
    try:
        return prepare(model, thesaurus), None
    except OntologyError as error:
        return None, (type(error), str(error))


def assert_prepared_alike(model, thesaurus) -> bool:
    """True when both succeeded with equal tables, False when both raised alike."""
    expected, expected_error = outcome(reference, model, thesaurus)
    context, error = outcome(prepare_context, model, thesaurus)
    assert error == expected_error
    if error is not None:
        return False
    naming, index = expected
    assert index_tables(context.index) == index_tables(index)
    assert (context.index.reach, context.index.toward) == ({}, {})
    assert naming_tables(context.naming) == naming_tables(naming)
    return True


# Ghost is drawn rarely, so that most models are prepared
concepts = st.sampled_from(DECLARED * 6 + ("Ghost",))
qualifier_lists = st.lists(concepts, max_size=3) | st.lists(
    st.sampled_from(DECLARED), min_size=MAX_QUALIFIERS, max_size=MAX_QUALIFIERS
)
annotations = st.none() | st.builds(
    lambda primary, qualifiers: {"primary": primary, "qualifiers": qualifiers},
    concepts,
    qualifier_lists,
)
attributes = st.builds(
    lambda name, datatype, note: {"name": name, "datatype": datatype, "annotation": note},
    st.sampled_from(MEMBER_NAMES),
    st.sampled_from(("string", "integer", "float", "boolean", "date")),
    annotations,
)


@st.composite
def models(draw) -> str:
    names = draw(st.lists(st.sampled_from(CLASS_NAMES), min_size=1, max_size=7, unique=True))
    classes = []
    for i, name in enumerate(names):
        members = st.lists(attributes, max_size=2, unique_by=lambda a: a["name"])
        entry = {"name": name, "attributes": draw(members), "annotation": draw(annotations)}
        if i:
            # earlier classes only, so no cycle; a name may come twice
            entry["superclasses"] = draw(st.lists(st.sampled_from(names[:i]), max_size=3))
        classes.append(entry)
    ends = st.sampled_from(names)
    associations = st.builds(
        lambda source, role, target: {"source": source, "roleName": role, "target": target},
        ends,
        st.sampled_from(MEMBER_NAMES),
        ends,
    )
    document = {
        "project": "facts",
        "version": "1",
        "packagePrefix": "org.example",
        "classes": classes,
        "associations": draw(
            st.lists(associations, max_size=8, unique_by=lambda a: (a["source"], a["roleName"]))
        ),
    }
    return json.dumps(document)


@st.composite
def thesauri(draw) -> str:
    lines = [f"CONCEPT {c}" for c in DECLARED]
    # a child always comes after its parent in DECLARED, so no cycle
    pairs = st.tuples(st.sampled_from(DECLARED[:4]), st.sampled_from(DECLARED[:4])).filter(
        lambda pair: DECLARED.index(pair[0]) > DECLARED.index(pair[1])
    )
    lines += [f"SUB {child} {parent}" for child, parent in draw(st.lists(pairs, max_size=5))]
    disjoint = st.tuples(st.sampled_from(DECLARED), st.sampled_from(DECLARED))
    lines += [f"DISJOINT {a} {b}" for a, b in draw(st.lists(disjoint, max_size=2))]
    return "\n".join(lines) + "\n"


def _model(classes, associations=()) -> str:
    return json.dumps({
        "project": "facts", "version": "1", "packagePrefix": "org.example",
        "classes": classes, "associations": list(associations),
    })


def _assoc(source, role, target):
    return {"source": source, "roleName": role, "target": target}


QUALIFIED = {"primary": "Ca", "qualifiers": ["Cb", "Lonely"]}
THESAURUS = "\n".join([*(f"CONCEPT {c}" for c in DECLARED), "SUB Cb Ca", "SUB Cc Cb"]) + "\n"


CASES = {
    # multiple inheritance, a superclass twice, a self-association, parallel roles
    "shapes": (
        _model(
            [
                {"name": "A", "annotation": QUALIFIED,
                 "attributes": [{"name": "x", "datatype": "string", "annotation": QUALIFIED}]},
                {"name": "B"},
                {"name": "C", "superclasses": ["A", "B", "A"], "annotation": {"primary": "Cc"}},
            ],
            [_assoc("A", "r", "A"), _assoc("B", "r", "C"), _assoc("B", "s", "C")],
        ),
        True,
    ),
    "class_against_attribute": (
        _model([{"name": "A", "attributes": [{"name": "r", "datatype": "string"}]}, {"name": "A_r"}]),
        False,
    ),
    "role_against_role": (
        _model([{"name": "A"}, {"name": "A_r"}], [_assoc("A", "r_s", "A"), _assoc("A_r", "s", "A")]),
        False,
    ),
    # the undeclared concept is reported before the collision
    "undeclared_and_collision": (
        _model([
            {"name": "A", "annotation": {"primary": "Ca", "qualifiers": ["Ghost"]},
             "attributes": [{"name": "r", "datatype": "string"}]},
            {"name": "A_r"},
        ]),
        False,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_hand_built_models_prepare_alike(case):
    model_text, prepared = CASES[case]
    assert assert_prepared_alike(load_model(model_text), load_thesaurus(THESAURUS)) is prepared


@settings(max_examples=200, deadline=None)
@given(model_text=models(), thesaurus_text=thesauri())
def test_prepare_context_matches_classifying_the_rendered_axioms(model_text, thesaurus_text):
    assert_prepared_alike(load_model(model_text), load_thesaurus(thesaurus_text))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["cabio-warm", "ladder400-warm", "ncit-cold"])
def test_workload_documents_prepare_alike(name, seed):
    documents = generate.workload(name, seed).documents()
    model, thesaurus = load_model(documents["model"]), load_thesaurus(documents["thesaurus"])
    assert assert_prepared_alike(model, thesaurus)
