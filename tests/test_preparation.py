"""Preparation checks against the code they replace.

The reference below copies the earlier preparation. Its ``generate_ontology``
took the thesaurus module, checked every annotation concept against the
names in the module's axioms and registered the generated names itself; its
``model_naming`` built each table with a dict comprehension; its
``merge_axiom_sets`` dropped duplicates. Now ``thesaurus_module`` checks
annotation concepts against the thesaurus's declarations, ``model_naming``
rejects generated-name collisions and the merge concatenates.

On random annotated models, some annotating a thesaurus root, an isolated
concept or an undeclared one, or generating one name twice: wherever the
reference succeeds, the ontology, module, merged set, index tables and
naming are equal. Where it rejected a concept absent from the module, the
new code succeeds exactly when every annotation concept is declared.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter.cli import main
from onco_rewriter.model import (
    Annotation,
    UMLClass,
    load_model,
    load_thesaurus,
    model_signature,
)
from onco_rewriter.module_extraction import extract_module, strip_disjoints
from onco_rewriter.ontology import (
    DATATYPE_MAP,
    DEFAULT_PREFIXES,
    HAS_ASSOCIATION,
    HAS_ATTRIBUTE,
    HAS_VALUE,
    UML_ATTRIBUTE,
    UML_CLASS,
    AxiomSet,
    DataExistential,
    Existential,
    ModelNaming,
    Named,
    OntologyError,
    SubClassOf,
    SubPropertyOf,
    TransitiveProperty,
    _annotation_expr,
    association_property_name,
    attribute_class_name,
    class_name,
    generate_ontology,
    merge_axiom_sets,
    serialize_axioms,
)
from onco_rewriter.pipeline import ConceptRef, extract_uml, prepare_context, rewrite, thesaurus_module
from onco_rewriter.reasoner import classify
from onco_rewriter.synthetic import random_annotated_model

from axiom_decomposition import decompose
from test_module_extraction import rendered

# --- reference implementation -------------------------------------------------


def reference_generate_ontology(model, thesaurus_module):
    module_names = frozenset(
        name[len("n:"):] for name in thesaurus_module.class_names() if name.startswith("n:")
    )

    def check_annotation(annotation, owner):
        for concept in annotation.concept_names():
            if concept not in module_names:
                raise OntologyError(
                    f"annotation concept '{concept}' on {owner} is absent from the thesaurus module"
                )

    generated_names = {}

    def register(name, described_as):
        if name in generated_names:
            raise OntologyError(
                f"generated name collision: '{name}' is both {generated_names[name]} and {described_as}"
            )
        generated_names[name] = described_as

    for cls in model.classes:
        register(class_name(cls.name), f"class {cls.name}")
    for cls in model.classes:
        for attr in cls.attributes:
            register(attribute_class_name(cls.name, attr.name), f"attribute {cls.name}.{attr.name}")
    for assoc in model.associations:
        register(
            association_property_name(assoc.source, assoc.role_name, assoc.target),
            f"association {assoc.source}.{assoc.role_name}",
        )

    axioms = [TransitiveProperty(HAS_ASSOCIATION)]
    seen = set(axioms)

    def emit(axiom):
        if axiom not in seen:
            seen.add(axiom)
            axioms.append(axiom)

    for cls in model.classes:
        c = Named(class_name(cls.name))
        emit(SubClassOf(c, Named(UML_CLASS)))
        if cls.annotation is not None:
            check_annotation(cls.annotation, f"class {cls.name}")
            emit(SubClassOf(c, _annotation_expr(cls.annotation)))
        for attr in cls.attributes:
            a = Named(attribute_class_name(cls.name, attr.name))
            emit(SubClassOf(a, Named(UML_ATTRIBUTE)))
            emit(SubClassOf(a, DataExistential(HAS_VALUE, DATATYPE_MAP[attr.datatype])))
            if attr.annotation is not None:
                check_annotation(attr.annotation, f"attribute {cls.name}.{attr.name}")
                emit(SubClassOf(a, _annotation_expr(attr.annotation)))
            emit(SubClassOf(c, Existential(HAS_ATTRIBUTE, a)))
        for assoc in model.associations_from(cls.name):
            prop = association_property_name(assoc.source, assoc.role_name, assoc.target)
            emit(SubPropertyOf(prop, HAS_ASSOCIATION))
            emit(SubClassOf(c, Existential(prop, Named(class_name(assoc.target)))))
        for sup in cls.superclasses:
            emit(SubClassOf(c, Named(class_name(sup))))
        for ancestor in model.ancestors(cls.name):
            for assoc in model.associations_from(ancestor):
                prop = association_property_name(assoc.source, assoc.role_name, assoc.target)
                emit(SubClassOf(c, Existential(prop, Named(class_name(assoc.target)))))
            for attr in model.class_named(ancestor).attributes:
                a = Named(attribute_class_name(ancestor, attr.name))
                emit(SubClassOf(c, Existential(HAS_ATTRIBUTE, a)))

    prefixes = dict(DEFAULT_PREFIXES)
    prefixes["c"] = f"http://onco-rewriter.local/model/{model.project_name}#"
    return AxiomSet(axioms=tuple(axioms), prefixes=prefixes)


def reference_merge(*sets):
    axioms, seen, prefixes = [], set(), {}
    for s in sets:
        for prefix, iri in s.prefixes.items():
            if prefix in prefixes and prefixes[prefix] != iri:
                raise OntologyError(f"conflicting IRI for prefix '{prefix}'")
            prefixes[prefix] = iri
        for axiom in s.axioms:
            if axiom not in seen:
                seen.add(axiom)
                axioms.append(axiom)
    return AxiomSet(axioms=tuple(axioms), prefixes=prefixes)


def reference_naming(model):
    return ModelNaming(
        properties={
            association_property_name(a.source, a.role_name, a.target): (a.source, a.role_name, a.target)
            for a in model.associations
        },
        attribute_classes={
            attribute_class_name(c.name, a.name): (c.name, a.name)
            for c in model.classes
            for a in c.attributes
        },
        classes={class_name(c.name): c.name for c in model.classes},
    )


def reference_prepare(model, thesaurus):
    module = rendered(extract_module(strip_disjoints(thesaurus), model_signature(model)))
    ontology = reference_generate_ontology(model, module)
    return module, ontology, reference_merge(ontology, module), reference_naming(model)


# --- random cases ---------------------------------------------------------------

# Top is the parent of every concept random_annotated_model uses; Root is a
# root no model concept lies under; Lonely is in no SUB line; Ghost is
# undeclared
EXTRA_CONCEPTS = ("Top", "Root", "RootChild", "Lonely", "Ghost")


def random_case(rng: random.Random):
    model, thesaurus = random_annotated_model(rng)
    lines = [f"CONCEPT {c}" for c in thesaurus.concepts]
    lines += [f"SUB {child} {parent}" for child, parent in thesaurus.subsumptions]
    lines += ["CONCEPT Root", "CONCEPT RootChild", "SUB RootChild Root", "CONCEPT Lonely"]
    classes = list(model.classes)
    for concept in rng.sample(EXTRA_CONCEPTS, rng.randint(0, 2)):
        i = rng.randrange(len(classes))
        cls = classes[i]
        where = rng.choice(("class", "qualifier", "attribute"))
        if where == "attribute" and cls.attributes:
            attrs = list(cls.attributes)
            j = rng.randrange(len(attrs))
            attrs[j] = replace(attrs[j], annotation=Annotation(primary=concept))
            classes[i] = replace(cls, attributes=tuple(attrs))
        elif where == "qualifier":
            primary = cls.annotation.primary
            classes[i] = replace(cls, annotation=Annotation(primary, qualifiers=(concept,)))
        else:
            classes[i] = replace(cls, annotation=Annotation(primary=concept))
    with_attributes = [c for c in classes if c.attributes]
    if with_attributes and rng.random() < 0.2:
        owner = rng.choice(with_attributes)
        classes.append(UMLClass(name=f"{owner.name}_{owner.attributes[0].name}"))
    model = replace(model, classes=tuple(classes))
    return model, load_thesaurus("\n".join(lines))


def index_tables(index):
    return index.subsumers, index.attribute_of, index.assoc_edges


def naming_tables(naming):
    return [list(table.items()) for table in (naming.properties, naming.attribute_classes, naming.classes)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_preparation_matches_reference(seed):
    model, thesaurus = random_case(random.Random(seed))
    try:
        expected = reference_prepare(model, thesaurus)
    except OntologyError as error:
        expected = error
    undeclared = model_signature(model).concept_names - set(thesaurus.concepts)
    if undeclared:
        assert isinstance(expected, OntologyError)
        with pytest.raises(OntologyError, match=f"'{min(undeclared)}' is not in the thesaurus"):
            prepare_context(model, thesaurus)
        return
    if isinstance(expected, OntologyError) and "collision" in str(expected):
        with pytest.raises(OntologyError) as raised:
            prepare_context(model, thesaurus)
        assert str(raised.value) == str(expected)
        return

    context = prepare_context(model, thesaurus)
    if isinstance(expected, OntologyError):
        assert "absent from the thesaurus module" in str(expected)
        # the concept the reference rejected now reaches its classes
        for cls in model.classes:
            matches = extract_uml(ConceptRef(cls.annotation.primary), context.index)
            assert class_name(cls.name) in {c.provenance.concept_choices[0][1] for c in matches}
        return
    module, ontology, merged, naming = expected
    assert serialize_axioms(thesaurus_module(model, thesaurus)) == serialize_axioms(module)
    generated = generate_ontology(model)
    assert serialize_axioms(generated) == serialize_axioms(ontology)
    assert merge_axiom_sets(generated, module) == merged
    assert index_tables(context.index) == index_tables(classify(decompose(merged)))
    assert naming_tables(context.naming) == naming_tables(naming)


def test_random_cases_reach_every_branch():
    """The cases above include each outcome the comparison distinguishes."""
    outcomes = set()
    for seed in range(300):
        model, thesaurus = random_case(random.Random(seed))
        try:
            reference_prepare(model, thesaurus)
            outcomes.add("ok")
        except OntologyError as error:
            undeclared = model_signature(model).concept_names - set(thesaurus.concepts)
            kind = "collision" if "collision" in str(error) else "absent"
            outcomes.add(f"{kind}, {'undeclared' if undeclared else 'declared'}")
    assert outcomes == {
        "ok",
        "absent, declared",
        "absent, undeclared",
        "collision, declared",
        "collision, undeclared",
    }


# --- parentless concepts ----------------------------------------------------------

# A is a root (a parent, no parent of its own); Lonely is in no SUB line
THESAURUS_TEXT = "CONCEPT A\nCONCEPT B\nCONCEPT Lonely\nSUB B A\n"
QUERY = "A and hasAssociation some (Lonely)"


def model_document(annotations):
    classes = [{"name": name, "annotation": {"primary": concept}} for name, concept in annotations]
    return json.dumps(
        {
            "project": "t",
            "version": "1",
            "packagePrefix": "org.example",
            "classes": classes,
            "associations": [{"source": "X", "roleName": "y", "target": "Y"}],
        }
    )


def test_root_and_isolated_concepts_prepare_and_rewrite():
    model = load_model(model_document([("X", "A"), ("Y", "Lonely")]))
    thesaurus = load_thesaurus(THESAURUS_TEXT)
    assert len(thesaurus_module(model, thesaurus)) == 0
    (result,) = rewrite(QUERY, model, thesaurus)
    assert result.cql.target.name == "org.example.X"
    assert result.cql.target.child.name == "org.example.Y"


def write_documents(tmp_path, annotations):
    model = tmp_path / "model.json"
    model.write_text(model_document(annotations), encoding="utf-8")
    thesaurus = tmp_path / "thesaurus.txt"
    thesaurus.write_text(THESAURUS_TEXT, encoding="utf-8")
    return ["--model", str(model), "--thesaurus", str(thesaurus)]


def test_root_and_isolated_concepts_rewrite_through_cli(tmp_path, capsys):
    documents = write_documents(tmp_path, [("X", "A"), ("Y", "Lonely")])
    assert main(["rewrite", *documents, "--query", QUERY]) == 0
    out = capsys.readouterr().out
    assert '<ns1:Target name="org.example.X">' in out
    assert '<ns1:Association name="org.example.Y" roleName="y"/>' in out


@pytest.mark.parametrize("command", ["module", "ontogen", "rewrite"])
def test_undeclared_concept_exits_one(command, tmp_path, capsys):
    documents = write_documents(tmp_path, [("X", "A"), ("Y", "Mystery")])
    extra = ["--query", QUERY] if command == "rewrite" else ["--out", str(tmp_path / "out")]
    assert main([command, *documents, *extra]) == 1
    err = capsys.readouterr().err
    assert "annotation concept 'Mystery' is not in the thesaurus" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
