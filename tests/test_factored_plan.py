"""What the factored plan does besides giving the earlier driver's outputs
(``tests/test_plan_then_build.py`` holds that differential test).

The plan checks every UML candidate from tables holding each distinct class
pair once and resolves only the candidates that survive; a lone candidate
skips it and is checked as it is built. Pinned here: the number of
candidates the driver resolves, the fact that makes resolving only survivors
safe (``extract_data_values`` never rejects a resolution of a parsed query),
the order of a nesting error and a later limit error, and the nesting bound
on a lone candidate. Also here: ``generate_ontology`` against the earlier
version that deduplicated every axiom through a set.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter import pipeline as P
from onco_rewriter.model import UMLClass, load_model, load_thesaurus
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
    model_naming,
    serialize_axioms,
)
from onco_rewriter.pipeline import (
    CandidateLimitError,
    NestingLimitError,
    QuerySyntaxError,
    RewriteOptions,
    ValidationRejectedError,
    prepare_context,
    rewrite_prepared,
)
from onco_rewriter.reasoner import SubsumptionIndex
from onco_rewriter.synthetic import random_annotated_model

# --- the plan --------------------------------------------------------------------


def chain_context(length, parallel, lone=False, tail=0):
    """B, annotated Both, reaches T through a chain of ``length`` classes.
    Unless ``lone``, A and C are annotated Both too: A reaches nothing, and C
    reaches T by ``parallel`` roles. From T a chain of ``tail`` classes leads
    on, to no class matching T."""
    both = {"primary": "Both", "qualifiers": []}
    hops = ["B", *(f"X{i}" for i in range(length)), "T", *(f"Y{i}" for i in range(tail))]
    associations = [{"source": s, "roleName": "r", "target": t} for s, t in zip(hops, hops[1:])]
    associations += [{"source": "C", "roleName": f"r{k}", "target": "T"} for k in range(parallel)]
    classes = [
        {"name": "A", "annotation": None if lone else both},
        {"name": "B", "annotation": both},
        {"name": "C", "annotation": None if lone else both},
        {"name": "T", "annotation": {"primary": "CT", "qualifiers": []}},
    ]
    classes += [{"name": f"X{i}"} for i in range(length)]
    classes += [{"name": f"Y{i}"} for i in range(tail)]
    document = {"project": "t", "version": "1", "packagePrefix": "org.example"}
    model = load_model(json.dumps(document | {"classes": classes, "associations": associations}))
    thesaurus = load_thesaurus("CONCEPT Root\nCONCEPT Both\nCONCEPT CT\nSUB Both Root\nSUB CT Root")
    return prepare_context(model, thesaurus)


QUERY = "Both and hasAssociation some (CT)"


def test_nesting_error_wins_over_a_later_limit_error():
    """B nests too deep; C, after B, would then push the count past the
    limit. B's error comes first, as each candidate is planned in turn."""
    options = RewriteOptions(max_nodes=300, candidate_limit=3)
    with pytest.raises(NestingLimitError) as info:
        rewrite_prepared(chain_context(260, parallel=3), QUERY, options)
    assert info.value.stage == "pathFind"
    assert info.value.depth == 261  # B's one path, one Association per step
    # with B's chain short enough, C's paths trip the limit; C's walk stops at
    # the two paths the limit leaves room for, and under a node budget whose
    # nesting the fast path cannot rule out, a cut walk counts at its bound:
    # at most one step per class its source reaches, here T alone
    with pytest.raises(CandidateLimitError, match="candidate count at least 4 exceeds limit 3"):
        rewrite_prepared(chain_context(20, parallel=3), QUERY, options)
    # past T, C reaches 259 more classes: its cut walk counts at 260 steps,
    # and at 299 (max_nodes - 1) once it reaches more classes than that
    with pytest.raises(NestingLimitError) as info:
        rewrite_prepared(chain_context(20, parallel=3, tail=259), QUERY, options)
    assert info.value.depth == 260
    with pytest.raises(NestingLimitError) as info:
        rewrite_prepared(chain_context(20, parallel=3, tail=400), QUERY, options)
    assert info.value.depth == 299
    options = RewriteOptions(max_nodes=254, candidate_limit=3)
    with pytest.raises(CandidateLimitError, match="candidate count at least 4 exceeds limit 3"):
        rewrite_prepared(chain_context(20, parallel=3), QUERY, options)


def test_lone_candidate_meets_the_nesting_bound():
    """A lone candidate skips the plan; the build checks the nesting bound
    the plan would have checked."""
    options = RewriteOptions(max_nodes=300)
    with pytest.raises(NestingLimitError) as info:
        rewrite_prepared(chain_context(260, 0, lone=True), QUERY, options)
    assert info.value.stage == "pathFind"
    outcome = rewrite_prepared(chain_context(20, 0, lone=True), QUERY, options)
    assert len(outcome.results) == 1 and outcome.dropped == ()


# --- work done ---------------------------------------------------------------------


@pytest.fixture
def mostly_failing():
    """Ten classes share the concept Many; only M0 reaches T."""
    classes = [
        {"name": f"M{i}", "annotation": {"primary": "Many", "qualifiers": []}} for i in range(10)
    ]
    classes.append({"name": "T", "annotation": {"primary": "CT", "qualifiers": []}})
    associations = [{"source": "M0", "roleName": "r", "target": "T"}]
    document = {"project": "t", "version": "1", "packagePrefix": "org.example"}
    model = load_model(json.dumps(document | {"classes": classes, "associations": associations}))
    thesaurus = load_thesaurus("CONCEPT Root\nCONCEPT Many\nCONCEPT CT\nSUB Many Root\nSUB CT Root")
    return prepare_context(model, thesaurus)


def counting(monkeypatch, name):
    calls = []
    original = getattr(P, name)
    monkeypatch.setattr(P, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_only_surviving_candidates_are_built(monkeypatch, mostly_failing):
    built = counting(monkeypatch, "extract_data_values")
    reachable = counting(monkeypatch, "association_reachable")

    outcome = rewrite_prepared(mostly_failing, "Many and hasAssociation some (CT)")
    assert len(outcome.results) == 1
    assert len(outcome.dropped) == 9
    assert len(built) == 1  # the one survivor
    # the plan checks each distinct class pair once, and the survivor is
    # not validated again
    assert len(reachable) == 10

    # a pair twice in one candidate is checked once
    built.clear()
    reachable.clear()
    query = "Many and hasAssociation some (CT) and hasAssociation some (CT)"
    assert len(rewrite_prepared(mostly_failing, query).dropped) == 9
    assert len(built) == 1
    assert len(reachable) == 10

    # every candidate fails: none is built
    built.clear()
    with pytest.raises(ValidationRejectedError):
        rewrite_prepared(mostly_failing, "CT and hasAssociation some (Many)")
    assert built == []

    # a lone candidate skips the plan: it is built and fails at validate
    with pytest.raises(ValidationRejectedError):
        rewrite_prepared(mostly_failing, "CT and hasAssociation some (CT)")
    assert len(built) == 1


def concept_names(node):
    if isinstance(node, P.ConceptRef):
        return {node.name}
    children = node.items if isinstance(node, P.And) else (getattr(node, "inner", None),)
    return set().union(*(concept_names(child) for child in children if child is not None))


def permissive_index(ast):
    """An index in which every concept of ``ast`` subsumes one class that is
    both a UML class and a UML attribute class, so ``ast`` has exactly one
    resolution; the class names do not matter to the property below."""
    names = {f"n:{name}" for name in concept_names(ast)}
    subsumers = {"c:X": frozenset({"c:X", UML_CLASS, UML_ATTRIBUTE, *names})}
    return SubsumptionIndex(subsumers=subsumers, attribute_of={}, assoc_edges={})


NAMES = st.sampled_from(["A", "B", "C"])
VALUES = st.sampled_from(['hasValue value "v"', 'hasValue value "B%"', 'hasValue value ""'])


def shaped(inner):
    """Class contexts of the shape the parser accepts: parts in any order,
    values anywhere among their attribute concept, parentheses here and
    there."""
    attribute = st.tuples(NAMES, st.lists(VALUES, max_size=3)).flatmap(
        lambda t: st.permutations([t[0], *t[1]])
    )
    part = st.one_of(
        inner.map(lambda e: f"hasAssociation some ({e})"),
        attribute.map(lambda items: f"hasAttribute some ({' and '.join(items)})"),
    )
    context = st.tuples(NAMES, st.lists(part, max_size=3), st.integers(0, 3)).map(
        lambda t: " and ".join([*t[1][: t[2]], t[0], *t[1][t[2]:]])
    )
    return st.one_of(context, context.map(lambda e: f"({e})"))


def loose(inner):
    """Any conjunction of grammar terms, most of which the parser rejects."""
    term = st.one_of(
        NAMES,
        VALUES,
        inner.map(lambda e: f"hasAssociation some ({e})"),
        inner.map(lambda e: f"hasAttribute some ({e})"),
        inner.map(lambda e: f"({e})"),
    )
    return st.lists(term, min_size=1, max_size=4).map(" and ".join)


SHAPED = st.recursive(NAMES, shaped, max_leaves=10)


@settings(max_examples=100, deadline=None)
@given(text=SHAPED)
def test_shaped_queries_parse(text):
    P.parse_query(text)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(SHAPED, st.recursive(NAMES, loose, max_leaves=10)))
def test_value_extraction_accepts_every_parsed_query(text):
    """Why valueExtract may run on survivors only: it never rejects a
    resolution of a query the parser accepts, so skipping it for a dropped
    candidate cannot change which error a query ends with."""
    try:
        ast = P.parse_query(text)
    except QuerySyntaxError:
        return
    (candidate,) = P.extract_uml(ast, permissive_index(ast))
    P.extract_data_values(candidate.ast)


# --- generate_ontology without a dedup set -------------------------------------------


def reference_generate_ontology(model):
    model_naming(model)
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
            emit(SubClassOf(c, _annotation_expr(cls.annotation)))
        for attr in cls.attributes:
            a = Named(attribute_class_name(cls.name, attr.name))
            emit(SubClassOf(a, Named(UML_ATTRIBUTE)))
            emit(SubClassOf(a, DataExistential(HAS_VALUE, DATATYPE_MAP[attr.datatype])))
            if attr.annotation is not None:
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


def with_superclasses(rng, model):
    """Each class gets up to three superclasses drawn from every class, so
    lists repeat a name, name the class itself, and close cycles."""
    names = [c.name for c in model.classes]
    classes = [
        replace(cls, superclasses=tuple(rng.choice(names) for _ in range(rng.randint(0, 3))))
        for cls in model.classes
    ]
    return replace(model, classes=tuple(classes))


def generated(model):
    try:
        return serialize_axioms(generate_ontology(model))
    except OntologyError as error:
        return str(error)


def reference_generated(model):
    try:
        return serialize_axioms(reference_generate_ontology(model))
    except OntologyError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_generate_ontology_matches_reference(seed):
    rng = random.Random(seed)
    model, _ = random_annotated_model(rng)
    if rng.random() < 0.7:
        model = with_superclasses(rng, model)
    assert generated(model) == reference_generated(model)


def superclass_model(superclasses):
    """Classes A, B, C and D, each with one attribute and an association to
    the next, and the given superclass lists."""
    names = "ABCD"
    document = {
        "project": "t",
        "version": "1",
        "packagePrefix": "org.example",
        "classes": [
            {"name": n, "attributes": [{"name": "f", "datatype": "string"}]} for n in names
        ],
        "associations": [
            {"source": s, "roleName": "r", "target": t} for s, t in zip(names, names[1:])
        ],
    }
    model = load_model(json.dumps(document))
    classes = tuple(
        UMLClass(
            name=cls.name,
            superclasses=tuple(superclasses.get(cls.name, ())),
            attributes=cls.attributes,
        )
        for cls in model.classes
    )
    return replace(model, classes=classes)


@pytest.mark.parametrize(
    "superclasses",
    [
        {"D": ["A", "A"]},  # listed twice
        {"B": ["A"], "C": ["A"], "D": ["B", "C"]},  # diamond
        {"A": ["A"]},  # itself
        {"A": ["B"], "B": ["A"]},  # two-class cycle
        {"A": ["B"], "B": ["C"], "C": ["A", "A"], "D": ["D", "C", "B"]},
    ],
    ids=["duplicate", "diamond", "self", "cycle", "mixed"],
)
def test_generate_ontology_on_repeating_superclasses(superclasses):
    model = superclass_model(superclasses)
    ontology = generate_ontology(model)
    assert len(set(ontology.axioms)) == len(ontology.axioms)
    assert serialize_axioms(ontology) == serialize_axioms(reference_generate_ontology(model))
