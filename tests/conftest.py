from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest

from onco_rewriter.model import load_model, load_thesaurus
from onco_rewriter.ontology import (
    HAS_ATTRIBUTE,
    AxiomSet,
    Conjunction,
    Existential,
    Named,
    SubClassOf,
)
from onco_rewriter.pipeline import prepare_context
from onco_rewriter.synthetic import random_annotated_model, random_el_axiom_set

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CABIO_QUERY = (
    "Single_Nucleotide_Polymorphism and hasAssociation some "
    '(Gene and hasAttribute some (Gene_Symbol and hasValue value "TGFB1"))'
)


@pytest.fixture(scope="session")
def cabio_model():
    return load_model((FIXTURES / "cabio_fragment.model.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def ncit_thesaurus():
    return load_thesaurus((FIXTURES / "ncit_fragment.thesaurus.txt").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def cabio_context(cabio_model, ncit_thesaurus):
    return prepare_context(cabio_model, ncit_thesaurus)


@pytest.fixture(scope="session")
def biobank_model():
    return load_model((FIXTURES / "biobank.model.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def biobank_thesaurus():
    return load_thesaurus((FIXTURES / "biobank.thesaurus.txt").read_text(encoding="utf-8"))


def random_context(rng: random.Random):
    """A random annotated model with generalizations between its classes and
    extra subsumptions between its concepts (both pointing only to earlier
    names, so neither has a cycle), plus a concept outside the signature."""
    model, thesaurus = random_annotated_model(rng)
    classes = list(model.classes)
    for i in range(1, len(classes)):
        supers = rng.sample([c.name for c in classes[:i]], rng.randint(0, min(i, 2)))
        classes[i] = replace(classes[i], superclasses=tuple(supers))
    model = replace(model, classes=tuple(classes))
    concepts = thesaurus.concepts
    edges = set(thesaurus.subsumptions)
    for i in range(2, len(concepts)):
        edges.update((concepts[i], p) for p in rng.sample(concepts[1:i], rng.randint(0, 1)))
    lines = [f"CONCEPT {c}" for c in (*concepts, "Stray")]
    lines += [f"SUB {child} {parent}" for child, parent in sorted(edges)]
    thesaurus = load_thesaurus("\n".join(lines))
    return prepare_context(model, thesaurus), thesaurus


def el_with_extras(rng: random.Random) -> AxiomSet:
    """A random EL axiom set plus attribute restrictions, which the EL
    generator never makes, and existentials with compound fillers, whose
    names become index keys but add no edge."""
    base = random_el_axiom_set(rng, max_axioms=40)
    pool = sorted(base.class_names()) + ["c:X0", "c:X1"]
    extras = []
    for _ in range(rng.randint(1, 6)):
        lhs, a, b = (Named(rng.choice(pool)) for _ in range(3))
        if rng.random() < 0.5:
            extras.append(SubClassOf(lhs, Existential(HAS_ATTRIBUTE, a)))
        else:
            extras.append(SubClassOf(lhs, Existential("c:p0", Conjunction((a, b)))))
    return AxiomSet(axioms=base.axioms + tuple(extras))
