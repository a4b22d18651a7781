"""Signature-driven module extraction from thesaurus axiom sets.

The thesaurus fragment handled here is acyclic named-to-named subsumption
only, so the locality-based module of a signature reduces to its upward
closure (Cuenca Grau, Horrocks, Kazakov and Sattler, "Modular Reuse of
Ontologies", JAIR 2008): every concept reachable from the signature through
subsumption axioms, and the axioms whose left-hand side is one of them. The
module then preserves exactly the subsumptions expressible over the
signature.

Disjointness is stripped before extraction: concept-to-class mappings use
subsumption, and a class annotated from two disjoint thesaurus branches must
not make the generated ontology inconsistent. An AxiomSet has no
disjointness axiom, so every rendered thesaurus is free of it.
"""

from __future__ import annotations

from .model import Signature, Thesaurus, closure
from .ontology import DEFAULT_PREFIXES, AxiomSet, Named, OntologyError, SubClassOf, concept_name


def strip_disjoints(thesaurus: Thesaurus) -> AxiomSet:
    """Render the thesaurus as subsumption axioms, discarding disjointness.

    One ``Named`` per declared concept is shared by every axiom that names
    it; every subsumption names declared concepts, as ``load_thesaurus``
    ensures."""
    named = {name: Named(concept_name(name)) for name in thesaurus.concepts}
    axioms = tuple(
        SubClassOf(named[child], named[parent]) for child, parent in thesaurus.subsumptions
    )
    return AxiomSet(axioms, prefixes={"n": DEFAULT_PREFIXES["n"]})


def extract_module(thesaurus_axioms: AxiomSet, sigma: Signature) -> AxiomSet:
    """Upward-closure module for the signature sigma.

    Walks the sub-to-sup parent map once from the signature's names and keeps,
    in source order, every axiom whose left-hand side the walk reached. Every
    axiom must be a named-to-named subsumption.
    """
    parents: dict[str, list[str]] = {}
    for axiom in thesaurus_axioms.axioms:
        named = isinstance(axiom, SubClassOf) and isinstance(axiom.sub, Named)
        if not (named and isinstance(axiom.sup, Named)):
            raise OntologyError(f"not a named-to-named subsumption: {axiom}")
        parents.setdefault(axiom.sub.name, []).append(axiom.sup.name)
    starts = [concept_name(name) for name in sigma.concept_names]
    relevant = set(closure(starts, lambda name: parents.get(name, ())))
    kept = tuple(a for a in thesaurus_axioms.axioms if a.sub.name in relevant)
    return AxiomSet(kept, prefixes=thesaurus_axioms.prefixes)
