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
not make the generated ontology inconsistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Signature, Thesaurus, closure
from .ontology import DEFAULT_PREFIXES, AxiomSet, Named, SubClassOf, concept_name


@dataclass(frozen=True)
class ThesaurusAxiomSet:
    """Thesaurus rendered as named-to-named subsumption axioms."""

    axioms: tuple[SubClassOf, ...]
    disjoints_removed: bool = False

    def __iter__(self):
        return iter(self.axioms)

    def __len__(self) -> int:
        return len(self.axioms)

    def to_axiom_set(self) -> AxiomSet:
        prefixes = {"n": DEFAULT_PREFIXES["n"]}
        return AxiomSet(axioms=tuple(self.axioms), prefixes=prefixes)


def strip_disjoints(thesaurus: Thesaurus) -> ThesaurusAxiomSet:
    """Render the thesaurus as subsumption axioms, discarding disjointness."""
    axioms = tuple(
        SubClassOf(Named(concept_name(child)), Named(concept_name(parent)))
        for child, parent in thesaurus.subsumptions
    )
    return ThesaurusAxiomSet(axioms=axioms, disjoints_removed=True)


def extract_module(thesaurus_axioms: ThesaurusAxiomSet, sigma: Signature) -> ThesaurusAxiomSet:
    """Upward-closure module for the signature sigma.

    Walks the sub-to-sup parent map once from the signature's names and keeps,
    in source order, every axiom whose left-hand side the walk reached.
    """
    if not thesaurus_axioms.disjoints_removed:
        raise ValueError("strip_disjoints must run before module extraction")
    parents: dict[str, list[str]] = {}
    for axiom in thesaurus_axioms.axioms:
        assert isinstance(axiom.sub, Named) and isinstance(axiom.sup, Named)
        parents.setdefault(axiom.sub.name, []).append(axiom.sup.name)
    starts = [concept_name(name) for name in sigma.concept_names]
    relevant = set(closure(starts, lambda name: parents.get(name, ())))
    kept = tuple(a for a in thesaurus_axioms.axioms if a.sub.name in relevant)
    return ThesaurusAxiomSet(axioms=kept, disjoints_removed=True)
