"""Signature-driven module extraction from thesaurus subsumptions.

The thesaurus fragment handled here is acyclic named-to-named subsumption
only, so the locality-based module of a signature reduces to its upward
closure (Cuenca Grau, Horrocks, Kazakov and Sattler, "Modular Reuse of
Ontologies", JAIR 2008): every concept reachable from the signature through
subsumption, and the subsumptions whose child is one of them. The module
then preserves exactly the subsumptions expressible over the signature.

A subsumption is a ``(child, parent)`` pair of concept names, and so is
every pair of a module; no axiom is built here. Only the commands that
write a module render it (``pipeline.thesaurus_module``).

Disjointness is stripped before extraction: concept-to-class mappings use
subsumption, and a class annotated from two disjoint thesaurus branches must
not make the generated ontology inconsistent.
"""

from __future__ import annotations

from collections.abc import Sequence

from .model import Signature, Thesaurus, closure


def strip_disjoints(thesaurus: Thesaurus) -> tuple[tuple[str, str], ...]:
    """The thesaurus' subsumption pairs, discarding disjointness."""
    return thesaurus.subsumptions


def extract_module(
    pairs: Sequence[tuple[str, str]], sigma: Signature
) -> tuple[tuple[str, str], ...]:
    """Upward-closure module for the signature sigma: walks the child-to-parent
    map once from the signature's names and keeps, in source order, every pair
    whose child the walk reached."""
    parents: dict[str, list[str]] = {}
    for child, parent in pairs:
        parents.setdefault(child, []).append(parent)
    relevant = set(closure(sigma.concept_names, lambda name: parents.get(name, ())))
    return tuple(pair for pair in pairs if pair[0] in relevant)
