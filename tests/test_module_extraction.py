from __future__ import annotations

import random

from onco_rewriter.model import Signature, Thesaurus, load_thesaurus, model_signature
from onco_rewriter.module_extraction import extract_module, strip_disjoints
from onco_rewriter.ontology import DEFAULT_PREFIXES, AxiomSet, concept_name, subclass_axioms
from onco_rewriter.synthetic import random_thesaurus, resolve_seed


def thesaurus_from(concepts, subs, disjoints=()):
    lines = [f"CONCEPT {c}" for c in concepts]
    lines += [f"SUB {a} {b}" for a, b in subs]
    lines += [f"DISJOINT {a} {b}" for a, b in disjoints]
    return load_thesaurus("\n".join(lines))


def signature(*names) -> Signature:
    return Signature(concept_names=frozenset(names))


def rendered(pairs) -> AxiomSet:
    """The concept pairs as the ``n:`` axioms that ``thesaurus_module`` renders."""
    named = ((concept_name(child), concept_name(parent)) for child, parent in pairs)
    return subclass_axioms(named, {"n": DEFAULT_PREFIXES["n"]})


def sub_pairs(pairs) -> set[tuple[str, str]]:
    return {(a.sub.name, a.sup.name) for a in rendered(pairs)}


def closure(pairs: set[tuple[str, str]], universe: set[str]) -> set[tuple[str, str]]:
    """Reflexive-transitive closure, written as plain fixpoint iteration."""
    result = {(x, x) for x in universe} | set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(result):
            for c, d in list(result):
                if b == c and (a, d) not in result:
                    result.add((a, d))
                    changed = True
    return result


def test_strip_keeps_subsumptions_discards_disjoints():
    thesaurus = thesaurus_from(
        ["A", "B", "C", "D"], [("A", "B"), ("B", "C"), ("D", "C")], [("A", "D"), ("B", "D")]
    )
    stripped = strip_disjoints(thesaurus)
    assert isinstance(stripped, tuple) and stripped == thesaurus.subsumptions
    assert rendered(stripped).prefixes == {"n": DEFAULT_PREFIXES["n"]}
    assert len(stripped) == 3
    assert sub_pairs(stripped) == {("n:A", "n:B"), ("n:B", "n:C"), ("n:D", "n:C")}


def test_strip_without_disjoints_is_identity_on_subsumptions():
    thesaurus = thesaurus_from(["A", "B"], [("A", "B")])
    assert sub_pairs(strip_disjoints(thesaurus)) == {("n:A", "n:B")}


def test_strip_disjoint_only_thesaurus_yields_empty_axioms():
    thesaurus = thesaurus_from(["A", "B"], [], [("A", "B")])
    assert len(strip_disjoints(thesaurus)) == 0


def test_full_signature_returns_whole_axiom_set(ncit_thesaurus):
    stripped = strip_disjoints(ncit_thesaurus)
    sigma = signature(*ncit_thesaurus.concepts)
    module = extract_module(stripped, sigma)
    assert module == stripped


def test_empty_signature_returns_empty_module(ncit_thesaurus):
    module = extract_module(strip_disjoints(ncit_thesaurus), signature())
    assert len(module) == 0


def test_chain_fixpoint_hand_case():
    thesaurus = thesaurus_from(["A", "B", "C", "D", "E"], [("A", "B"), ("B", "C"), ("D", "E")])
    module = extract_module(strip_disjoints(thesaurus), signature("A"))
    assert sub_pairs(module) == {("n:A", "n:B"), ("n:B", "n:C")}
    # brute-force check: every signature-expressible entailment is preserved
    full = closure(sub_pairs(strip_disjoints(thesaurus)), {"n:A", "n:B", "n:C", "n:D", "n:E"})
    part = closure(sub_pairs(module), {"n:A", "n:B", "n:C"})
    for x in ("n:A", "n:B", "n:C"):
        for y in ("n:A", "n:B", "n:C"):
            assert ((x, y) in full) == ((x, y) in part)


def test_cabio_module_excludes_unrelated_branch(cabio_model, ncit_thesaurus):
    module = extract_module(strip_disjoints(ncit_thesaurus), model_signature(cabio_model))
    names = {name for a, b in sub_pairs(module) for name in (a, b)}
    assert "n:Neoplasm" not in names
    assert "n:Disease" not in names
    assert ("n:Gene", "n:Anatomic_Structure_System_or_Substance") in sub_pairs(module)


def _random_signature(rng: random.Random, thesaurus: Thesaurus) -> Signature:
    if not thesaurus.concepts:
        return signature()
    count = rng.randint(0, len(thesaurus.concepts))
    return Signature(concept_names=frozenset(rng.sample(thesaurus.concepts, count)))


def _entailment_preserved(thesaurus: Thesaurus, sigma: Signature) -> None:
    stripped = strip_disjoints(thesaurus)
    module = extract_module(stripped, sigma)
    module_sig = {name for a, b in sub_pairs(module) for name in (a, b)}
    scope = {f"n:{c}" for c in sigma.concept_names} | module_sig
    universe = {f"n:{c}" for c in thesaurus.concepts}
    full = closure(sub_pairs(stripped), universe)
    part = closure(sub_pairs(module), scope)
    for x in scope:
        for y in scope:
            assert ((x, y) in full) == ((x, y) in part), (x, y)


def test_entailment_preservation_small_corpus():
    rng = random.Random(resolve_seed())
    for _ in range(10):
        thesaurus = random_thesaurus(rng, max_axioms=40)
        _entailment_preserved(thesaurus, _random_signature(rng, thesaurus))


def test_monotonicity_and_idempotence():
    rng = random.Random(resolve_seed() + 1)
    for _ in range(20):
        thesaurus = random_thesaurus(rng, max_axioms=60)
        stripped = strip_disjoints(thesaurus)
        sigma_large = _random_signature(rng, thesaurus)
        names = sorted(sigma_large.concept_names)
        sigma_small = Signature(
            concept_names=frozenset(rng.sample(names, rng.randint(0, len(names))))
        )
        small = extract_module(stripped, sigma_small)
        large = extract_module(stripped, sigma_large)
        assert set(small) <= set(large)
        again = extract_module(large, sigma_large)
        assert again == large
