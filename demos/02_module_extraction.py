"""Extract the thesaurus module relevant to a model.

A full domain thesaurus is far larger than any single model needs. The
module keeps exactly the axioms that can influence reasoning over the
model's annotation signature: starting from the signature, every axiom
whose left-hand side is relevant is kept and its right-hand side becomes
relevant too. Disjointness axioms are removed first, because annotations
mapped by subsumption may legitimately pull a class under two branches the
thesaurus declares disjoint.

Both steps work on (child, parent) concept pairs, one per thesaurus SUB line;
the module is rendered as subsumption axioms only to be written out, as the
``module`` and ``ontogen`` commands do.
"""

from pathlib import Path

from onco_rewriter import (
    extract_module,
    load_model,
    load_thesaurus,
    model_signature,
    serialize_axioms,
    strip_disjoints,
)
from onco_rewriter.pipeline import thesaurus_module

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

model = load_model((FIXTURES / "cabio_fragment.model.json").read_text(encoding="utf-8"))
thesaurus = load_thesaurus((FIXTURES / "ncit_fragment.thesaurus.txt").read_text(encoding="utf-8"))

print(
    f"thesaurus: {len(thesaurus.concepts)} concepts, "
    f"{len(thesaurus.subsumptions)} subsumptions, "
    f"{len(thesaurus.disjointness)} disjointness axioms"
)

stripped = strip_disjoints(thesaurus)
print(f"after stripping disjointness: {len(stripped)} subsumption axioms")

module = extract_module(stripped, model_signature(model))
print(f"module for the model signature: {len(module)} axioms")
print()
print(serialize_axioms(thesaurus_module(model, thesaurus)))
print("note: the Disease/Neoplasm branch is gone; nothing in the model refers to it")
