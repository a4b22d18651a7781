"""Classify the generated ontology and find association paths.

Classification saturates the axiom set into an index: named subsumption
(reflexive and transitive), the attribute classes each class carries, and
the association edges it carries (inherited ones included). Transitive
reachability over those edges is worked out for a source class when it is
first asked for. Because every concrete association is a
sub-property of one transitive upper property, asking whether two classes
are connected reduces to reachability; rewriting that abstract connection
into concrete role chains is exhaustive simple-path enumeration.
"""

from pathlib import Path

from onco_rewriter import (
    association_reachable,
    entails_subclass,
    find_paths,
    load_model,
    load_thesaurus,
)
from onco_rewriter.pipeline import prepare_context

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

model = load_model((FIXTURES / "cabio_fragment.model.json").read_text(encoding="utf-8"))
thesaurus = load_thesaurus((FIXTURES / "ncit_fragment.thesaurus.txt").read_text(encoding="utf-8"))
context = prepare_context(model, thesaurus)
index = context.index

print("some entailed subsumptions:")
for sub, sup in [
    ("c:Chromosome", "n:Chromosome"),
    ("c:Chromosome", "n:Anatomic_Structure_System_or_Substance"),
    ("c:CytogeneticLocation", "c:Location"),
]:
    print(f"  {sub} below {sup}? {entails_subclass(index, sub, sup)}")
print()

print("reachability over associations:")
for source, target in [("c:SNP", "c:Gene"), ("c:Gene", "c:SNP")]:
    print(f"  {source} -> {target}? {association_reachable(index, source, target)}")
print()

print("concrete paths from c:SNP to c:Gene:")
for path in find_paths(index, "c:SNP", "c:Gene", 16):
    hops = " -> ".join(f"[{prop}] {cls}" for prop, cls in path.steps)
    print(f"  {path.source_class} -> {hops}  ({path.node_count} nodes)")
