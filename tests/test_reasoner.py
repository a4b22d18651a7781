from __future__ import annotations

import random

import pytest

from onco_rewriter.ontology import (
    HAS_ASSOCIATION,
    HAS_ATTRIBUTE,
    UML_CLASS,
    AxiomSet,
    Conjunction,
    Existential,
    Named,
    SubClassOf,
    SubPropertyOf,
    TransitiveProperty,
    generate_ontology,
    merge_axiom_sets,
)
from onco_rewriter.pipeline import thesaurus_module
from onco_rewriter.reasoner import (
    ReasonerError,
    UnknownNameError,
    association_reachable,
    classify,
    entails_subclass,
    find_paths,
)
from onco_rewriter.synthetic import (
    random_association_graph,
    random_el_axiom_set,
    resolve_seed,
)

from axiom_decomposition import decompose


def oracle_subsumers(axiom_set: AxiomSet) -> dict[str, set[str]]:
    """Naive fixpoint closure of named subsumption, with conjunction
    decomposition, written independently of classify."""

    def named_atoms(expr):
        if isinstance(expr, Named):
            yield expr.name
        elif isinstance(expr, Conjunction):
            for part in expr.parts:
                yield from named_atoms(part)

    pairs: set[tuple[str, str]] = set()
    names = set(axiom_set.class_names())
    for axiom in axiom_set:
        if isinstance(axiom, SubClassOf):
            assert isinstance(axiom.sub, Named)
            for atom in named_atoms(axiom.sup):
                pairs.add((axiom.sub.name, atom))
    result = {(n, n) for n in names} | pairs
    changed = True
    while changed:
        changed = False
        additions = set()
        for a, b in result:
            for c, d in pairs:
                if b == c and (a, d) not in result:
                    additions.add((a, d))
        if additions:
            result |= additions
            changed = True
    out: dict[str, set[str]] = {n: set() for n in names}
    for a, b in result:
        out.setdefault(a, set()).add(b)
    return out


def oracle_simple_paths(edges, source, target_matcher, max_nodes):
    """Exhaustive enumeration over partial paths held in an explicit queue."""
    adjacency: dict[str, list[tuple[str, str]]] = {}
    for src, prop, tgt in edges:
        adjacency.setdefault(src, []).append((prop, tgt))
    results = set()
    queue = [((), source, frozenset([source]))]
    while queue:
        steps, at, seen = queue.pop()
        for prop, tgt in adjacency.get(at, []):
            if tgt in seen:
                continue
            extended = steps + ((prop, tgt),)
            if target_matcher(tgt):
                results.add(extended)
            if len(extended) + 1 < max_nodes:
                queue.append((extended, tgt, seen | {tgt}))
    return results


def test_cabio_subsumers(cabio_context):
    subs = cabio_context.index.subsumers["c:CytogeneticLocation"]
    assert {"c:CytogeneticLocation", "c:Location", UML_CLASS, "n:Location"} <= subs


def test_reflexivity(cabio_context):
    for name, subs in cabio_context.index.subsumers.items():
        assert name in subs


def test_entails_annotation_concept(cabio_context):
    assert entails_subclass(cabio_context.index, "c:Chromosome", "n:Chromosome")
    assert not entails_subclass(cabio_context.index, "c:Chromosome", "c:Gene")
    # thesaurus module lifts annotation concepts to their ancestors
    assert entails_subclass(
        cabio_context.index, "c:Chromosome", "n:Anatomic_Structure_System_or_Substance"
    )


def test_qualified_annotation_entails_primary_only(cabio_context):
    index = cabio_context.index
    assert entails_subclass(index, "c:SNPCytogeneticLocation", "n:Location")
    # qualifiers sit under existentials, not named subsumption
    assert not entails_subclass(
        index, "c:SNPCytogeneticLocation", "n:Single_Nucleotide_Polymorphism"
    )


def test_unknown_name_raises(cabio_context):
    with pytest.raises(UnknownNameError):
        entails_subclass(cabio_context.index, "c:Chromosome", "c:Nope")
    with pytest.raises(UnknownNameError):
        association_reachable(cabio_context.index, "c:Nope", "c:Gene")
    with pytest.raises(UnknownNameError):
        find_paths(cabio_context.index, "c:Nope", "c:Gene")
    # the source is checked before the target
    for query in (entails_subclass, association_reachable, find_paths):
        with pytest.raises(UnknownNameError) as both:
            query(cabio_context.index, "c:Nope1", "c:Nope2")
        assert both.value.name == "c:Nope1"
        with pytest.raises(UnknownNameError) as target:
            query(cabio_context.index, "c:Gene", "c:Nope2")
        assert target.value.name == "c:Nope2"


def test_non_el_axiom_rejected():
    from onco_rewriter.ontology import ClassExpr

    class Universal(ClassExpr):
        pass

    bad = AxiomSet(axioms=(SubClassOf(Named("c:A"), Universal()),))
    with pytest.raises(ReasonerError, match="non-EL"):
        classify(decompose(bad))


def test_classify_oracle_equivalence_small():
    rng = random.Random(resolve_seed())
    for _ in range(25):
        axiom_set = random_el_axiom_set(rng)
        index = classify(decompose(axiom_set))
        expected = oracle_subsumers(axiom_set)
        assert {k: set(v) for k, v in index.subsumers.items()} == expected


def test_reachability_in_cabio(cabio_context):
    index = cabio_context.index
    assert association_reachable(index, "c:SNP", "c:Gene")
    assert not association_reachable(index, "c:Gene", "c:SNP")
    # a class with no outgoing edges reaches nothing
    assert index.assoc_edges["c:Gene"] == frozenset() or not any(
        association_reachable(index, "c:Gene", f"c:{c}")
        for c in ("SNP", "GeneRelativeLocation")
    )


def test_find_paths_cabio_example(cabio_context):
    paths = find_paths(cabio_context.index, "c:SNP", "c:Gene", 16)
    assert len(paths) == 1
    path = paths[0]
    assert path.node_count == 3
    assert path.steps == (
        ("c:SNP_relativeLocationCollection_GeneRelativeLocation", "c:GeneRelativeLocation"),
        ("c:GeneRelativeLocation_gene_Gene", "c:Gene"),
    )


def test_direct_edge_single_path():
    axioms = AxiomSet(
        axioms=(
            TransitiveProperty(HAS_ASSOCIATION),
            SubClassOf(Named("c:X"), Named(UML_CLASS)),
            SubClassOf(Named("c:Y"), Named(UML_CLASS)),
            SubPropertyOf("c:X_r_Y", HAS_ASSOCIATION),
            SubClassOf(Named("c:X"), Existential("c:X_r_Y", Named("c:Y"))),
        )
    )
    paths = find_paths(classify(decompose(axioms)), "c:X", "c:Y", 16)
    assert [p.steps for p in paths] == [(("c:X_r_Y", "c:Y"),)]


def test_max_nodes_validation(cabio_context):
    with pytest.raises(ValueError, match="max_nodes"):
        find_paths(cabio_context.index, "c:SNP", "c:Gene", 1)


def test_inherited_edge_law(cabio_context):
    # edges of an ancestor appear on every descendant
    index = cabio_context.index
    for name, subs in index.subsumers.items():
        if not name.startswith("c:"):
            continue
        for sup in subs:
            if sup.startswith("c:") and sup in index.assoc_edges:
                assert index.assoc_edges[sup] <= index.assoc_edges[name]


def test_inheritance_without_materialization():
    # classify derives inherited edges purely from subsumption
    axioms = AxiomSet(
        axioms=(
            TransitiveProperty(HAS_ASSOCIATION),
            SubPropertyOf("c:Base_r_T", HAS_ASSOCIATION),
            SubClassOf(Named("c:Base"), Existential("c:Base_r_T", Named("c:T"))),
            SubClassOf(Named("c:Derived"), Named("c:Base")),
        )
    )
    index = classify(decompose(axioms))
    assert ("c:Base_r_T", "c:T") in index.assoc_edges["c:Derived"]


def test_attribute_inheritance():
    axioms = AxiomSet(
        axioms=(
            SubClassOf(Named("c:Base"), Existential(HAS_ATTRIBUTE, Named("c:Base_x"))),
            SubClassOf(Named("c:Derived"), Named("c:Base")),
        )
    )
    index = classify(decompose(axioms))
    assert "c:Base_x" in index.attribute_of["c:Derived"]


def test_polymorphic_terminal_matching():
    # edge ends at c:Super; asking for c:Sub must match (and the reverse)
    axioms = AxiomSet(
        axioms=(
            TransitiveProperty(HAS_ASSOCIATION),
            SubPropertyOf("c:A_r_Super", HAS_ASSOCIATION),
            SubClassOf(Named("c:A"), Existential("c:A_r_Super", Named("c:Super"))),
            SubClassOf(Named("c:Sub"), Named("c:Super")),
        )
    )
    index = classify(decompose(axioms))
    down = find_paths(index, "c:A", "c:Sub", 16)
    up = find_paths(index, "c:A", "c:Super", 16)
    assert [p.steps for p in down] == [(("c:A_r_Super", "c:Super"),)]
    assert [p.steps for p in up] == [(("c:A_r_Super", "c:Super"),)]
    assert association_reachable(index, "c:A", "c:Sub")


def test_find_paths_oracle_equivalence_small():
    rng = random.Random(resolve_seed() + 2)
    for _ in range(25):
        nodes, edges, axioms = random_association_graph(rng, max_graph_nodes=10)
        index = classify(decompose(axioms))
        max_nodes = rng.randint(2, 6)
        source, target = rng.choice(nodes), rng.choice(nodes)
        got = find_paths(index, source, target, max_nodes)
        expected = oracle_simple_paths(
            edges, source, lambda t: target in index.subsumers[t] or t in index.subsumers[target], max_nodes
        )
        assert {p.steps for p in got} == expected
        assert len(got) == len(expected)
        keys = [(p.node_count, p.properties, p.nodes) for p in got]
        assert keys == sorted(keys)


def test_reachability_agrees_with_path_existence():
    rng = random.Random(resolve_seed() + 3)
    for _ in range(25):
        nodes, edges, axioms = random_association_graph(rng, max_graph_nodes=8)
        index = classify(decompose(axioms))
        cap = len(nodes)
        if cap < 2:
            continue
        for source in nodes:
            for target in nodes:
                has_path = bool(find_paths(index, source, target, max(cap, 2)))
                assert association_reachable(index, source, target) == has_path


def test_paths_are_simple_and_chained(cabio_context, cabio_model):
    index = cabio_context.index
    for source in (f"c:{c}" for c in cabio_model.class_names()):
        for target in (f"c:{c}" for c in cabio_model.class_names()):
            for path in find_paths(index, source, target, 16):
                nodes = path.nodes
                assert len(set(nodes)) == len(nodes)
                at = path.source_class
                for prop, rng_cls in path.steps:
                    assert (prop, rng_cls) in index.assoc_edges[at]
                    at = rng_cls


def test_classify_merged_fixture_agrees_with_oracle(cabio_model, ncit_thesaurus):
    module_axioms = thesaurus_module(cabio_model, ncit_thesaurus)
    merged = merge_axiom_sets(generate_ontology(cabio_model), module_axioms)
    index = classify(decompose(merged))
    expected = oracle_subsumers(merged)
    assert {k: set(v) for k, v in index.subsumers.items()} == expected
