"""The shared closure walk and cycle finder against the walks they replaced.

The references below copy the earlier implementations: the fixpoint module
extraction, the recursive ancestor walk and the colouring cycle check that
both loaders carried. Random inputs must give the same module axioms in the
same order, the same ancestor order, and the same cycle error text and
location.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter.metrics import path_metrics
from onco_rewriter.model import (
    ModelLoadError,
    Signature,
    ThesaurusLoadError,
    load_model,
    load_thesaurus,
)
from onco_rewriter.module_extraction import extract_module, strip_disjoints
from onco_rewriter.ontology import (
    DEFAULT_PREFIXES,
    AxiomSet,
    Named,
    SubClassOf,
    concept_name,
    generate_ontology,
)

from test_module_extraction import rendered

# --- reference implementations ---------------------------------------------


def fixpoint_extract_module(thesaurus_axioms: AxiomSet, sigma: Signature):
    relevant = {concept_name(name) for name in sigma.concept_names}
    kept: list[SubClassOf] = []
    kept_idx: set[int] = set()
    changed = True
    while changed:
        changed = False
        for i, axiom in enumerate(thesaurus_axioms.axioms):
            if i in kept_idx:
                continue
            if axiom.sub.name in relevant:
                kept_idx.add(i)
                kept.append(axiom)
                relevant.add(axiom.sup.name)
                changed = True
    return tuple(a for a in thesaurus_axioms.axioms if a in set(kept))


def recursive_ancestors(supers: dict[str, list[str]], class_name: str) -> tuple[str, ...]:
    seen: list[str] = []

    def visit(name: str) -> None:
        for sup in supers[name]:
            if sup not in seen:
                seen.append(sup)
                visit(sup)

    visit(class_name)
    return tuple(seen)


def colouring_cycle(parents: dict[str, list[str]]) -> list[str] | None:
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {name: WHITE for name in parents}
    for start in parents:
        if colour[start] != WHITE:
            continue
        stack = [(start, 0)]
        colour[start] = GREY
        path = [start]
        while stack:
            name, idx = stack[-1]
            if idx < len(parents[name]):
                stack[-1] = (name, idx + 1)
                nxt = parents[name][idx]
                if colour[nxt] == GREY:
                    return path + [nxt]
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, 0))
                    path.append(nxt)
            else:
                colour[name] = BLACK
                stack.pop()
                path.pop()
    return None


def check_generalization_acyclic(supers: dict[str, list[str]]) -> None:
    cycle = colouring_cycle(supers)
    if cycle is not None:
        raise ModelLoadError(f"generalization cycle: {' -> '.join(cycle)}", f"class '{cycle[-1]}'")


def check_subsumption_acyclic(subsumptions: list[tuple[str, str]]) -> None:
    parents: dict[str, list[str]] = {}
    for child, parent in subsumptions:
        parents.setdefault(child, []).append(parent)
        parents.setdefault(parent, [])
    cycle = colouring_cycle(parents)
    if cycle is not None:
        raise ThesaurusLoadError(f"subsumption cycle: {' -> '.join(cycle)}")


# --- random inputs -----------------------------------------------------------


@st.composite
def graphs(draw, acyclic: bool):
    """Names in a random declaration order and an ordered edge list; an
    acyclic graph only points from a name to names drawn before it."""
    size = draw(st.integers(min_value=1, max_value=12))
    names = [f"C{i}" for i in draw(st.permutations(range(size)))]
    edges: list[tuple[str, str]] = []
    for i, name in enumerate(names):
        pool = names[:i] if acyclic else names
        if pool:
            edges += [(name, p) for p in draw(st.lists(st.sampled_from(pool), max_size=3))]
    return names, draw(st.permutations(edges))


def model_document(names, edges) -> str:
    supers: dict[str, list[str]] = {name: [] for name in names}
    for child, parent in edges:
        if parent not in supers[child]:
            supers[child].append(parent)
    classes = [{"name": name, "superclasses": supers[name]} for name in names]
    return json.dumps({"project": "t", "version": "1", "packagePrefix": "p", "classes": classes})


def thesaurus_document(names, edges) -> str:
    lines = [f"CONCEPT {name}" for name in names]
    return "\n".join(lines + [f"SUB {child} {parent}" for child, parent in edges])


def raised(fn, *args):
    try:
        fn(*args)
    except (ModelLoadError, ThesaurusLoadError) as exc:
        where = getattr(exc, "location", None), getattr(exc, "line", None)
        return type(exc).__name__, str(exc), where
    return None


# --- differential tests ------------------------------------------------------


@settings(deadline=None)
@given(graphs(acyclic=True), st.data())
def test_module_matches_fixpoint_reference(graph, data):
    names, edges = graph
    pairs = strip_disjoints(load_thesaurus(thesaurus_document(names, edges)))
    stripped = rendered(pairs)
    sigma = Signature(
        concept_names=frozenset(data.draw(st.lists(st.sampled_from(names + ["Absent"]))))
    )
    module = rendered(extract_module(pairs, sigma))
    assert module.axioms == fixpoint_extract_module(stripped, sigma)
    assert isinstance(module, AxiomSet)
    assert module.prefixes == {"n": DEFAULT_PREFIXES["n"]}


@settings(deadline=None)
@given(graphs(acyclic=True))
def test_ancestors_match_recursive_reference(graph):
    names, edges = graph
    model = load_model(model_document(names, edges))
    supers = {cls.name: list(cls.superclasses) for cls in model.classes}
    for name in names:
        assert model.ancestors(name) == recursive_ancestors(supers, name)


@settings(deadline=None)
@given(st.booleans().flatmap(lambda acyclic: graphs(acyclic=acyclic)))
def test_generalization_cycle_error_matches_reference(graph):
    names, edges = graph
    document = model_document(names, edges)
    supers = {cls["name"]: cls["superclasses"] for cls in json.loads(document)["classes"]}
    assert raised(load_model, document) == raised(check_generalization_acyclic, supers)


@settings(deadline=None)
@given(st.booleans().flatmap(lambda acyclic: graphs(acyclic=acyclic)))
def test_subsumption_cycle_error_matches_reference(graph):
    names, edges = graph
    subsumptions: list[tuple[str, str]] = []
    for child, parent in edges:
        if child != parent and (child, parent) not in subsumptions:
            subsumptions.append((child, parent))
    expected = raised(check_subsumption_acyclic, subsumptions)
    assert raised(load_thesaurus, thesaurus_document(names, edges)) == expected


# --- depth regression --------------------------------------------------------


def test_long_generalization_chain_needs_no_recursion():
    # deeper than the interpreter's default recursion limit
    size = 1500
    classes = [{"name": "C0"}] + [
        {"name": f"C{i}", "superclasses": [f"C{i - 1}"]} for i in range(1, size)
    ]
    model = load_model(
        json.dumps({"project": "t", "version": "1", "packagePrefix": "p", "classes": classes})
    )
    assert model.ancestors(f"C{size - 1}") == tuple(f"C{i}" for i in range(size - 2, -1, -1))
    ontology = generate_ontology(model)
    assert SubClassOf(Named("c:C1"), Named("c:C0")) in ontology.axioms
    assert path_metrics(model).path_count == 0
