"""Deterministic synthetic fixtures: the 40-class benchmark model and seeded
random generators used by the verification suite.

Every generator takes an explicit ``random.Random``; seeds resolve through
the ``ONCO_REWRITER_SEED`` environment variable so runs stay reproducible.
"""

from __future__ import annotations

import os
import random

from .cql import (
    LOGICAL_OPS,
    PREDICATES,
    VALUELESS_PREDICATES,
    CqlAssociation,
    CqlAttribute,
    CqlGroup,
    CqlQuery,
    CqlTarget,
)
from .model import (
    Annotation,
    Thesaurus,
    UMLAssociation,
    UMLAttribute,
    UMLClass,
    UMLModel,
    load_thesaurus,
)
from .ontology import (
    HAS_ASSOCIATION,
    AxiomSet,
    Conjunction,
    Existential,
    Named,
    SubClassOf,
    SubPropertyOf,
    TransitiveProperty,
)
from .pipeline import (
    And,
    HasAssociationSome,
    HasAttributeSome,
    HasValueEquals,
    QueryNode,
    UmlAttributeRef,
    UmlClassRef,
)

DEFAULT_SEED = 1729


def resolve_seed(seed: int | None = None) -> int:
    if seed is not None:
        return seed
    return int(os.environ.get("ONCO_REWRITER_SEED", DEFAULT_SEED))


# --- benchmark model ----------------------------------------------------------


def benchmark_model() -> tuple[UMLModel, Thesaurus, list[str], list[str]]:
    """A deterministic 40-class model with two query groups.

    Group one queries traverse a single direct association. Group two
    queries traverse a two-step chain whose middle classes also open into a
    shared diamond-ladder decoy fabric whose tail leads back to every middle
    class. From the fabric a target is reachable only through the middle
    class already on the path, so a search that walks only toward a
    reachable target still walks every simple decoy route and finds
    nothing: path finding has strictly more work to do while every other
    stage sees structurally identical queries.
    Returns (model, thesaurus, length-one queries, length-two queries).
    """
    classes: list[UMLClass] = []
    associations: list[UMLAssociation] = []
    concepts: list[str] = ["Root"]
    thesaurus_lines: list[str] = []

    def concept_for(name: str) -> str:
        concept = f"Cpt{name}"
        concepts.append(concept)
        thesaurus_lines.append(f"SUB {concept} Root")
        return concept

    def plain_class(name: str) -> None:
        classes.append(UMLClass(name=name, annotation=Annotation(primary=concept_for(name))))

    def target_class(name: str) -> None:
        attributes = tuple(
            UMLAttribute(
                name=attr,
                datatype="string",
                annotation=Annotation(primary=concept_for(f"{name}{attr.upper()}")),
            )
            for attr in ("a", "b", "c", "d", "e")
        )
        classes.append(
            UMLClass(
                name=name,
                attributes=attributes,
                annotation=Annotation(primary=concept_for(name)),
            )
        )

    group_one: list[str] = []
    group_two: list[str] = []

    for i in range(5):
        source, target = f"AlphaS{i}", f"AlphaT{i}"
        plain_class(source)
        target_class(target)
        associations.append(UMLAssociation(source=source, role_name="link", target=target))
        group_one.append(_benchmark_query(source, target))

    for i in range(5):
        source, middle, target = f"BetaS{i}", f"BetaM{i}", f"BetaT{i}"
        plain_class(source)
        plain_class(middle)
        target_class(target)
        associations.append(UMLAssociation(source=source, role_name="step", target=middle))
        associations.append(UMLAssociation(source=middle, role_name="link", target=target))
        associations.append(UMLAssociation(source=middle, role_name="side", target="Fabric0"))
        group_two.append(_benchmark_query(source, target))

    # shared decoy fabric: four stacked diamonds and a tail, 15 classes;
    # simple-path counts double per diamond, and each route ends back at
    # the middle classes, so it reaches a target only through one of them
    plain_class("Fabric0")
    for d in range(4):
        for arm in ("A", "B"):
            plain_class(f"Fabric{d}{arm}")
        plain_class(f"Fabric{d + 1}")
        for arm in ("A", "B"):
            associations.append(
                UMLAssociation(source=f"Fabric{d}", role_name=f"fork{arm}", target=f"Fabric{d}{arm}")
            )
            associations.append(
                UMLAssociation(source=f"Fabric{d}{arm}", role_name="join", target=f"Fabric{d + 1}")
            )
    plain_class("FabricTail0")
    plain_class("FabricTail1")
    associations.append(UMLAssociation(source="Fabric4", role_name="tail", target="FabricTail0"))
    associations.append(UMLAssociation(source="FabricTail0", role_name="tail", target="FabricTail1"))
    for i in range(5):
        associations.append(
            UMLAssociation(source="FabricTail1", role_name=f"back{i}", target=f"BetaM{i}")
        )

    thesaurus_text = "\n".join(
        [f"CONCEPT {c}" for c in concepts] + thesaurus_lines
    )
    model = UMLModel(
        project_name="benchmark",
        version="1.0",
        package_prefix="org.example.benchmark",
        classes=tuple(classes),
        associations=tuple(associations),
    )
    assert len(model.classes) == 40
    return model, load_thesaurus(thesaurus_text), group_one, group_two


def _benchmark_query(source: str, target: str) -> str:
    restrictions = " and ".join(
        f'hasAttribute some (Cpt{target}{attr.upper()} and hasValue value "v{attr}")'
        for attr in ("a", "b", "c", "d", "e")
    )
    return f"Cpt{source} and hasAssociation some (Cpt{target} and {restrictions})"


# --- random EL axiom sets -------------------------------------------------------


def random_el_axiom_set(rng: random.Random, max_axioms: int = 50) -> AxiomSet:
    """A random EL axiom set over a small name pool: named subsumptions,
    conjunctions, existential restrictions and a property hierarchy rooted in
    the upper association property. Cycles are permitted."""
    class_names = [f"c:N{i}" for i in range(rng.randint(4, 12))]
    properties = [f"c:p{i}" for i in range(rng.randint(1, 4))]
    axioms: list = [TransitiveProperty(HAS_ASSOCIATION)]
    for prop in properties:
        if rng.random() < 0.7:
            axioms.append(SubPropertyOf(prop, HAS_ASSOCIATION))

    def random_expr(depth: int):
        choice = rng.random()
        if depth <= 0 or choice < 0.45:
            return Named(rng.choice(class_names))
        if choice < 0.75:
            parts = tuple(random_expr(depth - 1) for _ in range(rng.randint(2, 3)))
            return Conjunction(parts)
        return Existential(rng.choice(properties), Named(rng.choice(class_names)))

    count = rng.randint(3, max_axioms - len(axioms))
    seen = set(axioms)
    for _ in range(count):
        axiom = SubClassOf(Named(rng.choice(class_names)), random_expr(2))
        if axiom not in seen:
            seen.add(axiom)
            axioms.append(axiom)
    return AxiomSet(axioms=tuple(axioms))


def random_association_graph(
    rng: random.Random, max_graph_nodes: int = 20, edge_factor: float = 1.5
) -> tuple[list[str], list[tuple[str, str, str]], AxiomSet]:
    """A random directed multigraph rendered as association axioms. Returns
    (nodes, edges as (source, property, target), axiom set)."""
    node_count = rng.randint(3, max_graph_nodes)
    nodes = [f"c:G{i}" for i in range(node_count)]
    edge_count = rng.randint(node_count // 2, int(node_count * edge_factor))
    edges: list[tuple[str, str, str]] = []
    used: set[tuple[str, str]] = set()
    for k in range(edge_count):
        source, target = rng.choice(nodes), rng.choice(nodes)
        if source == target:
            continue
        prop = f"c:e{k}"
        if (source, prop) in used:
            continue
        used.add((source, prop))
        edges.append((source, prop, target))
    axioms: list = [TransitiveProperty(HAS_ASSOCIATION)]
    for node in nodes:
        axioms.append(SubClassOf(Named(node), Named("u:UMLClass")))
    for source, prop, target in edges:
        axioms.append(SubPropertyOf(prop, HAS_ASSOCIATION))
        axioms.append(SubClassOf(Named(source), Existential(prop, Named(target))))
    return nodes, edges, AxiomSet(axioms=tuple(axioms))


# --- random thesauri --------------------------------------------------------------


def random_thesaurus(rng: random.Random, max_axioms: int = 200) -> Thesaurus:
    """A random acyclic thesaurus: subsumption edges always point from a
    higher-numbered concept to a lower-numbered one."""
    concept_count = rng.randint(5, max(6, max_axioms // 2))
    names = [f"T{i}" for i in range(concept_count)]
    lines = [f"CONCEPT {name}" for name in names]
    axiom_count = rng.randint(0, max_axioms)
    seen: set[tuple[int, int]] = set()
    for _ in range(axiom_count):
        child = rng.randrange(1, concept_count)
        parent = rng.randrange(0, child)
        if (child, parent) in seen:
            continue
        seen.add((child, parent))
        lines.append(f"SUB {names[child]} {names[parent]}")
    if concept_count >= 2 and rng.random() < 0.5:
        a, b = rng.sample(range(concept_count), 2)
        lines.append(f"DISJOINT {names[a]} {names[b]}")
    return load_thesaurus("\n".join(lines))


# --- random models and satisfiable queries ------------------------------------------


def random_annotated_model(rng: random.Random) -> tuple[UMLModel, Thesaurus]:
    """A random annotated model whose concepts map one-to-one onto classes
    and attributes, with a thesaurus giving every concept a parent."""
    class_count = rng.randint(3, 8)
    classes: list[UMLClass] = []
    concepts: list[str] = ["Top"]
    lines: list[str] = []
    for i in range(class_count):
        name = f"C{i}"
        concept = f"K{i}"
        concepts.append(concept)
        lines.append(f"SUB {concept} Top")
        attributes = []
        for j in range(rng.randint(0, 2)):
            attr_concept = f"KA{i}x{j}"
            concepts.append(attr_concept)
            lines.append(f"SUB {attr_concept} Top")
            attributes.append(
                UMLAttribute(
                    name=f"f{j}",
                    datatype=rng.choice(("string", "integer")),
                    annotation=Annotation(primary=attr_concept),
                )
            )
        classes.append(
            UMLClass(
                name=name,
                attributes=tuple(attributes),
                annotation=Annotation(primary=concept),
            )
        )
    associations: list[UMLAssociation] = []
    used: set[tuple[str, str]] = set()
    for k in range(rng.randint(class_count - 1, class_count * 2)):
        source = rng.choice(classes).name
        target = rng.choice(classes).name
        if source == target:
            continue
        role = f"r{k}"
        if (source, role) in used:
            continue
        used.add((source, role))
        associations.append(UMLAssociation(source=source, role_name=role, target=target))
    model = UMLModel(
        project_name="synthetic",
        version="1.0",
        package_prefix="org.example.synthetic",
        classes=tuple(classes),
        associations=tuple(associations),
    )
    thesaurus = load_thesaurus(
        "\n".join([f"CONCEPT {c}" for c in concepts] + lines)
    )
    return model, thesaurus


def random_satisfiable_query(rng: random.Random, model: UMLModel) -> str | None:
    """A query text built from the model so the pipeline must succeed:
    optionally an attribute filter, optionally an association walk to a
    reachable class. Returns None when the model offers nothing usable."""

    def attribute_restriction(cls: UMLClass) -> str | None:
        annotated = [a for a in cls.attributes if a.annotation is not None]
        if not annotated:
            return None
        attr = rng.choice(annotated)
        literal = rng.choice(["v1", "BRCA%", "x_y", "plain"])
        return f'hasAttribute some ({attr.annotation.primary} and hasValue value "{literal}")'

    annotated_classes = [c for c in model.classes if c.annotation is not None]
    if not annotated_classes:
        return None
    source = rng.choice(annotated_classes)
    parts = [source.annotation.primary]
    if rng.random() < 0.5:
        restriction = attribute_restriction(source)
        if restriction:
            parts.append(restriction)
    # optional association walk of one to three steps
    if rng.random() < 0.8:
        outgoing = {c.name: model.associations_from(c.name) for c in model.classes}
        current = source.name
        visited = {current}
        target_cls = None
        for _ in range(rng.randint(1, 3)):
            candidates = [a for a in outgoing[current] if a.target not in visited]
            if not candidates:
                break
            step = rng.choice(candidates)
            current = step.target
            visited.add(current)
            target_cls = model.class_named(current)
        if target_cls is not None and target_cls.annotation is not None:
            inner = [target_cls.annotation.primary]
            restriction = attribute_restriction(target_cls)
            if restriction:
                inner.append(restriction)
            parts.append(f"hasAssociation some ({' and '.join(inner)})")
    if len(parts) == 1:
        return parts[0]
    return " and ".join(parts)


# --- random CQL ASTs ------------------------------------------------------------------


def random_cql_query(rng: random.Random, max_depth: int = 4) -> CqlQuery:
    """A random grammar-valid CQL AST, including awkward attribute values."""

    def random_value() -> str:
        alphabet = "abcXYZ0189 %_<>&\"'\t\n"
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))

    def random_attribute() -> CqlAttribute:
        predicate = rng.choice(PREDICATES)
        value = None if predicate in VALUELESS_PREDICATES else random_value()
        return CqlAttribute(name=f"attr{rng.randint(0, 9)}", predicate=predicate, value=value)

    def random_child(depth: int):
        roll = rng.random()
        if depth <= 0 or roll < 0.4:
            return random_attribute()
        if roll < 0.8:
            return CqlAssociation(
                name=f"org.example.C{rng.randint(0, 9)}",
                role_name=f"role{rng.randint(0, 9)}",
                child=random_child(depth - 1) if rng.random() < 0.7 else None,
            )
        return CqlGroup(
            logical_op=rng.choice(LOGICAL_OPS),
            items=tuple(random_child(depth - 1) for _ in range(rng.randint(2, 4))),
        )

    target = CqlTarget(
        name=f"org.example.C{rng.randint(0, 9)}",
        child=random_child(max_depth) if rng.random() < 0.9 else None,
    )
    return CqlQuery(target=target)


# --- random resolved query trees -------------------------------------------------------


def random_resolved_tree(rng: random.Random, max_depth: int = 3) -> QueryNode:
    """A random resolved query tree in validated shape: class contexts hold
    one class reference plus restrictions; attribute contexts hold one
    attribute reference plus data values."""
    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"c:{prefix}{counter[0]}"

    def attribute_restriction() -> HasAttributeSome:
        parts: list[QueryNode] = [UmlAttributeRef(fresh("Attr"))]
        for _ in range(rng.randint(0, 2)):
            parts.append(HasValueEquals(rng.choice(["TGFB1", "BRCA%", "x y", "0"])))
        rng.shuffle(parts)
        inner = parts[0] if len(parts) == 1 else And(tuple(parts))
        return HasAttributeSome(inner)

    def class_context(depth: int) -> QueryNode:
        parts: list[QueryNode] = [UmlClassRef(fresh("Cls"))]
        for _ in range(rng.randint(0, 2)):
            parts.append(attribute_restriction())
        if depth > 0:
            for _ in range(rng.randint(0, 2)):
                parts.append(HasAssociationSome(class_context(depth - 1)))
        rng.shuffle(parts)
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts))

    return class_context(max_depth)
