"""Saturation reasoning over generated EL axiom sets.

classify() computes three relations in polynomial time: the reflexive and
transitively closed named subsumption, the attribute classes each class can
reach through hasAttribute (inherited included), and the association edges
each class carries (inherited included, ranges kept as declared).
Transitive reachability over those edges is not precomputed: it is answered
per source on the first query for that source and kept on the index.

Association ranges stay verbatim on edges; widening a range to one of its
superclasses is handled at the point of matching instead (a reachability or
path query matches a terminal class polymorphically, in either subsumption
direction). The classes matching a target, and the fewest association steps
from each class to one of them, are likewise computed on the first query for
that target and kept on the index; they come from one reverse breadth-first
search over two inverse maps (subclasses of a name, sources of the edges
into a range) that are built once per index on first use. The subclass map
also answers umlExtract: the UML classes a query concept subsumes.

Path enumeration is exhaustive over simple paths up to a node budget, so a
query over the transitive association abstraction can be rewritten into
every concrete role chain that realizes it. The walk keeps its own stack, so
the budget, not the interpreter's recursion limit, bounds the path length;
it extends a path only toward a match it can still reach within the budget,
and a final sort fixes the order of the paths it finds.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from .model import closure
from .ontology import (
    HAS_ASSOCIATION,
    HAS_ATTRIBUTE,
    AxiomSet,
    Conjunction,
    DataExistential,
    Existential,
    Named,
    SubClassOf,
    SubPropertyOf,
    TransitiveProperty,
    el_conformance_report,
)


class ReasonerError(ValueError):
    pass


class UnknownNameError(KeyError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown class name '{name}'")


@dataclass(frozen=True)
class AssociationPath:
    """A concrete chain of association steps.

    Each step is (property, declared range class); the chain starts at
    source_class and never revisits a class.
    """

    source_class: str
    steps: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.steps:
            raise ReasonerError("a path needs at least one step")

    @property
    def node_count(self) -> int:
        return 1 + len(self.steps)

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.source_class,) + tuple(r for _, r in self.steps)

    @property
    def properties(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self.steps)


@dataclass(frozen=True)
class SubsumptionIndex:
    subsumers: dict[str, frozenset[str]]
    attribute_of: dict[str, frozenset[str]]
    assoc_edges: dict[str, frozenset[tuple[str, str]]]
    # classes reachable through association edges, filled per queried source
    reach: dict[str, frozenset[str]] = field(default_factory=dict, compare=False, repr=False)
    # per queried target: the classes matching it, and the fewest association
    # steps (at least one) from a class to one of them
    toward: dict[str, tuple[frozenset[str], dict[str, int]]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def known(self, name: str) -> bool:
        return name in self.subsumers

    @cached_property
    def subclasses(self) -> dict[str, list[str]]:
        """The names each name subsumes, itself included."""
        subs: defaultdict[str, list[str]] = defaultdict(list)
        for name, sups in self.subsumers.items():
            for sup in sups:
                subs[sup].append(name)
        return dict(subs)

    @cached_property
    def edges_into(self) -> dict[str, list[str]]:
        """The classes carrying an association edge into each range."""
        sources: defaultdict[str, list[str]] = defaultdict(list)
        for name, edges in self.assoc_edges.items():
            for rng in {rng for _, rng in edges}:
                sources[rng].append(name)
        return dict(sources)


def _decompose(lhs: str, expr, named_out, exist_out) -> None:
    """Split a right-hand side into named subsumers and existential parts."""
    if isinstance(expr, Named):
        named_out.append((lhs, expr.name))
    elif isinstance(expr, Conjunction):
        for part in expr.parts:
            _decompose(lhs, part, named_out, exist_out)
    elif isinstance(expr, Existential):
        exist_out.append((lhs, expr.property_name, expr.filler))
    elif isinstance(expr, DataExistential):
        pass  # datatype restrictions carry no class information
    else:
        raise ReasonerError(f"non-EL expression {type(expr).__name__}")


def classify(axiom_set: AxiomSet) -> SubsumptionIndex:
    """Saturate the axiom set into a SubsumptionIndex."""
    violations = el_conformance_report(axiom_set)
    if violations:
        raise ReasonerError(f"non-EL axiom encountered: {violations[0]}")

    named_subs: list[tuple[str, str]] = []
    existentials: list[tuple[str, str, object]] = []
    prop_parents: dict[str, set[str]] = {}
    names = axiom_set.class_names()

    for axiom in axiom_set.axioms:
        if isinstance(axiom, SubClassOf):
            if not isinstance(axiom.sub, Named):
                raise ReasonerError("subclass axioms must have a named left-hand side")
            _decompose(axiom.sub.name, axiom.sup, named_subs, existentials)
        elif isinstance(axiom, SubPropertyOf):
            prop_parents.setdefault(axiom.sub, set()).add(axiom.sup)
            prop_parents.setdefault(axiom.sup, set())
        elif isinstance(axiom, TransitiveProperty):
            prop_parents.setdefault(axiom.property_name, set())

    # reflexive-transitive closure of the property hierarchy
    prop_subsumers = {prop: set(closure([prop], prop_parents.__getitem__)) for prop in prop_parents}

    def under_association(prop: str) -> bool:
        return HAS_ASSOCIATION in prop_subsumers.get(prop, {prop})

    # direct relations prior to closure
    direct_sup: defaultdict[str, set[str]] = defaultdict(set)
    direct_edges: defaultdict[str, set[tuple[str, str]]] = defaultdict(set)
    direct_attrs: defaultdict[str, set[str]] = defaultdict(set)
    for sub, sup in named_subs:
        direct_sup[sub].add(sup)
    for lhs, prop, filler in existentials:
        # compound fillers (noted qualifier lists) contribute no index entries
        if isinstance(filler, Named):
            if prop == HAS_ATTRIBUTE:
                direct_attrs[lhs].add(filler.name)
            elif under_association(prop):
                direct_edges[lhs].add((prop, filler.name))

    # reflexive-transitive closure of named subsumption (cycles permitted)
    subsumers = {name: frozenset(closure([name], direct_sup.__getitem__)) for name in names}

    # inherit edges and attributes down the subsumption hierarchy
    assoc_edges: dict[str, frozenset[tuple[str, str]]] = {}
    attribute_of: dict[str, frozenset[str]] = {}
    for name in names:
        edges: set[tuple[str, str]] = set()
        attrs: set[str] = set()
        for sup in subsumers[name]:
            edges.update(direct_edges.get(sup, ()))
            attrs.update(direct_attrs.get(sup, ()))
        assoc_edges[name] = frozenset(edges)
        attribute_of[name] = frozenset(attrs)

    return SubsumptionIndex(
        subsumers=subsumers, attribute_of=attribute_of, assoc_edges=assoc_edges
    )


def _require_known(index: SubsumptionIndex, *names: str) -> None:
    for name in names:
        if not index.known(name):
            raise UnknownNameError(name)


def entails_subclass(index: SubsumptionIndex, sub: str, sup: str) -> bool:
    _require_known(index, sub, sup)
    return sup in index.subsumers[sub]


def _toward(index: SubsumptionIndex, target: str) -> tuple[frozenset[str], dict[str, int]]:
    """The classes matching target in either subsumption direction, and the
    fewest association steps (at least one) from each class that has a walk
    to one of them. The walk need not be simple, so the count never exceeds
    the length of a simple path."""
    tables = index.toward.get(target)
    if tables is None:
        matches = index.subsumers[target].union(index.subclasses[target])
        edges_into = index.edges_into
        need: dict[str, int] = {}
        frontier = list(matches)
        steps = 0
        while frontier:
            steps += 1
            reached = []
            for name in frontier:
                for src in edges_into.get(name, ()):
                    if src not in need:
                        need[src] = steps
                        reached.append(src)
            frontier = reached
        tables = index.toward[target] = (matches, need)
    return tables


def association_reachable(index: SubsumptionIndex, source: str, target: str) -> bool:
    """True when target is reachable from source through one or more
    association steps, matching the terminal class in either subsumption
    direction.

    Reachability here mirrors path enumeration, which only returns simple
    paths: a class sitting on a cycle does not reach itself.
    """
    _require_known(index, source, target)
    reached_set = index.reach.get(source)
    if reached_set is None:
        def targets(name: str) -> list[str]:
            return [r for _, r in index.assoc_edges[name]]

        reached_set = index.reach[source] = frozenset(closure(targets(source), targets))
    return not (reached_set & _toward(index, target)[0]) <= {source}


def find_paths(
    index: SubsumptionIndex, source: str, target: str, max_nodes: int = 16
) -> list[AssociationPath]:
    """All simple association paths from source to a class matching target.

    Intermediate steps follow declared ranges verbatim; only the final step
    matches target polymorphically. The walk is depth-first over an explicit
    stack, taking edges in stored order. It extends a path through a range
    only when the fewest steps from that range to a match (the target's
    memoised distance table) still fit in the node budget, so it never walks
    toward a match it cannot reach. The results are then sorted by node
    count, then lexicographically by property and range names, a key that
    tells any two paths apart.
    """
    if max_nodes < 2:
        raise ValueError("max_nodes must be at least 2")
    _require_known(index, source, target)

    matches, need = _toward(index, target)
    if source not in need:
        return []
    found: list[AssociationPath] = []
    steps: list[tuple[str, str]] = []
    visited: set[str] = {source}
    stack = [iter(index.assoc_edges[source])]
    while stack:
        # the most steps a range taken next may still need to reach a match
        room = max_nodes - len(steps) - 2
        for prop, rng in stack[-1]:
            if rng in visited:
                continue
            if rng in matches:
                found.append(AssociationPath(source_class=source, steps=(*steps, (prop, rng))))
            if need.get(rng, max_nodes) <= room:
                steps.append((prop, rng))
                visited.add(rng)
                stack.append(iter(index.assoc_edges[rng]))
                break
        else:
            stack.pop()
            if steps:
                visited.discard(steps.pop()[1])
    found.sort(key=lambda p: (p.node_count, p.properties, p.nodes))
    return found
