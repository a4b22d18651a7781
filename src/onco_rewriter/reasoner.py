"""Saturation reasoning over the facts of a generated EL ontology.

classify() computes three relations in polynomial time: the reflexive and
transitively closed named subsumption, the attribute classes each class can
reach through hasAttribute (inherited included), and the association edges
each class carries (inherited included, ranges kept as declared). It takes
``Facts`` (the class names, direct superclasses, edges and attributes),
which preparation reads straight from the model and the thesaurus module.
Subsumption is closed over the condensation of the direct-superclass graph
in one depth-first pass (Tarjan's strongly connected components, each
finished after every component it reaches), so the members of a cycle share
one subsumer set. Edges and attributes are inherited only from the subsumers
that carry some; a name that inherits none gets the one shared empty set.
Transitive reachability over the edges is not precomputed: it is answered
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
and a final sort fixes the order of the paths it finds. A caller may cap the
walk: it then stops one path past the cap, since counting simple paths has
no cheap shortcut. The complete lists of capped walks are kept on the index
per (source, target, node budget), so a prepared model lists each pair's
paths once, and no kept list is longer than the cap it was walked under.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from .model import closure
from .ontology import Facts


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
    # complete path lists walked under a cap, per (source, target, max_nodes)
    paths: dict[tuple[str, str, int], tuple[AssociationPath, ...]] = field(
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


def classify(facts: Facts) -> SubsumptionIndex:
    """Saturate the facts (``ontology.ontology_facts`` for a prepared model,
    read without rendering any axiom) into a SubsumptionIndex: named
    subsumption is closed over the strongly connected components of the
    direct-superclass graph (``_close``), cycles permitted, and each name
    inherits the edges and attributes of those of its subsumers that carry
    some."""
    names, direct_sup, direct_edges, direct_attrs = facts
    subsumers = _close(names, direct_sup)

    # inherit edges and attributes from the subsumers that carry some
    carriers = direct_edges.keys() | direct_attrs.keys()
    empty: frozenset = frozenset()
    assoc_edges: dict[str, frozenset[tuple[str, str]]] = {}
    attribute_of: dict[str, frozenset[str]] = {}
    for name, sups in subsumers.items():
        carrying = sups & carriers
        if carrying:
            assoc_edges[name] = frozenset().union(*(direct_edges.get(c, ()) for c in carrying))
            attribute_of[name] = frozenset().union(*(direct_attrs.get(c, ()) for c in carrying))
        else:
            assoc_edges[name] = attribute_of[name] = empty

    return SubsumptionIndex(
        subsumers=subsumers, attribute_of=attribute_of, assoc_edges=assoc_edges
    )


def _close(names: set[str], direct_sup: dict[str, set[str]]) -> dict[str, frozenset[str]]:
    """The reflexive-transitive closure of named subsumption (cycles
    permitted), over the strongly connected components of the direct
    superclass graph. Tarjan's depth-first walk finishes a component only
    after every component it reaches, so a component's subsumers are its
    members plus its direct superclasses' subsumers, and all its members
    share one frozenset."""
    subsumers = {name: frozenset((name,)) for name in names if name not in direct_sup}
    low: dict[str, int] = {}  # the lowest walk number each visited name reaches
    path: list[str] = []  # the names of unfinished components, in walk order
    for root in direct_sup:
        if root in low:
            continue
        # a frame: a name, its superclasses left to walk, its place on path, its walk number
        work = [(root, iter(direct_sup[root]), len(path), len(low))]
        low[root] = len(low)
        path.append(root)
        while work:
            node, sups, at, number = work[-1]
            for sup in sups:
                if sup in subsumers:
                    continue
                seen = low.get(sup)
                if seen is None:
                    work.append((sup, iter(direct_sup[sup]), len(path), len(low)))
                    low[sup] = len(low)
                    path.append(sup)
                    break
                if seen < low[node]:
                    low[node] = seen
            else:
                work.pop()
                if low[node] < number:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                    continue
                members = path[at:]
                del path[at:]
                closed = set(members)
                for member in members:
                    for sup in direct_sup[member]:
                        # a name already in the set brings no new subsumer
                        if sup not in closed:
                            closed |= subsumers[sup]
                shared = frozenset(closed)
                for member in members:
                    subsumers[member] = shared
    return subsumers


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
    return not (reach(index, source) & _toward(index, target)[0]) <= {source}


def reach(index: SubsumptionIndex, source: str) -> frozenset[str]:
    """The classes association steps lead to from ``source``, kept in ``index.reach``."""
    reached = index.reach.get(source)
    if reached is None:
        def targets(name: str) -> list[str]:
            return [r for _, r in index.assoc_edges[name]]

        reached = index.reach[source] = frozenset(closure(targets(source), targets))
    return reached


def find_paths(
    index: SubsumptionIndex,
    source: str,
    target: str,
    max_nodes: int = 16,
    cap: int | None = None,
) -> list[AssociationPath]:
    """All simple association paths from source to a class matching target.

    Intermediate steps follow declared ranges verbatim; only the final step
    matches target polymorphically. The walk is depth-first over an explicit
    stack, taking edges in stored order. It extends a path through a range
    only when the fewest steps from that range to a match (the target's
    memoised distance table) still fit in the node budget, and only while a
    match off the path is left to end at, so it never walks toward a match
    it cannot reach. The results are then sorted by node
    count, then lexicographically by property and range names, a key that
    tells any two paths apart.

    With a ``cap``, the walk stops once it holds ``cap + 1`` paths and
    returns those unsorted, so ``len(paths) > cap`` reads "more than cap". A
    complete list walked under a cap is kept in ``index.paths``, and a kept
    list answers every later call for its (source, target, max_nodes), cut
    to ``cap + 1`` paths under a smaller cap. A cut list is never kept.
    """
    key = (source, target, max_nodes)
    kept = index.paths.get(key)
    if kept is not None:
        return list(kept[: None if cap is None else cap + 1])
    if max_nodes < 2:
        raise ValueError("max_nodes must be at least 2")
    _require_known(index, source, target)

    matches, need = _toward(index, target)
    edges_into = index.edges_into
    # the matches a path can still end at: ranges, and off the path
    open_ends = sum(1 for name in matches if name in edges_into and name != source)
    found: list[AssociationPath] = []
    steps: list[tuple[str, str]] = []
    visited: set[str] = {source}
    stack = [iter(index.assoc_edges[source])] if source in need else []
    while stack:
        # the most steps a range taken next may still need to reach a match
        room = max_nodes - len(steps) - 2
        for prop, rng in stack[-1]:
            if rng in visited:
                continue
            if rng in matches:
                found.append(AssociationPath(source_class=source, steps=(*steps, (prop, rng))))
                if cap is not None and len(found) > cap:
                    return found
            if need.get(rng, max_nodes) <= room and open_ends > (rng in matches):
                steps.append((prop, rng))
                visited.add(rng)
                open_ends -= rng in matches
                stack.append(iter(index.assoc_edges[rng]))
                break
        else:
            stack.pop()
            if steps:
                rng = steps.pop()[1]
                visited.discard(rng)
                open_ends += rng in matches
    found.sort(key=lambda p: (p.node_count, p.properties, p.nodes))
    if cap is not None:
        index.paths[key] = tuple(found)
    return found
