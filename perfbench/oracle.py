"""Expected rewrite outcomes computed straight from the input documents.

This is the benchmark's independent reference. It reads the model JSON and
the thesaurus text itself, enumerates association paths with networkx rather
than ``onco_rewriter.reasoner``, and predicts for a chain query either the
set of (concept choices, role chains) the rewriter must emit, or the error
class and stage of the rejection it must raise. The rules it encodes:

* a concept in class position matches every UML class whose own or inherited
  annotation primary lies at or below the concept; in attribute position it
  matches every attribute class whose annotation primary does;
* a class has its own associations plus those of every ancestor, with ranges
  kept as declared;
* a reached class matches a wanted class when either is an ancestor-or-self
  of the other; paths are simple and have at most ``MAX_NODES`` classes;
* more than ``LIMIT`` class choices is a rejection in ``umlExtract``, more
  than ``LIMIT`` expansions in total a rejection in ``pathFind``; choices
  that fail validation or have no path are dropped, and when nothing is left
  the last drop is the rejection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import networkx as nx

# the defaults of the rewriter's RewriteOptions, which the benchmark uses
MAX_NODES = 16
LIMIT = 64


@dataclass(frozen=True)
class Outcome:
    error: str | None  # error class name for a rejection, None when accepted
    stage: str | None
    provenances: frozenset  # {(concept_choices, path_choices)}
    built: int  # expansions the rewriter builds before it stops

    def bucket(self) -> str:
        return "accept" if self.error is None else f"reject:{self.error}:{self.stage}"


class Facts:
    """What the documents say, indexed for the rules above."""

    def __init__(self, model: dict, thesaurus_text: str):
        parents: dict[str, list[str]] = {}
        for line in thesaurus_text.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[0] == "SUB":
                parents.setdefault(parts[1], []).append(parts[2])
        self._concept_parents = parents
        self._concept_up: dict[str, frozenset[str]] = {}

        classes = {c["name"]: c for c in model["classes"]}
        self.class_up: dict[str, frozenset[str]] = {}  # ancestor-or-self classes
        for name in classes:
            seen = {name}
            stack = [name]
            while stack:
                for sup in classes[stack.pop()].get("superclasses", []):
                    if sup not in seen:
                        seen.add(sup)
                        stack.append(sup)
            self.class_up[name] = frozenset(seen)

        self.class_concepts: dict[str, frozenset[str]] = {}
        self.attribute_concepts: dict[str, frozenset[str]] = {}
        self.attributes_of: dict[str, frozenset[str]] = {}
        for name in classes:
            concepts: set[str] = set()
            owned: set[str] = set()
            for ancestor in self.class_up[name]:
                annotation = classes[ancestor].get("annotation")
                if annotation:
                    concepts |= self._up(annotation["primary"])
                owned.update(f"{ancestor}_{a['name']}" for a in classes[ancestor]["attributes"])
            self.class_concepts[name] = frozenset(concepts)
            self.attributes_of[name] = frozenset(owned)
            for attr in classes[name]["attributes"]:
                annotation = attr.get("annotation")
                self.attribute_concepts[f"{name}_{attr['name']}"] = (
                    self._up(annotation["primary"]) if annotation else frozenset()
                )

        own: dict[str, set[tuple[str, str]]] = {name: set() for name in classes}
        for assoc in model.get("associations", []):
            prop = f"{assoc['source']}_{assoc['roleName']}_{assoc['target']}"
            own[assoc["source"]].add((prop, assoc["target"]))
        self.graph = nx.MultiDiGraph()
        self.graph.add_nodes_from(classes)
        for name in classes:
            for ancestor in self.class_up[name]:
                for prop, target in own[ancestor]:
                    self.graph.add_edge(name, target, key=prop)
        self._paths: dict[tuple[str, str], list[tuple[str, ...]]] = {}

    def _up(self, concept: str) -> frozenset[str]:
        if concept not in self._concept_up:
            seen = {concept}
            stack = [concept]
            while stack:
                for parent in self._concept_parents.get(stack.pop(), ()):
                    if parent not in seen:
                        seen.add(parent)
                        stack.append(parent)
            self._concept_up[concept] = frozenset(seen)
        return self._concept_up[concept]

    def matches(self, reached: str, wanted: str) -> bool:
        return wanted in self.class_up[reached] or reached in self.class_up[wanted]

    def reachable(self, source: str, target: str) -> bool:
        reached = nx.descendants(self.graph, source)
        return any(r != source and self.matches(r, target) for r in reached)

    def paths(self, source: str, target: str) -> list[tuple[str, ...]]:
        """Role chains of every simple path from source to a class matching
        target, as tuples of generated property names."""
        key = (source, target)
        if key not in self._paths:
            targets = {r for r in self.graph if r != source and self.matches(r, target)}
            self._paths[key] = [
                tuple(f"c:{prop}" for _, _, prop in path)
                for path in nx.all_simple_edge_paths(
                    self.graph, source, targets, cutoff=MAX_NODES - 1
                )
                if path
            ]
        return self._paths[key]

    def expected(self, spec, expansion_cap: int | None = None) -> Outcome | None:
        """The outcome the rewriter must produce for a chain query spec; None
        when it would build more than ``expansion_cap`` expansions."""
        occurrences: list[tuple[str, list[str]]] = []
        for concept in spec.chain:
            pool = sorted(c for c, ups in self.class_concepts.items() if concept in ups)
            occurrences.append((concept, pool))
        if spec.attribute is not None:
            concept = spec.attribute[0]
            pool = sorted(a for a, ups in self.attribute_concepts.items() if concept in ups)
            occurrences.append((concept, pool))
        for concept, pool in occurrences:
            if not pool:
                return Outcome("NoUmlCandidateError", "umlExtract", frozenset(), 0)
        combos = list(itertools.product(*(pool for _, pool in occurrences)))
        if len(combos) > LIMIT:
            return Outcome("CandidateLimitError", "umlExtract", frozenset(), 0)
        combos.sort()

        provenances: set = set()
        built = 0
        last_error: tuple[str, str] | None = None
        links = len(spec.chain) - 1
        for combo in combos:
            chain = combo[: len(spec.chain)]
            valid = all(self.reachable(chain[i], chain[i + 1]) for i in range(links))
            if spec.attribute is not None and combo[-1] not in self.attributes_of[chain[-1]]:
                valid = False
            if not valid:
                last_error = ("ValidationRejectedError", "validate")
                continue
            per_link = [self.paths(chain[i], chain[i + 1]) for i in range(links)]
            if any(not paths for paths in per_link):
                last_error = ("NoPathError", "pathFind")
                continue
            count = 1
            for paths in per_link:
                count *= len(paths)
            built += count
            if expansion_cap is not None and built > expansion_cap:
                return None
            if len(provenances) + count > LIMIT:
                return Outcome("CandidateLimitError", "pathFind", frozenset(), built)
            choices = tuple(
                (concept, f"c:{name}") for (concept, _), name in zip(occurrences, combo)
            )
            for picked in itertools.product(*per_link):
                path_choices = tuple(
                    (f"c:{chain[i]}", f"c:{chain[i + 1]}", picked[i]) for i in range(links)
                )
                provenances.add((choices, path_choices))
        if not provenances:
            if last_error is None:
                raise AssertionError("a query with class choices ends in results or a drop")
            return Outcome(last_error[0], last_error[1], frozenset(), built)
        return Outcome(None, None, frozenset(provenances), built)
