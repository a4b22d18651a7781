"""Hypothesis strategies for small, well-formed model and thesaurus documents
and chain queries over them.

A drawn ``Case`` holds model JSON (classes ``C0``, ``C1``, ... with
generalizations to earlier classes, annotations with qualifiers, attributes
and associations, self-loops and parallel roles included), thesaurus text
(class concepts ``K0``, ... and attribute concepts ``KA0``, ... under
subsumptions to earlier concepts) and chain query specs. Two shapes are
drawn on purpose, because uniform draws almost never reach them:

* dense: each of six or seven classes, with no generalization, has an
  association to every class, so a pair of classes has more simple paths
  than the default candidate limit (65 or 326 of them);
* far: ``F0`` reaches ``F1`` only through 14 or 15 plain classes, a path
  of exactly the default node budget of 16 or one node over it, so the
  pair passes validation and has one path or none. ``KF0`` and ``KF1``
  annotate the two alone. ``KF0`` falls under ``K0``, which also annotates
  ``E0``, a class without associations, so a query from ``K0`` to ``KF1``
  drops ``E0`` (and any ``C..`` under ``K0``) in validation before it
  comes to ``F0``, and the plan's last drop decides the rejection.

Every name is one token, every annotation concept is declared, and no two
generated names collide, so each drawn document loads and prepares.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from generate import QuerySpec  # noqa: E402

ROLES = ("r0", "r1", "r2")


@dataclass(frozen=True)
class Case:
    model: dict
    thesaurus: str
    specs: tuple[QuerySpec, ...]

    @property
    def model_json(self) -> str:
        return json.dumps(self.model)


def _earlier(draw, names: list[str], i: int, most: int) -> list[str]:
    if i == 0:
        return []
    return draw(st.lists(st.sampled_from(names[:i]), max_size=most, unique=True))


@st.composite
def documents(draw, far: bool | None = None) -> tuple[dict, str, list[str], list[str]]:
    """(model, thesaurus text, class concepts, attribute concepts)."""
    concepts = [f"K{i}" for i in range(draw(st.integers(2, 5)))]
    attribute_concepts = [f"KA{i}" for i in range(draw(st.integers(1, 2)))]
    lines = [f"CONCEPT {c}" for c in (*concepts, *attribute_concepts)]
    for pool in (concepts, attribute_concepts):
        for i, child in enumerate(pool):
            lines += [f"SUB {child} {parent}" for parent in _earlier(draw, pool, i, 2)]

    dense = draw(st.integers(0, 3)) == 0
    names = [f"C{i}" for i in range(draw(st.integers(6, 7) if dense else st.integers(1, 6)))]
    optional_concept = st.sampled_from(concepts) | st.none()
    classes = []
    for i, name in enumerate(names):
        primary = draw(optional_concept)
        annotation = None
        if primary is not None:
            qualifiers = draw(st.lists(st.sampled_from(concepts), max_size=2))
            annotation = {"primary": primary, "qualifiers": qualifiers}
        attributes = [
            {"name": attribute, "datatype": "string", "annotation": {"primary": concept}}
            for attribute in draw(st.lists(st.sampled_from(("a", "b")), max_size=2, unique=True))
            for concept in [draw(st.sampled_from(attribute_concepts))]
        ]
        classes.append(
            {
                "name": name,
                # inherited roles would multiply a dense model's paths past any enumeration
                "superclasses": [] if dense else _earlier(draw, names, i, 2),
                "annotation": annotation,
                "attributes": attributes,
            }
        )

    ends = st.sampled_from(names)
    if dense:
        associations = [
            {"source": s, "roleName": f"to{t}", "target": t} for s in names for t in names
        ]
    else:
        drawn = st.tuples(ends, st.sampled_from(ROLES), ends)
        triples = draw(st.lists(drawn, max_size=8, unique_by=lambda a: a[:2]))
        associations = [{"source": s, "roleName": r, "target": t} for s, r, t in triples]

    if far is None:
        far = draw(st.integers(0, 3)) == 0
    if far:
        lines += ["CONCEPT KF0", "CONCEPT KF1", "SUB KF0 K0"]
        between = draw(st.sampled_from((14, 15)))
        hops = ["F0", *(f"L{i}" for i in range(between)), "F1"]
        classes += [
            {"name": name, "annotation": {"primary": concept}, "attributes": []}
            for name, concept in (("E0", "K0"), ("F0", "KF0"), ("F1", "KF1"))
        ]
        classes += [{"name": name, "attributes": []} for name in hops[1:-1]]
        associations += [
            {"source": s, "roleName": "next", "target": t} for s, t in zip(hops, hops[1:])
        ]
        concepts = [*concepts, "KF0", "KF1"]

    model = {
        "project": "drawn",
        "version": "1",
        "packagePrefix": "org.example",
        "classes": classes,
        "associations": associations,
    }
    return model, "\n".join(lines), concepts, attribute_concepts


@st.composite
def chain_specs(draw, concepts: list[str], attribute_concepts: list[str]) -> QuerySpec:
    if "KF0" in concepts and draw(st.booleans()):
        # F1 has no attribute, so these stop at pathFind or succeed
        return QuerySpec(chain=(draw(st.sampled_from(("KF0", "K0"))), "KF1"))
    chain = tuple(draw(st.lists(st.sampled_from(concepts), min_size=1, max_size=3)))
    attribute = None
    if draw(st.booleans()):
        attribute = (draw(st.sampled_from(attribute_concepts)), "v")
    return QuerySpec(chain=chain, attribute=attribute)


@st.composite
def cases(draw, far: bool | None = None, queries: int = 4) -> Case:
    model, thesaurus, concepts, attribute_concepts = draw(documents(far))
    specs = draw(st.lists(chain_specs(concepts, attribute_concepts), min_size=1, max_size=queries))
    return Case(model=model, thesaurus=thesaurus, specs=tuple(specs))
