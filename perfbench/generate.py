"""Seeded inputs for the rewrite benchmark.

A workload is a model document (JSON text), a thesaurus document (line
format) and a list of query specs. The shape of each generated workload
(which class points at which, how deep the concept tree is, which query
positions are asked) comes from a fixed shape stream, so every seed asks the
program for the same amount of work and medians taken over different seeds
stay comparable. The workload seed draws everything else: every class,
concept, attribute and role name, every literal, and the declaration order of
every class, association and thesaurus line. A change that depends on
particular names or orders therefore still shows on a seed it was not tuned
on.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

DATA = Path(__file__).resolve().parent / "data"

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class QuerySpec:
    """A chain query: ``chain[0]`` reaches ``chain[1]`` (reaches ``chain[2]``)
    through ``hasAssociation``; ``attribute`` = (concept, literal) restricts the
    last class of the chain."""

    chain: tuple[str, ...]
    attribute: tuple[str, str] | None = None

    def text(self) -> str:
        inner = self.chain[-1]
        if self.attribute is not None:
            concept, literal = self.attribute
            escaped = literal.replace("\\", "\\\\").replace('"', '\\"')
            restriction = f'hasAttribute some ({concept} and hasValue value "{escaped}")'
            if len(self.chain) == 1:
                return f"{inner} and {restriction}"
            inner = f"{inner} and {restriction}"
        for concept in reversed(self.chain[1:-1]):
            inner = f"{concept} and hasAssociation some ({inner})"
        if len(self.chain) == 1:
            return inner
        return f"{self.chain[0]} and hasAssociation some ({inner})"


@dataclass(frozen=True)
class Workload:
    model_json: str
    thesaurus_text: str
    queries: tuple[QuerySpec, ...]

    def documents(self) -> dict[str, str]:
        return {
            "model": self.model_json,
            "thesaurus": self.thesaurus_text,
            "queries": "\n".join(q.text() for q in self.queries) + "\n",
        }

    def digests(self) -> dict[str, str]:
        return {name: sha256(text) for name, text in self.documents().items()}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Namer:
    """Unique pronounceable words drawn from a seeded stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self, syllables: int) -> str:
        while True:
            word = "".join(
                self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS)
                for _ in range(syllables)
            )
            if word not in self.used:
                self.used.add(word)
                return word

    def camel(self, syllables: int = 3) -> str:
        return self.word(syllables).capitalize()

    def concept(self) -> str:
        return f"{self.word(2).capitalize()}_{self.word(3).capitalize()}"


def _literal(rng: random.Random) -> str:
    core = "".join(rng.choice("ABCDEFGHKLMNPRSTX") for _ in range(4)) + str(rng.randrange(1, 30))
    return core + "%" if rng.random() < 0.3 else core


# --- the caBIO fixture -----------------------------------------------------------

CABIO_QUERIES = (
    QuerySpec(("Single_Nucleotide_Polymorphism", "Gene"), ("Gene_Symbol", "TGFB1")),
    QuerySpec(("Gene",), ("Gene_Symbol", "BRCA%")),
    QuerySpec(("Chromosome",), ("Name", "22")),
    QuerySpec(("Location", "Chromosome")),
    QuerySpec(("Chromosome", "Location")),
)


def cabio() -> Workload:
    """The paper's caBIO fragment, NCIt fragment and five-query suite."""
    suite = [
        line
        for line in (DATA / "cabio.suite.txt").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    if suite != [q.text() for q in CABIO_QUERIES]:
        raise ValueError("cabio.suite.txt no longer matches the benchmark's query specs")
    return Workload(
        model_json=(DATA / "cabio_fragment.model.json").read_text(),
        thesaurus_text=(DATA / "ncit_fragment.thesaurus.txt").read_text(),
        queries=CABIO_QUERIES,
    )


# --- shared model shape --------------------------------------------------------


@dataclass
class _Shape:
    """Index-level description of a model and its thesaurus."""

    # thesaurus: concept index -> parent concept indices; roots have none
    concept_parents: list[list[int]]
    disjoint: list[tuple[int, int]]
    # model
    class_concept: list[int | None]  # annotation primary per class
    superclass: dict[int, int]
    attributes: list[list[int]]  # per class: annotation concept per attribute
    associations: list[tuple[int, int]]  # (source, target), unique pairs
    # query shape: (class-position concepts, attribute concept or None)
    queries: list[tuple[tuple[int, ...], int | None]]


def _render(shape: _Shape, seed_stream: str, project: str) -> tuple[dict, str, list, list]:
    """Name and order a shape with the workload seed. Returns the model, the
    thesaurus text, the query specs and the concept names by index."""
    rng = random.Random(seed_stream)
    names = _Namer(rng)
    concepts = [names.concept() for _ in shape.concept_parents]
    classes = [names.camel() for _ in shape.class_concept]

    class_entries = []
    for i, cls in enumerate(classes):
        attr_names = [names.word(3) for _ in shape.attributes[i]]
        entry: dict = {
            "name": cls,
            "superclasses": [classes[shape.superclass[i]]] if i in shape.superclass else [],
            "attributes": [
                {
                    "name": attr,
                    "datatype": rng.choice(("string", "string", "integer", "date")),
                    "annotation": {"primary": concepts[c], "qualifiers": []},
                }
                for attr, c in zip(attr_names, shape.attributes[i])
            ],
        }
        if shape.class_concept[i] is not None:
            entry["annotation"] = {"primary": concepts[shape.class_concept[i]], "qualifiers": []}
        class_entries.append(entry)

    roles: dict[int, set[str]] = {}
    assoc_entries = []
    for source, target in shape.associations:
        base = classes[target][0].lower() + classes[target][1:]
        role = base + rng.choice(("", "Collection"))
        taken = roles.setdefault(source, set())
        while role in taken:
            role = base + names.camel(1)
        taken.add(role)
        assoc_entries.append({"source": classes[source], "roleName": role, "target": classes[target]})

    rng.shuffle(class_entries)
    rng.shuffle(assoc_entries)
    model = {
        "project": project,
        "version": "1.0",
        "packagePrefix": f"org.example.{names.word(3)}.domain",
        "classes": class_entries,
        "associations": assoc_entries,
    }

    concept_lines = [f"CONCEPT {c}" for c in concepts]
    sub_lines = [
        f"SUB {concepts[child]} {concepts[parent]}"
        for child, parents in enumerate(shape.concept_parents)
        for parent in parents
    ]
    rng.shuffle(concept_lines)
    rng.shuffle(sub_lines)
    disjoint_lines = [f"DISJOINT {concepts[a]} {concepts[b]}" for a, b in shape.disjoint]
    thesaurus = "\n".join(
        [f"# {project} thesaurus"] + concept_lines + sub_lines + disjoint_lines
    ) + "\n"

    queries = []
    for chain, attr in shape.queries:
        attribute = (concepts[attr], _literal(rng)) if attr is not None else None
        queries.append(QuerySpec(tuple(concepts[c] for c in chain), attribute))
    return model, thesaurus, queries, concepts


def _model_json(model: dict) -> str:
    return json.dumps(model, indent=1) + "\n"


# --- shape construction ---------------------------------------------------------


class _ShapeBuilder:
    def __init__(self, stream: str):
        self.rng = random.Random(stream)
        self.concept_parents: list[list[int]] = []

    def concept(self, *parents: int) -> int:
        self.concept_parents.append(list(parents))
        return len(self.concept_parents) - 1


def _associations(rng: random.Random, n: int, forward: int, back: int, package: int) -> list:
    """Random association pairs: ``forward`` edges, mostly inside a package of
    ``package`` classes, then ``back`` reverse edges of existing ones, the way
    caBIO pairs ``Location.chromosome`` with ``Chromosome.locationCollection``."""
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(pairs) < forward:
        source = rng.randrange(n)
        if rng.random() < 0.75:
            base = source - source % package
            target = base + rng.randrange(package)
        else:
            target = rng.randrange(n)
        if target != source and (source, target) not in seen:
            seen.add((source, target))
            pairs.append((source, target))
    added = 0
    while added < back:
        source, target = rng.choice(pairs)
        if (target, source) not in seen:
            seen.add((target, source))
            pairs.append((target, source))
            added += 1
    return pairs


def _model_part(b: _ShapeBuilder, n_classes: int, class_concepts: list[int],
                attribute_concept, shared_pool: list[int], n_assoc: tuple[int, int],
                package: int) -> dict:
    """Classes, superclasses, attributes and associations over given class
    concepts; ``attribute_concept()`` names the concept of an unshared
    attribute."""
    rng = b.rng
    subclasses = rng.sample(range(n_classes // 10, n_classes), n_classes // 10)
    superclass = {i: rng.randrange(i) for i in subclasses}
    unannotated = set(subclasses[: len(subclasses) // 2])
    attributes: list[list[int]] = []
    for _ in range(n_classes):
        slots = []
        for _ in range(rng.choice((1, 2, 3, 4, 5))):
            if rng.random() < 0.2:
                slots.append(rng.choice(shared_pool))
            else:
                slots.append(attribute_concept())
        attributes.append(slots)
    return {
        "class_concept": [None if i in unannotated else class_concepts[i] for i in range(n_classes)],
        "superclass": superclass,
        "attributes": attributes,
        "associations": _associations(rng, n_classes, *n_assoc, package),
    }


def _pick_queries(shape: _Shape, buckets: dict[str, int], kinds: dict[int, int],
                  rng: random.Random, budget: int) -> None:
    """Fill the query list from candidate positions, classifying each with the
    oracle until every outcome bucket holds its planned number of queries.

    Suites hold 10k + 5 queries. Every query then contributes equally many
    samples, and the median and the 90th percentile fall in the middle of
    one query's samples instead of on the boundary between two queries,
    where a small change in either would move them a lot.

    ``kinds`` maps a class to the broad concept covering it (used for queries
    whose concept matches many classes). ``budget`` caps the expansions a
    query may build, so no query runs for seconds.
    """
    model, thesaurus, _, concept_names = _render(shape, "shape", "Shape")
    facts = oracle.Facts(model, thesaurus)

    def concept_of(cls: int) -> int | None:
        while shape.class_concept[cls] is None:
            cls = shape.superclass[cls]
        return shape.class_concept[cls]

    hops: dict[int, list[list[int]]] = {}
    n = len(shape.class_concept)
    out: dict[int, list[int]] = {}
    for s, t in shape.associations:
        out.setdefault(s, []).append(t)

    def layers(src: int) -> list[list[int]]:
        if src not in hops:
            seen = {src}
            frontier = [src]
            result = []
            for _ in range(3):
                nxt = sorted({t for f in frontier for t in out.get(f, ()) if t not in seen})
                seen.update(nxt)
                result.append(nxt)
                frontier = nxt
            hops[src] = result
        return hops[src]

    wanted = dict(buckets)
    tried: set = set()
    attempts = 0
    while any(wanted.values()):
        attempts += 1
        if attempts > 20000:
            raise RuntimeError(f"query buckets not filled: {wanted}")
        src = rng.randrange(n)
        steps = rng.choice((1, 1, 2, 3))
        hop = layers(src)[steps - 1]
        if not hop:
            continue
        dst = rng.choice(hop)
        form = rng.choice(("plain", "attr", "attr", "nested", "broad", "broadattr", "wrongattr"))
        head, tail = concept_of(src), concept_of(dst)
        attr = None
        if form in ("attr", "broadattr"):
            attr = rng.choice(shape.attributes[dst])
        elif form == "wrongattr":
            attr = rng.choice(shape.attributes[rng.randrange(n)])
        if form == "nested":
            onward = layers(dst)[0]
            if not onward:
                continue
            chain = (head, tail, concept_of(rng.choice(onward)))
        elif form == "broad":
            chain = (kinds[src], kinds[dst])
        elif form == "broadattr":
            chain = (head, kinds[dst])
        else:
            chain = (head, tail)
        key = (chain, attr)
        if key in tried:
            continue
        tried.add(key)
        spec = QuerySpec(
            tuple(concept_names[c] for c in chain),
            (concept_names[attr], "x") if attr is not None else None,
        )
        outcome = facts.expected(spec, expansion_cap=budget)
        if outcome is None:
            continue  # over the expansion budget
        bucket = outcome.bucket()
        if wanted.get(bucket, 0) > 0:
            wanted[bucket] -= 1
            shape.queries.append(key)


def _ladder_shape() -> _Shape:
    """400 caBIO-like classes: one concept per class under 40 kinds and 8
    categories, about three attributes per class (a fifth of them annotated
    with one of 12 shared concepts such as a name or an identifier), a tenth
    of the classes with a superclass, and 1.5 associations per class."""
    b = _ShapeBuilder("ladder400-shape")
    root = b.concept()
    categories = [b.concept(root) for _ in range(8)]
    kinds = [b.concept(b.rng.choice(categories)) for _ in range(40)]
    class_kind = [i % 40 for i in range(400)]
    b.rng.shuffle(class_kind)
    class_concepts = [b.concept(kinds[class_kind[i]]) for i in range(400)]
    prop_root = b.concept(root)
    property_pool = [b.concept(prop_root) for _ in range(20)]
    shared_pool = [b.concept(b.rng.choice(property_pool)) for _ in range(12)]
    part = _model_part(
        b, 400, class_concepts, lambda: b.concept(b.rng.choice(property_pool)), shared_pool,
        (440, 160), 20,
    )
    # an unrelated branch the module leaves behind
    other = b.concept()
    pool = [other]
    for _ in range(420):
        pool.append(b.concept(b.rng.choice(pool)))
    shape = _Shape(
        concept_parents=b.concept_parents,
        disjoint=[(categories[0], categories[1]), (prop_root, other)],
        queries=[],
        **part,
    )
    class_kind_concept = {i: kinds[class_kind[i]] for i in range(400)}
    _pick_queries(
        shape,
        {"accept": 25, "reject:CandidateLimitError:umlExtract": 7,
         "reject:CandidateLimitError:pathFind": 3},
        class_kind_concept,
        random.Random("ladder400-queries"),
        budget=3000,
    )
    return shape


def _ncit_shape() -> _Shape:
    """An NCIt-shaped thesaurus: 19 top-level branches grown as random
    recursive trees to about 3k concepts, a tenth of them with a second
    parent in the same branch, and a few DISJOINT lines between branches. A
    100-class model takes its class concepts from two branches and its
    attribute concepts from 24 concepts of four others, so the module is a
    slice of about 280 of the 3.3k axioms and one preparation takes well
    under a second."""
    b = _ShapeBuilder("ncit-shape")
    root = b.concept()
    branches: list[list[int]] = []
    for _ in range(19):
        branches.append([b.concept(root)])
    for _ in range(3000):
        members = branches[b.rng.randrange(19)]
        first = b.rng.choice(members)
        concept = b.concept(first)
        if b.rng.random() < 0.1 and len(members) > 2:
            second = b.rng.choice(members)
            if second != first:
                b.concept_parents[concept].append(second)
        members.append(concept)
    used = branches[:2]
    class_concepts = b.rng.sample([c for branch in used for c in branch[1:]], 100)
    property_pool = b.rng.sample([c for branch in branches[4:8] for c in branch[1:]], 24)
    shared_pool = b.rng.sample(property_pool, 8)
    part = _model_part(
        b, 100, class_concepts, lambda: b.rng.choice(property_pool), shared_pool, (90, 40), 10
    )
    shape = _Shape(
        concept_parents=b.concept_parents,
        disjoint=[(branches[i][0], branches[i + 1][0]) for i in range(0, 10, 2)],
        queries=[],
        **part,
    )
    branch_of = {c: branch[0] for branch in used for c in branch}
    broad = {i: branch_of[class_concepts[i]] for i in range(100)}
    _pick_queries(
        shape,
        {"accept": 39, "reject:CandidateLimitError:umlExtract": 2,
         "reject:ValidationRejectedError:validate": 4},
        broad,
        random.Random("ncit-queries"),
        budget=200,
    )
    return shape


_SHAPES: dict[str, _Shape] = {}


def _shape(name: str) -> _Shape:
    if name not in _SHAPES:
        _SHAPES[name] = {"ladder400": _ladder_shape, "ncit": _ncit_shape}[name]()
    return _SHAPES[name]


def ladder400(seed: int) -> Workload:
    model, thesaurus, queries, _ = _render(_shape("ladder400"), f"ladder400:{seed}", "Ladder400")
    return Workload(_model_json(model), thesaurus, tuple(queries))


def ncit(seed: int) -> Workload:
    model, thesaurus, queries, _ = _render(_shape("ncit"), f"ncit:{seed}", "NcitSlice")
    return Workload(_model_json(model), thesaurus, tuple(queries))


def workload(name: str, seed: int) -> Workload:
    if name == "cabio-warm":
        return cabio()
    if name == "ladder400-warm":
        return ladder400(seed)
    if name == "ncit-cold":
        return ncit(seed)
    raise ValueError(f"unknown workload '{name}'")
