"""The document loaders against the ones they replaced.

``load_thesaurus`` reads a document in one pass of ``str.split`` per line,
``_find_cycle`` walks a stack of iterators and ``load_model`` does no work on
the success path that only an error needs. ``strip_disjoints`` and
``extract_module`` take and give ``(child, parent)`` concept pairs, building
no axiom. Each must give what the earlier code, kept below verbatim as the
reference, gives: the same ``Thesaurus`` or ``UMLModel``, the same
``AxiomSet`` once the pairs are rendered, or the same error class, text and
line or location.

The one intended difference is a name that the ontology text cannot carry,
because ``parse_axioms`` would split it: a thesaurus concept name holding
``(`` or ``)``, or a model class, attribute, role or annotation concept name
holding whitespace, ``(`` or ``)``. Both loaders now reject it; the
reference loaded it.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from collections.abc import Mapping, Sequence

from hypothesis import example, given, settings
from hypothesis import strategies as st

from onco_rewriter import model as loaders
from onco_rewriter.cql import NOT_XML
from onco_rewriter.model import (
    DATATYPES,
    MAX_QUALIFIERS,
    Annotation,
    ModelLoadError,
    Signature,
    Thesaurus,
    ThesaurusLoadError,
    UMLAssociation,
    UMLAttribute,
    UMLClass,
    UMLModel,
    closure,
)
from onco_rewriter.module_extraction import extract_module, strip_disjoints
from onco_rewriter.ontology import (
    DEFAULT_PREFIXES,
    AxiomSet,
    Named,
    OntologyError,
    SubClassOf,
    concept_name,
)
from onco_rewriter.synthetic import random_thesaurus

from test_document_fuzz import DEEP, DROP, _slots
from test_module_extraction import rendered

# --- the reference: the loaders as they were, verbatim -------------------------


def _require(mapping: dict, key: str, kind: type, location: str):
    if key not in mapping:
        raise ModelLoadError(f"missing field '{key}'", location)
    value = mapping[key]
    if not isinstance(value, kind):
        raise ModelLoadError(
            f"field '{key}' must be {kind.__name__}, got {type(value).__name__}",
            location,
        )
    return value


def _cql_name(value: str, what: str, location: str) -> str:
    """``value``, which CQL documents carry; rejected if empty or if XML 1.0 cannot hold it."""
    if not value:
        raise ModelLoadError(f"{what} must be non-empty", location)
    unwritable = NOT_XML.search(value)
    if unwritable:
        code = ord(unwritable.group())
        raise ModelLoadError(f"{what} holds U+{code:04X}, which CQL cannot carry", location)
    return value


def _reject_unknown(mapping: dict, allowed: set[str], location: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ModelLoadError(f"unknown field(s) {sorted(unknown)}", location)


def _parse_annotation(raw, location: str) -> Annotation | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ModelLoadError("annotation must be an object", location)
    _reject_unknown(raw, {"primary", "qualifiers"}, location)
    primary = _require(raw, "primary", str, location)
    qualifiers = raw.get("qualifiers", [])
    if not isinstance(qualifiers, list) or not all(isinstance(q, str) for q in qualifiers):
        raise ModelLoadError("qualifiers must be a list of names", location)
    if len(qualifiers) > MAX_QUALIFIERS:
        raise ModelLoadError(f"more than {MAX_QUALIFIERS} qualifiers", location)
    return Annotation(primary=primary, qualifiers=tuple(qualifiers))


def load_model(document: str) -> UMLModel:
    """Parse and validate a model document, returning an immutable UMLModel."""
    try:
        raw = json.loads(document)
    except (ValueError, RecursionError) as exc:
        # bad syntax, an integer past Python's digit limit, or nesting past the recursion limit
        raise ModelLoadError(f"malformed document: {exc}") from None
    if not isinstance(raw, dict):
        raise ModelLoadError("malformed document: top level must be an object")
    _reject_unknown(
        raw, {"project", "version", "packagePrefix", "classes", "associations"}, "document"
    )
    project = _require(raw, "project", str, "document")
    if not project.isprintable():  # it is written into the generated ontology's c: IRI
        raise ModelLoadError("field 'project' must be printable", "document")
    version = _require(raw, "version", str, "document")
    prefix = _require(raw, "packagePrefix", str, "document")
    prefix = prefix and _cql_name(prefix, "packagePrefix", "document")  # empty is legal
    raw_classes = _require(raw, "classes", list, "document")
    raw_assocs = raw.get("associations", [])
    if not isinstance(raw_assocs, list):
        raise ModelLoadError("field 'associations' must be a list", "document")

    classes: list[UMLClass] = []
    for i, raw_cls in enumerate(raw_classes):
        loc = f"classes[{i}]"
        if not isinstance(raw_cls, dict):
            raise ModelLoadError("class entry must be an object", loc)
        _reject_unknown(raw_cls, {"name", "superclasses", "annotation", "attributes"}, loc)
        name = _cql_name(_require(raw_cls, "name", str, loc), "class name", loc)
        supers = raw_cls.get("superclasses", [])
        if not isinstance(supers, list) or not all(isinstance(s, str) for s in supers):
            raise ModelLoadError("superclasses must be a list of names", loc)
        raw_attrs = raw_cls.get("attributes", [])
        if not isinstance(raw_attrs, list):
            raise ModelLoadError("field 'attributes' must be a list", loc)
        attributes: list[UMLAttribute] = []
        for j, raw_attr in enumerate(raw_attrs):
            aloc = f"{loc}.attributes[{j}]"
            if not isinstance(raw_attr, dict):
                raise ModelLoadError("attribute entry must be an object", aloc)
            _reject_unknown(raw_attr, {"name", "datatype", "annotation"}, aloc)
            attr_name = _cql_name(_require(raw_attr, "name", str, aloc), "attribute name", aloc)
            datatype = _require(raw_attr, "datatype", str, aloc)
            if datatype not in DATATYPES:
                raise ModelLoadError(
                    f"unknown datatype '{datatype}' (expected one of {', '.join(DATATYPES)})",
                    aloc,
                )
            attributes.append(
                UMLAttribute(
                    name=attr_name,
                    datatype=datatype,
                    annotation=_parse_annotation(raw_attr.get("annotation"), aloc),
                )
            )
        attr_counts = Counter(a.name for a in attributes)
        for attr in attributes:
            if attr_counts[attr.name] > 1:
                raise ModelLoadError(f"duplicate attribute name '{attr.name}'", loc)
        classes.append(
            UMLClass(
                name=name,
                superclasses=tuple(supers),
                attributes=tuple(attributes),
                annotation=_parse_annotation(raw_cls.get("annotation"), loc),
            )
        )

    names = [c.name for c in classes]
    name_counts = Counter(names)
    for i, name in enumerate(names):
        if name_counts[name] > 1:
            raise ModelLoadError(f"duplicate class name '{name}'", f"classes[{i}]")
    name_set = set(names)

    for i, cls in enumerate(classes):
        for sup in cls.superclasses:
            if sup not in name_set:
                raise ModelLoadError(f"unknown superclass '{sup}'", f"classes[{i}]")

    associations: list[UMLAssociation] = []
    seen_roles: set[tuple[str, str]] = set()
    for i, raw_assoc in enumerate(raw_assocs):
        loc = f"associations[{i}]"
        if not isinstance(raw_assoc, dict):
            raise ModelLoadError("association entry must be an object", loc)
        _reject_unknown(raw_assoc, {"source", "roleName", "target"}, loc)
        source = _require(raw_assoc, "source", str, loc)
        role = _cql_name(_require(raw_assoc, "roleName", str, loc), "roleName", loc)
        target = _require(raw_assoc, "target", str, loc)
        for endpoint in (source, target):
            if endpoint not in name_set:
                raise ModelLoadError(f"association endpoint '{endpoint}' is not a declared class", loc)
        if (source, role) in seen_roles:
            raise ModelLoadError(f"duplicate role name '{role}' on class '{source}'", loc)
        seen_roles.add((source, role))
        associations.append(UMLAssociation(source=source, role_name=role, target=target))

    cycle = _find_cycle({c.name: c.superclasses for c in classes})
    if cycle is not None:
        raise ModelLoadError(f"generalization cycle: {' -> '.join(cycle)}", f"class '{cycle[-1]}'")

    return UMLModel(
        project_name=project,
        version=version,
        package_prefix=prefix,
        classes=tuple(classes),
        associations=tuple(associations),
    )


def _find_cycle(parents: Mapping[str, Sequence[str]]) -> list[str] | None:
    """The first cycle a depth-first walk over ``parents`` meets, as the path
    from its start to the repeated name, or None for an acyclic map. Every
    parent must be a key."""
    # iterative DFS with colouring; a grey revisit is a cycle
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {name: WHITE for name in parents}
    for start in parents:
        if colour[start] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
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


def load_thesaurus(document: str) -> Thesaurus:
    """Parse and validate a thesaurus document (line format, see module docs)."""
    concepts: list[str] = []
    concept_set: set[str] = set()
    subsumptions: list[tuple[str, str]] = []
    sub_set: set[tuple[str, str]] = set()
    disjoints: list[tuple[str, str]] = []
    disjoint_set: set[frozenset[str]] = set()

    for lineno, raw_line in enumerate(document.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        keyword = parts[0]
        if keyword == "CONCEPT":
            if len(parts) != 2:
                raise ThesaurusLoadError("CONCEPT expects one name", lineno)
            if parts[1] not in concept_set:
                concept_set.add(parts[1])
                concepts.append(parts[1])
        elif keyword in ("SUB", "DISJOINT"):
            if len(parts) != 3:
                raise ThesaurusLoadError(f"{keyword} expects two names", lineno)
            a, b = parts[1], parts[2]
            for name in (a, b):
                if name not in concept_set:
                    raise ThesaurusLoadError(f"undeclared concept '{name}'", lineno)
            if keyword == "SUB":
                if a == b:
                    continue  # reflexive pairs carry no information
                if (a, b) not in sub_set:
                    sub_set.add((a, b))
                    subsumptions.append((a, b))
            else:
                key = frozenset((a, b))
                if key not in disjoint_set:
                    disjoint_set.add(key)
                    disjoints.append((a, b))
        else:
            raise ThesaurusLoadError(f"unknown keyword '{keyword}'", lineno)

    parents: dict[str, list[str]] = {}
    for child, parent in subsumptions:
        parents.setdefault(child, []).append(parent)
        parents.setdefault(parent, [])
    cycle = _find_cycle(parents)
    if cycle is not None:
        raise ThesaurusLoadError(f"subsumption cycle: {' -> '.join(cycle)}")
    return Thesaurus(
        concepts=tuple(concepts),
        subsumptions=tuple(subsumptions),
        disjointness=tuple(disjoints),
    )


def _strip_disjoints(thesaurus: Thesaurus) -> AxiomSet:
    """Render the thesaurus as subsumption axioms, discarding disjointness.

    One ``Named`` per declared concept is shared by every axiom that names
    it; every subsumption names declared concepts, as ``load_thesaurus``
    ensures."""
    named = {name: Named(concept_name(name)) for name in thesaurus.concepts}
    axioms = tuple(
        SubClassOf(named[child], named[parent]) for child, parent in thesaurus.subsumptions
    )
    return AxiomSet(axioms, prefixes={"n": DEFAULT_PREFIXES["n"]})


def _extract_module(thesaurus_axioms: AxiomSet, sigma: Signature) -> AxiomSet:
    """Upward-closure module for the signature sigma.

    Walks the sub-to-sup parent map once from the signature's names and keeps,
    in source order, every axiom whose left-hand side the walk reached. Every
    axiom must be a named-to-named subsumption.
    """
    parents: dict[str, list[str]] = {}
    for axiom in thesaurus_axioms.axioms:
        named = isinstance(axiom, SubClassOf) and isinstance(axiom.sub, Named)
        if not (named and isinstance(axiom.sup, Named)):
            raise OntologyError(f"not a named-to-named subsumption: {axiom}")
        parents.setdefault(axiom.sub.name, []).append(axiom.sup.name)
    starts = [concept_name(name) for name in sigma.concept_names]
    relevant = set(closure(starts, lambda name: parents.get(name, ())))
    kept = tuple(a for a in thesaurus_axioms.axioms if a.sub.name in relevant)
    return AxiomSet(kept, prefixes=thesaurus_axioms.prefixes)


# --- thesaurus documents ----------------------------------------------------------

NAMES = ("A", "B", "C", "D_1")
UNREADABLE_CONCEPTS = ("A(", "B)", "(", "x()y")
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
IN_LINE = (" ", "  ", "\t", "\xa0", "\u3000", "\x1f", " \t\u3000")

names = st.sampled_from(NAMES)
pairs = st.tuples(names, names)
blocks = st.one_of(
    names.map(lambda n: [["CONCEPT", n]]),
    pairs.map(lambda p: [["SUB", *p]]),
    names.map(lambda n: [["SUB", n, n]]),  # reflexive
    pairs.map(lambda p: [["SUB", *p], ["SUB", *p]]),  # repeated
    pairs.map(lambda p: [["DISJOINT", *p]]),
    pairs.map(lambda p: [["DISJOINT", *p], ["DISJOINT", p[1], p[0]]]),  # both orientations
    # a cycle of one to four names; one is a reflexive line, which is no cycle
    st.lists(names, min_size=1, max_size=4, unique=True).map(
        lambda c: [["SUB", c[i], c[(i + 1) % len(c)]] for i in range(len(c))]
    ),
    st.sampled_from(
        (
            [["#", "SUB", "A", "B"]],
            [["#SUB", "A", "Z"]],  # a comment, though SUB's undeclared Z would fail
            [["#", "CONCEPT", "A("]],  # parentheses in a comment are legal
            [["#"]],
            [[]],
        )
    ),
    st.sampled_from(  # wrong arity
        ([["CONCEPT"]], [["CONCEPT", "A", "B"]], [["SUB", "A"]], [["SUB", "A", "B", "C"]])
        + ([["DISJOINT"]], [["DISJOINT", "A", "B", "C"]], [["CONCEPT", "A(", "B"]])
    ),
    st.sampled_from(  # unknown keywords and undeclared concepts
        ([["concept", "A"]], [["SUBCLASS", "A", "B"]], [["(", "A"]], [["SUB("]])
        + ([["SUB", "Z", "A"]], [["SUB", "A", "Z"]], [["DISJOINT", "A", "Z"]], [["SUB", "A(", "B"]])
    ),
    st.sampled_from(UNREADABLE_CONCEPTS).map(lambda n: [["CONCEPT", n]]),
)


@st.composite
def render_line(draw, tokens: list[str]) -> str:
    count = len(tokens)
    separators = draw(st.lists(st.sampled_from(IN_LINE), min_size=count, max_size=count))
    text = "".join(sep + token for sep, token in zip(separators, tokens))
    text = text if draw(st.booleans()) else text.lstrip()  # indented or not
    return text + draw(st.sampled_from(("", "", " ", "\t", "\xa0")))


@st.composite
def thesaurus_documents(draw) -> str:
    declared = draw(st.sampled_from((list(NAMES),) * 3 + ([], ["A", "B"])))
    lines = [["CONCEPT", name] for name in declared]
    for block in draw(st.lists(blocks, max_size=8)):
        lines.extend(block)
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        lines = draw(st.permutations(lines))
    rendered = [draw(render_line(tokens)) for tokens in lines]
    breaks = [draw(st.sampled_from(LINE_BREAKS)) for _ in rendered]
    if breaks and draw(st.booleans()):
        breaks[-1] = ""  # no line break at the end
    return "".join(line + end for line, end in zip(rendered, breaks))


def _outcome(load, document):
    try:
        return load(document)
    except (ThesaurusLoadError, ModelLoadError) as error:
        where = getattr(error, "line", None), getattr(error, "location", None)
        return type(error), str(error), *where


def _first_unreadable_concept_line(document: str) -> int | None:
    for lineno, line in enumerate(document.splitlines(), start=1):
        parts = line.split()
        if len(parts) == 2 and parts[0] == "CONCEPT" and re.search("[()]", parts[1]):
            return lineno
    return None


@settings(max_examples=400, deadline=None)
@given(document=thesaurus_documents())
@example(document="CONCEPT A\nCONCEPT B\nSUB A B\nDISJOINT B A\n")
@example(document="CONCEPT A\r\nCONCEPT\tB\x85SUB A B\u2028SUB B A\n")  # cycle
@example(document="CONCEPT A\nSUB A A\nCONCEPT A B\n")  # CONCEPT expects one name
@example(document="CONCEPT A\n  SUB A\n")  # SUB expects two names
@example(document="CONCEPT A\nDISJOINT A\xa0A\u3000A\n")  # DISJOINT expects two names
@example(document="CONCEPT A\nSUB Z A\n")  # undeclared child
@example(document="CONCEPT A\nSUB A Z\n")  # undeclared parent
@example(document="CONCEPT A\nDISJOINT A Z\n")  # undeclared in DISJOINT
@example(document="CONCEPT A\n\x0c  #SUB A Z\nFROB A\n")  # unknown keyword
@example(document="CONCEPT A(\nCONCEPT B)\nSUB A( B)\n")  # the new rejection
@example(document="CONCEPT A\nCONCEPT B)\n")  # ... in a document holding no '('
@example(document="# (\nCONCEPT A\x1fB\n")  # \x1f separates within a line
def test_load_thesaurus_matches_the_reference(document):
    new = _outcome(loaders.load_thesaurus, document)
    unreadable = _first_unreadable_concept_line(document)
    if unreadable is None:
        assert new == _outcome(load_thesaurus, document)
    else:
        reference = _outcome(load_thesaurus, document)
        earlier = isinstance(reference, tuple) and reference[2] is not None
        if earlier and reference[2] < unreadable:
            assert new == reference
        else:
            char = re.search("[()]", document.splitlines()[unreadable - 1].split()[1]).group()
            message = f"concept name holds U+{ord(char):04X}, which the ontology text cannot carry"
            assert new == (ThesaurusLoadError, f"line {unreadable}: {message}", unreadable, None)
    if isinstance(new, Thesaurus):
        stripped = strip_disjoints(new)
        assert rendered(stripped) == _strip_disjoints(new)
        assert len(stripped) == len(new.subsumptions)
        for concepts in ((), new.concepts[:1], new.concepts):
            sigma = Signature(frozenset(concepts))
            reference = _extract_module(_strip_disjoints(new), sigma)
            assert rendered(extract_module(stripped, sigma)) == reference


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
def test_module_pairs_render_as_the_reference(seed, data):
    """On drawn thesauri and signatures (some naming concepts the thesaurus
    lacks), the pairs rendered are the reference's axioms, in its order."""
    thesaurus = random_thesaurus(random.Random(seed), max_axioms=60)
    names = st.sampled_from((*thesaurus.concepts, "Absent"))
    sigma = Signature(frozenset(data.draw(st.sets(names, max_size=12))))
    pairs = strip_disjoints(thesaurus)
    assert rendered(pairs) == _strip_disjoints(thesaurus)
    module = extract_module(pairs, sigma)
    assert rendered(module) == _extract_module(_strip_disjoints(thesaurus), sigma)
    assert extract_module(module, sigma) == module


# --- _find_cycle ------------------------------------------------------------------


@st.composite
def parent_maps(draw) -> dict[str, list[str]]:
    size = draw(st.integers(min_value=1, max_value=9))
    keys = draw(st.permutations([f"n{i}" for i in range(size)]))
    parents = st.lists(st.sampled_from(keys), max_size=3)
    return {key: draw(parents) for key in keys}


@settings(max_examples=500, deadline=None)
@given(parents=parent_maps())
@example(parents={"a": ["a"]})
@example(parents={"a": ["b"], "b": ["c"], "c": []})
def test_find_cycle_matches_the_reference(parents):
    assert loaders._find_cycle(parents) == _find_cycle(parents)


def test_find_cycle_on_a_100000_deep_chain():
    depth = 100_000
    chain = {f"n{i}": [f"n{i + 1}"] for i in range(depth)}
    chain[f"n{depth}"] = []
    assert loaders._find_cycle(chain) is None is _find_cycle(chain)
    chain[f"n{depth}"] = ["n0"]
    cycle = loaders._find_cycle(chain)
    assert cycle == _find_cycle(chain)
    assert (len(cycle), cycle[0], cycle[-1]) == (depth + 2, "n0", "n0")


# --- model documents --------------------------------------------------------------

CLASS_NAMES = ("A", "B", "C", "A_r")
MEMBER_NAMES = ("x", "r", "s")
CONCEPTS = ("Ca", "Cb", "Cc")
# rejected by the reference too, with the same error: empty, or XML cannot hold it
XML_UNWRITABLE = ("", "\x00K", "\x0bK", "K\x1f")
# whitespace, ( or ): the names that only the new loader rejects
UNREADABLE = ("K L", "K(", "K)", "K\tL", "\xa0K", "K\u2028", "K\u3000")


def _rarely(common, *rare):
    """``common`` in eleven draws of twelve, else one of ``rare``."""
    return st.sampled_from((False,) * 11 + (True,)).flatmap(
        lambda rarely: st.one_of(*rare) if rarely else common
    )


class_names = _rarely(
    st.sampled_from(CLASS_NAMES), st.sampled_from(XML_UNWRITABLE), st.sampled_from(UNREADABLE)
)
member_names = _rarely(
    st.sampled_from(MEMBER_NAMES), st.sampled_from(XML_UNWRITABLE), st.sampled_from(UNREADABLE)
)
concepts = _rarely(st.sampled_from(CONCEPTS), st.sampled_from(UNREADABLE + ("\x0bC", "")))
annotations = _rarely(
    st.builds(
        lambda primary, qualifiers: {"primary": primary, "qualifiers": qualifiers},
        concepts,
        st.lists(concepts, max_size=2),
    ),
    st.builds(lambda primary: {"primary": primary}, concepts),
    # built afresh for each draw, as a mutation may change it in place
    st.builds(lambda: {"primary": "Ca", "qualifiers": ["Cb"] * (MAX_QUALIFIERS + 1)}),
)
attributes = st.builds(
    lambda name, datatype, note: {"name": name, "datatype": datatype, "annotation": note},
    member_names,
    _rarely(st.sampled_from(DATATYPES), st.just("text")),
    annotations | st.none(),
)
junk = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(max_value=9) | st.text(max_size=2), max_size=2),
    st.dictionaries(
        st.sampled_from(("name", "extra", "primary")), st.integers(max_value=9), max_size=2
    ),
    st.just(DEEP),
    st.just(DROP),
)


@st.composite
def models(draw) -> dict:
    names = draw(st.lists(class_names, min_size=1, max_size=5, unique=True))
    if draw(_rarely(st.just(False), st.just(True))):
        names.append(names[0])
    acyclic = draw(st.booleans())
    classes = []
    for i, name in enumerate(names):
        entry: dict = {"name": name}
        if draw(st.booleans()):
            pool = names[:i] or ["Unknown"] if acyclic else names + ["Unknown"]
            entry["superclasses"] = draw(st.lists(st.sampled_from(pool), max_size=2))
        if draw(st.booleans()):
            entry["attributes"] = draw(st.lists(attributes, max_size=3))
        if draw(st.booleans()):
            entry["annotation"] = draw(annotations)
        classes.append(entry)
    ends = _rarely(st.sampled_from(names), st.just("Unknown"))
    associations = st.builds(
        lambda source, role, target: {"source": source, "roleName": role, "target": target},
        ends,
        member_names,
        ends,
    )
    return {
        "project": draw(_rarely(st.just("p"), st.just("a\nb"))),
        "version": "1",
        "packagePrefix": draw(_rarely(st.sampled_from(("org.example", "")), st.just("a\x08"))),
        "classes": classes,
        "associations": draw(st.lists(associations, max_size=4)),
    }


@st.composite
def model_documents(draw) -> tuple[str, object]:
    """A model document's text, and the JSON value it holds (None if it is
    not JSON)."""
    document = draw(models())
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        path = draw(st.sampled_from(list(_slots(document))))
        value = draw(junk | st.just("unknown-field"))
        if not path:
            document = [] if value is DROP else value
            continue
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if value == "unknown-field":
            if isinstance(parent, dict):
                parent["extra"] = 1
        elif value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    depth = draw(st.sampled_from((3, 100_000)))
    text = json.dumps(document).replace(json.dumps(DEEP), "[" * depth + "]" * depth)
    if draw(_rarely(st.just(False), st.just(True))):
        text = text[: draw(st.integers(min_value=0, max_value=len(text)))]
    try:
        return text, json.loads(text)
    except (ValueError, RecursionError):
        return text, None


def _holds_unreadable_name(document) -> bool:
    """Whether a name slot of the JSON value holds a name that only the new
    loader rejects; a value too broken to have the slot has no such name."""

    def items(value, key):
        found = value.get(key) if isinstance(value, dict) else None
        return [item for item in found if isinstance(item, dict)] if isinstance(found, list) else []

    def split(name, model_name=True) -> bool:
        if not isinstance(name, str) or not loaders.SPLITS_A_NAME.search(name):
            return False
        return not (model_name and NOT_XML.search(name))

    def annotation(owner) -> bool:
        note = owner.get("annotation")
        if not isinstance(note, dict):
            return False
        qualifiers = note.get("qualifiers", [])
        names = [note.get("primary"), *(qualifiers if isinstance(qualifiers, list) else [])]
        return any(split(name, model_name=False) for name in names)

    for cls in items(document, "classes"):
        if split(cls.get("name")) or annotation(cls):
            return True
        if any(split(a.get("name")) or annotation(a) for a in items(cls, "attributes")):
            return True
    return any(split(a.get("roleName")) for a in items(document, "associations"))


@settings(max_examples=500, deadline=None)
@given(drawn=model_documents())
@example(drawn=('{"project": "p", "version": "1", "packagePrefix": "", "classes": []}', None))
@example(drawn=("[]", None))
@example(drawn=('{"project": "p", "classes": [], "extra": 1}', None))
@example(drawn=('{"project": "p", "version": "1", "packagePrefix": "", "classes": 5}', None))
@example(
    drawn=(
        json.dumps(
            {
                "project": "p",
                "version": "1",
                "packagePrefix": "",
                "classes": [
                    {"name": "A", "superclasses": ["B"]},
                    {"name": "B", "superclasses": ["A"]},
                ],
            }
        ),
        None,
    )
)
@example(
    drawn=(
        json.dumps(
            {
                "project": "p",
                "version": "1",
                "packagePrefix": "",
                "classes": [{"name": "A"}, {"name": "B"}, {"name": "A"}, {"name": "B"}],
            }
        ),
        None,
    )
)
@example(
    drawn=(
        json.dumps(
            {
                "project": "p",
                "version": "1",
                "packagePrefix": "",
                "classes": [
                    {
                        "name": "A",
                        "attributes": [
                            {"name": n, "datatype": "string"} for n in ("x", "y", "x", "y")
                        ],
                    }
                ],
            }
        ),
        None,
    )
)
def test_load_model_matches_the_reference(drawn):
    text, document = drawn
    new = _outcome(loaders.load_model, text)
    reference = _outcome(load_model, text)
    if _holds_unreadable_name(document):
        assert isinstance(new, tuple), "a name the ontology text cannot carry was loaded"
        if new != reference:
            assert new[1].endswith("which the ontology text cannot carry"), (new, reference)
    else:
        assert new == reference
    if isinstance(new, UMLModel):
        for field in ("project_name", "version", "package_prefix", "classes", "associations"):
            assert getattr(new, field) == getattr(reference, field)
        assert all(type(c) is UMLClass for c in new.classes)
        assert all(type(a) is UMLAttribute for c in new.classes for a in c.attributes)
        assert all(type(a) is UMLAssociation for a in new.associations)
