"""valueExtract and valueReinsert against the address scheme they replaced.

A binding now holds one attribute restriction's argument before and after
its data values were taken out. The earlier pair recorded each value with
its restriction's ordinal and a child-index path, and re-inserted it into
slots; it is kept below, verbatim, as the reference. On resolved trees, with
or without faults, the two must strip and restore alike and reject alike.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter.cql import NOT_XML
from onco_rewriter.pipeline import (
    And,
    AssocStep,
    HasAssociationSome,
    HasAttributeSome,
    HasValueEquals,
    PipelineError,
    QueryNode,
    UmlClassRef,
    extract_data_values,
    reinsert_data_values,
)
from onco_rewriter.synthetic import random_resolved_tree

# --- the reference: the address scheme --------------------------------------


@dataclass(frozen=True)
class ValueBinding:
    """Where a removed data value belongs.

    ``attr_ordinal`` numbers the enclosing attribute restriction in
    depth-first order, and ``rel_path`` gives the child indices from that
    restriction down to the removed node. Both stay stable across path
    expansion.
    """

    literal: str
    attr_ordinal: int
    rel_path: tuple[int, ...]


def reference_extract(ast: QueryNode) -> tuple[QueryNode, list[ValueBinding]]:
    """Remove every data value, collapsing single-child conjunctions, and
    record re-insertion addresses in depth-first order."""
    bindings: list[ValueBinding] = []
    counter = itertools.count()

    def walk(node: QueryNode, path: tuple[int, ...], attr_anchor) -> QueryNode:
        if isinstance(node, And):
            kept: list[QueryNode] = []
            for i, item in enumerate(node.items):
                child_path = path + (i,)
                if isinstance(item, HasValueEquals):
                    if attr_anchor is None:
                        raise PipelineError(
                            "valueExtract", "data value outside an attribute restriction"
                        )
                    unwritable = NOT_XML.search(item.literal)
                    if unwritable:
                        code = ord(unwritable.group())
                        raise PipelineError(
                            "valueExtract", f"data value holds U+{code:04X}, which CQL cannot carry"
                        )
                    ordinal, base = attr_anchor
                    bindings.append(
                        ValueBinding(
                            literal=item.literal,
                            attr_ordinal=ordinal,
                            rel_path=child_path[base:],
                        )
                    )
                else:
                    kept.append(walk(item, child_path, attr_anchor))
            if not kept:
                raise PipelineError("valueExtract", "attribute restriction with values only")
            if len(kept) == 1:
                return kept[0]
            return And(tuple(kept))
        if isinstance(node, HasAttributeSome):
            ordinal = next(counter)
            return HasAttributeSome(walk(node.inner, path + (0,), (ordinal, len(path))))
        if isinstance(node, HasAssociationSome):
            return HasAssociationSome(walk(node.inner, path + (0,), None))
        if isinstance(node, AssocStep):
            return AssocStep(node.property_name, walk(node.inner, path + (0,), None))
        if isinstance(node, HasValueEquals):
            raise PipelineError("valueExtract", "data value must be conjoined with a concept")
        return node

    stripped = walk(ast, (), None)
    return stripped, bindings


def reference_reinsert(ast: QueryNode, bindings: list[ValueBinding]) -> QueryNode:
    """Restore extracted data values under their original attribute nodes.
    With no bindings there is nothing to restore, and ``ast`` comes back."""
    if not bindings:
        return ast
    groups: dict[int, list[ValueBinding]] = {}
    for binding in bindings:
        groups.setdefault(binding.attr_ordinal, []).append(binding)
    counter = itertools.count()

    def walk(node: QueryNode) -> QueryNode:
        if isinstance(node, HasAttributeSome):
            ordinal = next(counter)
            inner = walk(node.inner)
            mine = groups.pop(ordinal, [])
            if mine:
                for binding in mine:
                    if len(binding.rel_path) < 2 or binding.rel_path[:-1] != (0,):
                        raise PipelineError(
                            "valueReinsert",
                            f"binding address unresolvable: {binding.rel_path}",
                        )
                existing = list(inner.items) if isinstance(inner, And) else [inner]
                total = len(existing) + len(mine)
                slots: list[QueryNode | None] = [None] * total
                for binding in mine:
                    index = binding.rel_path[-1]
                    if not 0 <= index < total or slots[index] is not None:
                        raise PipelineError(
                            "valueReinsert",
                            f"binding address unresolvable: {binding.rel_path}",
                        )
                    slots[index] = HasValueEquals(binding.literal)
                rest = iter(existing)
                filled = tuple(slot if slot is not None else next(rest) for slot in slots)
                inner = And(filled)
            return HasAttributeSome(inner)
        if isinstance(node, And):
            return And(tuple(walk(i) for i in node.items))
        if isinstance(node, HasAssociationSome):
            return HasAssociationSome(walk(node.inner))
        if isinstance(node, AssocStep):
            return AssocStep(node.property_name, walk(node.inner))
        return node

    result = walk(ast)
    if groups:
        raise PipelineError(
            "valueReinsert", "binding address unresolvable: no matching attribute restriction"
        )
    return result


# --- inputs: resolved trees, faults, expansion --------------------------------


def _map(node: QueryNode, visit) -> QueryNode:
    """``visit`` applied to every node in preorder, each child taken from
    the node ``visit`` returned."""
    node = visit(node)
    if isinstance(node, And):
        return And(tuple(_map(item, visit) for item in node.items))
    if isinstance(node, (HasAssociationSome, HasAttributeSome)):
        return type(node)(_map(node.inner, visit))
    if isinstance(node, AssocStep):
        return AssocStep(node.property_name, _map(node.inner, visit))
    return node


def _append(node: QueryNode, item: QueryNode) -> QueryNode:
    parts = node.items if isinstance(node, And) else (node,)
    return And(parts + (item,))


# Each fault rewrites the ``n``-th node of its kind, counting in preorder and
# wrapping around, and leaves the tree alone when it has none of that kind.
FAULTS = {
    "value in a class context": (
        HasAssociationSome,
        lambda node: HasAssociationSome(_append(node.inner, HasValueEquals("v"))),
    ),
    "values only": (
        HasAttributeSome,
        lambda node: HasAttributeSome(And((HasValueEquals("a"), HasValueEquals("b")))),
    ),
    "bare value": (HasAttributeSome, lambda node: HasAttributeSome(HasValueEquals("v"))),
    "unwritable value": (HasValueEquals, lambda node: HasValueEquals(node.literal + "\x00")),
}


def _fault(tree: QueryNode, kind: str, n: int) -> QueryNode:
    if kind == "value at the top":
        return _append(tree, HasValueEquals("v"))
    cls, rewrite = FAULTS[kind]
    count = 0

    def counted(node: QueryNode) -> QueryNode:
        nonlocal count
        if isinstance(node, cls):
            count += 1
        return node

    _map(tree, counted)
    if not count:
        return tree
    seen = itertools.count()
    target = n % count
    return _map(
        tree,
        lambda node: rewrite(node) if isinstance(node, cls) and next(seen) == target else node,
    )


def _expand(node: QueryNode) -> QueryNode:
    """Each association restriction as a two-step role chain, as path finding
    builds it; attribute restrictions are not entered."""
    if isinstance(node, And):
        return And(tuple(_expand(item) for item in node.items))
    if isinstance(node, HasAssociationSome):
        last = AssocStep("second", _expand(node.inner))
        return AssocStep("first", And((UmlClassRef("c:Via"), last)))
    return node


def _without_last_restriction(node: QueryNode) -> QueryNode:
    """``node`` without its last attribute restriction in preorder. In a
    resolved tree, restrictions sit in conjunctions and enclose none."""

    def drop(node: QueryNode) -> tuple[QueryNode, bool]:
        if isinstance(node, HasAssociationSome):
            inner, dropped = drop(node.inner)
            return HasAssociationSome(inner), dropped
        if isinstance(node, And):
            items = list(node.items)
            for i in reversed(range(len(items))):
                if isinstance(items[i], HasAttributeSome):
                    del items[i]
                    return (items[0] if len(items) == 1 else And(tuple(items))), True
                items[i], dropped = drop(items[i])
                if dropped:
                    return And(tuple(items)), True
        return node, False

    return drop(node)[0]


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except PipelineError as error:
        return "raised", (type(error), error.stage, str(error))


# --- the differential tests ----------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    depth=st.integers(min_value=0, max_value=4),
    faults=st.lists(
        st.tuples(st.sampled_from(["value at the top", *FAULTS]), st.integers(0, 30)),
        max_size=3,
    ),
)
def test_bindings_match_the_address_scheme(seed, depth, faults):
    tree = random_resolved_tree(random.Random(seed), depth)
    for kind, n in faults:
        tree = _fault(tree, kind, n)
    expected = _outcome(reference_extract, tree)
    got = _outcome(extract_data_values, tree)
    if expected[0] == "raised":
        assert got == expected
        return
    (reference_stripped, reference_bindings), (stripped, bindings) = expected[1], got[1]
    assert stripped == reference_stripped
    for ast in (stripped, _expand(stripped), _without_last_restriction(stripped)):
        before = _outcome(reference_reinsert, ast, reference_bindings)
        assert _outcome(reinsert_data_values, ast, bindings) == before


def test_the_inputs_reach_every_error():
    # the differential test compares rejections only where its inputs make them
    rng = random.Random(7)
    texts = set()
    for _ in range(400):
        tree = random_resolved_tree(rng, 2)
        for _ in range(rng.randint(0, 3)):
            tree = _fault(tree, rng.choice(["value at the top", *FAULTS]), rng.randrange(30))
        outcome, detail = _outcome(reference_extract, tree)
        if outcome == "ok":
            stripped, bindings = detail
            outcome, detail = _outcome(
                reference_reinsert, _without_last_restriction(stripped), bindings
            )
        if outcome == "raised":
            texts.add(detail[2])
    assert texts == {
        "data value outside an attribute restriction",
        "attribute restriction with values only",
        "data value must be conjoined with a concept",
        "data value holds U+0000, which CQL cannot carry",
        "binding address unresolvable: no matching attribute restriction",
    }
