"""The two-phase rewrite driver against the driver it replaces.

The reference below copies the earlier ``rewrite_prepared``, which built
every result of a candidate (valueReinsert, mcc, cql) before it ran pathFind
for the next one, with the earlier ``validate_semantics`` and
``find_property_paths``, each walking the resolved candidate itself, and the
earlier ``_VarAllocator``, which probed for the first free suffix. On random
prepared contexts and queries, at several candidate limits and node budgets
(one large enough that every query with an association takes the nesting
check's walk) and under every selection, the driver must give equal results
(CQL, provenance, every tree and the comprehension), the same dropped list,
or an error of the same class, stage and text.

Two differences are deliberate and pinned here: a later candidate's plan
error now wins over an earlier candidate's build error, and ``first`` builds
one result instead of all of them. On the caBIO suite the CLI's output under
both selections keeps the bytes it had before the change.

Path walks now stop past the budget the limit leaves, which the reference
takes up in two places: where a walk was cut, the limit's message gives the
count as a lower bound ("at least"), which must not exceed the reference's
count, and the nesting check counts a cut walk at the node budget's bound,
so the reference passes it the same cap.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter import pipeline as P
from onco_rewriter.cli import main
from onco_rewriter.model import load_model, load_thesaurus
from onco_rewriter.pipeline import (
    CandidateLimitError,
    MccError,
    NestingLimitError,
    PipelineError,
    RewriteOptions,
    _VarAllocator,
    prepare_context,
    rewrite_prepared,
)
from onco_rewriter.reasoner import association_reachable, find_paths
from onco_rewriter.synthetic import random_satisfiable_query

from conftest import FIXTURES, random_context

# --- reference implementation -------------------------------------------------


def reference_rewrite_prepared(context, text, options=None):
    options = options or RewriteOptions()
    ast = P.parse_query(text)
    candidates = P.extract_uml(ast, context.index)
    if candidates.size > options.candidate_limit:
        raise CandidateLimitError("umlExtract", candidates.size, options.candidate_limit)
    candidates = list(candidates)

    results = []
    dropped = []
    last_error = None
    for candidate in candidates:
        stripped, bindings = P.extract_data_values(candidate.ast)
        failures = reference_validate_semantics(stripped, context.index)
        if failures:
            error = P.ValidationRejectedError(failures)
            dropped.append((candidate.provenance, str(error)))
            last_error = error
            continue
        try:
            expansions = reference_find_property_paths(
                stripped, context.index, options.max_nodes
            )
        except P.NoPathError as error:
            dropped.append((candidate.provenance, str(error)))
            last_error = error
            continue
        # a walk under this budget would be cut past it (see the module docstring)
        budget = options.candidate_limit - len(results)
        P.check_cql_nesting(candidate.ast, expansions, options.max_nodes, budget, context.index)
        if len(results) + expansions.size > options.candidate_limit:
            raise CandidateLimitError(
                "pathFind", len(results) + expansions.size, options.candidate_limit
            )
        for expansion in list(expansions):
            provenance = replace(
                expansion.provenance, concept_choices=candidate.provenance.concept_choices
            )
            restored = P.reinsert_data_values(expansion.ast, bindings)
            comprehension = P.to_mcc(restored, context.naming)
            cql_query = P.mcc_to_cql(comprehension, context.model)
            results.append(
                P.RewriteResult(
                    cql=cql_query,
                    provenance=provenance,
                    resolved=candidate.ast,
                    stripped=stripped,
                    expanded=expansion.ast,
                    restored=restored,
                    mcc=comprehension,
                )
            )

    if not results:
        if last_error is not None:
            raise last_error
        raise PipelineError("umlExtract", "query produced no candidates")

    if options.selection == "first":
        results = results[:1]

    return P.RewriteOutcome(results=tuple(results), durations_us={}, dropped=tuple(dropped))


def reference_validate_semantics(stripped, index):
    failures = []

    def walk(node):
        cls = P._context_class(node)
        for part in P._parts(node):
            if isinstance(part, P.HasAttributeSome):
                attr = P._context_attribute(part.inner)
                if attr not in index.attribute_of.get(cls, frozenset()):
                    failures.append(("attribute", cls, attr))
            elif isinstance(part, P.HasAssociationSome):
                target = P._context_class(part.inner)
                if not association_reachable(index, cls, target):
                    failures.append(("association", cls, target))
                walk(part.inner)
            elif isinstance(part, P.AssocStep):
                walk(part.inner)

    walk(stripped)
    return tuple(failures)


def reference_find_property_paths(stripped, index, max_nodes):
    occurrences = []

    def collect(node):
        cls = P._context_class(node)
        for part in P._parts(node):
            if isinstance(part, P.HasAssociationSome):
                target = P._context_class(part.inner)
                paths = find_paths(index, cls, target, max_nodes)
                if not paths:
                    raise P.NoPathError(cls, target)
                occurrences.append((cls, target, paths))
                collect(part.inner)

    collect(stripped)

    def rebuild(node, chosen):
        if isinstance(node, P.And):
            return P.And(tuple(rebuild(i, chosen) for i in node.items))
        if isinstance(node, P.HasAssociationSome):
            return P._chain_from_path(next(chosen), rebuild(node.inner, chosen))
        return node

    def build(combo):
        path_choices = tuple(
            (source, target, path.properties)
            for (source, target, _), path in zip(occurrences, combo)
        )
        return P.CandidateQuery(
            ast=rebuild(stripped, iter(combo)), provenance=P.Provenance(path_choices=path_choices)
        )

    return P.LazyProduct([paths for _, _, paths in occurrences], build)


def probe_loop_names(bases):
    used = set()
    names = []
    for basis in bases:
        first = next((ch.lower() for ch in basis if ch.isalpha()), "v")
        name = first
        suffix = 2
        while name in used:
            name = f"{first}{suffix}"
            suffix += 1
        used.add(name)
        names.append(name)
    return names


# --- the driver against the reference ------------------------------------------


def random_query(rng, thesaurus, depth=2):
    """Concepts drawn at random, now and then one of the other kind or one
    already in the query, so queries fail at umlExtract, validate and
    pathFind as well as succeed. The class concept stands anywhere among its
    context's parts, after an association restriction too; associations
    nest, and data values stand anywhere around their attribute concept."""
    concepts = thesaurus.concepts
    attribute_concepts = [c for c in concepts if c.startswith("KA")] or list(concepts)
    class_concepts = [c for c in concepts if not c.startswith("KA")]
    used: list[str] = []

    def concept(pool):
        if used and rng.random() < 0.2:
            name = rng.choice(used)
        else:
            name = rng.choice(concepts if rng.random() < 0.1 else pool)
        used.append(name)
        return name

    def class_context(level):
        parts = []
        if rng.random() < 0.5:
            values = [f'hasValue value "{rng.choice(["v1", "B%", "x_y"])}"'] * rng.randint(0, 2)
            inner = [concept(attribute_concepts), *values]
            rng.shuffle(inner)
            parts.append(f"hasAttribute some ({' and '.join(inner)})")
        if level:
            for _ in range(rng.choice((0, 1, 1, 2))):
                parts.append(f"hasAssociation some ({class_context(level - 1)})")
        parts.insert(rng.randint(0, len(parts)), concept(class_concepts))
        return " and ".join(parts)

    return class_context(depth)


def random_case(seed):
    rng = random.Random(seed)
    context, thesaurus = random_context(rng)
    queries = [random_query(rng, thesaurus) for _ in range(3)]
    queries.append(random_satisfiable_query(rng, context.model) or queries[0])
    return context, queries


def outcome_of(driver, context, text, options):
    try:
        outcome = driver(context, text, options)
    except PipelineError as error:
        return ("error", type(error).__name__, error.stage, str(error))
    return ("ok", outcome.results, outcome.dropped)


LOWER_BOUND = re.compile(r"candidate count at least (\d+) exceeds limit (\d+)")


def assert_same_outcome(got, expected, why):
    """Equal outcomes, except that a cut walk's count is a lower bound of
    the reference's exact one."""
    bound = LOWER_BOUND.fullmatch(got[3]) if got[0] == "error" else None
    if bound is not None:
        exact = re.fullmatch(r"candidate count (\d+) exceeds limit (\d+)", expected[3])
        assert got[:3] == expected[:3] and exact, why
        assert int(bound[1]) <= int(exact[1]) and bound[2] == exact[2], why
    else:
        assert got == expected, why


# 300 nodes: any query with an association takes the nesting check's walk
BUDGETS = (2, 16, 300)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_driver_matches_reference(seed):
    context, queries = random_case(seed)
    for text in queries:
        for limit in (1, 4, 64):
            for max_nodes in BUDGETS:
                for selection in ("all", "first"):
                    options = RewriteOptions(
                        max_nodes=max_nodes, candidate_limit=limit, selection=selection
                    )
                    expected = outcome_of(reference_rewrite_prepared, context, text, options)
                    got = outcome_of(rewrite_prepared, context, text, options)
                    assert_same_outcome(got, expected, (text, options))


def test_random_cases_reach_every_branch():
    """The cases above succeed with candidates dropped at validate and at
    pathFind, and fail at every stage a query can fail at, both when the
    query has several candidates, which the plan checks, and when it has
    one, which skips the plan and is checked as it is built."""
    seen = set()
    for seed in range(40):
        context, queries = random_case(seed)
        for text in queries:
            try:
                lone = P.extract_uml(P.parse_query(text), context.index).size == 1
            except PipelineError:
                lone = None
            for max_nodes in BUDGETS:
                for limit in (1, 64):
                    options = RewriteOptions(max_nodes=max_nodes, candidate_limit=limit)
                    outcome = outcome_of(rewrite_prepared, context, text, options)
                    if outcome[0] == "error":
                        seen.add((lone, *outcome[1:3]))
                    else:
                        seen.update(("dropped", message.split()[0]) for _, message in outcome[2])
    assert {
        ("dropped", "query"),  # validate
        ("dropped", "no"),  # pathFind
        (None, "NoUmlCandidateError", "umlExtract"),
        (False, "CandidateLimitError", "umlExtract"),
    } <= seen
    for lone in (False, True):
        assert {
            (lone, "ValidationRejectedError", "validate"),
            (lone, "NoPathError", "pathFind"),
            (lone, "CandidateLimitError", "pathFind"),
        } <= seen


@given(st.lists(st.text(alphabet="aAbB1_ İß", max_size=3), max_size=40))
def test_var_allocator_matches_probe_loop(bases):
    alloc = _VarAllocator()
    assert [alloc.fresh(basis) for basis in bases] == probe_loop_names(bases)


# --- deliberate differences ------------------------------------------------------


def context_from(classes, associations, concepts):
    document = {"project": "t", "version": "1", "packagePrefix": "org.example"}
    model = load_model(json.dumps(document | {"classes": classes, "associations": associations}))
    lines = ["CONCEPT Root"] + [f"CONCEPT {c}\nSUB {c} Root" for c in concepts]
    return prepare_context(model, load_thesaurus("\n".join(lines)))


def annotated(name, concept):
    return {"name": name, "annotation": {"primary": concept, "qualifiers": []}}


def two_candidates(b_to_t):
    """Candidate 0 (class A) reaches T in one step; candidate 1 (class B)
    reaches T through ``b_to_t`` = (classes between, parallel roles)."""
    between, roles = b_to_t
    hops = ["B", *between, "T"]
    associations = [{"source": "A", "roleName": "r", "target": "T"}]
    associations += [
        {"source": s, "roleName": f"r{k}", "target": t}
        for s, t in zip(hops, hops[1:])
        for k in range(roles if s == "B" else 1)
    ]
    classes = [annotated("A", "Both"), annotated("B", "Both"), annotated("T", "CT")]
    classes += [{"name": name} for name in between]
    return context_from(classes, associations, ["Both", "CT"])


def failing_for_candidate_zero(monkeypatch):
    original = P.to_mcc

    def to_mcc(restored, naming):
        if P._context_class(restored) == "c:A":
            raise MccError("broken invariant")
        return original(restored, naming)

    monkeypatch.setattr(P, "to_mcc", to_mcc)


@pytest.mark.parametrize(
    "b_to_t, options, later_error",
    [
        (([], 3), RewriteOptions(candidate_limit=2), CandidateLimitError),
        (([f"X{i}" for i in range(260)], 1), RewriteOptions(max_nodes=300), NestingLimitError),
    ],
    ids=["candidate-limit", "nesting-limit"],
)
def test_later_plan_error_wins_over_earlier_build_error(monkeypatch, b_to_t, options, later_error):
    context = two_candidates(b_to_t)
    failing_for_candidate_zero(monkeypatch)
    query = "Both and hasAssociation some (CT)"
    with pytest.raises(later_error) as info:
        rewrite_prepared(context, query, options)
    assert info.value.stage == "pathFind"
    # the earlier driver built candidate 0's result before planning candidate 1
    with pytest.raises(MccError):
        reference_rewrite_prepared(context, query, options)


def test_first_builds_one_result(monkeypatch):
    context = two_candidates(([], 3))
    query = "Both and hasAssociation some (CT)"
    built = []
    original = P.to_mcc
    monkeypatch.setattr(P, "to_mcc", lambda *args: built.append(args) or original(*args))

    every = rewrite_prepared(context, query)
    assert len(every.results) == len(built) == 4
    built.clear()
    first = rewrite_prepared(context, query, RewriteOptions(selection="first"))
    assert len(built) == 1
    assert first.results == every.results[:1]
    assert first.dropped == every.dropped
    # the limit counts every candidate, whatever the selection
    for selection in ("all", "first"):
        with pytest.raises(CandidateLimitError, match="candidate count at least 4 exceeds limit 3"):
            rewrite_prepared(context, query, RewriteOptions(candidate_limit=3, selection=selection))


# --- the CLI keeps its bytes --------------------------------------------------------

# sha256 of [exit code, stdout, stderr] of `rewrite` on each caBIO suite query,
# as the one-phase driver wrote them
CLI_DIGESTS = {
    "all": [
        "11b1d44f861f32482da1195a23ff1c7139c5d33482a866e4ebba65cb6f6c08c1",
        "888db52f6e68ad0efcdf8e1e1fa8c153750629d2f730a2907945ce2205abe77b",
        "aa99ad5516459914f15b176fc5ca71c14ea7b31b0c7d8dcd8c31fe033c1a0e7b",
        "87dea32a6bd0123a8866f27dd80cf93a965878f834c2f7327b2e839978cff050",
        "0265b505ad9fe7323cc58e77c9dc7c07a59460194536a612e04ab1f6362fc071",
    ],
    "first": [
        "11b1d44f861f32482da1195a23ff1c7139c5d33482a866e4ebba65cb6f6c08c1",
        "888db52f6e68ad0efcdf8e1e1fa8c153750629d2f730a2907945ce2205abe77b",
        "aa99ad5516459914f15b176fc5ca71c14ea7b31b0c7d8dcd8c31fe033c1a0e7b",
        "5135c994fe61c12003e174e492b53ac697e7131a906a178a7de4dac1c0067f7e",
        "b8439c45fc6501f36973e4bf522a32416978e59b62e1072c6085ed1e88f61c43",
    ],
}


def cabio_suite():
    lines = (FIXTURES / "cabio.suite.txt").read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def cli_digest(query, selection):
    out, err = io.StringIO(), io.StringIO()
    argv = [
        "rewrite",
        "--model",
        str(FIXTURES / "cabio_fragment.model.json"),
        "--thesaurus",
        str(FIXTURES / "ncit_fragment.thesaurus.txt"),
        "--query",
        query,
        "--selection",
        selection,
    ]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("selection", ["all", "first"])
def test_cli_rewrite_keeps_its_bytes(selection):
    assert [cli_digest(query, selection) for query in cabio_suite()] == CLI_DIGESTS[selection]
