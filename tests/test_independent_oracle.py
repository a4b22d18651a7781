"""The rewriter against the benchmark's independent oracle on drawn documents.

``perfbench/oracle.py`` predicts each chain query's outcome straight from
the model JSON and the thesaurus text, enumerating association paths with
networkx instead of ``onco_rewriter.reasoner``: the emitted (concept
choices, role chains), or the class and stage of the rejection. Here it
judges ``rewrite_prepared`` on small drawn documents (``document_strategies``)
through ``perfbench/checks.check_query``, which the benchmark's own checks
use; both are imported as ``perfbench/tests`` imports them. The oracle
fixes the default options, a node budget of 16 and a candidate limit of 64.

The draws are weighted so that a pair with no path within the node budget
(``NoPathError``) and a pair with more paths than the limit (the
``pathFind`` ``CandidateLimitError``) both occur; the second test shows
that they do.
"""

from __future__ import annotations

import sys
from pathlib import Path

from hypothesis import HealthCheck, Phase, find, given, settings

from onco_rewriter.cql import to_xml
from onco_rewriter.model import load_model, load_thesaurus
from onco_rewriter.pipeline import PipelineError, prepare_context, rewrite_prepared

from document_strategies import cases

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import oracle  # noqa: E402


def outcome_record(context, spec) -> dict:
    """The query's outcome in the form ``checks.check_query`` reads."""
    try:
        outcome = rewrite_prepared(context, spec.text())
    except PipelineError as error:
        return {"error": type(error).__name__, "stage": error.stage}
    return {
        "results": [
            {
                "xml": to_xml(result.cql),
                "provenance": checks.provenance_json(
                    result.provenance.concept_choices, result.provenance.path_choices
                ),
            }
            for result in outcome.results
        ]
    }


def buckets(case) -> set[str]:
    facts = oracle.Facts(case.model, case.thesaurus)
    return {facts.expected(spec).bucket() for spec in case.specs}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_rewriter_agrees_with_the_oracle(case):
    context = prepare_context(load_model(case.model_json), load_thesaurus(case.thesaurus))
    facts = oracle.Facts(case.model, case.thesaurus)
    for spec in case.specs:
        expected = facts.expected(spec)
        problems = checks.check_query(outcome_record(context, spec), expected, None)
        assert problems == [], (spec.text(), problems)


def test_draws_reach_no_path_and_the_path_limit():
    # the first hit is enough: no shrinking
    search = settings(max_examples=500, database=None, derandomize=True, phases=[Phase.generate])
    for bucket in ("reject:NoPathError:pathFind", "reject:CandidateLimitError:pathFind"):
        find(cases(), lambda case, bucket=bucket: bucket in buckets(case), settings=search)
