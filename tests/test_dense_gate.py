"""The candidate limit bounds the path walk on a dense model.

In a complete model, where each of n classes has an association to every
other, a pair of classes has sum over k of (n-2)!/(n-2-k)! simple paths:
9,864,101 for 12 classes and 1,302,061,345 for 14 under the default
node budget of 16. Listing them all before the limit is compared does not
finish. ``K0 and hasAssociation some (K1)`` under the default options must
instead be rejected in ``pathFind`` at once, both as a lone candidate and
through the plan (when a second class matches ``K1``). The committed
``fixtures/dense12.*`` documents, which CI runs through the console script,
are the 12-class model and its thesaurus.
"""

from __future__ import annotations

import json
import time

import pytest

from onco_rewriter.model import load_model, load_thesaurus
from onco_rewriter.pipeline import CandidateLimitError, prepare_context, rewrite_prepared

from conftest import FIXTURES

QUERY = "K0 and hasAssociation some (K1)"


def dense_documents(n: int) -> tuple[str, str]:
    """Model JSON and thesaurus text: classes K0..K{n-1}, each annotated by
    its own concept and with a role ``to<K>`` to every other class."""
    names = [f"K{i}" for i in range(n)]
    model = {
        "project": "dense",
        "version": "1",
        "packagePrefix": "org.example.dense",
        "classes": [
            {"name": name, "annotation": {"primary": name, "qualifiers": []}, "attributes": []}
            for name in names
        ],
        "associations": [
            {"source": s, "roleName": f"to{t}", "target": t}
            for s in names
            for t in names
            if s != t
        ],
    }
    return json.dumps(model, indent=1) + "\n", "".join(f"CONCEPT {name}\n" for name in names)


def test_fixtures_are_the_dense_documents():
    model, thesaurus = dense_documents(12)
    assert (FIXTURES / "dense12.model.json").read_text(encoding="utf-8") == model
    assert (FIXTURES / "dense12.thesaurus.txt").read_text(encoding="utf-8") == thesaurus


@pytest.mark.parametrize("n", [12, 14])
@pytest.mark.parametrize("planned", [False, True], ids=["lone", "plan"])
def test_dense_model_is_rejected_at_the_limit(n, planned):
    model, thesaurus = dense_documents(n)
    if planned:
        # K2 falls under K1 too: two candidates, so the plan checks them
        thesaurus += "SUB K2 K1\n"
    context = prepare_context(load_model(model), load_thesaurus(thesaurus))
    start = time.perf_counter()
    with pytest.raises(CandidateLimitError) as info:
        rewrite_prepared(context, QUERY)
    assert time.perf_counter() - start < 2
    assert info.value.stage == "pathFind"
    assert str(info.value) == "candidate count at least 65 exceeds limit 64"
