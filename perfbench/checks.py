"""Output checks that decide ``failed_share``.

A query's outcome is either its result list (CQL XML and provenance per
candidate, in emitted order) or its rejection (error class and stage; the
message text is never compared, so "count 743 exceeds 64" may become
"65 exceeds 64"). ``outcome_digest`` fixes the bytes of either form.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET

# The hand-written reference listing for the caBIO SNP query, as the paper
# prints it (uneven whitespace included).
TGFB1_DOCUMENT = """\
<ns1:CQLQuery xmlns:ns1="http://CQL.caBIG/1/gov.nih.nci.cagrid.CQLQuery">
<ns1:Target name="gov.nih.nci.cabio.domain.SNP">
  <ns1:Association name="gov.nih.nci.cabio.domain.GeneRelativeLocation"
  roleName= "relativeLocationCollection">
   <ns1:Association name="gov.nih.nci.cabio.domain.Gene" roleName="gene">
    <ns1:Attribute name="symbol" predicate="EQUAL_TO" value="TGFB1"/>
   </ns1:Association>
   </ns1:Association>
</ns1:Target>
 </ns1:CQLQuery>
"""


def provenance_json(concept_choices, path_choices) -> str:
    return json.dumps([concept_choices, path_choices], separators=(",", ":"))


def outcome_digest(outcome: dict) -> str:
    """Digest of an outcome record: ``{"error", "stage"}`` for a rejection or
    ``{"results": [{"xml", "provenance"}, ...]}`` for an accepted query."""
    h = hashlib.sha256()
    if outcome.get("error") is not None:
        h.update(f"reject {outcome['error']} {outcome['stage']}".encode())
    else:
        for result in outcome["results"]:
            h.update(result["xml"].encode())
            h.update(b"\0")
            h.update(result["provenance"].encode())
            h.update(b"\0")
    return h.hexdigest()


def _canonical(element: ET.Element) -> tuple:
    return (
        element.tag,
        tuple(sorted(element.attrib.items())),
        (element.text or "").strip(),
        tuple(_canonical(child) for child in element),
    )


def xml_semantically_equal(a: str, b: str) -> bool:
    """Same elements, attributes and text, ignoring whitespace between tags."""
    return _canonical(ET.fromstring(a)) == _canonical(ET.fromstring(b))


def _as_tuples(value):
    if isinstance(value, list):
        return tuple(_as_tuples(v) for v in value)
    return value


def check_query(outcome: dict, expected, pinned_digest: str | None) -> list[str]:
    """Problems with one query's first outcome; empty when it is correct.

    ``expected`` is the oracle's Outcome, ``pinned_digest`` the digest
    recorded for this query at the benchmark's defining commit, if any.
    """
    problems = list(outcome.get("program_checks", []))
    if expected.error is not None:
        if (outcome.get("error"), outcome.get("stage")) != (expected.error, expected.stage):
            problems.append(
                f"expected rejection {expected.error} in {expected.stage}, got "
                f"{outcome.get('error') or 'results'} in {outcome.get('stage')}"
            )
    elif outcome.get("error") is not None:
        problems.append(f"expected results, got {outcome['error']} in {outcome['stage']}")
    else:
        emitted = [_as_tuples(json.loads(r["provenance"])) for r in outcome["results"]]
        if len(emitted) != len(set(emitted)) or set(emitted) != expected.provenances:
            problems.append(
                f"role chains differ from the reference enumerator: {len(emitted)} emitted, "
                f"{len(expected.provenances)} expected"
            )
    if pinned_digest is not None and outcome_digest(outcome) != pinned_digest:
        problems.append("output bytes differ from the pinned digest")
    return problems
