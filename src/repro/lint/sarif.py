"""SARIF 2.1.0 export for ``repro lint`` findings.

Produces the subset of SARIF that GitHub code scanning consumes: one
``run`` with a tool driver, a rule table (``tool.driver.rules`` with
stable indices), and one ``result`` per finding carrying
``ruleId``/``ruleIndex``, a ``level`` derived from
:attr:`~repro.lint.findings.Severity.sarif_level`, a physical location,
and a ``partialFingerprints`` entry built from the finding's
line-independent :meth:`~repro.lint.findings.Finding.baseline_key` so
re-runs match results across unrelated edits.

:func:`validate_sarif` checks the structural constraints of the 2.1.0
schema that matter for upload (required properties, index consistency,
level vocabulary) with the repository's schema helper
(:mod:`repro.schema`) instead of a JSON-schema package — CI runs it
against the artifact before upload.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.lint.findings import Finding, Severity
from repro.schema import problems

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")
_TOOL_NAME = "repro-simlint"


def _fingerprint(finding: Finding) -> str:
    blob = "\x1f".join(str(part) for part in finding.baseline_key())
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def to_sarif(findings: Sequence[Finding],
             rules: Mapping[str, Tuple[Severity, str]],
             tool_version: str = "0") -> Dict[str, object]:
    """Render ``findings`` as a SARIF 2.1.0 log object.

    ``rules`` is the merged rule table (id -> (default severity,
    summary)); rules never fired still appear in the driver so code
    scanning can show them as "passing".
    """
    rule_ids = sorted(set(rules) | {f.rule for f in findings})
    index_of = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    driver_rules: List[Dict[str, object]] = []
    for rule_id in rule_ids:
        severity, summary = rules.get(
            rule_id, (Severity.WARNING, "unregistered rule"))
        driver_rules.append({
            "id": rule_id,
            "shortDescription": {"text": summary},
            "defaultConfiguration": {"level": severity.sarif_level},
        })
    results: List[Dict[str, object]] = []
    for finding in findings:
        results.append({
            "ruleId": finding.rule,
            "ruleIndex": index_of[finding.rule],
            "level": finding.severity.sarif_level,
            "message": {"text": f"{finding.symbol}: {finding.message}"},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {"startLine": max(finding.line, 1)},
                },
                "logicalLocations": [{
                    "fullyQualifiedName": finding.symbol,
                }],
            }],
            "partialFingerprints": {
                "simlintBaselineKey/v1": _fingerprint(finding),
            },
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": _TOOL_NAME,
                "version": tool_version,
                "informationUri":
                    "https://example.invalid/repro/docs/linting.md",
                "rules": driver_rules,
            }},
            "columnKind": "utf16CodeUnits",
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }


_LEVEL = frozenset({"none", "note", "warning", "error"})

_SARIF = {
    "version": frozenset({SARIF_VERSION}),
    "runs": [{
        "tool": {"driver": {
            "name": str,
            "rules?": [{"id": str,
                        "defaultConfiguration?": {"level?": _LEVEL}}],
        }},
        "results?": [{
            "message": {"text": str},
            "level?": _LEVEL,
            "ruleId?": str,
            "ruleIndex?": int,
            "locations?": [{"physicalLocation": {
                "artifactLocation": {"uri": str},
                "region?": {"startLine?": int},
            }}],
        }],
    }, ...],
}


def _sarif_rules(doc: Dict[str, Any]) -> Iterator[str]:
    """Non-empty names and texts, lines from 1, and rule references
    that agree with the driver's rule table."""
    for ri, run in enumerate(doc["runs"]):
        driver = run["tool"]["driver"]
        ids = [rule["id"] for rule in driver.get("rules", ())]
        texts = [(f"runs[{ri}].tool.driver.name", driver["name"])]
        texts += [(f"runs[{ri}].tool.driver.rules[{qi}].id", rule_id)
                  for qi, rule_id in enumerate(ids)]
        for si, result in enumerate(run.get("results", ())):
            where = f"runs[{ri}].results[{si}]"
            texts.append((f"{where}.message.text",
                          result["message"]["text"]))
            rule_id, index = result.get("ruleId"), result.get("ruleIndex")
            if ids and rule_id not in (None, *ids):
                yield f"{where}.ruleId {rule_id!r} not in driver rules"
            if index is not None and not 0 <= index < max(len(ids), 1):
                yield f"{where}.ruleIndex {index!r} out of range"
            elif index is not None and ids \
                    and rule_id not in (None, ids[index]):
                yield f"{where}.ruleIndex does not match ruleId"
            for li, loc in enumerate(result.get("locations", ())):
                phys = loc["physicalLocation"]
                lwhere = f"{where}.locations[{li}].physicalLocation"
                texts.append((f"{lwhere}.artifactLocation.uri",
                              phys["artifactLocation"]["uri"]))
                if phys.get("region", {}).get("startLine", 1) < 1:
                    yield f"{lwhere}.region.startLine must be >= 1"
        yield from (f"{path} is empty" for path, text in texts if not text)


def validate_sarif(doc: object) -> List[str]:
    """Structural 2.1.0 validation; returns a list of problems (empty
    when the document is upload-ready), each naming its path."""
    return problems(doc, _SARIF) or list(_sarif_rules(doc))
