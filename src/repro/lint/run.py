"""The full lint pipeline behind ``repro lint``.

Order matters and is fixed here so the CLI, CI and tests agree:

1. static per-class rules (QL000, QL002, QL004, QL005 and QL012,
   :mod:`repro.lint.static_rules`)
2. whole-program graph rules (QL009 and QL011, :mod:`repro.lint.race`
   over the :mod:`repro.lint.graph` class graph)
3. dedupe by ``(rule, file, line, symbol)`` — helper attribution can
   reach one site through several paths
4. per-directory rule policies (examples/tests allowlists)
5. inline ``# simlint: disable=...`` suppressions

Severity filtering is *not* done here — the CLI applies
``--min-severity`` on the result so ``--strict`` and reporting formats
all see the same finding set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.lint.findings import Finding, Severity, dedupe_findings, \
    sort_findings
from repro.lint.graph import build_graph
from repro.lint.race import GRAPH_RULES, run_graph_rules
from repro.lint.static_rules import RULES, lint_paths
from repro.lint.suppress import apply_dir_policies, apply_suppressions

#: every rule the pipeline can emit: static + graph tables merged
ALL_RULES: Dict[str, Tuple[Severity, str]] = {**RULES, **GRAPH_RULES}


@dataclass
class LintResult:
    """Everything ``repro lint`` needs to report one run."""

    findings: List[Finding]
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def run_lint(paths: Sequence[str]) -> LintResult:
    """Run the full pipeline over ``paths`` (see module docstring).

    Raises on *internal* analyzer failure (a crash in a rule) — the CLI
    maps that to exit code 2 so CI never mistakes a broken analyzer for
    a clean run.  Findings, including QL000 parse errors for unreadable
    inputs, never raise.
    """
    findings: List[Finding] = list(lint_paths(paths))
    graph, parse_errors = build_graph(paths)
    findings.extend(parse_errors)
    findings.extend(run_graph_rules(graph))

    findings = apply_dir_policies(dedupe_findings(sort_findings(findings)))
    kept = apply_suppressions(findings)
    return LintResult(findings=kept, suppressed=len(findings) - len(kept))
