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
6. baseline filtering (line-independent keys, count-bounded)

Severity filtering is *not* done here — the CLI applies
``--min-severity`` on the result so ``--strict`` and reporting formats
all see the same finding set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.baseline import (
    BaselineEntry,
    DEFAULT_DIR_POLICIES,
    DirPolicy,
    apply_baseline,
    apply_dir_policies,
    apply_suppressions,
    load_baseline,
)
from repro.lint.findings import Finding, Severity, dedupe_findings, \
    sort_findings
from repro.lint.graph import build_graph
from repro.lint.race import GRAPH_RULES, run_graph_rules
from repro.lint.static_rules import RULES, lint_paths

#: every rule the pipeline can emit: static + graph tables merged
ALL_RULES: Dict[str, Tuple[Severity, str]] = {**RULES, **GRAPH_RULES}


@dataclass
class LintResult:
    """Everything ``repro lint`` needs to report one run."""

    findings: List[Finding]
    suppressed: int = 0
    baselined: int = 0
    stale_baseline: List[BaselineEntry] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings


def run_lint(paths: Sequence[str], *,
             with_graph: bool = True,
             baseline_path: Optional[str] = None,
             dir_policies: Sequence[DirPolicy] = DEFAULT_DIR_POLICIES,
             ) -> LintResult:
    """Run the full pipeline over ``paths`` (see module docstring).

    Raises on *internal* analyzer failure (unreadable baseline, crash in
    a rule) — the CLI maps that to exit code 2 so CI never mistakes a
    broken analyzer for a clean run.  Findings, including QL000 parse
    errors for unreadable inputs, never raise.
    """
    findings: List[Finding] = list(lint_paths(paths))
    if with_graph:
        graph, parse_errors = build_graph(paths)
        findings.extend(parse_errors)
        findings.extend(run_graph_rules(graph))

    findings = dedupe_findings(sort_findings(findings))
    findings = apply_dir_policies(findings, dir_policies)

    before = len(findings)
    findings = apply_suppressions(findings)
    suppressed = before - len(findings)

    baselined = 0
    stale: List[BaselineEntry] = []
    if baseline_path is not None:
        entries = load_baseline(baseline_path)
        before = len(findings)
        findings, stale = apply_baseline(findings, entries)
        baselined = before - len(findings)

    return LintResult(findings=findings, suppressed=suppressed,
                      baselined=baselined, stale_baseline=stale)
