"""Machine-checked contracts for the quiescence-aware kernel.

Static analysis, run as ``repro lint`` (see ``docs/linting.md``):

* :mod:`repro.lint.static_rules` — an AST pass over every
  :class:`~repro.sim.component.Component` subclass (rules QL002, QL004,
  QL005 and QL012);
* :mod:`repro.lint.graph` + :mod:`repro.lint.race` — a whole-program
  class graph and the rules on it (QL009 and QL011);
* :mod:`repro.lint.sarif` / :mod:`repro.lint.baseline` — SARIF 2.1.0
  export, inline ``# simlint: disable=...`` suppressions, baseline
  files, and per-directory rule policies; the SARIF log and the
  baseline file are checked with the :mod:`repro.schema` helper;
* :mod:`repro.lint.run` — the :func:`run_lint` pipeline tying these
  together in a fixed order.
"""

from repro.lint.baseline import (
    DEFAULT_DIR_POLICIES,
    DirPolicy,
    apply_baseline,
    apply_dir_policies,
    apply_suppressions,
    load_baseline,
    scan_suppressions,
    write_baseline,
)
from repro.lint.findings import (
    Finding,
    Severity,
    dedupe_findings,
    sort_findings,
)
from repro.lint.graph import ClassGraph, build_graph, build_graph_sources
from repro.lint.race import GRAPH_RULES, run_graph_rules
from repro.lint.run import ALL_RULES, LintResult, run_lint
from repro.lint.sarif import to_sarif, validate_sarif
from repro.lint.static_rules import (
    RULES,
    discover_files,
    lint_paths,
    lint_source,
)

__all__ = [
    "ALL_RULES",
    "ClassGraph",
    "DEFAULT_DIR_POLICIES",
    "DirPolicy",
    "Finding",
    "GRAPH_RULES",
    "LintResult",
    "RULES",
    "Severity",
    "apply_baseline",
    "apply_dir_policies",
    "apply_suppressions",
    "build_graph",
    "build_graph_sources",
    "dedupe_findings",
    "discover_files",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "run_graph_rules",
    "run_lint",
    "scan_suppressions",
    "sort_findings",
    "to_sarif",
    "validate_sarif",
    "write_baseline",
]
