"""Machine-checked contracts for the quiescence-aware kernel.

Two halves, one contract (see ``docs/linting.md``):

* static analysis, run as ``repro lint``:

  - :mod:`repro.lint.static_rules` — an AST pass over every
    :class:`~repro.sim.component.Component` subclass (rules
    QL001–QL005 and QL012);
  - :mod:`repro.lint.graph` + :mod:`repro.lint.race` — a whole-program
    component↔channel access graph and the race/topology rules on it
    (QL007–QL009 and QL011), dumped by ``repro lint --graph``;
  - :mod:`repro.lint.sarif` / :mod:`repro.lint.baseline` — SARIF 2.1.0
    export, inline ``# simlint: disable=...`` suppressions, baseline
    files, and per-directory rule policies;
  - :mod:`repro.lint.run` — the :func:`run_lint` pipeline tying these
    together in a fixed order.

* :mod:`repro.lint.runtime` — a runtime sanitizer
  (``Simulator(sanitize=True)`` / ``REPRO_SIM_SANITIZE=1``) that records
  per-component channel read/write sets each cycle and raises on
  violations the static pass cannot see (checks SAN001–SAN003), plus an
  opt-in race detector (``sanitize="race"`` / ``REPRO_SIM_SANITIZE=race``)
  tracking per-cycle write ownership (SAN004) and order-sensitive
  commits (SAN005).
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
from repro.lint.graph import AccessGraph, build_graph, build_graph_sources
from repro.lint.race import GRAPH_RULES, lint_graph_paths, run_graph_rules
from repro.lint.run import ALL_RULES, LintResult, run_lint
from repro.lint.runtime import Sanitizer, SanitizerError
from repro.lint.sarif import to_sarif, validate_sarif
from repro.lint.static_rules import (
    RULES,
    discover_files,
    lint_paths,
    lint_source,
)

__all__ = [
    "ALL_RULES",
    "AccessGraph",
    "DEFAULT_DIR_POLICIES",
    "DirPolicy",
    "Finding",
    "GRAPH_RULES",
    "LintResult",
    "RULES",
    "Sanitizer",
    "SanitizerError",
    "Severity",
    "apply_baseline",
    "apply_dir_policies",
    "apply_suppressions",
    "build_graph",
    "build_graph_sources",
    "dedupe_findings",
    "discover_files",
    "lint_graph_paths",
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
