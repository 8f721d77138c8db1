"""Finding and severity types shared by the static pass and the CLI."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple


class Severity(enum.IntEnum):
    """Ordered severity levels; comparisons follow int ordering.

    The integer value *is* the rank: ``--min-severity`` filtering and
    every other comparison goes through :attr:`rank`, never through the
    names (string comparison would order ``error`` < ``info``).
    """

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; choose from "
                f"{', '.join(s.name.lower() for s in cls)}"
            ) from None

    @property
    def rank(self) -> int:
        """Explicit total-order rank (higher is more severe)."""
        return int(self)

    @property
    def sarif_level(self) -> str:
        """The SARIF 2.1.0 ``level`` for this severity."""
        return {Severity.INFO: "note",
                Severity.WARNING: "warning",
                Severity.ERROR: "error"}[self]

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One contract violation reported by the static pass."""

    rule: str           # e.g. "QL002"
    severity: Severity
    path: str           # file the finding is in
    line: int           # 1-based line number
    symbol: str         # "Class.method" (or "<module>")
    message: str

    @property
    def key(self) -> Tuple[str, str, int, str]:
        """Identity for deduplication: ``(rule, file, line, symbol)``.

        Helper-method attribution can surface the same source site
        through more than one analysis path (e.g. a helper reached from
        two entry methods); findings sharing this key describe one
        defect and must be reported once.
        """
        return (self.rule, self.path, self.line, self.symbol)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}: {self.severity} "
                f"[{self.rule}] {self.symbol}: {self.message}")


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Stable display order: by file, then line, then rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def dedupe_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Drop findings that repeat an earlier finding's
    ``(rule, file, line, symbol)`` key, preserving first-seen order."""
    seen: Set[Tuple[str, str, int, str]] = set()
    out: List[Finding] = []
    for finding in findings:
        key = finding.key
        if key not in seen:
            seen.add(key)
            out.append(finding)
    return out
