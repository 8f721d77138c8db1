"""Inline suppressions and per-directory rule policies.

Two scoped ways to accept a finding without silencing the analyzer
wholesale:

**Inline suppressions** — a ``# simlint:`` comment in the source:

* ``# simlint: disable=QL005`` on the offending line,
* ``# simlint: disable-next-line=QL005,QL009`` on the line above,
* ``# simlint: disable-file=QL002`` anywhere in the file, or
* ``disable=all`` to suppress every rule at that site.

Comments are found with :mod:`tokenize`, so strings that merely contain
the marker text do not suppress anything.

**Directory policies** — per-directory rule allowlists so example and
test code can stay illustrative.  Longest matching prefix wins; the
defaults ship in :data:`DEFAULT_DIR_POLICIES`.
"""

from __future__ import annotations

import io
import os
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding

_MARKER = "simlint:"


# ----------------------------------------------------------------------
# inline suppressions
# ----------------------------------------------------------------------
@dataclass
class SuppressionIndex:
    """Parsed ``# simlint:`` comments of one file."""

    #: line -> rule ids disabled on that line ("all" disables everything)
    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    #: rules disabled for the whole file
    file_wide: Set[str] = field(default_factory=set)

    def suppresses(self, rule: str, line: int) -> bool:
        for rules in (self.file_wide, self.by_line.get(line, ())):
            if "all" in rules or rule in rules:
                return True
        return False


def _parse_directive(comment: str) -> List[Tuple[str, Set[str]]]:
    """``# simlint: disable=QL004,QL005 disable-file=QL002`` ->
    ``[("disable", {...}), ("disable-file", {...})]``."""
    text = comment.lstrip("#").strip()
    marker = text.find(_MARKER)
    if marker < 0:
        return []
    out: List[Tuple[str, Set[str]]] = []
    for token in text[marker + len(_MARKER):].split():
        if "=" not in token:
            continue
        verb, _, rules = token.partition("=")
        verb = verb.strip().lower()
        if verb in ("disable", "disable-next-line", "disable-file"):
            ids = {r.strip() for r in rules.split(",") if r.strip()}
            if ids:
                out.append((verb, ids))
    return out


def scan_suppressions(source: str) -> SuppressionIndex:
    """All ``# simlint:`` suppressions in ``source`` (tokenize-based,
    so the marker inside a string literal is ignored)."""
    index = SuppressionIndex()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            for verb, rules in _parse_directive(tok.string):
                line = tok.start[0]
                if verb == "disable":
                    index.by_line.setdefault(line, set()).update(rules)
                elif verb == "disable-next-line":
                    index.by_line.setdefault(line + 1, set()).update(rules)
                else:
                    index.file_wide.update(rules)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparseable files already surface as QL000
    return index


def apply_suppressions(findings: Iterable[Finding]) -> List[Finding]:
    """Drop findings whose file carries a matching inline suppression."""
    cache: Dict[str, SuppressionIndex] = {}
    kept: List[Finding] = []
    for finding in findings:
        index = cache.get(finding.path)
        if index is None:
            try:
                with open(finding.path, "r", encoding="utf-8") as fh:
                    index = scan_suppressions(fh.read())
            except OSError:
                index = SuppressionIndex()
            cache[finding.path] = index
        if not index.suppresses(finding.rule, finding.line):
            kept.append(finding)
    return kept


# ----------------------------------------------------------------------
# per-directory rule policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DirPolicy:
    """Rules allowed to fire under one directory prefix."""

    prefix: str          # normalized, "/"-separated, no trailing slash
    allow: frozenset     # rule ids that still fire; "all" = everything
    reason: str = ""


#: default policies; longest matching prefix wins, src/ keeps everything.
DEFAULT_DIR_POLICIES: Tuple[DirPolicy, ...] = (
    # examples stay illustrative: the parse, tick-signature and
    # policy-hook rules still apply; the hygiene rules are relaxed.
    DirPolicy("examples", frozenset({"QL000", "QL005", "QL011"}),
              "example code is illustrative; full contract applies in src/"),
    # test helpers intentionally construct contract violations; keep the
    # parse and tick-signature rules.
    DirPolicy("tests", frozenset({"QL000", "QL005"}),
              "test doubles intentionally violate narrow contracts"),
)


def _norm(path: str) -> str:
    return os.path.normpath(path).replace(os.sep, "/").lstrip("./")


def policy_for(path: str,
               policies: Sequence[DirPolicy] = DEFAULT_DIR_POLICIES
               ) -> Optional[DirPolicy]:
    """The longest-prefix policy covering ``path``, if any."""
    norm = _norm(path)
    best: Optional[DirPolicy] = None
    for policy in policies:
        prefix = policy.prefix.rstrip("/")
        anchored = norm == prefix or norm.startswith(prefix + "/") \
            or ("/" + prefix + "/") in ("/" + norm)
        if anchored and (best is None
                         or len(prefix) > len(best.prefix)):
            best = policy
    return best


def apply_dir_policies(findings: Iterable[Finding],
                       policies: Sequence[DirPolicy] = DEFAULT_DIR_POLICIES
                       ) -> List[Finding]:
    """Drop findings whose rule is not in the covering directory's
    allowlist (files under no policy keep every rule)."""
    kept: List[Finding] = []
    for finding in findings:
        policy = policy_for(finding.path, policies)
        if policy is None or "all" in policy.allow \
                or finding.rule in policy.allow:
            kept.append(finding)
    return kept
