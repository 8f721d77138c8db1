"""Suppressions, baseline files, and per-directory rule policies.

Three complementary ways to accept a finding without silencing the
analyzer wholesale:

**Inline suppressions** — a ``# simlint:`` comment in the source:

* ``# simlint: disable=QL005`` on the offending line,
* ``# simlint: disable-next-line=QL005,QL009`` on the line above,
* ``# simlint: disable-file=QL002`` anywhere in the file, or
* ``disable=all`` to suppress every rule at that site.

Comments are found with :mod:`tokenize`, so strings that merely contain
the marker text do not suppress anything.

**Baseline file** — a checked-in JSON inventory
(``.simlint-baseline.json``, schema ``repro.simlint-baseline/1``) of
known findings keyed by the line-independent
:meth:`~repro.lint.findings.Finding.baseline_key` with a per-key count
and a mandatory ``justification``.  Matching findings are filtered;
stale entries (nothing matches any more) are reported so the baseline
can only shrink.

**Directory policies** — per-directory rule allowlists so example and
test code can stay illustrative.  Longest matching prefix wins; the
defaults ship in :data:`DEFAULT_DIR_POLICIES`.
"""

from __future__ import annotations

import io
import json
import os
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding
from repro.schema import problems

BASELINE_SCHEMA = "repro.simlint-baseline/1"
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
# baseline file
# ----------------------------------------------------------------------
@dataclass
class BaselineEntry:
    rule: str
    path: str
    symbol: str
    count: int
    justification: str = ""

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path.replace("\\", "/"), self.symbol)


class BaselineError(ValueError):
    """The baseline file is malformed."""


_BASELINE = {
    "schema": frozenset({BASELINE_SCHEMA}),
    "findings?": [{"rule": str, "path": str, "symbol": str,
                   "count?": int, "justification?": str}],
}


def load_baseline(path: str) -> List[BaselineEntry]:
    """The entries of a baseline file; raises :class:`BaselineError`
    naming the path of the first problem in it."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for problem in problems(doc, _BASELINE):
        raise BaselineError(f"{path}: {problem}")
    return [BaselineEntry(rule=raw["rule"], path=raw["path"],
                          symbol=raw["symbol"],
                          count=raw.get("count", 1),
                          justification=raw.get("justification", ""))
            for raw in doc.get("findings", [])]


def write_baseline(path: str, findings: Sequence[Finding],
                   justification: str = "accepted by --write-baseline"
                   ) -> List[BaselineEntry]:
    """Write the baseline covering ``findings`` and return its entries."""
    grouped: Dict[Tuple[str, str, str], int] = {}
    for finding in findings:
        rule, raw_path, symbol = finding.baseline_key()
        key = (rule, _canonical_path(raw_path), symbol)
        grouped[key] = grouped.get(key, 0) + 1
    entries = [BaselineEntry(rule=r, path=p, symbol=s, count=n,
                             justification=justification)
               for (r, p, s), n in sorted(grouped.items())]
    doc = {
        "schema": BASELINE_SCHEMA,
        "findings": [{"rule": e.rule, "path": e.path, "symbol": e.symbol,
                      "count": e.count, "justification": e.justification}
                     for e in entries],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return entries


def _canonical_path(path: str) -> str:
    """Repo-relative, "/"-separated form for baseline matching, so a
    baseline written from a checkout matches findings produced against
    the same files via an absolute package path."""
    norm = path.replace("\\", "/")
    if os.path.isabs(norm):
        try:
            rel = os.path.relpath(norm)
        except ValueError:  # different drive (Windows)
            return norm
        if not rel.startswith(".."):
            norm = rel.replace(os.sep, "/")
    return norm.lstrip("./")


def apply_baseline(findings: Iterable[Finding],
                   entries: Sequence[BaselineEntry]
                   ) -> Tuple[List[Finding], List[BaselineEntry]]:
    """Filter baselined findings.

    Returns ``(new_findings, stale_entries)``: each entry absorbs up to
    ``count`` findings sharing its line-independent key (paths compared
    repo-relative); findings beyond the count (a regression grew) pass
    through, and entries that matched nothing are reported stale so the
    baseline can only shrink.
    """
    def norm(key: Tuple[str, str, str]) -> Tuple[str, str, str]:
        return (key[0], _canonical_path(key[1]), key[2])

    budget: Dict[Tuple[str, str, str], int] = {}
    matched: Dict[Tuple[str, str, str], int] = {}
    for entry in entries:
        key = norm(entry.key)
        budget[key] = budget.get(key, 0) + max(entry.count, 0)
    kept: List[Finding] = []
    for finding in findings:
        key = norm(finding.baseline_key())
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            matched[key] = matched.get(key, 0) + 1
        else:
            kept.append(finding)
    stale = [entry for entry in entries
             if matched.get(norm(entry.key), 0) == 0]
    return kept, stale


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
