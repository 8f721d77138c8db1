"""SARIF export, suppressions, baseline workflow, and CLI exit codes."""

import json
import os
import re
import textwrap

import pytest

from repro.lint import (
    ALL_RULES,
    Finding,
    Severity,
    apply_baseline,
    dedupe_findings,
    load_baseline,
    scan_suppressions,
    to_sarif,
    validate_sarif,
    write_baseline,
)
from repro.lint.baseline import (
    BaselineError,
    DEFAULT_DIR_POLICIES,
    DirPolicy,
    apply_dir_policies,
    policy_for,
)
from tests.tampering import tampered


def mk(rule="QL009", path="src/a.py", line=10, symbol="A.tick",
       severity=Severity.ERROR, message="boom"):
    return Finding(rule, severity, path, line, symbol, message)


# ----------------------------------------------------------------------
# severity ordering and dedupe (satellite 1)
# ----------------------------------------------------------------------
class TestSeverityAndDedupe:
    def test_rank_is_total_ordered_not_string_ordered(self):
        # string compare would give "error" < "info"
        assert Severity.ERROR.rank > Severity.WARNING.rank
        assert Severity.WARNING.rank > Severity.INFO.rank
        assert sorted(Severity, key=lambda s: s.rank) == [
            Severity.INFO, Severity.WARNING, Severity.ERROR]

    def test_sarif_levels(self):
        assert Severity.INFO.sarif_level == "note"
        assert Severity.WARNING.sarif_level == "warning"
        assert Severity.ERROR.sarif_level == "error"

    def test_dedupe_by_rule_file_line_symbol(self):
        a = mk(message="via path one")
        b = mk(message="via path two")      # same key, different message
        c = mk(line=11)                     # different line survives
        assert dedupe_findings([a, b, c]) == [a, c]


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------
class TestSarif:
    def test_export_is_valid_and_indexed(self):
        findings = [mk(), mk(rule="QL002", severity=Severity.WARNING,
                             line=3)]
        doc = to_sarif(findings, ALL_RULES)
        assert validate_sarif(doc) == []
        run = doc["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        ids = [r["id"] for r in rules]
        assert ids == sorted(ids)
        for result in run["results"]:
            assert ids[result["ruleIndex"]] == result["ruleId"]
        levels = {r["ruleId"]: r["level"] for r in run["results"]}
        assert levels == {"QL009": "error", "QL002": "warning"}

    def test_fingerprints_are_line_independent(self):
        doc1 = to_sarif([mk(line=10)], ALL_RULES)
        doc2 = to_sarif([mk(line=99)], ALL_RULES)
        fp = "partialFingerprints"
        assert (doc1["runs"][0]["results"][0][fp]
                == doc2["runs"][0]["results"][0][fp])

    def test_validator_rejects_structural_damage(self):
        doc = to_sarif([mk()], ALL_RULES)
        assert validate_sarif({"version": "2.0.0"})  # wrong version
        broken = json.loads(json.dumps(doc))
        broken["runs"][0]["results"][0]["ruleIndex"] = 999
        assert any("ruleIndex" in p for p in validate_sarif(broken))
        broken = json.loads(json.dumps(doc))
        del broken["runs"][0]["tool"]["driver"]["name"]
        assert any("name" in p for p in validate_sarif(broken))
        broken = json.loads(json.dumps(doc))
        broken["runs"][0]["results"][0]["level"] = "fatal"
        assert any("level" in p for p in validate_sarif(broken))

    @pytest.mark.parametrize("path, value", [
        ("", []),
        ("runs", [1]),
        ("runs[0].tool", 1),
        ("runs[0].tool.driver.rules", 1),
        ("runs[0].results", [1]),
        ("runs[0].results[0].locations", 5),
        ("runs[0].results[0].locations[0].physicalLocation.region", 1),
        ("runs[0].results[0].message.text", ""),
    ])
    def test_malformed_log_lists_the_path(self, path, value):
        doc = tampered(to_sarif([mk()], ALL_RULES), path, value)
        problems = validate_sarif(doc)
        assert any(p.startswith(path or "document") for p in problems), \
            problems


# ----------------------------------------------------------------------
# inline suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_three_verbs(self):
        index = scan_suppressions(textwrap.dedent("""
            # simlint: disable-file=QL002
            x = 1  # simlint: disable=QL009,QL004
            # simlint: disable-next-line=QL005
            y = 2
        """))
        assert index.suppresses("QL002", 999)
        assert index.suppresses("QL009", 3)
        assert index.suppresses("QL004", 3)
        assert not index.suppresses("QL009", 4)
        assert index.suppresses("QL005", 5)

    def test_disable_all(self):
        index = scan_suppressions("z = 0  # simlint: disable=all\n")
        assert index.suppresses("QL011", 1)

    def test_marker_in_string_is_ignored(self):
        index = scan_suppressions(
            'text = "# simlint: disable=QL009"\n')
        assert not index.suppresses("QL009", 1)


# ----------------------------------------------------------------------
# baseline round-trip
# ----------------------------------------------------------------------
class TestBaseline:
    def test_round_trip_filters_and_reports_stale(self, tmp_path):
        path = str(tmp_path / "base.json")
        old = [mk(), mk(rule="QL002", symbol="B.snap",
                        severity=Severity.WARNING)]
        write_baseline(path, old, justification="known issues")
        entries = load_baseline(path)
        assert {e.rule for e in entries} == {"QL009", "QL002"}
        assert all(e.justification == "known issues" for e in entries)
        # the QL002 finding was fixed; a new line for QL009 appears
        current = [mk(line=42)]
        kept, stale = apply_baseline(current, entries)
        assert kept == []          # line moved, still baselined
        assert [e.rule for e in stale] == ["QL002"]

    def test_count_bounds_absorb_regressions(self):
        findings = [mk(line=1), mk(line=2), mk(line=3)]
        # entry count=2: the third same-key finding passes through
        from repro.lint.baseline import BaselineEntry
        entry = BaselineEntry(rule="QL009", path="src/a.py",
                              symbol="A.tick", count=2)
        kept, stale = apply_baseline(findings, [entry])
        assert len(kept) == 1
        assert stale == []

    def test_absolute_and_relative_paths_match(self):
        from repro.lint.baseline import BaselineEntry
        entry = BaselineEntry(rule="QL009", path="src/a.py",
                              symbol="A.tick", count=1)
        finding = mk(path=os.path.abspath("src/a.py"))
        kept, stale = apply_baseline([finding], [entry])
        assert kept == [] and stale == []

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/1", "findings": []}')
        with pytest.raises(BaselineError):
            load_baseline(str(bad))

    @pytest.mark.parametrize("findings, problem", [
        (5, "findings is not a list"),
        ([1], "findings[0] is not an object"),
        ([{"rule": "QL009", "path": "a.py"}], "findings[0] missing "
                                              "'symbol'"),
        ([{"rule": "QL009", "path": "a.py", "symbol": "A",
           "count": "x"}], "findings[0].count is not an integer"),
    ])
    def test_malformed_entries_name_the_path(self, tmp_path, findings,
                                             problem):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro.simlint-baseline/1",
                                   "findings": findings}))
        with pytest.raises(BaselineError, match=re.escape(problem)):
            load_baseline(str(bad))


# ----------------------------------------------------------------------
# per-directory policies
# ----------------------------------------------------------------------
#: a nested policy under the default ``tests`` one
NESTED = DEFAULT_DIR_POLICIES + (
    DirPolicy("tests/lint/seeded", frozenset({"all"}), "every rule"),
)


class TestDirPolicies:
    def test_longest_prefix_wins(self):
        seeded = policy_for("tests/lint/seeded/bad.py", NESTED)
        assert seeded is not None and "all" in seeded.allow
        plain_test = policy_for("tests/sim/test_x.py")
        assert plain_test is not None and "QL009" not in plain_test.allow
        assert policy_for("src/repro/sim/engine.py") is None

    def test_filtering(self):
        findings = [
            mk(path="tests/sim/helper.py", rule="QL009"),   # relaxed
            mk(path="tests/sim/helper.py", rule="QL005"),   # kept
            mk(path="tests/lint/seeded/bad.py", rule="QL009"),  # all
            mk(path="src/repro/sim/engine.py", rule="QL009"),   # kept
        ]
        kept = apply_dir_policies(findings, NESTED)
        assert [(f.path, f.rule) for f in kept] == [
            ("tests/sim/helper.py", "QL005"),
            ("tests/lint/seeded/bad.py", "QL009"),
            ("src/repro/sim/engine.py", "QL009"),
        ]


# ----------------------------------------------------------------------
# CLI exit codes and formats
# ----------------------------------------------------------------------
class TestCliContract:
    def test_exit_0_clean(self, tmp_path, capsys):
        from repro.cli import main
        good = tmp_path / "ok.py"
        good.write_text("x = 1\n")
        assert main(["lint", "--strict", "--no-baseline",
                     str(tmp_path)]) == 0
        capsys.readouterr()

    def test_exit_1_findings(self, tmp_path, capsys):
        from repro.cli import main
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent("""
            from repro.sim import Component

            class Bad(Component):
                def tick(self, sim) -> bool:
                    return True
        """))
        assert main(["lint", "--no-baseline", str(tmp_path)]) == 1
        capsys.readouterr()

    def test_exit_2_internal_error(self, tmp_path, capsys):
        from repro.cli import main
        missing = str(tmp_path / "nope-baseline.json")
        ok = tmp_path / "ok.py"
        ok.write_text("x = 1\n")
        assert main(["lint", "--baseline", missing, str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "internal analyzer error" in err

    def test_sarif_format(self, tmp_path, capsys):
        from repro.cli import main
        ok = tmp_path / "ok.py"
        ok.write_text("x = 1\n")
        assert main(["lint", "-f", "sarif", "--no-baseline",
                     str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_sarif(doc) == []

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        from repro.cli import main
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent("""
            from repro.sim import Component

            class Bad(Component):
                def tick(self, sim) -> bool:
                    return True
        """))
        base = str(tmp_path / "baseline.json")
        assert main(["lint", "--write-baseline", base,
                     str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["lint", "--strict", "--baseline", base,
                     str(tmp_path)]) == 0
        capsys.readouterr()
