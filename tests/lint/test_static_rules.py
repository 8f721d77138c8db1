"""Static contract checker tests: every rule catches its minimal
offending fixture, the fixed twin passes, and the repository's own
sources are strict-clean."""

import os
import textwrap

import pytest

import repro
from repro.lint import RULES, Severity, lint_paths, lint_source

PKG_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def findings_for(src, rule=None):
    found = lint_source(textwrap.dedent(src))
    if rule is None:
        return found
    return [f for f in found if f.rule == rule]


# ----------------------------------------------------------------------
# QL002: nondeterministic sources
# ----------------------------------------------------------------------
class TestNondeterminism:
    def test_flags_random_call_in_tick(self):
        src = """
        import random

        from repro.sim import Component

        class Jittery(Component):
            def tick(self, sim):
                if random.random() < 0.5:
                    pass
                return None
        """
        hits = findings_for(src, "QL002")
        call_errors = [f for f in hits if f.severity is Severity.ERROR]
        assert call_errors and "random.random" in call_errors[0].message
        assert "repro.sim.rng" in call_errors[0].message
        # the module-level import is reported too, as a warning
        assert any(f.severity is Severity.WARNING and f.symbol == "<module>"
                   for f in hits)

    def test_flags_wall_clock_reads(self):
        src = """
        import time

        from repro.sim import Component

        class Clocky(Component):
            def tick(self, sim):
                self.t = time.time()
                return None
        """
        assert findings_for(src, "QL002")

    def test_seeded_numpy_stream_is_clean(self):
        src = """
        from repro.sim import Component
        from repro.sim.rng import make_rng

        class Proper(Component):
            def __init__(self):
                super().__init__("proper")
                self.rng = make_rng(1, "traffic", "proper")

            def tick(self, sim):
                if self.rng.random() < 0.5:
                    pass
                return None
        """
        assert findings_for(src, "QL002") == []

    def test_random_import_without_components_is_ignored(self):
        src = """
        import random

        def shuffle_report_rows(rows):
            random.shuffle(rows)
            return rows
        """
        assert findings_for(src, "QL002") == []


# ----------------------------------------------------------------------
# QL004: foreign private-state mutation
# ----------------------------------------------------------------------
class TestForeignMutation:
    def test_flags_assignment_to_foreign_private(self):
        src = """
        from repro.sim import Component

        class Meddler(Component):
            def poke(self, other):
                other._asleep = False
        """
        hits = findings_for(src, "QL004")
        assert len(hits) == 1
        assert "other._asleep" in hits[0].message

    def test_flags_container_mutation_of_foreign_private(self):
        src = """
        from repro.sim import Component

        class Meddler(Component):
            def inject(self, fifo, item):
                fifo._queue.append(item)
        """
        hits = findings_for(src, "QL004")
        assert hits and "fifo._queue" in hits[0].message

    def test_own_private_state_is_fine(self):
        src = """
        from repro.sim import Component

        class Proper(Component):
            def __init__(self):
                super().__init__("proper")
                self._backlog = []

            def tick(self, sim):
                self._backlog.append(sim.cycle)
                self._cursor = 0
                return None
        """
        assert findings_for(src, "QL004") == []

    def test_a_fabric_is_a_component_through_its_base(self, tmp_path):
        """Components are found by base-class name across the files
        linted together: a class that derives from CommArchitecture
        alone is checked when the package is linted with it."""
        fabric = tmp_path / "fabric.py"
        fabric.write_text(textwrap.dedent("""
            from repro.arch.base import CommArchitecture

            class Sleeper(CommArchitecture):
                def doze(self, other):
                    other._asleep = True
        """))
        hits = [f for f in lint_paths([PKG_DIR, str(fabric)])
                if f.rule == "QL004"]
        assert [(f.path, f.symbol) for f in hits] == [
            (str(fabric), "Sleeper.doze")]

    def test_public_attributes_of_others_are_not_flagged(self):
        # messages/ports expose deliberately public mutable state
        src = """
        from repro.sim import Component

        class Deliverer(Component):
            def deliver(self, msg, now):
                msg.delivered_cycle = now
        """
        assert findings_for(src, "QL004") == []


# ----------------------------------------------------------------------
# QL005: tick signatures that cannot return a QuiescenceHint
# ----------------------------------------------------------------------
class TestTickSignature:
    def test_flags_none_annotation(self):
        src = """
        from repro.sim import Component, Simulator

        class Annotated(Component):
            def tick(self, sim: Simulator) -> None:
                return None
        """
        hits = findings_for(src, "QL005")
        assert len(hits) == 1
        assert "QuiescenceHint" in hits[0].message

    def test_flags_bool_literal_return(self):
        src = """
        from repro.sim import Component

        class Boolish(Component):
            def tick(self, sim):
                return True
        """
        hits = findings_for(src, "QL005")
        assert hits and "True" in hits[0].message

    def test_flags_wrong_arity(self):
        src = """
        from repro.sim import Component

        class Greedy(Component):
            def tick(self, sim, phase):
                return None
        """
        hits = findings_for(src, "QL005")
        assert hits and "(self, sim)" in hits[0].message

    def test_quiescence_hint_annotation_is_clean(self):
        src = """
        from repro.sim import Component, QuiescenceHint, Simulator

        class Proper(Component):
            def tick(self, sim: Simulator) -> QuiescenceHint:
                return None
        """
        assert findings_for(src, "QL005") == []

    def test_int_hint_return_is_clean(self):
        src = """
        from repro.sim import Component

        class Timed(Component):
            def tick(self, sim):
                return sim.cycle + 10
        """
        assert findings_for(src, "QL005") == []


# ----------------------------------------------------------------------
# drivers, output plumbing, self-check
# ----------------------------------------------------------------------
class TestDrivers:
    def test_syntax_error_becomes_ql000(self):
        hits = findings_for("def broken(:\n", "QL000")
        assert hits and hits[0].severity is Severity.ERROR

    def test_findings_are_sorted_and_serializable(self):
        src = """
        from repro.sim import Component

        class Bad(Component):
            def tick(self, sim) -> bool:
                return True

            def poke(self, other):
                other._x = 1
        """
        found = findings_for(src)
        assert found == sorted(
            found, key=lambda f: (f.path, f.line, f.rule))
        for f in found:
            d = f.to_dict()
            assert set(d) == {"rule", "severity", "path", "line",
                              "symbol", "message"}
            assert f.render().startswith(f"{f.path}:{f.line}:")

    def test_every_documented_rule_exists(self):
        assert set(RULES) == {"QL000", "QL002", "QL004", "QL005",
                              "QL012"}

    def test_repository_sources_are_strict_clean(self):
        """The acceptance gate: `repro lint --strict` over the package."""
        assert lint_paths([PKG_DIR]) == []

    def test_cli_lint_subcommand(self, capsys):
        from repro.cli import main

        assert main(["lint", "--strict", PKG_DIR]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_cli_lint_json_output(self, tmp_path, capsys):
        import json

        from repro.cli import main

        bad = tmp_path / "bad_component.py"
        bad.write_text(textwrap.dedent("""
            from repro.sim import Component

            class Bad(Component):
                def tick(self, sim) -> bool:
                    return True
        """))
        assert main(["lint", "-f", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 2
        rules = {f["rule"] for f in payload["findings"]}
        assert rules == {"QL005"}

    def test_min_severity_filter(self, tmp_path, capsys):
        from repro.cli import main

        warny = tmp_path / "warny.py"
        warny.write_text(textwrap.dedent("""
            import random

            from repro.sim import Component

            class Quiet(Component):
                def tick(self, sim):
                    return None
        """))
        # only a module-level import warning: errors-only view is clean
        assert main(["lint", "--min-severity", "error", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["lint", "--strict", str(tmp_path)]) == 1
