"""CLI integration tests."""

import pytest

from repro.cli import main, make_parser


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_scenario_defaults(self):
        args = make_parser().parse_args(["scenario"])
        assert args.arch == "conochi"
        assert args.pattern == "ring"

    @pytest.mark.parametrize("argv", [
        ["sweep", "--archs", "nope"],
        ["sweep", "--widths", "0"],
        ["sweep", "--payloads", "0"],
        ["sweep", "--archs", "rmboc", "--seeds", "-1"],
        ["advise", "-m", "0"],
        ["advise", "-w", "0"],
        ["advise", "--parallel", "0"],
        ["advise", "--transfer", "0"],
        ["explain", "e1", "--rate", "2"],
        ["explain", "e1", "--rate", "nan"],
        ["explain", "e1", "--max-records", "0"],
        ["trace", "e1", "--max-events", "0"],
        ["chaos", "e1", "--rounds", "0"],
        ["experiment", "all", "-j", "-2"],
    ], ids=" ".join)
    def test_bad_option_value_exits_two(self, argv, capsys):
        """The parser rejects the value: argparse's usage and error
        line, exit 2, no traceback and nothing ledgered."""
        from repro.obs.ledger import RunLedger

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = captured.err.splitlines()[-1]
        assert error.startswith(f"repro {argv[0]}: error: argument ")
        assert argv[-2] in error
        assert "Traceback" not in captured.err
        assert len(RunLedger()) == 0

    def test_option_values_at_their_bounds_parse(self):
        parse = make_parser().parse_args
        assert parse(["sweep", "--archs", "BUS-COM", "static_mesh"]
                     ).archs == ["BUS-COM", "static_mesh"]
        assert parse(["sweep", "--seeds", "0"]).seeds == 0
        assert parse(["advise", "-m", "2", "-w", "1"]).modules == 2
        assert parse(["explain", "e1", "--rate", "0"]).rate == 0.0
        assert parse(["experiment", "all", "-j", "0"]).jobs == 0


class TestCommands:
    def test_scenario(self, capsys):
        assert main(["scenario", "-a", "buscom", "-b", "32"]) == 0
        out = capsys.readouterr().out
        assert "architecture : buscom" in out
        assert "latency" in out

    @pytest.mark.parametrize("arch, shown", [
        ("rmboc", "RMBoC needs at least 2 modules"),
        ("buscom", "BUS-COM needs at least 2 modules"),
        ("dynoc", "need at least two modules"),
        ("conochi", "need at least two modules"),
    ])
    def test_scenario_rejected_module_count_exits_two(self, arch, shown,
                                                      capsys):
        assert main(["scenario", "-a", arch, "-m", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"scenario: {shown}\n"

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for token in ("Figure 1", "Figure 2", "Figure 3", "Figure 4"):
            assert token in out

    def test_experiment_e1(self, capsys):
        assert main(["experiment", "e1"]) == 0
        assert "E1Result" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "e99"]) == 2

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 4" in out
        assert "5084" in out  # Table 3 RMBoC


class TestNewCommands:
    def test_sweep(self, capsys):
        assert main(["sweep", "--archs", "buscom", "--widths", "32",
                     "--payloads", "32"]) == 0
        out = capsys.readouterr().out
        assert "buscom" in out and "mean lat" in out

    def test_advise(self, capsys):
        assert main(["advise", "--variable-shape"]) == 0
        out = capsys.readouterr().out
        assert "recommendation:" in out
        assert "VETO" in out  # buses vetoed by variable shape

    def test_experiment_json(self, capsys):
        import json

        assert main(["experiment", "e8", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert set(parsed["rows"]) == {"rmboc", "buscom", "dynoc",
                                       "conochi"}

    def test_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "# repro run report" in out
        assert "Tables 1-4" in out
        assert "E10" in out
        assert "5084" in out

    def test_validate_fast(self, capsys):
        assert main(["validate", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out
