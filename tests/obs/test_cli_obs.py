"""CLI observability subcommands: repro trace / repro profile, and the
error contract of every command that runs a named experiment."""

import json

import pytest

from repro.cli import main
from repro.obs import validate_exposition


class TestTraceCommand:
    def test_writes_loadable_perfetto_json(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = main(["trace", "e1", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert {"traceEvents", "displayTimeUnit", "otherData"} == set(doc)
        text = capsys.readouterr().out
        assert "perfetto" in text
        assert "span" in text or "event" in text

    def test_prom_and_profile_options(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        prom = tmp_path / "m.prom"
        rc = main(["trace", "e1", "-o", str(out), "--prom", str(prom),
                   "--profile"])
        assert rc == 0
        assert validate_exposition(prom.read_text()) > 0
        assert "profile_seconds" in prom.read_text()
        doc = json.loads(out.read_text())
        assert "profile" in doc["otherData"]["simulators"][0]

    def test_unknown_experiment_fails(self, tmp_path, capsys):
        rc = main(["trace", "zz", "-o", str(tmp_path / "t.json")])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestProfileCommand:
    def test_renders_buckets_and_kernel_metrics(self, tmp_path, capsys):
        rc = main(["profile", "e1", "--json", str(tmp_path / "p.json"),
                   "--prom", str(tmp_path / "p.prom")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "bucket" in text and "share" in text
        assert "cycles_stepped" in text
        snap = json.loads((tmp_path / "p.json").read_text())
        assert all("profile" in e for e in snap["simulators"])
        assert validate_exposition((tmp_path / "p.prom").read_text()) > 0

    def test_unknown_experiment_fails(self, capsys):
        assert main(["profile", "zz"]) == 2


#: every command that runs a named experiment, with the options its
#: CI smoke run uses
NAMED_COMMANDS = [["trace"], ["profile"], ["watch", "--once"], ["explain"],
                  ["chaos", "--once"], ["adapt"]]


class TestNamedExperimentErrors:
    """An unknown name (``zz``) or a run that builds no simulator
    (``e5``) is one stderr line and exit 2, with nothing on stdout."""

    @pytest.mark.parametrize("name, shown", [
        ("zz", "unknown experiment 'zz'; known: a1, a2"),
        ("e5", "experiment 'e5' built no simulators"),
    ], ids=["unknown", "no-simulator"])
    @pytest.mark.parametrize("command", NAMED_COMMANDS,
                             ids=lambda argv: argv[0])
    def test_exits_two_with_one_line(self, command, name, shown, tmp_path,
                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([command[0], name, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert shown in captured.err
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []
