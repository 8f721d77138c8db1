"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench``.  The
workloads are shrunk (fewer experiments, shorter dense runs, the e1
harness for resilience) and run in this process through ``child.main``;
the launcher's result line is then built from that run by
``run.result_line``.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def reduced(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "PAPER_EXPERIMENTS", ("e1", "e6b"))
    monkeypatch.setattr(workloads, "DENSE_CYCLES", 1000)
    monkeypatch.setattr(workloads, "DENSE_GAP", 500)
    monkeypatch.setattr(workloads, "RESILIENCE_EXPERIMENT", "e1")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    # the runner points these at each operation's fresh root
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path))
    return tmp_path


def run_child(work_dir, capsys, workload: str, trace: int, seed: int = 3):
    code = child.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "0", "--trace", str(trace),
                       "--work-dir", str(work_dir)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def spec(section: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_run_reports_every_metric(reduced, capsys, workload):
    untraced = run_child(reduced, capsys, workload, trace=0)
    traced = run_child(reduced, capsys, workload, trace=1)
    for result, trace, section in ((untraced, False, "end_to_end"),
                                   (traced, True, "per_layer")):
        assert result["failed"] == 0, result["failures"]
        line = run.result_line(result, [result["setup_s"]], trace)
        assert line["correct"] is True and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} \
            == spec(section)
        assert all(isinstance(v["value"], (int, float))
                   for v in line["metrics"].values())
    # one round at --seconds 0: every operation has exactly one sample
    assert set(untraced["samples"].values()) == {1}
    # same simulated outputs with and without the tracer
    assert traced["digest"] == untraced["digest"]
    assert traced["missing_hooks"] == []
    # self times partition the traced operations' CPU
    values = traced["layers"]
    self_total = sum(values[m] for m in layers.SELF_TIME_METRICS.values())
    assert 0 < self_total <= values["trace.cpu_s"]


def test_forced_engine_mismatch_fails_the_vec_operations(reduced, capsys,
                                                         monkeypatch):
    real = workloads.dense_outputs

    def tampered(arch):
        data = real(arch)
        if getattr(arch.sim, "vectorized", False):
            data["delivered"] += 1
        return data

    monkeypatch.setattr(workloads, "dense_outputs", tampered)
    result = run_child(reduced, capsys, "dense", trace=0)
    assert result["failed"] == len(workloads.DENSE_ARCHS)
    assert all("/vec" in f and "differs" in f for f in result["failures"])
    line = run.result_line(result, [result["setup_s"]], False)
    assert line["correct"] is False


def test_speed_probe_samples_inside_the_block_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    with probe:
        end = time.perf_counter() + 6 * speed.PROBE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) > 2 * speed.EDGE_PROBES
    assert probe.probe_s == pytest.approx(sum(probe.samples))
    assert probe.factor() == pytest.approx(
        speed.NOMINAL_PROBE_S / statistics.harmonic_mean(probe.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_speed_probe_kernel_is_fixed_and_leaves_gc_counts():
    counts = gc.get_count()
    assert speed.kernel() == speed.kernel() > 0
    assert gc.get_count() == counts


def test_dense_inputs_come_from_the_seed():
    assert (workloads.DenseWorkload(5).schedule
            == workloads.DenseWorkload(5).schedule)
    assert (workloads.DenseWorkload(5).schedule
            != workloads.DenseWorkload(6).schedule)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
