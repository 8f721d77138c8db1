"""Every example must run clean — examples are executable documentation
and rot silently otherwise. Run in-process (runpy) for speed; each
example ends with its own assertions."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    p.name for p in (Path(__file__).parents[2] / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_clean(script, capsys, monkeypatch):
    path = Path(__file__).parents[2] / "examples" / script
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"


def test_example_inventory():
    """The README promises the demo set; keep it in sync."""
    expected = {
        "quickstart.py",
        "video_pipeline.py",
        "automotive_buscom.py",
        "network_conochi.py",
        "dynoc_placement.py",
        "choose_architecture.py",
        "trace_comparison.py",
        "job_marketplace.py",
        "conochi_fault_tolerance.py",
        "congestion_monitor.py",
        "failover_demo.py",
        "adaptive_failover.py",
        # reads per-message journey records from retaining recorders
        # it swaps mid-run
        "latency_explain.py",
    }
    assert expected <= set(EXAMPLES)
