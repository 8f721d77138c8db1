"""Shared fixtures: keep the run ledger and the result cache out of
the repo tree.

Ledgering is opt-out (every experiment/fleet/chaos run persists a
``repro.run/1`` record), and CLI experiment runs cache their results,
so without isolation the suite would scatter records and results into
``.repro-cache`` under the working directory, and a later run could
read a result cached by an earlier one.  Pointing ``REPRO_LEDGER_DIR``
and ``REPRO_CACHE_DIR`` at per-test temporary directories keeps the
behavior exercised — records and results are still written and
readable — while leaving the checkout clean.  Tests that need the
ledger *disabled* set ``REPRO_LEDGER=0`` themselves.
"""

import pytest


@pytest.fixture(autouse=True)
def _isolated_run_ledger(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "run-ledger"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "result-cache"))
