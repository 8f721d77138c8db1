"""Tests for the parallel experiment runner and its result cache."""

import os
import pickle
import shutil

import pytest

from repro.analysis import parallel as P
from repro.analysis.sweeps import SweepGrid, run_sweep


def test_config_hash_is_stable_and_kwarg_sensitive():
    a = P.Job("e1")
    b = P.Job("e1")
    c = P.Job("e1", kwargs={"bus_count": 8})
    d = P.Job("e2")
    assert P.config_hash(a) == P.config_hash(b)
    assert P.config_hash(a) != P.config_hash(c)
    assert P.config_hash(a) != P.config_hash(d)


def test_registry_covers_experiments_and_ablations():
    names = P.registry()
    for name in ("e1", "e12", "a1", "a7"):
        assert name in names


def test_unknown_job_raises_keyerror():
    with pytest.raises(KeyError, match="nope"):
        P._execute(P.Job("nope"))


def test_serial_run_caches_result(tmp_path):
    cache = str(tmp_path / "cache")
    first = P.run_named(["e1"], max_workers=0, cache_dir=cache)
    # sharded content-addressed layout: objects/<2-hex>/<name>-<hash>.pkl
    path = P._cache_path(cache, P.Job("e1"))
    digest = P.config_hash(P.Job("e1"))
    assert os.path.isfile(path)
    assert os.path.basename(os.path.dirname(path)) == digest[:2]
    assert os.path.basename(path) == f"e1-{digest}.pkl"
    assert os.path.dirname(os.path.dirname(path)) \
        == os.path.join(cache, P.OBJECTS_SUBDIR)
    # second run must be a pure cache hit returning an equal object
    second = P.run_named(["e1"], max_workers=0, cache_dir=cache)
    assert repr(first["e1"]) == repr(second["e1"])


def test_config_hash_keys_on_schema_not_release(monkeypatch, tmp_path):
    """The key's schema part is the package's source digest: the same
    sources give the same key, any changed source gives a new key, and
    a release that changes no source keeps the key."""
    import repro

    job = P.Job("e1")
    before = P.config_hash(job)
    monkeypatch.setattr(repro, "__version__", "999.0.0")
    assert P.config_hash(job) == before

    same, edited = tmp_path / "same", tmp_path / "edited"
    for root in (same, edited):
        shutil.copytree(P.PACKAGE_ROOT, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
    harness = edited / "analysis" / "experiments.py"
    harness.write_text(harness.read_text() + "# edited\n")
    digest = P.source_digest
    monkeypatch.setattr(P, "source_digest", lambda: digest(str(same)))
    assert P.config_hash(job) == before
    monkeypatch.setattr(P, "source_digest", lambda: digest(str(edited)))
    assert P.config_hash(job) != before


def test_changed_sources_miss_the_cache(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    job = P.Job("e1")
    P._cache_store(P._cache_path(cache, job), "stale-result")
    monkeypatch.setattr(P, "source_digest", lambda: "0" * 64)
    calls = []
    monkeypatch.setattr(P, "_execute",
                        lambda j: calls.append(j) or "fresh-result")
    out = P.run_jobs([job], max_workers=0, cache_dir=cache)
    assert out == ["fresh-result"]
    assert calls == [job]


def test_cache_hit_refreshes_mtime_for_lru(tmp_path):
    cache = str(tmp_path / "cache")
    job = P.Job("e1")
    path = P._cache_path(cache, job)
    P._cache_store(path, "sentinel")
    stale = 1_000_000_000.0
    os.utime(path, (stale, stale))
    assert P._cache_load(path) == ("hit", "sentinel")
    assert os.path.getmtime(path) > stale


def test_cache_hit_skips_execution(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    job = P.Job("e1")
    P._cache_store(P._cache_path(cache, job), "sentinel-result")
    calls = []
    monkeypatch.setattr(P, "_execute", lambda j: calls.append(j))
    out = P.run_jobs([job], max_workers=0, cache_dir=cache)
    assert out == ["sentinel-result"]
    assert calls == []


@pytest.mark.parametrize("garbage", [
    b"not a pickle",
    b"garbage\n",   # parses as protocol-0 opcodes -> ValueError
    b"",
])
def test_corrupted_cache_recomputes(tmp_path, garbage):
    cache = str(tmp_path / "cache")
    job = P.Job("e1")
    path = P._cache_path(cache, job)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as fh:
        fh.write(garbage)
    result = P.run_jobs([job], max_workers=0, cache_dir=cache)[0]
    assert result is not None
    # and the good result replaced the corrupt entry
    with open(path, "rb") as fh:
        assert repr(pickle.load(fh)) == repr(result)


def test_no_cache_leaves_disk_untouched(tmp_path, monkeypatch):
    # the run ledger is opt-out too: disable it so *nothing* writes
    monkeypatch.setenv("REPRO_LEDGER", "0")
    cache = str(tmp_path / "cache")
    P.run_named(["e1"], max_workers=0, cache_dir=cache, use_cache=False)
    assert not os.path.exists(cache)


def test_executed_job_leaves_run_record(tmp_path):
    from repro.obs.ledger import RUN_SCHEMA, RunLedger

    P.run_named(["e1"], max_workers=0, cache_dir=str(tmp_path / "c"),
                use_cache=False)
    ledger = RunLedger()  # conftest points this at the test tmp dir
    ids = ledger.ids()
    assert len(ids) == 1
    rec = ledger.load(ids[0])
    assert rec["schema"] == RUN_SCHEMA
    assert rec["kind"] == "experiment" and rec["name"] == "e1"


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(P.CACHE_DIR_ENV, str(tmp_path / "envcache"))
    assert P.default_cache_dir() == str(tmp_path / "envcache")
    monkeypatch.delenv(P.CACHE_DIR_ENV)
    assert P.default_cache_dir() == P.DEFAULT_CACHE_DIR


def test_parallel_pool_matches_serial(tmp_path):
    serial = P.run_named(["e1", "a4"], max_workers=0,
                         cache_dir=str(tmp_path / "s"))
    pooled = P.run_named(["e1", "a4"], max_workers=2,
                         cache_dir=str(tmp_path / "p"))
    assert repr(serial["e1"]) == repr(pooled["e1"])
    assert repr(serial["a4"]) == repr(pooled["a4"])


def test_run_sweep_parallel_matches_serial():
    grid = SweepGrid(arch=["sharedbus", "staticmesh"], width=[16, 32],
                     payload_bytes=[64])
    serial = run_sweep(grid)
    pooled = P.run_sweep_parallel(grid, max_workers=2)
    assert pooled == serial
