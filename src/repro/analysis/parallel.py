"""Parallel experiment runner: fan independent harnesses across processes.

The E1–E12 experiment harnesses and the a1–a7 ablations are all
top-level callables with keyword-only configuration and picklable
results, which makes them embarrassingly parallel: this module fans a
list of :class:`Job`\\ s across a ``concurrent.futures``
``ProcessPoolExecutor`` and memoizes each result on disk under a
content hash of the job's configuration, so re-running a sweep after
editing one experiment only recomputes that experiment.

Cache entries key on the job config and on :func:`source_digest`, a
hash of every ``.py`` file of the package: any edit to a harness, a
model or a result class misses the cache, while a version bump that
changes no source keeps it warm.

Entries live in the same 2-hex-prefix sharded content-addressed layout
as the run ledger (``objects/<2-hex>/<name>-<hash>.pkl`` next to the
ledger's ``runs/``), and every cache hit refreshes the entry's mtime so
``repro cache prune`` evicts genuinely-cold entries first.

Every cache-miss execution also persists a ``repro.run/1`` record into
the run ledger (:mod:`repro.obs.ledger`) — opt out with
``REPRO_LEDGER=0``.

``max_workers=0`` forces serial in-process execution (no pool, no
pickling), which is also what the runner silently uses for a single
job; ``use_cache=False`` (or the ``--no-cache`` CLI flag) bypasses the
cache both ways.  The cache directory defaults to ``.repro-cache`` and
can be moved with the ``REPRO_CACHE_DIR`` environment variable.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

#: environment override for the on-disk result cache location
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"
#: cached pickles live under ``<root>/objects/<2-hex-prefix>/``
OBJECTS_SUBDIR = "objects"
#: the installed ``repro`` package directory
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.lru_cache(maxsize=None)
def source_digest(root: str = PACKAGE_ROOT) -> str:
    """SHA-256 over the relative path and bytes of every ``.py`` file
    under ``root`` (default: the ``repro`` package), computed once per
    process and root."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
            digest.update(data)
    return digest.hexdigest()


def registry() -> Dict[str, Callable[..., Any]]:
    """All named harnesses runnable as jobs: experiments plus ablations.

    Resolved lazily (and in the worker process) so importing this
    module stays cheap and the callables never need to cross the
    process boundary — only the job *names* do.
    """
    from repro.analysis import ablations as A
    from repro.analysis.experiments import EXPERIMENTS

    jobs: Dict[str, Callable[..., Any]] = dict(EXPERIMENTS)
    jobs.update({
        "a1": A.a1_rmboc_bus_count,
        "a2": A.a2_buscom_static_split,
        "a3": A.a3_conochi_table_update_latency,
        "a4": A.a4_dynoc_router_latency,
        "a5": A.a5_buscom_adaptivity,
        "a6": A.a6_dynoc_switching_mode,
        "a7": A.a7_rmboc_fairness,
    })
    return jobs


class ExperimentError(KeyError):
    """An experiment name no harness is registered under, or a run of
    one that built no simulator to observe.  The CLI prints the message
    on one line and exits 2."""

    def __str__(self) -> str:
        return str(self.args[0])


def harness(name: str) -> Callable[..., Any]:
    """The registered harness called ``name``; raises
    :class:`ExperimentError` listing the known names."""
    harnesses = registry()
    if name not in harnesses:
        raise ExperimentError(f"unknown experiment {name!r}; known: "
                              f"{', '.join(sorted(harnesses))}")
    return harnesses[name]


@dataclass
class Job:
    """One unit of work: a registered harness name plus its kwargs."""

    name: str
    kwargs: Dict[str, Any] = field(default_factory=dict)


def config_hash(job: Job) -> str:
    """A stable content hash identifying a job's full configuration.

    Keyed on (name, kwargs, :func:`source_digest`), not on the package
    version."""
    payload = json.dumps(
        {
            "name": job.name,
            "kwargs": job.kwargs,
            "sources": source_digest(),
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def default_cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)


def _cache_path(cache_dir: str, job: Job) -> str:
    """Sharded content-addressed entry path: the first two hex digits
    of the config hash pick the shard, mirroring the run ledger's
    ``runs/<2-hex>/`` layout under the same root."""
    digest = config_hash(job)
    return os.path.join(cache_dir, OBJECTS_SUBDIR, digest[:2],
                        f"{job.name}-{digest}.pkl")


def _cache_load(path: str) -> Optional[tuple]:
    """``("hit", result)`` from disk, or None on a miss (absent file,
    corrupt bytes, or a result class that no longer unpickles).

    A hit refreshes the entry's mtime, so LRU eviction
    (``repro cache prune``) sees recently *used* — not just recently
    written — entries as fresh.

    Unpickling arbitrary corrupt bytes can raise almost anything
    (protocol-0 opcodes alone produce ValueError, KeyError, Unicode
    errors...), and a bad cache entry must always degrade to a miss,
    so everything non-exiting is caught."""
    try:
        with open(path, "rb") as fh:
            result = pickle.load(fh)
    except Exception:
        return None
    try:
        os.utime(path)
    except OSError:
        pass
    return ("hit", result)


def _cache_store(path: str, result: Any) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            pickle.dump(result, fh)
        os.replace(tmp, path)
    except (OSError, pickle.PicklingError):
        # unpicklable or read-only cache: run uncached, don't fail the job
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _execute(job: Job) -> Any:
    """Worker entry point: resolve the harness by name and run it.

    Module-level so ``ProcessPoolExecutor`` can pickle it.  Runs under
    the run ledger (:func:`repro.obs.ledger.ledgered_call`), so every
    executed job — serial or in a worker process — leaves a
    ``repro.run/1`` record; ``REPRO_LEDGER=0`` opts out and degrades
    this to a plain uninstrumented call.
    """
    run = harness(job.name)
    from repro.obs.ledger import ledgered_call

    seed = job.kwargs.get("seed")
    result, _run_id = ledgered_call(
        lambda: run(**job.kwargs),
        kind="experiment", name=job.name, config=job.kwargs,
        seed=seed if isinstance(seed, int) else None)
    return result


def _note(progress: Any, msg: str) -> None:
    """Per-run progress/heartbeat line.  ``progress`` is either a bool
    (True prints to stderr, so piped stdout stays machine-readable) or
    a callable receiving each message — which is how ``repro watch``
    hooks run/done events out of the runner."""
    if callable(progress):
        progress(msg)
    elif progress:
        print(msg, file=sys.stderr, flush=True)


def run_jobs(
    jobs: Sequence[Job],
    max_workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    progress: Any = False,
) -> List[Any]:
    """Run every job, in parallel where possible; results in job order.

    ``max_workers=None`` lets the executor pick (CPU count);
    ``max_workers=0`` runs serially in-process.  Cached results are
    returned without running anything.  ``progress=True`` prints a
    one-line heartbeat to stderr as each run starts/finishes (off by
    default so library callers stay silent); a callable receives each
    heartbeat message instead of printing it.
    """
    cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
    total = len(jobs)
    results: List[Any] = [None] * total
    misses: List[int] = []
    for i, job in enumerate(jobs):
        hit = _cache_load(_cache_path(cache_dir, job)) if use_cache else None
        if hit is not None:
            results[i] = hit[1]
            _note(progress, f"[{i + 1}/{total}] {job.name}: cached")
        else:
            misses.append(i)

    if misses:
        if max_workers == 0 or len(misses) == 1:
            computed = []
            for i in misses:
                _note(progress, f"[{i + 1}/{total}] {jobs[i].name}: running")
                t0 = time.perf_counter()
                computed.append(_execute(jobs[i]))
                _note(progress,
                      f"[{i + 1}/{total}] {jobs[i].name}: done "
                      f"({time.perf_counter() - t0:.1f}s)")
        else:
            t0 = time.perf_counter()
            by_index: Dict[int, Any] = {}
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                futures = {pool.submit(_execute, jobs[i]): i for i in misses}
                done = 0
                for future in as_completed(futures):
                    i = futures[future]
                    by_index[i] = future.result()
                    done += 1
                    _note(progress,
                          f"[{done}/{len(misses)}] {jobs[i].name}: done "
                          f"({time.perf_counter() - t0:.1f}s elapsed)")
            computed = [by_index[i] for i in misses]
        for i, result in zip(misses, computed):
            results[i] = result
            if use_cache:
                _cache_store(_cache_path(cache_dir, jobs[i]), result)
    return results


def run_named(
    names: Sequence[str],
    max_workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    progress: Any = False,
) -> Dict[str, Any]:
    """Convenience wrapper: run registered harnesses by name with their
    default configuration; returns ``{name: result}`` in input order."""
    jobs = [Job(name) for name in names]
    out = run_jobs(jobs, max_workers=max_workers, cache_dir=cache_dir,
                   use_cache=use_cache, progress=progress)
    return dict(zip(names, out))


# ----------------------------------------------------------------------
# parallel design-space sweeps
# ----------------------------------------------------------------------
def _sweep_single_point(packed: tuple) -> Any:
    """Run one sweep point in a worker via a single-point grid."""
    params, max_cycles = packed
    from repro.analysis.sweeps import SweepGrid, run_sweep

    grid = SweepGrid(**{k: [v] for k, v in params.items()})
    return run_sweep(grid, max_cycles=max_cycles)[0]


def run_sweep_parallel(
    grid: "Any",
    max_workers: Optional[int] = None,
    max_cycles: int = 1_000_000,
    progress: Any = False,
) -> List[Any]:
    """Like :func:`repro.analysis.sweeps.run_sweep` but with each grid
    point simulated in its own process.  Points are independent
    simulations, so results are identical to the serial sweep."""
    from repro.analysis.sweeps import run_sweep

    points = list(grid.points())
    if max_workers == 0 or len(points) <= 1:
        return run_sweep(grid, max_cycles=max_cycles)
    packed = [(p, max_cycles) for p in points]
    t0 = time.perf_counter()
    by_index: Dict[int, Any] = {}
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = {pool.submit(_sweep_single_point, item): i
                   for i, item in enumerate(packed)}
        for future in as_completed(futures):
            i = futures[future]
            by_index[i] = future.result()
            _note(progress,
                  f"[{len(by_index)}/{len(points)}] sweep point "
                  f"{points[i]}: done ({time.perf_counter() - t0:.1f}s "
                  f"elapsed)")
    return [by_index[i] for i in range(len(points))]
