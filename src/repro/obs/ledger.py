"""Persistent run ledger: every run leaves a ``repro.run/1`` record.

The paper's contribution is *comparative* — Tables 1–4 rank the six
architectures against each other — yet spans, telemetry, alerts and
journey attributions normally die with their run, so comparisons
between runs, seeds or commits get re-derived ad hoc.  This
module gives every experiment / sweep / chaos / fleet run (opt-out,
not opt-in) a compact persistent record:

* **document** — a ``repro.run/1`` JSON object carrying the run's
  configuration (and its content hash), seed, library
  versions, the paper-table stats the harness returned, kernel
  self-metrics, per-flow/per-link telemetry summaries, alert firings,
  journey attribution aggregates, and resilience metrics (each section
  present when the run produced it);
* **store** — :class:`RunLedger`, a content-addressed on-disk store
  sharded by the first two hex digits of the run id (the ROADMAP
  item-1 "sharded content-addressed store" layout, shared with the
  result cache under ``.repro-cache``), with atomic writes, prefix
  resolution, listing and age/size-bounded garbage collection;
* **checker** — :func:`validate_run`, the structural validator CI runs
  on freshly produced records.

The run id is the SHA-256 of the record's canonical JSON with the
volatile wall-clock section stripped, so identical runs (same seed,
config and stats) store under one id — re-running a
deterministic experiment is a write-once no-op.  A stored file holds
the same compact sorted-key encoding with the wall-clock section
included.  Records are pure observations: the ledger attaches only
pure-observer instrumentation (telemetry, journeys) whose bit-identity
with unobserved runs is proven by the obs test suite, so ledgered
results equal unledgered ones.

Opt-out: set ``REPRO_LEDGER=0`` to disable persistence entirely, or
``REPRO_LEDGER_DIR`` to relocate it (default: the result-cache root,
``.repro-cache``/``REPRO_CACHE_DIR``).

Built on top: :mod:`repro.obs.diff` aligns two records and performs
noise-aware differential analysis (``repro diff``), and the
``repro regress`` gate compares fresh runs against a checked-in
baseline ledger.  See ``docs/observability.md``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import os
import sys
import time
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

from repro.obs.journey import FLOW_ROW
from repro.schema import NUMBER, check

#: schema tag of every ledger record
RUN_SCHEMA = "repro.run/1"

#: bump when the *record layout* changes incompatibly (sections added
#: compatibly don't count); part of the ``versions`` block
RECORD_VERSION = 1

#: environment opt-out: "0"/"off"/"no" disables all ledger writes
LEDGER_ENV = "REPRO_LEDGER"
#: environment override for the ledger root directory
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"
#: run records live under ``<root>/runs/<2-hex-prefix>/<run-id>.json``
RUNS_SUBDIR = "runs"

#: top-level sections excluded from the content hash (wall-clock only;
#: everything else in a record is simulation-derived and deterministic)
VOLATILE_KEYS = ("wall",)

#: per-simulator flow/link summaries kept in a record (top-N by
#: traffic; the omitted count is recorded so truncation is explicit)
MAX_FLOWS_PER_SIM = 64
MAX_LINKS_PER_SIM = 64

#: run kinds the validator accepts
RUN_KINDS = ("experiment", "sweep", "seed", "fleet", "chaos", "adapt")


def ledger_enabled() -> bool:
    """False when ``REPRO_LEDGER`` opts out of persistence."""
    return os.environ.get(LEDGER_ENV, "1").lower() not in ("0", "off", "no")


def default_ledger_dir() -> str:
    """``REPRO_LEDGER_DIR``, else the result-cache root — the ledger
    and the cache share one sharded store tree."""
    override = os.environ.get(LEDGER_DIR_ENV)
    if override:
        return override
    from repro.analysis.parallel import default_cache_dir

    return default_cache_dir()


# ----------------------------------------------------------------------
# canonical JSON + hashing
# ----------------------------------------------------------------------
def jsonable(obj: Any) -> Any:
    """Recursively convert to JSON-serializable plain data.

    Mirrors :func:`repro.analysis.export.to_jsonable`, except that
    numpy values are handled structurally via ``item()`` (arrays fall
    back to ``str``).  Run ids hash this encoding, so it must not
    change.  Plain data (exact str, int, bool, None, finite float,
    dict, list and tuple) takes a fast path ahead of the general
    checks; it converts exactly as they would.
    """
    cls = type(obj)
    if cls is str or cls is int or cls is bool or obj is None:
        return obj
    if cls is float and math.isfinite(obj):
        return obj
    if cls is dict:
        return {k if isinstance(k, str) else str(k): jsonable(v)
                for k, v in obj.items()}
    if cls is list or cls is tuple:
        return [jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.name
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {k if isinstance(k, str) else str(k): jsonable(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar without importing numpy
        try:
            return jsonable(obj.item())
        except Exception:
            pass
    return str(obj)


def _dumps(doc: Any) -> str:
    """Compact, sorted-key JSON of plain data (json's C encoder)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _canonical(doc: Dict[str, Any], strip_volatile: bool = True) -> bytes:
    """:func:`canonical_bytes` of a record already converted by
    :func:`jsonable`."""
    if strip_volatile:
        doc = {k: v for k, v in doc.items() if k not in VOLATILE_KEYS}
    return _dumps(doc).encode("utf-8")


def canonical_bytes(record: Dict[str, Any],
                    strip_volatile: bool = True) -> bytes:
    """The record's canonical JSON encoding: sorted keys, minimal
    separators, volatile (wall-clock) sections stripped.  This is what
    gets hashed — and what the determinism tests compare byte for
    byte."""
    return _canonical(jsonable(record), strip_volatile)


def _content_id(body: bytes) -> str:
    """:func:`run_id_of` a record whose canonical bytes are ``body``."""
    return hashlib.sha256(body).hexdigest()[:16]


def _stored_parts(doc: Dict[str, Any], body: bytes) -> List[Any]:
    """The stored file of ``doc``, whose canonical bytes are ``body``,
    as pieces to write in order: ``_dumps(doc)`` and a newline.

    The volatile sections sort after every other key of a record, so
    the file is ``body`` with them spliced in before its closing brace,
    and ``body`` is written through a view instead of being copied.  A
    record with a key that sorts after a volatile one is encoded
    whole."""
    volatile = {k: doc[k] for k in VOLATILE_KEYS if k in doc}
    if not volatile:
        return [body, b"\n"]
    first = min(volatile)
    if any(k > first for k in doc if k not in volatile):
        return [_dumps(doc).encode("utf-8"), b"\n"]
    # '{"wall":{...}}' without its opening brace closes the record
    tail = _dumps(volatile).encode("utf-8")[1:]
    head = memoryview(body)[:-1]
    return [head, b"," + tail if len(head) > 1 else tail, b"\n"]


def run_id_of(record: Dict[str, Any]) -> str:
    """Content address of a record: SHA-256 of its canonical bytes,
    truncated to 16 hex digits (64 bits — collision-safe for any
    realistic ledger size)."""
    return _content_id(_canonical(jsonable(record)))


def config_hash(kind: str, name: str,
                config: Optional[Dict[str, Any]]) -> str:
    """Stable hash of a run's *configuration identity* — what must be
    equal for two runs to be "the same setup".  The seed is
    deliberately excluded (it is a top-level record field) so that
    same-config/different-seed runs align in ``repro diff``; a fleet's
    ``seeds`` list is excluded for the same reason."""
    cfg = dict(config or {})
    cfg.pop("seed", None)
    cfg.pop("seeds", None)
    payload = json.dumps({"kind": kind, "name": name, "config": cfg},
                         sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def _git_head(start: Optional[str] = None) -> Optional[str]:
    """Best-effort current commit hash: walk up from ``start`` to the
    nearest ``.git`` and read HEAD (no subprocess).  None when not in a
    checkout or on any read problem."""
    d = os.path.abspath(start or os.getcwd())
    while True:
        git = os.path.join(d, ".git")
        if os.path.isdir(git):
            try:
                with open(os.path.join(git, "HEAD"),
                          encoding="utf-8") as fh:
                    head = fh.read().strip()
                if head.startswith("ref:"):
                    ref = head.split(None, 1)[1]
                    ref_path = os.path.join(git, *ref.split("/"))
                    if os.path.isfile(ref_path):
                        with open(ref_path, encoding="utf-8") as fh:
                            return fh.read().strip() or None
                    packed = os.path.join(git, "packed-refs")
                    if os.path.isfile(packed):
                        with open(packed, encoding="utf-8") as fh:
                            for line in fh:
                                if line.strip().endswith(ref):
                                    return line.split()[0]
                    return None
                return head or None
            except OSError:
                return None
        parent = os.path.dirname(d)
        if parent == d:
            return None
        d = parent


def versions_block() -> Dict[str, Any]:
    """The environment-identity block of a record."""
    import repro

    return {
        "package": repro.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "git": _git_head(),
        "record": RECORD_VERSION,
    }


# ----------------------------------------------------------------------
# record sections from live simulators / sessions
# ----------------------------------------------------------------------
def aggregate_kernel(sims: Iterable[Any]) -> Dict[str, int]:
    """Sum kernel self-metrics across simulators (``commit_max`` takes
    the max — it is a watermark, not a count)."""
    totals: Dict[str, int] = {}
    for sim in sims:
        for key, value in sim.kmetrics.as_dict().items():
            if key == "commit_max":
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    return totals


def _top_items(items: List[Dict[str, Any]], limit: int,
               key: Callable[[Dict[str, Any]], Any]) -> Tuple[
                   List[Dict[str, Any]], int]:
    if len(items) <= limit:
        return items, 0
    kept = sorted(items, key=key)[:limit]
    return kept, len(items) - limit


def telemetry_section(sims: Iterable[Any]) -> List[Dict[str, Any]]:
    """Compact per-simulator flow/link/counter/alert summaries.

    One entry per telemetry-carrying simulator, in construction order
    (deterministic).  Flows and links keep the top
    ``MAX_FLOWS_PER_SIM``/``MAX_LINKS_PER_SIM`` by volume with an
    explicit ``omitted`` count; the bounded utilization ring series is
    dropped (the summaries carry the comparison-relevant signal)."""
    out: List[Dict[str, Any]] = []
    for index, sim in enumerate(sims):
        tel = getattr(sim, "telemetry", None)
        if tel is None:
            continue
        now = sim.cycle
        flows = [tel.flows[k].as_dict() for k in sorted(tel.flows)]
        flows, flows_omitted = _top_items(
            flows, MAX_FLOWS_PER_SIM,
            key=lambda f: (-f["messages"], f["src"], f["dst"]))
        links = []
        for name in sorted(tel.links):
            d = tel.links[name].as_dict(now)
            d.pop("series", None)
            links.append(d)
        links, links_omitted = _top_items(
            links, MAX_LINKS_PER_SIM,
            key=lambda l: (-l["busy_cycles"], l["name"]))
        entry: Dict[str, Any] = {
            "index": index,
            "cycle": now,
            "flows": flows,
            "flows_omitted": flows_omitted,
            "links": links,
            "links_omitted": links_omitted,
            "counters": dict(sorted(tel.counters.items())),
            "gauges": dict(sorted(tel.gauges.items())),
            "quiesce": tel.quiesce.summary(),
            "mttr": tel.mttr.summary(),
        }
        if tel.engine is not None:
            snap = tel.engine.snapshot(now)
            entry["alerts"] = snap["alerts"]
            entry["alerts_dropped"] = snap["dropped"]
        out.append(entry)
    return out


def journey_section(sims: Iterable[Any]) -> Optional[Dict[str, Any]]:
    """Per-flow latency attribution aggregates across every journey-
    carrying simulator — the ``repro diff`` attribution substrate."""
    from repro.obs.journey import aggregate_flows

    entries: List[Dict[str, Any]] = []
    total_attributed = 0
    total_latency = 0
    for index, sim in enumerate(sims):
        jr = getattr(sim, "journey", None)
        if jr is None:
            continue
        flows = aggregate_flows(jr)
        attributed = sum(row["attributed"] for row in flows)
        latency = sum(row["latency"]["total"] for row in flows)
        total_attributed += attributed
        total_latency += latency
        entries.append({
            "index": index,
            "records": len(jr.records),
            "sampled_out": jr.sampled_out,
            "capped": jr.capped,
            "flows": flows,
        })
    if not entries:
        return None
    return {
        "simulators": entries,
        "coverage": (total_attributed / total_latency
                     if total_latency else 1.0),
    }


def alerts_section(sims: Iterable[Any]) -> List[Dict[str, Any]]:
    """Every alert fired across the run's simulators, flattened (the
    per-simulator telemetry entries keep the engine snapshots)."""
    fired: List[Dict[str, Any]] = []
    for index, sim in enumerate(sims):
        tel = getattr(sim, "telemetry", None)
        if tel is None or tel.engine is None:
            continue
        for alert in tel.engine.alerts:
            d = alert.to_dict()
            d["sim"] = index
            fired.append(d)
    return fired


def build_run_record(kind: str, name: str, *,
                     config: Optional[Dict[str, Any]] = None,
                     seed: Optional[int] = None,
                     stats: Any = None,
                     sims: Optional[Iterable[Any]] = None,
                     resilience: Optional[Dict[str, Any]] = None,
                     seed_stats: Optional[Dict[str, Any]] = None,
                     seed_run_ids: Optional[List[str]] = None,
                     wall_seconds: Optional[float] = None
                     ) -> Dict[str, Any]:
    """Assemble a ``repro.run/1`` record.

    ``stats`` is the run's headline result (an experiment result
    dataclass, sweep rows, chaos document...) — converted to plain
    JSON data.  ``sims`` supplies the observability sections (kernel
    metrics, telemetry, journeys); each section appears only when the
    run produced it.
    """
    if kind not in RUN_KINDS:
        raise ValueError(f"unknown run kind {kind!r}; known: {RUN_KINDS}")
    config = dict(config or {})
    if seed is None and isinstance(config.get("seed"), int):
        seed = config["seed"]
    record: Dict[str, Any] = {
        "schema": RUN_SCHEMA,
        "kind": kind,
        "name": name,
        "seed": seed,
        "config": jsonable(config),
        "config_hash": config_hash(kind, name, config),
        "versions": versions_block(),
        "stats": jsonable(stats),
    }
    sims = list(sims) if sims is not None else []
    if sims:
        record["kernel"] = aggregate_kernel(sims)
        telemetry = telemetry_section(sims)
        if telemetry:
            record["telemetry"] = telemetry
            record["alerts"] = alerts_section(sims)
        journeys = journey_section(sims)
        if journeys is not None:
            record["journeys"] = journeys
    if resilience is not None:
        record["resilience"] = jsonable(resilience)
    if seed_stats is not None:
        record["seed_stats"] = jsonable(seed_stats)
    if seed_run_ids is not None:
        record["seed_run_ids"] = list(seed_run_ids)
    record["wall"] = {
        "seconds": wall_seconds,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S",
                                     time.gmtime()),
    }
    return record


# ----------------------------------------------------------------------
# the sharded content-addressed store
# ----------------------------------------------------------------------
@dataclasses.dataclass
class RunEntry:
    """One ledger listing row (cheap: summary fields only)."""

    run_id: str
    kind: str
    name: str
    seed: Optional[int]
    config_hash: str
    recorded_at: str
    wall_seconds: Optional[float]
    path: str
    size: int


class LedgerError(ValueError):
    """Unknown / ambiguous run id, or a structurally broken record."""


class RunLedger:
    """Content-addressed run-record store.

    Layout (shared root with the result cache)::

        <root>/runs/<2-hex-prefix>/<run-id>.json

    Writes are atomic (tmp + rename) and idempotent: storing a record
    whose content already exists is a no-op returning the same id.
    """

    def __init__(self, root: Optional[str] = None):
        self.root = root if root is not None else default_ledger_dir()

    @property
    def runs_dir(self) -> str:
        return os.path.join(self.root, RUNS_SUBDIR)

    def path_for(self, run_id: str) -> str:
        return os.path.join(self.runs_dir, run_id[:2], f"{run_id}.json")

    # ------------------------------------------------------------------
    def store(self, record: Dict[str, Any]) -> str:
        """Persist ``record``; returns its run id.

        The record is converted to plain data once and encoded once.
        Its id hashes the compact sorted-key encoding without the
        wall-clock section (as :func:`run_id_of`), and the file holds
        the same encoding with it (:func:`_stored_parts`), so
        ``json.load`` of the file gives the converted record back.  A
        root that cannot be written (read-only, or a path through a
        regular file) leaves the run unrecorded: the id is still
        returned.
        """
        doc = jsonable(record)
        body = _canonical(doc)
        run_id = _content_id(body)
        path = self.path_for(run_id)
        if os.path.exists(path):
            return run_id
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "wb") as fh:
                for part in _stored_parts(doc, body):
                    fh.write(part)
            os.replace(tmp, path)
        except OSError:
            # unwritable store: the run still happened, just unrecorded
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return run_id

    def load(self, run_id: str) -> Dict[str, Any]:
        path = self.path_for(run_id)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise LedgerError(f"no run {run_id!r} in ledger "
                              f"{self.runs_dir}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise LedgerError(f"unreadable run record {path}: "
                              f"{exc}") from exc
        if not isinstance(doc, dict):
            raise LedgerError(f"run record {path} is not a JSON object")
        return doc

    def ids(self) -> List[str]:
        """Every stored run id, sorted."""
        out: List[str] = []
        runs = self.runs_dir
        if not os.path.isdir(runs):
            return out
        for shard in sorted(os.listdir(runs)):
            shard_dir = os.path.join(runs, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for fname in sorted(os.listdir(shard_dir)):
                if fname.endswith(".json"):
                    out.append(fname[:-5])
        return out

    def resolve(self, prefix: str) -> str:
        """Expand a unique run-id prefix to the full id."""
        prefix = prefix.strip().lower()
        if not prefix:
            raise LedgerError("empty run id")
        matches = [i for i in self.ids() if i.startswith(prefix)]
        if not matches:
            raise LedgerError(f"no run matching {prefix!r} in "
                              f"{self.runs_dir}")
        if len(matches) > 1:
            raise LedgerError(
                f"ambiguous run id {prefix!r}: matches "
                f"{', '.join(matches[:8])}"
                + ("..." if len(matches) > 8 else ""))
        return matches[0]

    def entries(self) -> List[RunEntry]:
        """Listing rows for every record, newest first.  Raises
        :class:`LedgerError` for a record that is unreadable or fails
        :func:`validate_run`, naming the run and the problem's path."""
        out: List[RunEntry] = []
        for run_id in self.ids():
            path = self.path_for(run_id)
            rec = self.load(run_id)
            try:
                validate_run(rec)
            except ValueError as exc:
                raise LedgerError(f"run {run_id}: {exc}") from None
            wall = rec["wall"]
            out.append(RunEntry(
                run_id=run_id,
                kind=rec["kind"],
                name=rec["name"],
                seed=rec.get("seed"),
                config_hash=rec["config_hash"],
                recorded_at=wall["recorded_at"],
                wall_seconds=wall.get("seconds"),
                path=path,
                size=os.path.getsize(path),
            ))
        out.sort(key=lambda e: (e.recorded_at, e.run_id), reverse=True)
        return out

    def gc(self, max_age_days: Optional[float] = None,
           max_bytes: Optional[int] = None,
           dry_run: bool = False) -> "PruneReport":
        """Age/size-bounded eviction of run records (LRU by mtime)."""
        return prune_tree([self.runs_dir], suffixes=(".json",),
                          max_age_days=max_age_days, max_bytes=max_bytes,
                          dry_run=dry_run)

    def __len__(self) -> int:
        return len(self.ids())

    def __repr__(self) -> str:  # pragma: no cover
        return f"RunLedger({self.runs_dir!r}, records={len(self)})"


# ----------------------------------------------------------------------
# shared age/size LRU pruning (ledger records + result-cache pickles)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class PruneReport:
    """What a prune pass scanned and (would have) removed."""

    scanned: int = 0
    scanned_bytes: int = 0
    evicted: List[str] = dataclasses.field(default_factory=list)
    evicted_bytes: int = 0
    dry_run: bool = False

    @property
    def kept(self) -> int:
        return self.scanned - len(self.evicted)

    def render(self) -> str:
        verb = "would evict" if self.dry_run else "evicted"
        return (f"scanned {self.scanned} entr"
                f"{'y' if self.scanned == 1 else 'ies'} "
                f"({self.scanned_bytes / 1024:.0f} KiB); {verb} "
                f"{len(self.evicted)} ({self.evicted_bytes / 1024:.0f} "
                f"KiB), keeping {self.kept}")


def prune_tree(roots: Iterable[str], suffixes: Tuple[str, ...],
               max_age_days: Optional[float] = None,
               max_bytes: Optional[int] = None,
               dry_run: bool = False) -> PruneReport:
    """Evict least-recently-used entries under ``roots``.

    Two bounds, both optional: entries older than ``max_age_days`` go
    first; then, oldest-first, entries are dropped until the total is
    at most ``max_bytes``.  "Used" is the file mtime — the result
    cache refreshes it on every hit, so hot entries survive.  Empty
    shard directories left behind are removed.  A negative bound
    raises ``ValueError``: it would evict everything.
    """
    for name, bound in (("max_age_days", max_age_days),
                        ("max_bytes", max_bytes)):
        if bound is not None and bound < 0:
            raise ValueError(f"{name} must be >= 0, got {bound}")
    report = PruneReport(dry_run=dry_run)
    files: List[Tuple[float, int, str]] = []  # (mtime, size, path)
    for root in roots:
        if not os.path.isdir(root):
            continue
        for dirpath, _dirnames, filenames in os.walk(root):
            for fname in filenames:
                if not fname.endswith(suffixes):
                    continue
                path = os.path.join(dirpath, fname)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                files.append((st.st_mtime, st.st_size, path))
    files.sort()
    report.scanned = len(files)
    report.scanned_bytes = sum(size for _, size, _ in files)

    doomed: Dict[str, int] = {}
    if max_age_days is not None:
        cutoff = time.time() - max_age_days * 86_400
        for mtime, size, path in files:
            if mtime < cutoff:
                doomed[path] = size
    if max_bytes is not None:
        live = report.scanned_bytes - sum(doomed.values())
        for mtime, size, path in files:
            if live <= max_bytes:
                break
            if path not in doomed:
                doomed[path] = size
                live -= size

    for _mtime, size, path in files:
        if path not in doomed:
            continue
        report.evicted.append(path)
        report.evicted_bytes += size
        if not dry_run:
            try:
                os.unlink(path)
            except OSError:
                pass
    if not dry_run:
        for root in roots:
            if not os.path.isdir(root):
                continue
            for dirpath, dirnames, filenames in os.walk(root,
                                                        topdown=False):
                if not dirnames and not filenames and dirpath != root:
                    try:
                        os.rmdir(dirpath)
                    except OSError:
                        pass
    return report


# ----------------------------------------------------------------------
# ledgered execution
# ----------------------------------------------------------------------
def ledgered_call(fn: Callable[[], Any], *, kind: str, name: str,
                  config: Optional[Dict[str, Any]] = None,
                  seed: Optional[int] = None,
                  ledger: Optional[str] = None,
                  ) -> Tuple[Any, Optional[str]]:
    """Run ``fn`` under pure-observer instrumentation and persist its
    record; returns ``(result, run_id)``.

    The observation is telemetry + journeys via
    :class:`~repro.obs.session.ObservationSession` — both proven
    bit-identical to unobserved runs — so the result is exactly what
    ``fn()`` returns without the ledger.  When the ledger is disabled
    (``REPRO_LEDGER=0``) the call is a plain ``fn()`` with no
    instrumentation at all and ``run_id`` is None.
    """
    if not ledger_enabled():
        return fn(), None
    from repro.obs.session import ObservationSession

    session = ObservationSession(trace=False, telemetry=True,
                                 journeys=True, journey_seed=seed or 0)
    t0 = time.perf_counter()
    with session:
        result = fn()
    wall = time.perf_counter() - t0
    session.flush_alerts()
    record = build_run_record(kind, name, config=config, seed=seed,
                              stats=result, sims=session.sims,
                              wall_seconds=wall)
    run_id = RunLedger(ledger).store(record)
    return result, run_id


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
#: a summary statistic; :func:`jsonable` stores non-finite ones as
#: strings ("nan")
_STAT = (NUMBER, str)

_SUMMARY = dict.fromkeys(("count", "mean", "std", "min", "p50", "p95",
                          "p99", "max"), _STAT)

#: ``repro.run/1``: the fields :func:`render_run` and
#: :mod:`repro.obs.diff` read are typed, so a record that validates
#: also renders and diffs
_RUN = {
    "schema": frozenset({RUN_SCHEMA}),
    "kind": frozenset(RUN_KINDS),
    "name": str,
    "config": dict,
    "config_hash": str,
    "versions": {"package": str, "python": str, "record": int,
                 "git?": (str, type(None))},
    "stats": object,
    "seed?": (int, type(None)),
    # records written before the engine name was retired carry one
    "engine?": frozenset({None, "object", "vec"}),
    "kernel?": {"cycles_stepped": int},
    "telemetry?": [{
        "index": int, "cycle": int,
        "flows": [{"src": str, "dst": str, "messages": int,
                   "latency": _SUMMARY, "jitter": _SUMMARY}],
        "flows_omitted": int,
        "links": [{"name": str, "busy_cycles": NUMBER,
                   "utilization": _STAT, "wait?": dict}],
        "counters": dict,
        "alerts?": list,
    }],
    "alerts?": list,
    "journeys?": {"coverage": NUMBER,
                  "simulators": [{"index?": int,
                                  "flows?": [FLOW_ROW]}]},
    "resilience?": dict,
    "seed_stats?": {str: dict.fromkeys(("mean", "std", "min", "max",
                                        "count"), NUMBER)},
    "wall": {"recorded_at": str},
}


def _run_rules(doc: Dict[str, Any]) -> Iterator[str]:
    expect = config_hash(doc["kind"], doc["name"], doc["config"])
    if doc["config_hash"] != expect:
        yield (f"config_hash {doc['config_hash']!r} does not match the "
               f"config (expected {expect!r})")
    if "telemetry" in doc and "alerts" not in doc:
        yield "telemetry present but alerts section missing"


def validate_run(doc: Dict[str, Any]) -> int:
    """Check a ``repro.run/1`` record; returns the number of sections
    present.  Raises :class:`ValueError` naming the path of any
    problem — the CI regress-smoke job runs this on freshly written
    records and ``repro runs show`` / ``repro diff`` / ``repro
    regress`` on records from disk."""
    check(doc, _RUN, "invalid run record: ", _run_rules)
    return 1 + sum(key in doc for key in ("kernel", "telemetry",
                                          "journeys", "resilience",
                                          "seed_stats"))


# ----------------------------------------------------------------------
# rendering (repro runs list / show)
# ----------------------------------------------------------------------
def render_entries(entries: List[RunEntry]) -> str:
    if not entries:
        return "ledger is empty"
    lines = [f"{'run id':<18}{'kind':<12}{'name':<12}{'seed':>6}  "
             f"{'recorded (UTC)':<21}{'size':>8}"]
    for e in entries:
        lines.append(
            f"{e.run_id:<18}{e.kind:<12}{e.name:<12}"
            f"{e.seed if e.seed is not None else '-':>6}  "
            f"{e.recorded_at:<21}"
            f"{e.size / 1024:>7.1f}K")
    lines.append(f"{len(entries)} run(s)")
    return "\n".join(lines)


def render_run(doc: Dict[str, Any]) -> str:
    """Terminal summary of one record (``repro runs show``)."""
    lines = [
        f"run          : {run_id_of(doc)}  [{doc['kind']}] {doc['name']}",
        f"seed         : {doc.get('seed')}",
        f"config hash  : {doc['config_hash']}",
        f"versions     : package {doc['versions'].get('package')}, "
        f"python {doc['versions'].get('python')}, "
        f"git {(doc['versions'].get('git') or '-')[:12]}",
    ]
    if doc.get("config"):
        lines.append("config       : " + json.dumps(doc["config"],
                                                    sort_keys=True))
    if "kernel" in doc:
        k = doc["kernel"]
        lines.append(f"kernel       : {k.get('cycles_stepped', 0)} cycles "
                     f"stepped, {k.get('ticks_total', 0)} ticks, "
                     f"{k.get('ff_cycles_skipped', 0)} fast-forwarded")
    for entry in doc.get("telemetry", ()):
        lines.append(f"telemetry[{entry['index']}] : "
                     f"{len(entry['flows'])} flow(s) "
                     f"(+{entry['flows_omitted']} omitted), "
                     f"{len(entry['links'])} link(s), "
                     f"{len(entry.get('alerts', []))} alert(s)")
    if "journeys" in doc:
        lines.append(f"journeys     : coverage "
                     f"{doc['journeys']['coverage']:.1%} across "
                     f"{len(doc['journeys']['simulators'])} simulator(s)")
    if "resilience" in doc:
        r = doc["resilience"]
        lines.append(f"resilience   : survived={r.get('survived')}")
    if "seed_stats" in doc:
        lines.append("seed spread  : "
                     + ", ".join(f"{m} std={s['std']:.3g}"
                                 for m, s in sorted(
                                     doc["seed_stats"].items())))
    wall = doc.get("wall") or {}
    lines.append(f"wall         : {wall.get('seconds')}s at "
                 f"{wall.get('recorded_at')}")
    return "\n".join(lines)
