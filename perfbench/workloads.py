"""The benchmark's workloads: inputs, timed operations, output checks.

Each workload is a fixed list of *operations* that together form one
*round*.  The runner (``child.py``) repeats rounds a fixed number of
times (``Workload.rounds``) and times every operation separately.
Operations drive the program only through entry points later changes
are unlikely to delete: the ``repro`` CLI called in process
(``repro.cli.main``), and for ``dense`` ``build_architecture``,
``ArchPort.send`` and ``Simulator.run``.

Why these workloads (see README.md for the full table):

* ``paper`` — ``repro tables`` plus ``repro experiment e1`` .. ``e11``:
  the commands a reader of the paper runs.  Light traffic, long
  quiescent drains through ``run_until``, module swaps under traffic
  (e6, e6b) and the run ledger's default telemetry and journeys.
* ``dense`` — open-loop random bursts, heavy enough that NI queues build
  up, on all six architectures under both engines, with no ledger and
  no observation: the busy path of every tick and every vec kernel.
* ``resilience`` — ``repro chaos e10 --adaptive`` and ``repro adapt
  e10``: fault injection, recovery, alerts and the control loop.

``check`` returns, per operation, the problems found (an operation with
any problem, or one that raised, counts as failed), a canonical
payload of every simulated statistic it produced (for the output
digest), and counters the traced report needs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from typing import Any, Callable, Dict, List, Tuple

WORKLOADS = ("paper", "dense", "resilience")

#: keys stripped from outputs before digesting: they identify a run or
#: its host, not what was simulated.  ``kernel`` holds the scheduler's
#: self-metrics (wakes, fast-forward jumps), which a kernel speed-up may
#: change while every simulated statistic stays identical.
VOLATILE_KEYS = frozenset({"run_id", "versions", "wall", "kernel"})

#: e1..e11; e12 is left out (see README.md, Workloads)
PAPER_EXPERIMENTS = ("e11", "e6", "e7b", "e7", "e9", "e3", "e8", "e10",
                     "e2", "e1", "e6b", "e4", "e5")

DENSE_ARCHS = ("rmboc", "buscom", "dynoc", "conochi", "sharedbus",
               "staticmesh")
DENSE_ENGINES = ("object", "vec")
#: per run: a burst every DENSE_GAP cycles over DENSE_CYCLES cycles.
#: Each burst sends one message per ordered pair of the DENSE_MODULES
#: modules and payload size (36 messages), in seeded random order, each
#: within DENSE_JITTER cycles of the burst start.  The seed changes the
#: order and timing but not the message mix: RMBoC's queueing work then
#: varies by ~4 % across seeds, against ~27 % when every message picks
#: its pair and size independently.
DENSE_CYCLES = 8000
DENSE_GAP = 2000
DENSE_JITTER = 50
DENSE_MODULES = 4
DENSE_PAYLOADS = (256, 1024, 4096)

#: e10 is the cheapest harness that builds all six architectures; chaos
#: and adapt rerun it to discover which architectures to exercise
RESILIENCE_EXPERIMENT = "e10"


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _plain(obj: Any) -> Any:
    """json ``default``: numpy scalars/arrays and sets to plain data."""
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if hasattr(obj, "item"):
        return obj.item()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj, key=repr)
    return repr(obj)


def strip_volatile(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: strip_volatile(v) for k, v in obj.items()
                if k not in VOLATILE_KEYS}
    if isinstance(obj, (list, tuple)):
        return [strip_volatile(v) for v in obj]
    return obj


def canonical(obj: Any) -> str:
    return json.dumps(strip_volatile(obj), sort_keys=True,
                      separators=(",", ":"), default=_plain)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tree_files(root: str) -> List[Tuple[str, int]]:
    """(relative path, size) of every regular file under ``root``."""
    out = []
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out.append((os.path.relpath(path, root), os.path.getsize(path)))
    return sorted(out)


def run_cli(argv: List[str]) -> Tuple[int, str, str]:
    """``repro <argv>`` in this process; (exit code, stdout, stderr)."""
    import repro.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = repro.cli.main(argv)
        except SystemExit as exc:  # argparse errors exit
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


class OpCheck:
    """What checking one operation's output found."""

    def __init__(self) -> None:
        self.problems: List[str] = []
        self.payload: Any = None
        self.counters: Dict[str, float] = {}

    def require(self, ok: Any, what: str) -> None:
        if not ok:
            self.problems.append(what)


def _ledger_counters(check: OpCheck, root: str) -> int:
    """Record the root's disk use; returns the ledger records written."""
    files = tree_files(root)
    records = [(p, s) for p, s in files
               if p.startswith("runs" + os.sep) and p.endswith(".json")]
    check.counters["obs.ledger.records"] = len(records)
    check.counters["obs.ledger.kb"] = sum(s for _, s in records) / 1024.0
    check.counters["process.disk_kb"] = sum(s for _, s in files) / 1024.0
    return len(records)


def _ledger_payload(root: str) -> List[Any]:
    docs = []
    for path, _size in tree_files(root):
        if path.startswith("runs" + os.sep) and path.endswith(".json"):
            with open(os.path.join(root, path), encoding="utf-8") as fh:
                docs.append(json.load(fh))
    return sorted((canonical(d) for d in docs))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    #: True when operations need REPRO_CACHE_DIR/REPRO_LEDGER_DIR roots
    uses_roots = True
    #: nominal wall seconds of one round on the reference host (see
    #: README.md).  It only turns ``--seconds`` into a round count, so
    #: it must not change: every commit then gets the same number of
    #: samples, whatever the speed of the host or of the code.
    round_s = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rounds(self, seconds: float) -> int:
        """Full rounds one run makes: at least one."""
        return max(1, int(seconds // self.round_s))

    def operations(self) -> List[str]:
        raise NotImplementedError

    def prepare(self, op: str) -> Callable[[], Any]:
        """The timed call of ``op`` (inputs already built)."""
        raise NotImplementedError

    def check(self, op: str, output: Any, root: str) -> OpCheck:
        raise NotImplementedError


class PaperWorkload(Workload):
    """``repro tables`` + ``repro experiment e1`` .. ``e11`` (default
    object engine, default ledger).  The harnesses use their own fixed
    seeds, so ``--seed`` changes nothing here."""

    name = "paper"
    round_s = 18.0

    def operations(self) -> List[str]:
        return [*PAPER_EXPERIMENTS, "tables"]

    def prepare(self, op: str) -> Callable[[], Any]:
        argv = ["tables"] if op == "tables" else ["experiment", op, "--json"]
        return lambda: run_cli(argv)

    def check(self, op: str, output: Any, root: str) -> OpCheck:
        check = OpCheck()
        code, out, err = output
        check.require(code == 0, f"exit code {code}: {err.strip()[-200:]}")
        records = _ledger_counters(check, root)
        if op == "tables":
            check.payload = out
            self._check_tables(check, out)
            return check
        check.counters["analysis.cache_hits"] = 0 if records else 1
        check.require(records == 1,
                      f"{records} ledger records written (expected 1: the "
                      f"experiment must run, not come from a cache)")
        try:
            doc = json.loads(out)
        except ValueError:
            check.problems.append("output is not JSON")
            return check
        check.payload = {"result": doc, "ledger": _ledger_payload(root)}
        for what, ok in self._predicates(op, doc):
            check.require(ok, what)
        return check

    @staticmethod
    def _check_tables(check: OpCheck, out: str) -> None:
        """The Table 1-4 assertions ``repro validate`` makes, plus the
        rendered Table 3 row."""
        from repro.core import tables
        from repro.core.parameters import PAPER_TABLE_1, PAPER_TABLE_4

        for n in range(1, 5):
            check.require(f"Table {n}" in out, f"Table {n} not printed")
        check.require(["5084", "1294", "1480", "1640"] in
                      [line.split() for line in out.splitlines()],
                      "Table 3 row 5084/1294/1480/1640 not printed")
        check.require(tables.table1() == PAPER_TABLE_1, "Table 1 drift")
        check.require(tables.table3() == {"RMBoC": 5084, "BUS-COM": 1294,
                                          "DyNoC": 1480, "CoNoChi": 1640},
                      "Table 3 drift")
        t4 = tables.table4()
        check.require(all(t4[k].as_tuple() == v.as_tuple()
                          for k, v in PAPER_TABLE_4.items()), "Table 4 drift")
        t2 = tables.table2()
        check.require(t2["RMBoC"].setup_latency_cycles == 8
                      and t2["CoNoChi"].per_hop_latency_cycles == 5
                      and all(r.data_cycles_per_word == 1.0
                              for r in t2.values()),
                      "Table 2 published cycle figures drift")

    @staticmethod
    def _predicates(op: str, doc: Dict[str, Any]) -> List[Tuple[str, Any]]:
        """The paper claims each result must satisfy: the result class's
        own predicates (rebuilt from the printed JSON) and the checks of
        ``repro validate`` and ``benchmarks/bench_<op>_*.py``."""
        from repro.analysis import experiments as X

        cls = getattr(X, "E" + op[1:] + "Result")
        r = cls(**doc)
        if op == "e1":
            return [("E1 setup = 2d+6, min 8", r.matches_paper)]
        if op == "e2":
            return [("E2 d_max rmboc 12/12", list(r.rows["rmboc"]) == [12, 12]),
                    ("E2 d_max buscom 4/4", list(r.rows["buscom"]) == [4, 4]),
                    ("E2 rmboc beats buscom", r.rmboc_beats_buscom),
                    ("E2 NoC observed <= theoretical",
                     all(r.rows[k][0] <= r.rows[k][1]
                         for k in ("dynoc", "conochi")))]
        if op == "e3":
            return [("E3 buscom ~90 %", r.close_to_claim("buscom")),
                    ("E3 conochi ~90 %", r.close_to_claim("conochi")),
                    ("E3 rmboc > 0.99", r.rows["rmboc"] > 0.99)]
        if op == "e4":
            return [("E4 DyNoC latency grows", r.dynoc_latency_grows),
                    ("E4 CoNoChi latency flat", r.conochi_latency_flat),
                    ("E4 RMBoC 1 cycle/word", r.rmboc_established_cpw == 1.0)]
        if op == "e5":
            by4 = {k: dict((m, a) for m, a in v)[4]
                   for k, v in r.by_modules.items()}
            return [("E5 slices at m=4", by4 == {
                        "rmboc": 5084, "buscom": 1294,
                        "dynoc": 1480, "conochi": 1640}),
                    ("E5 CoNoChi beats DyNoC for large modules",
                     r.conochi_beats_dynoc_for_large_modules)]
        if op == "e6":
            return [(f"E6 {arch} bystander traffic survived the swap",
                     r.survived(arch)) for arch in sorted(r.rows)]
        if op == "e6b":
            return [("E6b switch added", r.added_ok),
                    ("E6b switch removed", r.removed_ok),
                    ("E6b messages delivered", r.messages_delivered > 0)]
        if op == "e7":
            return [("E7 latencies positive",
                     all(lat > 0 for series in r.rows.values()
                         for _, lat in series))]
        if op == "e7b":
            return [("E7b buscom degrades more than dynoc",
                     r.degradation("buscom") > r.degradation("dynoc"))]
        if op == "e8":
            noc = min(r.rows["dynoc"], r.rows["conochi"])
            return [("E8 buscom worst", r.buscom_worst),
                    ("E8 segmentation helps", r.segmentation_helps),
                    ("E8 NoC < rmboc < buscom",
                     noc < r.rows["rmboc"] < r.rows["buscom"])]
        if op == "e9":
            return [("E9 buscom queues more than dynoc",
                     r.queueing_fraction("buscom") > r.queueing_fraction("dynoc")),
                    ("E9 rmboc queues more than conochi",
                     r.queueing_fraction("rmboc") > r.queueing_fraction("conochi")),
                    ("E9 queueing >= 0 and transport > 0",
                     all(q >= 0 and t > 0 for q, t in r.rows.values()))]
        if op == "e10":
            return [("E10 static baselines cannot reconfigure",
                     r.static_cannot_reconfigure),
                    ("E10 area tax > 1",
                     all(r.tax(a, "area_tax") > 1.0 for a in r.rows)),
                    ("E10 clock tax >= 1",
                     all(r.tax(a, "clock_tax") >= 1.0 for a in r.rows))]
        if op == "e11":
            return [("E11 buscom meets >= 99 %", r.met_ratio("buscom") >= 0.99),
                    ("E11 rmboc meets >= 99 %", r.met_ratio("rmboc") >= 0.99),
                    ("E11 sharedbus below buscom",
                     r.met_ratio("sharedbus") < r.met_ratio("buscom"))]
        raise KeyError(op)


class DenseWorkload(Workload):
    """Open-loop bursts between random module pairs on every
    architecture under both engines; no ledger, no observation."""

    name = "dense"
    uses_roots = False
    round_s = 2.5

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        mix = [(src, dst, payload) for src in range(DENSE_MODULES)
               for dst in range(DENSE_MODULES) if src != dst
               for payload in DENSE_PAYLOADS]
        #: (cycle, src index, dst index, payload bytes) — generated once
        #: in setup and replayed identically on every architecture
        self.schedule: List[Tuple[int, int, int, int]] = []
        for burst in range(DENSE_CYCLES // DENSE_GAP):
            base = 1 + burst * DENSE_GAP
            rng.shuffle(mix)
            for src, dst, payload in mix:
                self.schedule.append((base + rng.randrange(DENSE_JITTER),
                                      src, dst, payload))
        self._reference: Dict[str, str] = {}

    def operations(self) -> List[str]:
        return [f"{key}/{engine}" for key in DENSE_ARCHS
                for engine in DENSE_ENGINES]

    def prepare(self, op: str) -> Callable[[], Any]:
        import repro.arch

        key, engine = op.split("/")
        schedule = self.schedule
        seed = self.seed

        def run() -> Any:
            arch = repro.arch.build_architecture(
                key, num_modules=DENSE_MODULES, engine=engine, seed=seed)
            sim = arch.sim
            mods = arch.modules
            for cycle, src, dst, payload in schedule:
                port, to = arch.ports[mods[src]], mods[dst]
                sim.at(cycle, lambda _s, port=port, to=to, p=payload:
                       port.send(to, p))
            sim.run(DENSE_CYCLES)
            return arch

        return run

    def check(self, op: str, output: Any, root: str) -> OpCheck:
        check = OpCheck()
        key, engine = op.split("/")
        data = dense_outputs(output)
        check.payload = data
        check.require(data["dropped"] == 0, f"{data['dropped']} messages dropped")
        check.require(data["sent"] == len(self.schedule),
                      f"{data['sent']} of {len(self.schedule)} messages sent")
        text = canonical(data)
        if engine == DENSE_ENGINES[0]:
            self._reference[key] = text
        elif key in self._reference:
            check.require(text == self._reference[key],
                          f"{engine} engine output differs from "
                          f"{DENSE_ENGINES[0]} (delivered/stats snapshot)")
        return check


def dense_outputs(arch: Any) -> Dict[str, Any]:
    """Everything one dense run simulated: message fates and timings
    plus the architecture's ``StatsRegistry.snapshot()``."""
    messages = arch.log.messages
    return {
        "sent": len(messages),
        "delivered": sum(1 for m in messages if m.delivered_cycle >= 0),
        "dropped": sum(1 for m in messages if m.dropped),
        "messages": [(m.mid, m.src, m.dst, m.payload_bytes, m.created_cycle,
                      m.accepted_cycle, m.delivered_cycle)
                     for m in messages],
        "stats": arch.sim.stats.snapshot(),
        "cycle": arch.sim.cycle,
    }


class ResilienceWorkload(Workload):
    """``repro chaos e10 --adaptive`` and ``repro adapt e10`` with the
    benchmark seed as the fault-schedule / traffic-phase seed."""

    name = "resilience"
    round_s = 5.0

    def operations(self) -> List[str]:
        return ["adapt", "chaos"]

    def prepare(self, op: str) -> Callable[[], Any]:
        seed, exp = str(self.seed), RESILIENCE_EXPERIMENT
        if op == "chaos":
            argv = ["chaos", exp, "--adaptive", "--seed", seed, "--json"]
        else:
            argv = ["adapt", exp, "--seed", seed, "--json"]
        return lambda: run_cli(argv)

    def check(self, op: str, output: Any, root: str) -> OpCheck:
        check = OpCheck()
        code, out, err = output
        check.require(code == 0, f"exit code {code}: {err.strip()[-200:]}")
        records = _ledger_counters(check, root)
        try:
            doc = json.loads(out)
        except ValueError:
            check.problems.append("output is not JSON")
            return check
        check.require(records == 1 and doc.get("run_id"),
                      f"{records} ledger records written (expected 1)")
        check.payload = {"result": doc, "ledger": _ledger_payload(root)}
        if op == "chaos":
            scenarios = doc.get("scenarios", [])
            check.require(scenarios and doc.get("survived"),
                          "chaos sweep did not survive")
            for s in scenarios:
                check.require(s.get("survived"),
                              f"{s.get('arch')} seed {s.get('seed')} "
                              f"did not survive")
            metrics = [s.get("metrics", {}) for s in scenarios]
            check.counters["faults.injected"] = sum(
                m.get("faults_injected", 0) for m in metrics)
            check.counters["faults.recovered"] = sum(
                m.get("faults_recovered", 0) for m in metrics)
            check.counters["faults.retransmitted"] = sum(
                m.get("messages_retransmitted", 0) for m in metrics)
            logs = [s.get("control", {}) for s in scenarios]
        else:
            check.require(doc.get("pairs"), "adapt evaluated no architecture")
            check.require(doc.get("regressions") == [],
                          f"adapt regressions: {doc.get('regressions')}")
            logs = [p.get("adaptive", {}).get("control", {})
                    for p in doc.get("pairs", [])]
        actions = [a for log in logs for a in log.get("actions", [])]
        check.counters["control.actions"] = len(actions)
        check.counters["control.rolled_back"] = sum(
            1 for a in actions if a.get("status") == "rolled_back")
        return check


def make_workload(name: str, seed: int) -> Workload:
    classes = {"paper": PaperWorkload, "dense": DenseWorkload,
               "resilience": ResilienceWorkload}
    if name not in classes:
        raise KeyError(f"unknown workload {name!r}; choose from "
                       f"{', '.join(WORKLOADS)}")
    return classes[name](seed)


def import_program() -> None:
    """Import every module of the ``repro`` package, so lazy imports
    inside commands do not land in the first timed operation."""
    import importlib
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)
