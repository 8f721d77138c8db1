"""The measured process: set up one workload, run rounds, report JSON.

Started by ``run.py`` with a fixed environment; not meant to be run by
hand.  Prints exactly one JSON line.

Timing rules (see README.md):

* setup = CPU from interpreter start until the first operation begins
  (interpreter start-up, imports of the whole ``repro`` package, then
  the workload's inputs), scaled to the reference host's speed by a
  :class:`speed.SpeedProbe` running through the imports;
* every operation runs after ``gc.collect()`` and is timed by CPU
  (user + system of this process and of waited-for children) and wall;
  untraced operations run inside a :class:`speed.SpeedProbe`, their CPU
  less the probes' is scaled to the reference host's speed (see
  ``OPERATION_ELASTICITY``), and ``cpu_s`` sums each operation's median
  scaled sample;
* paper/resilience operations each get a fresh, empty result-cache and
  ledger root, so every command really runs and writes its record;
* a run makes a fixed number of full rounds, set by ``--seconds`` and
  the workload's nominal round time, never by how fast the host or the
  code is, so every commit gets the same number of samples; traced runs
  alternate untraced and traced rounds, at least one of each.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

import speed
import workloads

#: how the CPU time of what is measured follows the probe's time
#: (``speed.SpeedProbe.factor`` is raised to this power).  The probe is
#: a tight loop that stays in the L1 cache, and a co-tenant slows it
#: more than the program.  Operations: with the full factor, scaled
#: ``cpu_s`` still rose with the host's speed, most on ``dense``, and
#: 0.9 spread less in most of the sets measured (README.md, "Host-speed
#: scaling").  Set-up: importing is mostly unmarshalling, file-system
#: calls and allocation; in four groups of 16-24 set-up processes its
#: CPU grew as the probe's time to the power 0.40-0.59, and the full
#: factor overcorrected (spread 13-17 %, against 5-9 % at 0.6).
OPERATION_ELASTICITY = 0.9
SETUP_ELASTICITY = 0.6

#: per-round counters taken from the checked outputs into the report
COUNTER_METRICS = ("obs.ledger.records", "obs.ledger.kb", "process.disk_kb",
                   "analysis.cache_hits", "faults.injected",
                   "faults.recovered", "faults.retransmitted",
                   "control.actions", "control.rolled_back")


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class GcTimer:
    """CPU spent in the cyclic garbage collector (via ``gc.callbacks``)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._t0 = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._t0 = time.process_time()
        else:
            self.seconds += time.process_time() - self._t0
            self.collections += 1


class Round:
    def __init__(self, number: int, traced: bool) -> None:
        self.number = number
        self.traced = traced
        #: CPU of the round's operations, probes excluded, not scaled
        self.cpu = 0.0
        self.wall = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0
        self.counters: Dict[str, float] = {}
        self.tracer: Any = None
        self.stats: Any = None


class Runner:
    def __init__(self, workload: workloads.Workload, work_dir: str) -> None:
        self.wl = workload
        self.work_dir = work_dir
        self.ops = workload.operations()
        #: per operation: scaled CPU seconds of each untraced run of it,
        #: and for the report the unscaled CPU and the host speed factor
        #: (speed.SpeedProbe.factor) of each
        self.cpu: Dict[str, List[float]] = {op: [] for op in self.ops}
        self.raw_cpu: Dict[str, List[float]] = {op: [] for op in self.ops}
        self.factors: Dict[str, List[float]] = {op: [] for op in self.ops}
        self.probes: Dict[str, List[List[float]]] = {op: [] for op in self.ops}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: per operation: digest of its first checked output
        self.digests: Dict[str, str] = {}
        self.rounds: List[Round] = []
        self.gc_timer = GcTimer()

    def run_op(self, rnd: Round, op: str) -> None:
        root = os.path.join(self.work_dir, f"r{rnd.number}-{op.replace('/', '-')}")
        if self.wl.uses_roots:
            os.makedirs(root)
            os.environ["REPRO_CACHE_DIR"] = root
            os.environ["REPRO_LEDGER_DIR"] = root
        call = self.wl.prepare(op)
        gc.collect()
        output: Any = None
        problems: List[str] = []
        # the tracer is installed only while the operation runs, so the
        # checks below (which may simulate, e.g. Table 2) stay untraced
        if rnd.tracer is not None:
            rnd.tracer.install()
        probe = None if rnd.traced else speed.SpeedProbe()
        gc0, gcn0 = self.gc_timer.seconds, self.gc_timer.collections
        c0, ch0, w0 = time.process_time(), children_cpu(), time.perf_counter()
        try:
            if probe is not None:
                with probe:
                    output = call()
            else:
                output = rnd.tracer.run_operation(f"{rnd.number}:{op}", call)
        except Exception:  # an operation that raises counts as failed
            problems.append(traceback.format_exc(limit=3).strip()
                            .splitlines()[-1])
        cpu = time.process_time() - c0 + children_cpu() - ch0
        wall = time.perf_counter() - w0
        if probe is not None:
            # the probes run on this CPU; their wall time is their CPU time
            cpu -= probe.probe_s
            wall -= probe.probe_s
        rnd.gc_s += self.gc_timer.seconds - gc0
        rnd.gc_collections += self.gc_timer.collections - gcn0
        if rnd.tracer is not None:
            rnd.tracer.uninstall()
            rnd.tracer.end_operation(rnd.stats)
        if not problems:
            try:
                check = self.wl.check(op, output, root)
                problems = check.problems
                for key, value in check.counters.items():
                    rnd.counters[key] = rnd.counters.get(key, 0) + value
                digest = workloads.sha256(workloads.canonical(check.payload))
                if self.digests.setdefault(op, digest) != digest:
                    problems.append("output differs from the first round's")
            except Exception:
                problems = [traceback.format_exc(limit=3).strip()
                            .splitlines()[-1]]
        if self.wl.uses_roots:
            shutil.rmtree(root, ignore_errors=True)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(
                f"round {rnd.number} {op}: {'; '.join(problems)}")
        if probe is not None:
            self.raw_cpu[op].append(cpu)
            self.factors[op].append(probe.factor())
            self.probes[op].append(probe.samples)
            self.cpu[op].append(
                cpu * probe.factor() ** OPERATION_ELASTICITY)
        rnd.cpu += cpu
        rnd.wall += wall

    def run_round(self, traced: bool) -> None:
        """One pass over the operations."""
        rnd = Round(len(self.rounds), traced)
        self.rounds.append(rnd)
        if traced:
            from layers import RoundStats, Tracer

            rnd.tracer, rnd.stats = Tracer(), RoundStats()
        for op in self.ops:
            self.run_op(rnd, op)

    def measure(self, rounds: int, trace: bool) -> None:
        if not trace:
            for _ in range(rounds):
                self.run_round(False)
            return
        # untraced and traced rounds alternate, at least one of each,
        # so the overhead compares like with like
        gc.callbacks.append(self.gc_timer)
        try:
            for _ in range(max(1, rounds // 2)):
                self.run_round(False)
                self.run_round(True)
        finally:
            gc.callbacks.remove(self.gc_timer)

    def pass_cpu(self) -> float:
        """Scaled CPU of one pass over the operations: the sum over
        operations of each operation's median untraced sample.  Every
        operation has the same number of samples on every commit (see
        ``measure``), so the statistic compares across commits."""
        return sum(statistics.median(v) for v in self.cpu.values())

    def layer_report(self, import_s: float) -> Dict[str, Any]:
        """Per-layer metrics, taken from the traced round whose CPU is
        the lower median, so self times and ``trace.cpu_s`` describe
        one and the same round."""
        traced = sorted((r for r in self.rounds if r.traced),
                        key=lambda r: r.cpu)
        pick = traced[(len(traced) - 1) // 2]
        untraced = [r for r in self.rounds if not r.traced]
        metrics: Dict[str, float] = {}
        metrics.update(pick.stats.metrics())
        metrics.update(pick.tracer.layer_metrics())
        for key in COUNTER_METRICS:
            metrics[key] = pick.counters.get(key, 0)
        untraced_cpu = statistics.median(r.cpu for r in untraced)
        metrics["trace.untraced_cpu_s"] = untraced_cpu
        metrics["trace.cpu_s"] = pick.cpu
        metrics["trace.overhead_s"] = pick.cpu - untraced_cpu
        metrics["process.import_s"] = import_s
        metrics["process.offcpu_s"] = statistics.median(
            r.wall - r.cpu for r in untraced)
        metrics["py.gc_s"] = pick.gc_s
        metrics["py.gc_collections"] = pick.gc_collections
        return {"metrics": metrics, "tracer": pick.tracer}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="sets the round count with the workload's "
                         "nominal round time (at least one round)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", default=".")
    ap.add_argument("--setup-only", action="store_true",
                    help="report the setup CPU and exit")
    args = ap.parse_args(argv)

    with speed.SpeedProbe() as probe:
        t_import, probe_s = time.process_time(), probe.probe_s
        workloads.import_program()
        import repro

        import_s = (time.process_time() - t_import
                    - (probe.probe_s - probe_s))
        wl = workloads.make_workload(args.workload, args.seed)
    setup_raw_s = time.process_time() + children_cpu() - probe.probe_s
    result: Dict[str, Any] = {"setup_s": (setup_raw_s * probe.factor()
                                          ** SETUP_ELASTICITY),
                              "setup_raw_s": setup_raw_s,
                              "setup_factor": probe.factor(),
                              "import_s": import_s,
                              "repro": os.path.dirname(repro.__file__)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    runner = Runner(wl, args.work_dir)
    gc.collect()
    wall0 = time.perf_counter()
    runner.measure(wl.rounds(args.seconds), bool(args.trace))
    result.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures[:20],
        "rounds": len(runner.rounds),
        "measure_wall_s": time.perf_counter() - wall0,
        "samples": {op: len(v) for op, v in runner.cpu.items()},
        "op_cpu_s": {op: statistics.median(v) for op, v in runner.cpu.items()},
        "op_samples": runner.cpu,
        "op_raw_samples": runner.raw_cpu,
        "op_factors": runner.factors,
        "op_probes": runner.probes,
        "cpu_s": runner.pass_cpu(),
        "host_factor": statistics.median(
            f for factors in runner.factors.values() for f in factors),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": workloads.sha256("".join(
            f"{op}={runner.digests.get(op, 'missing')};"
            for op in runner.ops)),
    })
    if args.trace:
        report = runner.layer_report(import_s)
        tracer = report["tracer"]
        result["layers"] = report["metrics"]
        result["missing_hooks"] = sorted(tracer.missing)
        spans_path = os.path.join(args.work_dir, "spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent",
                                   "operation"],
                       "spans": tracer.spans}, fh)
        result["spans_file"] = spans_path
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
