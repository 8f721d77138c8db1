"""Repository benchmark: end-to-end and per-layer cost of ``repro``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {paper,dense,resilience} \\
        --seed N --seconds S --trace {0,1}

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json (``cpu_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are its per-layer
metrics.  Lines before it name the seed, the output digest, the host
speed measured by the probe, each operation's median scaled CPU time
and any failed operation.  See README.md for the workloads, the metric
definitions and the measured spread.

This launcher measures nothing itself.  It compiles the sources (so no
``.pyc`` compilation lands in a measured process), then starts the
measured process ``child.py`` serially with a fixed environment: one
BLAS/OpenMP thread, ``PYTHONHASHSEED=0``, no bytecode writes, and no
``REPRO_*`` overrides.  Untraced runs also start ``SETUP_SAMPLES``
setup-only processes and report the median set-up time.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: setup-only processes per untraced run, besides the measured one;
#: half run before it and half after, so the samples are taken at two
#: moments of the run instead of one
SETUP_SAMPLES = 6
#: a measured process that runs longer is killed and the run fails, so
#: a hung workload cannot hold the benchmark for more than three minutes
CHILD_TIMEOUT_S = 170


def load_units(section: str) -> Dict[str, str]:
    """Metric name -> unit of one BENCHMARK.json metric list."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc[section]}


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
    })
    return env


def run_child(args: List[str], work_dir: str) -> Dict[str, Any]:
    """Run ``child.py`` to completion; its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args,
           "--work-dir", work_dir]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"measured process failed ({proc.returncode}):\n"
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    src = os.path.realpath(os.path.join(ROOT, "src", "repro"))
    if os.path.realpath(result["repro"]) != src:
        raise RuntimeError(f"measured process imported repro from "
                           f"{result['repro']}, not {src}")
    return result


def run_dir(args: argparse.Namespace) -> str:
    """Scratch directory of one run: operation roots, spans, report."""
    return os.path.join(
        WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")


def report(args: argparse.Namespace, run: Dict[str, Any]) -> List[str]:
    """Human-readable lines printed before the result line."""
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
             f"digest {run['digest']}",
             f"rounds {run['rounds']}  attempted {run['attempted']}  "
             f"failed {run['failed']}  "
             f"measured {run['measure_wall_s']:.1f} s wall",
             f"host speed {run['host_factor']:.3f} of the reference host "
             f"(median over operations; set-up {run['setup_factor']:.3f})"]
    for op, cpu in run["op_cpu_s"].items():
        lines.append(f"  {op:<18} {cpu:9.4f} s scaled cpu (median of "
                     f"{run['samples'][op]})")
    lines += [f"FAILED {failure}" for failure in run["failures"]]
    for hook in run.get("missing_hooks", []):
        lines.append(f"note: hook target missing, its metrics read 0: {hook}")
    if "spans_file" in run:
        lines.append(f"spans {os.path.relpath(run['spans_file'], ROOT)}")
    lines.append("report " + os.path.relpath(
        os.path.join(run_dir(args), "report.json"), ROOT))
    return lines


def result_line(run: Dict[str, Any], setups: List[float],
                trace: bool) -> Dict[str, Any]:
    """The final JSON object: end-to-end metrics, or per-layer ones."""
    if trace:
        values, units = run["layers"], load_units("per_layer")
    else:
        values = {"cpu_s": run["cpu_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": run["peak_rss_mb"]}
        units = load_units("end_to_end")
    return {"correct": run["failed"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    for tree in (os.path.join(ROOT, "src"), HERE):
        if not compileall.compile_dir(tree, quiet=1):
            print(f"perfbench: compiling {tree} failed", file=sys.stderr)
            return 2

    work_dir = run_dir(args)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    samples = 0 if args.trace else SETUP_SAMPLES

    def setup_sample() -> float:
        return run_child(common + ["--setup-only"], work_dir)["setup_s"]

    try:
        setups = [setup_sample() for _ in range(samples // 2)]
        main_run = run_child(common + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace)], work_dir)
        setups.append(main_run["setup_s"])
        setups += [setup_sample() for _ in range(samples - samples // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(work_dir, "report.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**main_run, "seed": args.seed, "setup_samples_s": setups},
                  fh, indent=1, sort_keys=True)
    for line in report(args, main_run):
        print(line)
    print(json.dumps(result_line(main_run, setups, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
