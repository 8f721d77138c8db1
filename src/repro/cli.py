"""Command-line interface: regenerate any table, figure or experiment.

Examples::

    repro tables                 # Tables 1-4
    repro figures                # Figures 1-4 (ASCII)
    repro experiment e1          # one experiment (e1..e7b)
    repro scenario -a conochi -p ring -b 64
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, List, Optional


def _bounded(kind: type, low: float, high: Optional[float] = None):
    """An argparse ``type``: a ``kind`` number from ``low`` to ``high``
    (no upper bound when None)."""

    def parse(text: str):
        value = kind(text)
        if not (low <= value and (high is None or value <= high)):
            span = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {span}, got {text}")
        return value

    parse.__name__ = kind.__name__  # "invalid int value: 'x'"
    return parse


def _arch(text: str) -> str:
    """An argparse ``type``: an architecture name as
    :func:`repro.arch.build_architecture` spells it."""
    from repro.arch import arch_key

    try:
        arch_key(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return text


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.core.report import render_all

    print(render_all())
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis.render import (
        render_buscom_figure,
        render_conochi_figure,
        render_dynoc_figure,
        render_rmboc_figure,
    )
    from repro.arch import build_architecture

    print("Figure 1: RMBoC architecture (m=4, k=4)")
    print(render_rmboc_figure(build_architecture("rmboc")))
    print("\nFigure 2: BUS-COM architecture (4 modules, 4 buses)")
    print(render_buscom_figure(build_architecture("buscom")))
    print("\nFigure 3: DyNoC architecture (5x5 array)")
    from repro.fabric.geometry import Rect

    dynoc = build_architecture("dynoc", num_modules=0, mesh=(5, 5))
    dynoc.attach("a", rect=Rect(1, 1, 2, 2))
    dynoc.attach("b", rect=Rect(1, 3, 1, 1))
    dynoc.attach("c", rect=Rect(4, 4, 1, 1))
    print(render_dynoc_figure(dynoc))
    print("\nFigure 4: CoNoChi architecture (tile grid)")
    print(render_conochi_figure(build_architecture("conochi")))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import EXPERIMENTS
    from repro.analysis.parallel import ExperimentError, harness, run_named

    def render(result):
        if getattr(args, "json", False):
            from repro.analysis.export import dumps

            return dumps(result)
        return str(result)

    # "all" means the paper experiments; single runs also accept the
    # a1..a7 ablation harnesses from the shared registry
    names = list(EXPERIMENTS) if args.which == "all" else [args.which]
    if args.which != "all":
        try:
            harness(args.which)
        except ExperimentError as exc:
            raise ExperimentError(f"{exc} or 'all'") from None
    # -j/--jobs > 1 fans the independent harnesses across processes;
    # the default stays serial in-process (and single runs always are)
    max_workers = args.jobs if args.parallel or args.jobs else 0
    results = run_named(names, max_workers=max_workers,
                        use_cache=not args.no_cache,
                        progress=len(names) > 1)
    for name in names:
        if len(names) > 1:
            print(f"== {name} ==")
        print(render(results[name]))
    return 0


def _kernel_summary(sims) -> str:
    """Aggregate kernel self-metrics across simulators for the terminal."""
    from repro.obs.ledger import aggregate_kernel

    lines = [f"{'kernel metric':<28} {'value':>12}"]
    for key, value in aggregate_kernel(sims).items():
        lines.append(f"{key:<28} {value:>12}")
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        observe_named,
        summarize_trace,
        to_prometheus_text,
        write_chrome_trace,
    )

    _, session = observe_named(args.which, trace=True,
                               profile=args.profile,
                               max_events=args.max_events, keep=args.keep,
                               journeys=args.journeys)
    sims = session.sims
    out = args.out or f"trace-{args.which}.json"
    write_chrome_trace(out, sims)
    print(f"experiment   : {args.which}")
    print(f"simulators   : {len(sims)}, {session.total_events()} events, "
          f"{session.total_spans()} spans")
    print(f"trace        : {out} (open in https://ui.perfetto.dev)")
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(to_prometheus_text(sims))
        print(f"metrics      : {args.prom} (Prometheus exposition)")
    print()
    print(summarize_trace(sims, top=args.top))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        Profiler,
        observe_named,
        to_json_snapshot,
        to_prometheus_text,
    )

    _, session = observe_named(args.which, trace=False, profile=True)
    sims = session.sims
    merged = Profiler()
    for sim in sims:
        if sim.profiler is not None:
            merged.merge(sim.profiler)
    print(f"experiment   : {args.which} ({len(sims)} simulator(s))")
    print()
    print(merged.render_top(args.top))
    print()
    print(_kernel_summary(sims))
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(to_prometheus_text(sims))
        print(f"\nmetrics      : {args.prom} (Prometheus exposition)")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(to_json_snapshot(sims), fh, indent=2, default=repr)
        print(f"snapshot     : {args.json} (JSON)")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs.watch import watch_experiment

    watch_experiment(
        args.which,
        interval=args.interval,
        once=args.once,
        json_out=args.json,
        max_rows=args.rows,
        clear=not args.no_clear,
        journeys=not args.no_journeys,
    )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        explain_experiment,
        render_explain,
        validate_journey,
    )

    doc = explain_experiment(args.which, rate=args.rate, seed=args.seed,
                             max_records=args.max_records)
    validate_journey(doc)
    text = (json.dumps(doc, indent=2, sort_keys=True) if args.json
            else render_explain(doc, top=args.top))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"explain      : {args.out} "
              f"({doc['total_flows']} flows, "
              f"{doc['coverage']:.1%} attributed)")
    else:
        print(text)
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.arch import build_architecture
    from repro.core.scenario import minimal_scenario

    try:
        arch = build_architecture(args.arch, num_modules=args.modules,
                                  width=args.width)
        result = minimal_scenario(arch, payload_bytes=args.payload,
                                  pattern=args.pattern,
                                  repeats=args.repeats)
    except ValueError as exc:  # a module count or size the fabric rejects
        print(f"scenario: {exc}", file=sys.stderr)
        return 2
    print(f"architecture : {result.arch_key}")
    print(f"pattern      : {result.pattern} x{args.repeats}, "
          f"{args.payload} B payloads")
    print(f"messages     : {result.messages} in {result.total_cycles} cycles")
    print(f"latency      : mean {result.mean_latency:.1f}, "
          f"min {result.min_latency}, max {result.max_latency} cycles")
    print(f"parallelism  : observed d_max {result.observed_dmax} "
          f"(theoretical {arch.theoretical_dmax()})")
    print(f"area         : {arch.area_slices()} slices @ "
          f"{arch.fmax_hz() / 1e6:.0f} MHz")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.seeds:
        # fleet mode: N-seed batched Monte-Carlo run per architecture
        from repro.analysis.batch import render_fleet, run_seed_fleet

        seeds = range(args.seed_start, args.seed_start + args.seeds)
        for arch in args.archs:
            fleet = run_seed_fleet(arch, seeds)
            print(render_fleet(fleet))
            if fleet.run_id:
                print(f"  ledger: fleet run {fleet.run_id}"
                      + (f" ({len(fleet.seed_run_ids)} per-seed "
                         f"record(s))" if fleet.seed_run_ids else ""))
        return 0
    from repro.analysis.sweeps import SweepGrid, render_sweep, run_sweep
    from repro.obs.ledger import ledgered_call

    grid = SweepGrid(
        arch=args.archs,
        width=args.widths,
        payload_bytes=args.payloads,
    )
    points, run_id = ledgered_call(
        lambda: run_sweep(grid),
        kind="sweep", name="grid",
        config={"arch": args.archs, "width": args.widths,
                "payload_bytes": args.payloads})
    print(render_sweep(grid, points))
    if run_id:
        print(f"ledger: sweep run {run_id}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.advisor import Requirements, recommend

    req = Requirements(
        num_modules=args.modules,
        link_width=args.width,
        needs_runtime_module_exchange=not args.static_ok,
        variable_module_shape=args.variable_shape,
        min_parallel_transfers=args.parallel,
        max_transfer_bytes=args.transfer,
        area_budget_slices=args.area_budget,
        latency_budget_cycles=args.latency_budget,
        reconfigures_often=args.reconfigures_often,
        needs_runtime_growth=args.runtime_growth,
    )
    print(recommend(req).report())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report_run import generate_report

    print(generate_report(full=args.full))
    return 0


def _default_lint_paths() -> "list[str]":
    """The installed package plus, when run from a checkout, the
    ``examples/`` and ``tests/`` trees next to it (their findings are
    filtered by the per-directory rule policies)."""
    import os

    import repro

    paths = [os.path.dirname(os.path.abspath(repro.__file__))]
    for extra in ("examples", "tests"):
        if os.path.isdir(extra):
            paths.append(extra)
    return paths


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    import traceback

    from repro.lint import ALL_RULES, Severity, run_lint, to_sarif

    paths = args.paths or _default_lint_paths()
    # exit code contract: 0 clean, 1 findings, 2 internal analyzer
    # error — a crashed analyzer must never look clean to CI.
    try:
        result = run_lint(paths, with_graph=not args.no_graph)
        threshold = Severity.parse(args.min_severity)
        findings = [f for f in result.findings
                    if f.severity.rank >= threshold.rank]
    except Exception:
        traceback.print_exc()
        print("lint: internal analyzer error (exit 2)", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps({
            "paths": [os.path.abspath(p) for p in paths],
            "rules": {rule: {"severity": str(sev), "summary": text}
                      for rule, (sev, text) in sorted(ALL_RULES.items())},
            "findings": [f.to_dict() for f in findings],
            "suppressed": result.suppressed,
            "counts": {
                str(sev): sum(1 for f in findings if f.severity is sev)
                for sev in Severity
            },
        }, indent=2))
    elif args.format == "sarif":
        print(json.dumps(to_sarif(findings, ALL_RULES), indent=2))
    else:
        for finding in findings:
            print(finding.render())
        errors = sum(1 for f in findings if f.severity is Severity.ERROR)
        warnings = sum(1 for f in findings if f.severity is Severity.WARNING)
        extras = (f" ({result.suppressed} suppressed)"
                  if result.suppressed else "")
        print(f"{len(findings)} finding(s): {errors} error(s), "
              f"{warnings} warning(s) in {len(paths)} path(s)" + extras)
    if args.strict:
        return 1 if findings else 0
    return 1 if any(f.severity is Severity.ERROR for f in findings) else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.chaos import (render_chaos, run_chaos_sweep,
                                      validate_chaos)

    doc = run_chaos_sweep(args.which, seed=args.seed,
                          rounds=1 if args.once else args.rounds,
                          adaptive=args.adaptive)
    validate_chaos(doc)
    if args.json:
        print(json.dumps(doc, indent=2, default=repr))
    else:
        print(render_chaos(doc))
        if doc.get("run_id"):
            print(f"ledger       : chaos run {doc['run_id']}")
    return 0 if doc["survived"] else 1


def _cmd_adapt(args: argparse.Namespace) -> int:
    import json

    from repro.control import render_adapt, run_adapt, validate_adapt

    doc = run_adapt(args.which, seed=args.seed)
    validate_adapt(doc)
    if args.json:
        print(json.dumps(doc, indent=2, default=repr))
    else:
        print(render_adapt(doc))
        if doc.get("run_id"):
            print(f"ledger        : adapt run {doc['run_id']}")
    return 0 if not doc["regressions"] else 1


def _cmd_runs(args: argparse.Namespace) -> int:
    import json

    from repro.obs.ledger import (LedgerError, RunLedger, render_entries,
                                  render_run, validate_run)

    ledger = RunLedger(args.ledger)
    if args.action == "list":
        try:
            entries = ledger.entries()
        except LedgerError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps([e.__dict__ for e in entries], indent=2))
        else:
            print(render_entries(entries))
        return 0
    if args.action == "show":
        if not args.run:
            print("runs show: a run id (prefix) is required",
                  file=sys.stderr)
            return 2
        try:
            doc = ledger.load(ledger.resolve(args.run))
            validate_run(doc)
        except (LedgerError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(render_run(doc))
        return 0
    return _prune("runs gc", args, f"ledger gc ({ledger.runs_dir})",
                  ledger.gc)


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.analysis.parallel import default_cache_dir
    from repro.obs.ledger import default_ledger_dir, prune_tree

    # one LRU pass over result-cache pickles AND ledger records —
    # they share the .repro-cache root unless REPRO_LEDGER_DIR says
    # otherwise, in which case both roots join the same size budget
    roots = [default_cache_dir()]
    if default_ledger_dir() not in roots:
        roots.append(default_ledger_dir())
    return _prune("cache prune", args, f"cache prune ({', '.join(roots)})",
                  lambda **bounds: prune_tree(
                      roots, suffixes=(".pkl", ".json"), **bounds))


def _prune(command: str, args: argparse.Namespace, where: str,
           prune: Callable[..., object]) -> int:
    """``runs gc`` and ``cache prune``: one ``prune`` pass under the age
    and size bounds given; exit 2 on one stderr line without a bound or
    on a negative one, deleting nothing."""
    if args.max_age_days is None and args.max_size is None:
        print(f"{command}: give --max-age-days and/or --max-size",
              file=sys.stderr)
        return 2
    try:
        # floor: no negative size rounds up to a valid 0
        report = prune(max_age_days=args.max_age_days,
                       max_bytes=(None if args.max_size is None else
                                  math.floor(args.max_size * 1024 * 1024)),
                       dry_run=args.dry_run)
    except ValueError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return 2
    print(f"{where}: {report.render()}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    import json

    from repro.obs.diff import diff_runs, load_record, render_diff
    from repro.obs.ledger import LedgerError, RunLedger

    ledger = RunLedger(args.ledger)
    try:
        a = load_record(args.run_a, ledger)
        b = load_record(args.run_b, ledger)
        doc = diff_runs(a, b)
    except (LedgerError, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(render_diff(doc, top=args.top))
    return 1 if args.check and doc["regressions"] else 0


def _cmd_regress(args: argparse.Namespace) -> int:
    import json

    from repro.obs.diff import regress

    try:
        report = regress(args.baseline, names=args.archs or None,
                         write_baseline=args.write_baseline)
    except Exception as exc:  # the exit-2 contract: never crash CI
        print(f"regress: internal error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({
            "baseline": report.baseline_dir,
            "checked": report.checked,
            "regressions": report.regressions,
            "errors": report.errors,
            "written": report.written,
            "diffs": report.diffs,
            "exit_code": report.exit_code,
        }, indent=2))
    else:
        print(report.render())
    return report.exit_code


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.validation import validate_reproduction

    report = validate_reproduction(fast=args.fast)
    print(report.render())
    return 0 if report.passed else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Communication Architectures for "
                    "Dynamically Reconfigurable FPGA Designs' (IPPS 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="regenerate Tables 1-4")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("figures", help="render Figures 1-4 (ASCII)")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("experiment", help="run an experiment harness")
    p.add_argument("which", help="e1..e12, a1..a7 or 'all'")
    p.add_argument("--json", action="store_true",
                   help="emit the result as JSON")
    p.add_argument("--parallel", action="store_true",
                   help="fan experiments across worker processes")
    p.add_argument("-j", "--jobs", type=_bounded(int, 0), default=None,
                   metavar="N",
                   help="worker processes for --parallel (default: CPUs)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and don't write the result cache")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("trace",
                       help="run an experiment with tracing and export a "
                            "Perfetto/Chrome trace")
    p.add_argument("which", help="experiment/ablation name (e1..e12, a1..a7)")
    p.add_argument("-o", "--out", default=None, metavar="FILE",
                   help="trace output path (default: trace-<which>.json)")
    p.add_argument("--prom", default=None, metavar="FILE",
                   help="also write a Prometheus-text metrics snapshot")
    p.add_argument("--profile", action="store_true",
                   help="enable the wall-clock profiler too")
    p.add_argument("--max-events", type=_bounded(int, 1), default=500_000,
                   help="tracer capacity per simulator")
    p.add_argument("--keep", choices=["head", "tail"], default="tail",
                   help="which side to keep at capacity")
    p.add_argument("--top", type=int, default=10,
                   help="rows in the terminal summary")
    p.add_argument("--journeys", action="store_true",
                   help="also record message journeys (adds journey "
                        "threads + flow arcs to the Perfetto export)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("profile",
                       help="run an experiment with the wall-clock "
                            "profiler and report the hottest buckets")
    p.add_argument("which", help="experiment/ablation name (e1..e12, a1..a7)")
    p.add_argument("--prom", default=None, metavar="FILE",
                   help="write a Prometheus-text metrics snapshot")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write a JSON stats/kernel/profile snapshot")
    p.add_argument("--top", type=int, default=10,
                   help="rows in the terminal summary")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("watch",
                       help="run an experiment with fabric telemetry and "
                            "a live flow/link/alert dashboard")
    p.add_argument("which", help="experiment/ablation name (e1..e12, a1..a7)")
    p.add_argument("--once", action="store_true",
                   help="run to completion and emit one final snapshot "
                        "(CI mode)")
    p.add_argument("--json", action="store_true",
                   help="emit snapshot documents instead of the rendered "
                        "dashboard")
    p.add_argument("--interval", type=float, default=1.0, metavar="SEC",
                   help="refresh period for the live dashboard")
    p.add_argument("--rows", type=int, default=8,
                   help="rows per dashboard table")
    p.add_argument("--no-clear", action="store_true",
                   help="append refreshes instead of clearing the screen")
    p.add_argument("--no-journeys", action="store_true",
                   help="skip journey recording (drops the per-flow "
                        "slowest-segment column)")
    p.set_defaults(func=_cmd_watch)

    p = sub.add_parser("explain",
                       help="run an experiment with message journeys "
                            "and attribute per-flow latency to fabric "
                            "segments")
    p.add_argument("which", help="experiment/ablation name (e1..e12, a1..a7)")
    p.add_argument("--json", action="store_true",
                   help="emit the repro.journey/1 document as JSON")
    p.add_argument("-o", "--out", default=None, metavar="FILE",
                   help="write the report/document to FILE")
    p.add_argument("--top", type=int, default=10,
                   help="flows per simulator in the terminal report")
    p.add_argument("--rate", type=_bounded(float, 0, 1), default=1.0,
                   help="deterministic journey sampling rate in [0, 1]")
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed (the same seed samples the "
                        "same messages)")
    p.add_argument("--max-records", type=_bounded(int, 1), default=100_000,
                   help="journey record cap per simulator (keep-first)")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("scenario", help="run the minimal scenario")
    p.add_argument("-a", "--arch", default="conochi",
                   choices=["rmboc", "buscom", "dynoc", "conochi"])
    p.add_argument("-p", "--pattern", default="ring",
                   choices=["ring", "all-pairs", "neighbors", "pairs"])
    p.add_argument("-b", "--payload", type=int, default=64)
    p.add_argument("-m", "--modules", type=int, default=4)
    p.add_argument("-w", "--width", type=int, default=32)
    p.add_argument("-r", "--repeats", type=int, default=1)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("sweep", help="sweep widths/payloads across archs")
    p.add_argument("--archs", nargs="+", type=_arch,
                   default=["rmboc", "buscom", "dynoc", "conochi"])
    p.add_argument("--widths", nargs="+", type=_bounded(int, 1),
                   default=[8, 16, 32])
    p.add_argument("--payloads", nargs="+", type=_bounded(int, 1),
                   default=[64])
    p.add_argument("--seeds", type=_bounded(int, 0), default=0, metavar="N",
                   help="fleet mode: run N seeded Monte-Carlo runs per "
                        "architecture in one batched process instead of "
                        "the width/payload grid")
    p.add_argument("--seed-start", type=int, default=0, metavar="S",
                   help="first seed of the fleet (fleet mode runs "
                        "seeds S..S+N-1; default 0)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("advise",
                       help="recommend an architecture for requirements")
    p.add_argument("-m", "--modules", type=_bounded(int, 2), default=4)
    p.add_argument("-w", "--width", type=_bounded(int, 1), default=32)
    p.add_argument("--variable-shape", action="store_true",
                   dest="variable_shape")
    p.add_argument("--parallel", type=_bounded(int, 1), default=1)
    p.add_argument("--transfer", type=_bounded(int, 1), default=256)
    p.add_argument("--area-budget", type=int, default=None,
                   dest="area_budget")
    p.add_argument("--latency-budget", type=int, default=None,
                   dest="latency_budget")
    p.add_argument("--reconfigures-often", action="store_true",
                   dest="reconfigures_often")
    p.add_argument("--runtime-growth", action="store_true",
                   dest="runtime_growth")
    p.add_argument("--static-ok", action="store_true", dest="static_ok",
                   help="module mix never changes: consider the static "
                        "baselines too")
    p.set_defaults(func=_cmd_advise)

    p = sub.add_parser("lint",
                       help="check determinism-contract rules over "
                            "component sources")
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: the "
                        "installed repro package plus ./examples and "
                        "./tests when present)")
    p.add_argument("-f", "--format", choices=["text", "json", "sarif"],
                   default="text", help="output format")
    p.add_argument("--min-severity", choices=["info", "warning", "error"],
                   default="info", help="hide findings below this level")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on any finding, not just errors")
    p.add_argument("--no-graph", action="store_true",
                   help="skip the whole-program graph rules "
                        "(QL009, QL011); static per-class rules only")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("report",
                       help="markdown report of tables/figures/experiments")
    p.add_argument("--full", action="store_true",
                   help="include the slower experiments")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("validate",
                       help="run every headline paper assertion")
    p.add_argument("--fast", action="store_true",
                   help="skip the slower measurements")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("chaos",
                       help="inject canonical faults into every "
                            "architecture an experiment builds")
    p.add_argument("which", help="experiment whose architectures to "
                                 "chaos-test (e1..e12, a1..a7)")
    p.add_argument("--seed", type=int, default=7,
                   help="fault-schedule seed (default: 7)")
    p.add_argument("--rounds", type=_bounded(int, 1), default=3,
                   help="seeded rounds per architecture (default: 3)")
    p.add_argument("--once", action="store_true",
                   help="single round (CI smoke)")
    p.add_argument("--json", action="store_true",
                   help="emit the repro.chaos/1 document as JSON")
    p.add_argument("--adaptive", action="store_true",
                   help="attach the SLO control loop to every scenario "
                        "and embed its repro.control/1 action log plus "
                        "an SLO-burn comparison against a static twin")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("adapt",
                       help="adaptive-vs-static evaluation: run every "
                            "architecture an experiment builds through "
                            "a sustained-pressure scenario with and "
                            "without the SLO control loop")
    p.add_argument("which", help="experiment whose architectures to "
                                 "evaluate (e1..e12, a1..a7)")
    p.add_argument("--seed", type=int, default=7,
                   help="traffic-phase seed (default: 7)")
    p.add_argument("--json", action="store_true",
                   help="emit the repro.adapt/1 document as JSON")
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("runs",
                       help="list/show/gc the persistent run ledger "
                            "(repro.run/1 records)")
    p.add_argument("action", choices=["list", "show", "gc"],
                   help="list all records, show one, or garbage-collect")
    p.add_argument("run", nargs="?", default=None,
                   help="run id (unique prefix ok) for 'show'")
    p.add_argument("--ledger", metavar="DIR", default=None,
                   help="ledger root (default: the result cache dir / "
                        "REPRO_LEDGER_DIR)")
    p.add_argument("--json", action="store_true",
                   help="emit JSON instead of the rendered view")
    p.add_argument("--max-age-days", type=float, default=None,
                   help="gc: evict records older than this")
    p.add_argument("--max-size", type=float, default=None, metavar="MiB",
                   help="gc: evict oldest records until under this size")
    p.add_argument("--dry-run", action="store_true",
                   help="gc: report what would be evicted, delete "
                        "nothing")
    p.set_defaults(func=_cmd_runs)

    p = sub.add_parser("cache",
                       help="manage the on-disk result cache + ledger")
    p.add_argument("action", choices=["prune"],
                   help="prune: age/size-bounded LRU eviction over "
                        "cached results and run records")
    p.add_argument("--max-age-days", type=float, default=None,
                   help="evict entries older than this")
    p.add_argument("--max-size", type=float, default=None, metavar="MiB",
                   help="evict least-recently-used entries until the "
                        "store is under this size")
    p.add_argument("--dry-run", action="store_true",
                   help="report what would be evicted, delete nothing")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("diff",
                       help="differential analysis of two ledger "
                            "records (noise-aware, with latency "
                            "attribution)")
    p.add_argument("run_a", help="baseline record: run id prefix or "
                                 "path to a repro.run/1 JSON file")
    p.add_argument("run_b", help="candidate record: run id prefix or "
                                 "path")
    p.add_argument("--ledger", metavar="DIR", default=None,
                   help="ledger root to resolve run ids in")
    p.add_argument("--json", action="store_true",
                   help="emit the repro.diff/1 document as JSON")
    p.add_argument("--top", type=int, default=20,
                   help="delta rows in the terminal rendering")
    p.add_argument("--check", action="store_true",
                   help="exit 1 when the diff finds significant "
                        "regressions")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("regress",
                       help="re-run baseline fleet configurations and "
                            "gate on per-metric budgets "
                            "(exit 0 clean / 1 regression / 2 error)")
    p.add_argument("--baseline", metavar="DIR",
                   default="tests/data/regress-baseline",
                   help="baseline ledger directory (default: "
                        "tests/data/regress-baseline)")
    p.add_argument("--archs", nargs="*", default=None,
                   help="only gate these architectures (default: every "
                        "fleet record in the baseline)")
    p.add_argument("--write-baseline", action="store_true",
                   help="replace the baseline records with fresh runs "
                        "(after an intentional change)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    p.set_defaults(func=_cmd_regress)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        from repro.analysis.parallel import ExperimentError

        if not isinstance(exc, ExperimentError):
            raise
        # an unknown experiment name, or a run with nothing to observe
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro runs list | head`).
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise again, and exit like a SIGPIPE'd process would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
