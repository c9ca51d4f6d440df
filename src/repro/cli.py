"""Command-line interface: regenerate any experiment from the shell.

::

    python -m repro list                 # what can I run?
    python -m repro table1               # Table I
    python -m repro fig2 --scenes 40     # Fig. 2, smaller eval set
    python -m repro all                  # everything (first run trains
                                         # defense variants; cached after)
    python -m repro fig1 --out results/  # write Fig. 1 example images
    python -m repro table1 --workers 4   # fan grid cells over 4 processes
    python -m repro table1 --no-cache    # recompute, ignore the result cache
    python -m repro analyze lint src     # correctness tooling (see
                                         # repro.analysis.cli for verbs)
    python -m repro run table3           # journaled run (gets a run id)
    python -m repro run table3 --resume run-0001   # replay completed cells
    python -m repro serve --ticks 200    # journaled chaos serve run
                                         # (honors REPRO_FAULT_PLAN)

Results print to stdout and are also written under ``--out`` (default
``results/``).  Every run also writes ``BENCH_runtime.json`` (per-cell
wall-clock + nn pass counters) under ``--out`` and prints the runtime
summary table.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict

from . import experiments, viz
from .runtime import cache_enabled, env, export_bench, get_instrumentation

Runner = Callable[[argparse.Namespace], str]


def _run_table1(args) -> str:
    return experiments.table1.render(
        experiments.table1.run(n_per_range=args.frames_per_range))


def _run_fig2(args) -> str:
    return experiments.fig2.render(
        experiments.fig2.run(n_scenes=args.scenes))


def _run_table2(args) -> str:
    return experiments.table2.render(experiments.table2.run(
        n_per_range=args.frames_per_range, n_scenes=args.scenes))


def _run_table3(args) -> str:
    return experiments.table3.render(experiments.table3.run(
        n_per_range=max(4, args.frames_per_range // 2),
        n_test_scenes=args.scenes))


def _run_table4(args) -> str:
    return experiments.table4.render(
        experiments.table4.run(n_test_scenes=args.scenes))


def _run_table5(args) -> str:
    return experiments.table5.render(experiments.table5.run(
        n_per_range=max(4, args.frames_per_range // 2),
        n_scenes=args.scenes))


def _run_overhead(args) -> str:
    return experiments.overhead.render(experiments.overhead.run())


def _run_ablations(args) -> str:
    parts = [
        experiments.ablations.render_patch_size(
            experiments.ablations.patch_size_sweep()),
        experiments.ablations.render_apgd_vs_pgd(
            experiments.ablations.apgd_vs_pgd()),
        experiments.ablations.render_diffusion_steps(
            experiments.ablations.diffusion_steps_sweep()),
    ]
    return "\n\n".join(parts)


def _run_fault_matrix(args) -> str:
    return experiments.fault_matrix.render(experiments.fault_matrix.run())


def _run_serve_bench(args) -> str:
    results = experiments.serve_bench.run()
    path = experiments.serve_bench.export_bench(
        os.path.join(args.out, "BENCH_serving.json"), results)
    return (experiments.serve_bench.render(results)
            + f"\n\nserving benchmark written to {path}")


def _run_fig1(args) -> str:
    paths = viz.save_dataset_examples(args.out)
    return "Fig. 1 examples written:\n" + "\n".join(f"  {p}" for p in paths)


EXPERIMENTS: Dict[str, Runner] = {
    "table1": _run_table1,
    "fig2": _run_fig2,
    "table2": _run_table2,
    "table3": _run_table3,
    "table4": _run_table4,
    "table5": _run_table5,
    "overhead": _run_overhead,
    "ablations": _run_ablations,
    "fault_matrix": _run_fault_matrix,
    "serve_bench": _run_serve_bench,
    "fig1": _run_fig1,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures from 'Revisiting Adversarial "
                    "Perception Attacks and Defense Methods on ADS'")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all", "list"],
                        help="which experiment to run")
    parser.add_argument("--scenes", type=int, default=50,
                        help="sign-scene test-set size")
    parser.add_argument("--frames-per-range", type=int, default=12,
                        help="driving frames per distance range")
    parser.add_argument("--out", default="results",
                        help="directory for rendered outputs")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for experiment grids "
                             f"(default: ${env.WORKERS.name} or CPU count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the result cache (recompute everything)")
    return parser


def _journaled_main(argv) -> int:
    """``run`` subcommand: same experiments, under a per-run journal.

    ``--resume <id>`` reopens an earlier run's journal: completed grid
    cells are ordinary result-cache hits (journaled ``cached``), training
    paths pick up from their epoch snapshots, and anything the journal
    promises but the cache lost is recomputed with a loud ``lost`` event.
    The banner's retraining-fan line is folded from the journal's
    ``train-*`` events.
    """
    from .runtime import journal

    resume = None
    rest = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--resume":
            resume = next(tokens, None)
            if resume is None:
                print("error: --resume requires a run id (e.g. run-0001)",
                      file=sys.stderr)
                return 2
        elif token.startswith("--resume="):
            resume = token.split("=", 1)[1]
        else:
            rest.append(token)
    try:
        log = journal.start_run(resume)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if resume:
        counts = log.summary()
        done = counts.get("cell", 0)
        faults = counts.get("store-fault", 0) + counts.get("cell-fault", 0)
        print(f"resuming {log.run_id}: journal has {done} cell event(s), "
              f"{faults} fault event(s) — completed work replays from cache")
        fan = log.describe_fan()
        if fan:
            print(fan)
    else:
        print(f"run id: {log.run_id} (journal: {log.path})")
    log.append({"event": "run-start", "argv": list(rest),
                "resumed": bool(resume)})
    code = 1
    try:
        code = main(rest)
    finally:
        log.append({"event": "run-end", "exit_code": code})
        print(f"run {log.run_id} journal: {log.path}")
    return code


def _serve_main(argv) -> int:
    """``serve`` subcommand: one journaled serve run over synthetic traffic.

    Honors the ambient ``REPRO_FAULT_PLAN`` (scopes ``serve.replica``,
    ``serve.replica.<slot>``, ``serve.scorer``), so chaos drills are one
    environment variable away::

        REPRO_FAULT_PLAN="crash@serve.replica.0:attempt=0+" \\
            python -m repro.cli serve --ticks 200
    """
    import json as json_module

    import numpy as np

    from .eval.harness import make_balanced_eval_frames
    from .models.zoo import get_regressor
    from .pipeline.perception import PerceptionService
    from .runtime import journal
    from .serving import (AdmissionScorer, BrokerConfig, PerceptionServer,
                          ServeConfig, TrafficTrace, run_serve)

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve synthetic open-loop traffic through the "
                    "fault-tolerant perception serving stack")
    parser.add_argument("--ticks", type=int, default=200,
                        help="traffic trace length")
    parser.add_argument("--replicas", type=int,
                        default=ServeConfig.n_replicas,
                        help="replica count (default: %(default)s)")
    parser.add_argument("--deadline-ms", type=float,
                        default=BrokerConfig.deadline_ms,
                        help="per-request deadline in virtual ms "
                             "(default: %(default)s)")
    parser.add_argument("--burst", type=float, default=1.0,
                        help="arrival-rate multiplier over 20 Hz "
                             "(>1 = overload)")
    parser.add_argument("--no-router", action="store_true",
                        help="disable the defense router (fast path only)")
    parser.add_argument("--serial", action="store_true",
                        help="in-process replicas (no forked workers)")
    parser.add_argument("--seed", type=int, default=7,
                        help="traffic trace seed")
    parser.add_argument("--out", default="results",
                        help="directory for the serve report JSON")
    args = parser.parse_args(argv)

    log = journal.start_run()
    print(f"run id: {log.run_id} (journal: {log.path})")
    log.append({"event": "run-start", "argv": ["serve"] + list(argv),
                "resumed": False})
    code = 1
    try:
        model = get_regressor()
        images, distances, _ = make_balanced_eval_frames(n_per_range=8,
                                                         seed=args.seed)
        trace = TrafficTrace.from_clean(images, distances,
                                        n_ticks=args.ticks, seed=args.seed)
        if args.burst != 1.0:
            trace = trace.burst(args.burst)
        scorer = AdmissionScorer()
        scorer.calibrate(images)
        config = ServeConfig(
            broker=BrokerConfig(deadline_ms=args.deadline_ms),
            router_enabled=not args.no_router, n_replicas=args.replicas,
            forked=False if args.serial else None)
        report = run_serve(trace, PerceptionServer(PerceptionService(model)),
                           config, scorer=scorer)
        summary = report.summary()
        plan = env.FAULT_PLAN.get() or "(none)"
        print(f"fault plan: {plan}")
        for key in ("ticks", "answered", "coasted", "shed", "unserved",
                    "availability", "latency_p50_ms", "latency_p99_ms",
                    "retries", "hedges", "breaker_trips", "respawns",
                    "routed_defended", "scorer_faults", "max_level"):
            print(f"  {key}: {summary[key]}")
        print(f"fingerprint: {report.fingerprint()}")
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "serve_report.json")
        with open(path, "w") as handle:
            json_module.dump(report.to_json(), handle, indent=1)
        print(f"serve report written to {path}")
        code = 0 if summary["unserved"] == 0 else 1
    finally:
        log.append({"event": "run-end", "exit_code": code})
        print(f"run {log.run_id} journal: {log.path}")
    return code


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "analyze":
        # Correctness tooling rides the same entry point so CI needs just
        # one program name: `python -m repro.cli analyze lint src/repro`.
        from .analysis.cli import main as analyze_main
        return analyze_main(list(argv[1:]))
    if argv and argv[0] == "run":
        return _journaled_main(list(argv[1:]))
    if argv and argv[0] == "serve":
        return _serve_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    # Honor REPRO_SANITIZE for experiment runs launched through the CLI.
    from .analysis.sanitize import install_from_env
    install_from_env()
    if args.experiment == "list":
        print("available experiments:")
        for name in sorted(EXPERIMENTS):
            print(f"  {name}")
        print("  all")
        return 0
    # Runtime knobs propagate via env so every GridRunner (and any forked
    # worker) sees them without threading arguments through each experiment.
    if args.workers is not None:
        env.WORKERS.set(args.workers)
    if args.no_cache:
        env.RESULT_CACHE.set(0)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    os.makedirs(args.out, exist_ok=True)
    for name in names:
        output = EXPERIMENTS[name](args)
        print(output)
        print()
        path = os.path.join(args.out, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(output + "\n")
    instrumentation = get_instrumentation()
    if instrumentation.cells or instrumentation.scopes:
        print(instrumentation.render())
        bench_path = export_bench(os.path.join(args.out, "BENCH_runtime.json"))
        print(f"runtime telemetry written to {bench_path}")
        if not cache_enabled():
            print("(result cache disabled for this run)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
