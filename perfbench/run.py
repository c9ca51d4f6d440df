"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload attack-grid --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` reports the end-to-end
metrics named in ``BENCHMARK.json``; ``--trace 1`` wraps every layer's entry
points and reports the per-layer metrics instead.  The line before the
result is a ``{"detail": ...}`` record (settings stamp, outputs, pass times
and, when traced, per-layer seconds) that ``perfbench/compare.py`` reads.

The first run in a checkout trains the zoo models the workloads use, then
restarts itself so that training never counts towards set-up time or peak
memory.  A run that trains anything after that fails loudly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench")
ZOO_DIR = os.path.join(WORK_DIR, "zoo")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPEATS = 3
#: set before the restart that follows zoo training, so a zoo that keeps
#: retraining stops the run instead of looping
PREPARED_FLAG = "PERFBENCH_ZOO_PREPARED"


def pin_settings() -> None:
    """Drop ambient REPRO_* settings and pin the ones every workload runs
    under, before numpy is imported.

    One BLAS thread: the box has two cores shared with other work, and
    threaded GEMMs widen the run-to-run spread.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_WORKERS"] = "1"
    os.environ["REPRO_RESULT_CACHE"] = "0"
    os.environ["REPRO_CACHE_DIR"] = ZOO_DIR
    for key in BLAS_THREAD_VARS:
        os.environ[key] = "1"


def zoo_files() -> set:
    if not os.path.isdir(ZOO_DIR):
        return set()
    return {name for name in os.listdir(ZOO_DIR) if name.endswith(".npz")}


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def stamp() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "numpy": np.__version__, "blas": blas,
            "blas_threads": {key: os.environ.get(key)
                             for key in BLAS_THREAD_VARS},
            "python": platform.python_version(), "commit": git_commit(),
            "settings": {key: (os.path.relpath(value, ROOT)
                               if key == "REPRO_CACHE_DIR" else value)
                         for key, value in sorted(os.environ.items())
                         if key.startswith("REPRO_")}}


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    pin_settings()
    started = time.perf_counter()
    import workloads
    from repro.nn import hooks
    from tracing import Tracer
    import_s = time.perf_counter() - started

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    plan = workloads.fault_plan(args.workload)
    if plan:
        os.environ["REPRO_FAULT_PLAN"] = plan
    with open(workloads.reference_path()) as handle:
        bands = json.load(handle)[args.workload]

    before = zoo_files()
    workloads.prepare_zoo()
    if zoo_files() != before:
        if os.environ.get(PREPARED_FLAG):
            print("perfbench: the zoo trained again after preparation",
                  file=sys.stderr)
            return 1
        os.environ[PREPARED_FLAG] = "1"
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable] + sys.argv)
    prepared = zoo_files()

    workload = workloads.WORKLOADS[args.workload]()
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        workload.setup(args.seed)
        setup_runs.append(time.perf_counter() - begin)

    ticks = Tracer()
    layers = Tracer()
    workloads.install_ticks(ticks, workload)
    if args.trace:
        workloads.install_layers(layers)
    pass_seconds, passes, intervals, problems, shares = [], [], [], [], []
    forward0, backward0 = hooks.snapshot()
    begin = time.perf_counter()
    try:
        # At least two passes; then another only while it is expected to
        # end within --seconds.
        while (len(passes) < 2 or time.perf_counter() - begin
               + statistics.median(pass_seconds) <= args.seconds):
            first_tick = len(ticks.spans["tick"])
            pass_begin = time.perf_counter()
            outputs = workload.run_pass()
            pass_end = time.perf_counter()
            pass_seconds.append(pass_end - pass_begin)
            pass_ticks = workloads.tick_seconds(
                workload, ticks.spans["tick"][first_tick:], pass_end)
            intervals.append(pass_ticks)
            shares.append(workload.availability(outputs, pass_ticks))
            problems.append(workloads.check_outputs(
                outputs, passes[0] if passes else outputs, bands))
            passes.append(outputs)
    finally:
        layers.restore()
        ticks.restore()
    forward1, backward1 = hooks.snapshot()

    if zoo_files() != prepared:
        print("perfbench: a timed run trained a zoo model; its set-up and "
              "pass times are invalid", file=sys.stderr)
        return 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Tick percentiles are taken per pass.  The p50 is the median over
    # passes, like the pass time.  The p98 is the least over passes: a few
    # seconds of contention on the host fill a pass's top 2% of ticks, and
    # the least-disturbed pass is the closest to the program's own tail.
    tick_p50 = [percentile(pass_ticks, 50) for pass_ticks in intervals]
    tick_p98 = [percentile(pass_ticks, 98) for pass_ticks in intervals]
    end_to_end = {
        "setup_s": import_s + statistics.median(setup_runs),
        "peak_rss_mb": peak_rss_mb,
        "ms_per_frame": 1000.0 * statistics.median(pass_seconds)
                        / workload.frames_per_pass,
        "tick_p50_ms": 1000.0 * statistics.median(tick_p50),
        "tick_p98_ms": 1000.0 * min(tick_p98),
        "availability": statistics.mean(shares),
    }
    units = {"setup_s": "s", "peak_rss_mb": "MB", "ms_per_frame": "ms",
             "tick_p50_ms": "ms", "tick_p98_ms": "ms",
             "availability": "share"}
    failed = sum(1 for found in problems if found)
    correct = failed == 0
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "stamp": stamp(), "import_s": import_s,
              "setup_runs_s": setup_runs, "pass_seconds": pass_seconds,
              "ticks": sum(map(len, intervals)),
              "pass_tick_p50_s": tick_p50, "pass_tick_p98_s": tick_p98,
              "end_to_end": end_to_end,
              "outputs": passes[0],
              "problems": [found for found in problems if found][:5],
              "correct": correct, "attempted": len(passes), "failed": failed}
    if args.trace:
        metrics = workloads.layer_metrics(
            layers, workload, sum(pass_seconds), passes,
            (forward1 - forward0, backward1 - backward0))
        detail["layer_seconds"] = dict(sorted(layers.seconds.items()))
        detail["layer_calls"] = dict(sorted(layers.calls.items()))
        detail["per_layer"] = metrics
        result_metrics = {name: {"value": value,
                                 "unit": workloads.layer_unit(name)}
                          for name, value in metrics.items()}
    else:
        result_metrics = {name: {"value": value, "unit": units[name]}
                          for name, value in end_to_end.items()}
    for found in problems:
        for problem in found:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": len(passes),
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
