"""Benchmark-suite plumbing.

Each ``bench_*`` file regenerates one table/figure of the paper.  The
rendered tables are collected here and re-emitted in the terminal summary so
that ``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures
the actual reproduced numbers, not just timings.  Tables are also written to
``benchmarks/results/``.
"""

import os
from typing import Dict

_RESULTS: Dict[str, str] = {}

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def record_result(name: str, table: str) -> None:
    """Register a rendered table for the terminal summary + results dir."""
    _RESULTS[name] = table
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(table + "\n")


def pytest_terminal_summary(terminalreporter):
    if _RESULTS:
        terminalreporter.section("reproduced tables & figures")
        for name in sorted(_RESULTS):
            terminalreporter.write_line("")
            terminalreporter.write_line(f"### {name}")
            for line in _RESULTS[name].splitlines():
                terminalreporter.write_line(line)
    _runtime_summary(terminalreporter)


def _runtime_summary(terminalreporter):
    """Print grid timings + nn pass counters; write BENCH_runtime.json."""
    try:
        from repro.runtime.instrument import (export_bench,
                                              get_instrumentation)
    except ImportError:  # repro not importable (PYTHONPATH=src missing)
        return
    instrumentation = get_instrumentation()
    if not (instrumentation.cells or instrumentation.scopes):
        return
    terminalreporter.section("runtime instrumentation")
    for line in instrumentation.render().splitlines():
        terminalreporter.write_line(line)
    path = os.path.join(RESULTS_DIR, "BENCH_runtime.json")
    terminalreporter.write_line(
        f"runtime telemetry written to {export_bench(path)}")
