"""Compare benchmark result files run by run, per workload.

    python3 perfbench/compare.py runs/set1.jsonl [runs/set2.jsonl]

A result file holds the ``{"detail": ...}`` lines that ``run.py`` prints
(other lines are ignored).  For each workload and end-to-end metric this
prints the median and quartiles of the untraced runs of each file.  With a
second file it adds the change of the median and flags it:

* ``WORSE`` - the second median is worse than the first by more than the
  metric's bound in ``BENCHMARK.json``;
* ``unresolved`` - the first file's own spread (quartile distance over the
  median) is wider than the bound, so the change cannot be read.

With one file it also prints the tracing overhead: the median of the traced
runs minus the median of the untraced runs, per end-to-end metric.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bench() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_runs(path: str) -> Dict[Tuple[str, int], List[dict]]:
    """{(workload, trace): [detail, ...]} from one result file."""
    runs: Dict[Tuple[str, int], List[dict]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "detail" in record:
                detail = record["detail"]
                runs[(detail["workload"], detail["trace"])].append(detail)
    return runs


def summarize(values: List[float]) -> Tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values: List[float]) -> float:
    median, q1, q3 = summarize(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worse_by(metric: dict, before: float, after: float) -> float:
    """Relative change of the median in the metric's worse direction."""
    if not before:
        return 0.0
    change = (after - before) / abs(before)
    return change if metric["better"] == "lower" else -change


def fmt(summary: Tuple[float, float, float]) -> str:
    median, q1, q3 = summary
    return f"{median:10.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_bench()
    files = [load_runs(path) for path in argv]
    flagged = 0
    for workload in [entry["name"] for entry in bench["workloads"]]:
        sets = [runs.get((workload, 0), []) for runs in files]
        if not any(sets):
            continue
        counts = " / ".join(
            f"{len(runs)} runs, {sum(not r['correct'] for r in runs)} "
            f"incorrect" for runs in sets)
        print(f"\n{workload}  ({counts})")
        print(f"  {'metric':<14} {'spread':>7}  "
              + "  ".join(f"{'median [q1, q3] ' + str(i + 1):>30}"
                          for i in range(len(sets)))
              + ("   change  flag" if len(sets) == 2 else ""))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            columns = [[run["end_to_end"][name] for run in runs]
                       for runs in sets]
            if not all(columns):
                continue
            line = (f"  {name:<14} {spread(columns[0]):7.3f}  "
                    + "  ".join(f"{fmt(summarize(c)):>30}" for c in columns))
            if len(columns) == 2:
                before = summarize(columns[0])[0]
                after = summarize(columns[1])[0]
                worse = worse_by(metric, before, after)
                flag = ""
                if spread(columns[0]) > metric["bound"]:
                    flag = "unresolved"
                elif worse > metric["bound"]:
                    flag = "WORSE"
                    flagged += 1
                line += f"  {100 * (after - before) / before:+7.1f}%  {flag}"
            print(line)
        if len(files) == 1 and files[0].get((workload, 1)):
            traced = files[0][(workload, 1)]
            print(f"  tracing overhead ({len(traced)} traced runs; traced "
                  f"median - untraced median):")
            for metric in bench["end_to_end"]:
                name = metric["name"]
                plain = summarize([run["end_to_end"][name]
                                   for run in sets[0]])[0]
                with_trace = summarize([run["end_to_end"][name]
                                        for run in traced])[0]
                share = (with_trace - plain) / plain if plain else 0.0
                print(f"    {name:<14} {with_trace - plain:+.4g}"
                      f" ({100 * share:+.1f}%)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
