"""Scoped timers and nn pass-counters for the experiment runtime.

Collects three kinds of evidence into one process-global ledger:

* **cells** — one record per grid cell: wall-clock seconds, nn forward /
  backward passes attributable to the cell, and whether it came from cache;
* **scopes** — named accumulating timers for harness hot paths (attack
  generation, model prediction) via :func:`scope`;
* **totals** — aggregated in :meth:`Instrumentation.summary`.

``export()`` writes the ledger as ``BENCH_runtime.json`` — the perf baseline
future PRs optimise against.  The CLI exports after every run; the benchmark
suite exports at session end and prints :meth:`render` in the terminal
summary.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, List


@dataclass
class CellRecord:
    """Measured execution of one grid cell."""

    grid: str
    cell: str
    seconds: float
    forward_passes: int
    backward_passes: int
    cached: bool = False


@dataclass
class ScopeTotal:
    seconds: float = 0.0
    calls: int = 0


class Instrumentation:
    """Accumulates cell records and scoped timings."""

    def __init__(self) -> None:
        self.cells: List[CellRecord] = []
        self.scopes: Dict[str, ScopeTotal] = {}

    # -- recording ------------------------------------------------------
    def record_cell(self, record: CellRecord) -> None:
        self.cells.append(record)

    @contextmanager
    def scope(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            total = self.scopes.setdefault(name, ScopeTotal())
            total.seconds += time.perf_counter() - start
            total.calls += 1

    def merge_scopes(self, scopes: Dict[str, ScopeTotal]) -> None:
        """Add scope totals measured elsewhere (one grid cell's)."""
        for name, delta in scopes.items():
            total = self.scopes.setdefault(name, ScopeTotal())
            total.seconds += delta.seconds
            total.calls += delta.calls

    def reset(self) -> None:
        self.cells.clear()
        self.scopes.clear()

    # -- reporting ------------------------------------------------------
    def summary(self) -> dict:
        executed = [c for c in self.cells if not c.cached]
        return {
            "schema": 1,
            "cells": [asdict(c) for c in self.cells],
            "scopes": {name: asdict(total)
                       for name, total in sorted(self.scopes.items())},
            "totals": {
                "cells": len(self.cells),
                "cache_hits": sum(1 for c in self.cells if c.cached),
                "seconds": sum(c.seconds for c in executed),
                "forward_passes": sum(c.forward_passes for c in executed),
                "backward_passes": sum(c.backward_passes for c in executed),
            },
        }

    def export(self, path: str) -> str:
        """Write the ledger as JSON; returns the path written."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self.summary(), handle, indent=1)
        os.replace(tmp, path)
        return path

    def render(self) -> str:
        """Human-readable per-grid timing table."""
        if not self.cells:
            return "runtime: no instrumented cells"
        lines = ["grid cell timings (seconds | fwd | bwd | cached)"]
        by_grid: Dict[str, List[CellRecord]] = {}
        for cell in self.cells:
            by_grid.setdefault(cell.grid, []).append(cell)
        for grid in sorted(by_grid):
            records = by_grid[grid]
            total = sum(c.seconds for c in records if not c.cached)
            hits = sum(1 for c in records if c.cached)
            lines.append(f"  {grid}: {total:.2f}s across {len(records)} "
                         f"cells ({hits} cached)")
            for record in records:
                tag = " [cache]" if record.cached else ""
                lines.append(
                    f"    {record.cell:<40s} {record.seconds:8.3f}s "
                    f"{record.forward_passes:6d} {record.backward_passes:6d}"
                    f"{tag}")
        totals = self.summary()["totals"]
        lines.append(
            f"  total: {totals['seconds']:.2f}s, "
            f"{totals['forward_passes']} forward / "
            f"{totals['backward_passes']} backward passes, "
            f"{totals['cache_hits']}/{totals['cells']} cells from cache")
        return "\n".join(lines)


#: Process-global ledger.  Grid cells measure into a fresh scope dict that
#: travels back with their cell record; everything lands here in the parent.
GLOBAL = Instrumentation()


def get_instrumentation() -> Instrumentation:
    return GLOBAL


@contextmanager
def scope(name: str):
    """Module-level shortcut for ``GLOBAL.scope(name)``."""
    with GLOBAL.scope(name):
        yield


def export_bench(path: str) -> str:
    return GLOBAL.export(path)
