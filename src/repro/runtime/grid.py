"""GridRunner: declare experiment cells, execute them in parallel, cached.

A *cell* is one independent unit of an experiment grid — "generate the
Auto-PGD adversarial frames", "evaluate attack X under defense Y" — declared
as a zero-argument closure plus an optional cache configuration:

::

    grid = GridRunner("table1")
    for name in attacks:
        grid.add(name, lambda name=name: evaluate(name),
                 config={"attack": name, "model": model_fp, "v": 1})
    rows = grid.run()          # {cell key: result}

``run()`` resolves each cell against the result cache, fans the misses
across forked workers via :func:`repro.runtime.parallel.parallel_map`
(serial when ``REPRO_WORKERS=1``), stores fresh results, and records a
:class:`~repro.runtime.instrument.CellRecord` per cell — including the nn
forward/backward passes and the :func:`~repro.runtime.instrument.scope`
timings measured *inside* the worker that ran it.

Cells must be independent and deterministic given their own seeds; results
must be picklable (numpy arrays and the metric dataclasses are).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional

import numpy as np

from ..nn import hooks
from . import instrument, journal
from .cache import ResultCache, default_cache
from .parallel import parallel_map

@dataclass
class _Cell:
    key: Hashable
    fn: Callable[[], Any]
    config: Optional[dict]

    @property
    def label(self) -> str:
        if isinstance(self.key, tuple):
            return "/".join(str(part) for part in self.key)
        return str(self.key)


class GridRunner:
    """Parallel, cached, instrumented execution of one experiment grid."""

    def __init__(self, name: str, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 instrumentation: Optional[instrument.Instrumentation] = None):
        self.name = name
        self.workers = workers
        self.cache = cache if cache is not None else default_cache()
        self.instrumentation = (instrumentation if instrumentation is not None
                                else instrument.get_instrumentation())
        self._cells: List[_Cell] = []

    def add(self, key: Hashable, fn: Callable[[], Any],
            config: Optional[dict] = None) -> None:
        """Declare a cell.  ``config=None`` makes the cell uncacheable.

        The result picks its cache encoding: an ``np.ndarray`` (an image
        batch) is stored as npz, anything else as tagged JSON.
        """
        if any(cell.key == key for cell in self._cells):
            raise ValueError(f"duplicate cell key {key!r} in grid {self.name!r}")
        self._cells.append(_Cell(key=key, fn=fn, config=config))

    def __len__(self) -> int:
        return len(self._cells)

    # -- cache plumbing -------------------------------------------------
    def _cache_name(self, cell: _Cell) -> str:
        return f"{self.name}-{cell.label}".replace(" ", "_").replace("/", "_")

    def _load_cached(self, cell: _Cell) -> Optional[Any]:
        """The cached result: an npz entry first, then a JSON one."""
        if cell.config is None:
            return None
        name = self._cache_name(cell)
        arrays = self.cache.load_arrays(name, cell.config)
        if arrays is not None and "array" in arrays:
            return arrays["array"]
        return self.cache.load_json(name, cell.config)

    def _store(self, cell: _Cell, result: Any) -> None:
        if cell.config is None or result is None:
            return
        if isinstance(result, np.ndarray):
            self.cache.save_arrays(self._cache_name(cell), cell.config,
                                   {"array": result})
        else:
            self.cache.save_json(self._cache_name(cell), cell.config, result)

    # -- execution ------------------------------------------------------
    def run(self) -> Dict[Hashable, Any]:
        """Execute every declared cell; returns ``{key: result}``.

        Results are checkpointed into the cache *as each cell completes*
        (the ``on_result`` hook fires in the parent), so a run killed or
        crashed mid-grid resumes from the completed cells on the next
        invocation — and, cells being deterministic, the resumed grid is
        bit-identical to an uninterrupted one.

        Under an active run journal every cell's fate is appended as it is
        decided: ``cached`` (result-cache hit — a resumed run's finished
        cells land here, through the same lookup as any other hit),
        ``done`` (freshly computed — on resume too, when the cache is off
        or the cell is uncacheable), ``lost`` (the journal says it finished
        once, but the enabled cache no longer has it — recomputed loudly,
        never silently).
        """
        log = journal.get_journal()
        completed = (log.completed_cells(self.name) if log is not None
                     else set())
        if log is not None:
            log.append({"event": "grid-start", "grid": self.name,
                        "cells": len(self._cells)})

        def journal_cell(cell: _Cell, status: str) -> None:
            if log is not None:
                log.append({"event": "cell", "grid": self.name,
                            "cell": cell.label, "status": status})

        results: Dict[Hashable, Any] = {}
        pending: List[_Cell] = []
        for cell in self._cells:
            result = self._load_cached(cell)
            if result is not None:
                results[cell.key] = result
                self.instrumentation.record_cell(instrument.CellRecord(
                    grid=self.name, cell=cell.label, seconds=0.0,
                    forward_passes=0, backward_passes=0, cached=True))
                journal_cell(cell, "cached")
            else:
                if (cell.label in completed and cell.config is not None
                        and self.cache.enabled):
                    journal_cell(cell, "lost")
                pending.append(cell)

        if pending:
            def checkpoint(index: int, outcome) -> None:
                self._store(pending[index], outcome[0])
                journal_cell(pending[index], "done")

            def cell_fault(index: int, attempt: int, reason: str) -> None:
                if log is not None:
                    log.append({"event": "cell-fault", "grid": self.name,
                                "cell": pending[index].label,
                                "attempt": attempt, "reason": reason})

            outcomes = parallel_map(_execute_cell, pending,
                                    workers=self.workers,
                                    on_result=checkpoint,
                                    on_fault=cell_fault)
            for cell, (result, record, scopes) in zip(pending, outcomes):
                record.grid = self.name
                results[cell.key] = result
                self.instrumentation.record_cell(record)
                self.instrumentation.merge_scopes(scopes)
        self.cache.sweep()
        if log is not None:
            log.append({"event": "grid-end", "grid": self.name,
                        "cells": len(self._cells)})
        return results


def _execute_cell(cell: _Cell):
    """Run one cell, measuring wall-clock, nn passes and scopes in *this*
    process; returns ``(result, record, scopes)``.

    Top-level (not a closure) so the serial path and the forked path execute
    byte-for-byte the same code; the measured counters are per-process, which
    makes the deltas exact in workers too.  Scopes collect into a fresh dict
    that the parent merges, so serial and forked cells count them alike.
    """
    ledger = instrument.get_instrumentation()
    outer, ledger.scopes = ledger.scopes, {}
    start_forward, start_backward = hooks.snapshot()
    start = time.perf_counter()
    try:
        result = cell.fn()
    finally:
        scopes, ledger.scopes = ledger.scopes, outer
    elapsed = time.perf_counter() - start
    end_forward, end_backward = hooks.snapshot()
    record = instrument.CellRecord(
        grid="", cell=cell.label, seconds=elapsed,
        forward_passes=end_forward - start_forward,
        backward_passes=end_backward - start_backward)
    return result, record, scopes
