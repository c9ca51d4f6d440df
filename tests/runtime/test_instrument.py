"""Instrumentation: cell records, scoped timers, nn pass counters, export."""

import json

import numpy as np
import pytest

from repro.nn import Linear, Sequential, Tensor, hooks
from repro.runtime import GridRunner, ResultCache
from repro.runtime.grid import _Cell, _execute_cell
from repro.runtime.instrument import (CellRecord, Instrumentation,
                                      get_instrumentation, scope)
from repro.runtime.parallel import fork_available


@pytest.mark.smoke
class TestPassCounters:
    def test_nested_modules_count_once(self):
        model = Sequential(Linear(4, 8), Linear(8, 2))
        start_forward, _ = hooks.snapshot()
        model(Tensor(np.zeros((1, 4), dtype=np.float32)))
        end_forward, _ = hooks.snapshot()
        # one top-level call, despite the two Linear children firing inside
        assert end_forward - start_forward == 1

    def test_backward_counted(self):
        model = Linear(3, 1)
        _, start_backward = hooks.snapshot()
        out = model(Tensor(np.ones((2, 3), dtype=np.float32)))
        out.sum().backward()
        _, end_backward = hooks.snapshot()
        assert end_backward - start_backward == 1


@pytest.mark.smoke
class TestInstrumentation:
    def test_execute_cell_attributes_passes(self):
        model = Linear(4, 2)

        def cell():
            model(Tensor(np.zeros((1, 4), dtype=np.float32)))
            model(Tensor(np.zeros((1, 4), dtype=np.float32)))
            return "done"

        result, record, scopes = _execute_cell(_Cell("cell", cell, None))
        assert result == "done"
        assert record.cell == "cell"
        assert record.forward_passes == 2
        assert record.backward_passes == 0
        assert record.seconds >= 0.0
        assert scopes == {}

    def test_scope_accumulates(self):
        inst = Instrumentation()
        for _ in range(3):
            with inst.scope("harness.attack_generation"):
                pass
        total = inst.scopes["harness.attack_generation"]
        assert total.calls == 3
        assert total.seconds >= 0.0

    def test_summary_totals_skip_cached_cells(self):
        inst = Instrumentation()
        inst.record_cell(CellRecord("g", "a", 1.5, 10, 5))
        inst.record_cell(CellRecord("g", "b", 0.0, 0, 0, cached=True))
        totals = inst.summary()["totals"]
        assert totals["cells"] == 2
        assert totals["cache_hits"] == 1
        assert totals["seconds"] == 1.5  # repro: noqa[R005] -- sum of exactly representable durations (1.0 + 0.5)
        assert totals["forward_passes"] == 10
        assert totals["backward_passes"] == 5

    def test_export_writes_json(self, tmp_path):
        inst = Instrumentation()
        inst.record_cell(CellRecord("g", "a", 0.25, 3, 1))
        path = inst.export(str(tmp_path / "BENCH_runtime.json"))
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["schema"] == 1
        assert payload["cells"][0]["cell"] == "a"
        assert payload["totals"]["forward_passes"] == 3

    def test_render_mentions_cache_hits(self):
        inst = Instrumentation()
        inst.record_cell(CellRecord("table1", "FGSM", 0.5, 4, 2))
        inst.record_cell(CellRecord("table1", "SimBA", 0.0, 0, 0, cached=True))
        text = inst.render()
        assert "table1" in text
        assert "[cache]" in text
        assert "1/2 cells from cache" in text


def _scoped_cell(i):
    with scope("test.cell_scope"):
        return i * i


@pytest.mark.skipif(not fork_available(), reason="needs os.fork")
def test_cell_scopes_reach_the_parent_ledger_from_workers(tmp_path):
    """Scope timings taken inside cells land in the parent's ledger with
    the same call counts whether the cells ran serially or in workers."""
    calls = {}
    for workers in (1, 2):
        inst = Instrumentation()
        grid = GridRunner(f"scopes{workers}", workers=workers,
                          cache=ResultCache(root=str(tmp_path),
                                            enabled=False),
                          instrumentation=inst)
        for i in range(4):
            grid.add(i, lambda i=i: _scoped_cell(i))
        assert grid.run() == {i: i * i for i in range(4)}
        # merged into the grid's ledger, not also into the global one
        assert "test.cell_scope" not in get_instrumentation().scopes
        calls[workers] = {name: total.calls
                          for name, total in inst.scopes.items()}
    assert calls[1] == calls[2] == {"test.cell_scope": 4}
