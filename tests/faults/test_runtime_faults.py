"""Runtime-plane fault injection: the executor's crash/hang/retry paths,
exercised deterministically via REPRO_FAULT_PLAN."""

import numpy as np
import pytest

from repro.faults import InjectedFault, RuntimeFaultPlan
from repro.runtime import (GridRunner, ResultCache, WorkerError, env,
                           parallel_map)
from repro.runtime.parallel import fork_available

pytestmark = pytest.mark.faults

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


def _square(x):
    return x * x


@pytest.mark.smoke
class TestPlanParsing:
    def test_empty_plan_is_falsy(self):
        assert not RuntimeFaultPlan.parse(None)
        assert not RuntimeFaultPlan.parse("  ")

    def test_full_grammar(self):
        plan = RuntimeFaultPlan.parse("crash@2,raise@0,hang@3:attempt=1")
        assert plan.lookup(2, 0).kind == "crash"
        assert plan.lookup(0, 0).kind == "raise"
        assert plan.lookup(3, 1).kind == "hang"
        assert plan.lookup(3, 0) is None  # fault pinned to attempt 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown runtime fault kind"):
            RuntimeFaultPlan.parse("oom@1")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="option"):
            RuntimeFaultPlan.parse("raise@1:after=2")

    def test_raise_injection(self):
        plan = RuntimeFaultPlan.parse("raise@1")
        plan.maybe_inject(0, 0)  # no fault planned: no-op
        with pytest.raises(InjectedFault):
            plan.maybe_inject(1, 0)


@pytest.mark.smoke
class TestSerialRetries:
    def test_raised_fault_retried_in_process(self, monkeypatch):
        monkeypatch.setenv(env.FAULT_PLAN.name, "raise@1")
        out = parallel_map(_square, range(4), workers=1)
        assert out == [0, 1, 4, 9]

    def test_exhausted_retries_reraise_original(self, monkeypatch):
        monkeypatch.setenv(
            env.FAULT_PLAN.name, "raise@0,raise@0:attempt=1,raise@0:attempt=2")
        with pytest.raises(InjectedFault):
            parallel_map(_square, range(2), workers=1)

    def test_crash_plan_skipped_serially(self, monkeypatch):
        # A hard-exit cannot be recovered in-process; the serial path must
        # skip it (with a warning) rather than kill the test run.
        monkeypatch.setenv(env.FAULT_PLAN.name, "crash@0")
        assert parallel_map(_square, range(3), workers=1) == [0, 1, 4]


@needs_fork
class TestForkedRecovery:
    def test_crashed_worker_retried(self, monkeypatch):
        monkeypatch.setenv(env.FAULT_PLAN.name, "crash@1")
        out = parallel_map(_square, range(5), workers=2)
        assert out == [0, 1, 4, 9, 16]

    def test_raised_fault_retried(self, monkeypatch):
        monkeypatch.setenv(env.FAULT_PLAN.name, "raise@0,crash@3")
        out = parallel_map(_square, range(5), workers=2)
        assert out == [0, 1, 4, 9, 16]

    def test_hung_worker_detected_and_retried(self, monkeypatch):
        monkeypatch.setenv(env.FAULT_PLAN.name, "hang@2")
        out = parallel_map(_square, range(4), workers=2, timeout=1.0)
        assert out == [0, 1, 4, 9]

    def test_persistent_crash_exhausts_budget(self, monkeypatch):
        monkeypatch.setenv(
            env.FAULT_PLAN.name,
            "crash@1,crash@1:attempt=1,crash@1:attempt=2")
        with pytest.raises(WorkerError) as excinfo:
            parallel_map(_square, range(3), workers=2)
        assert excinfo.value.index == 1
        assert "died" in excinfo.value.remote_traceback

    def test_on_result_fires_once_per_item(self, monkeypatch):
        monkeypatch.setenv(env.FAULT_PLAN.name, "crash@0")
        seen = {}
        out = parallel_map(_square, range(4), workers=2,
                           on_result=lambda i, r: seen.setdefault(i, r))
        assert out == [0, 1, 4, 9]
        assert seen == {0: 0, 1: 1, 2: 4, 3: 9}

    def test_fault_reasons_match_serial(self, monkeypatch):
        monkeypatch.setenv(env.FAULT_PLAN.name, "raise@1")
        reasons = {}
        for workers in (1, 2):
            seen = []
            parallel_map(_square, range(3), workers=workers,
                         on_fault=lambda *event: seen.append(event))
            reasons[workers] = seen
        assert reasons[1] == reasons[2] == [
            (1, 0, "raised: InjectedFault: injected failure for item 1 "
                   "attempt 0")]

    def test_recovery_is_bit_identical(self, monkeypatch):
        def cell(seed):
            return np.random.default_rng(seed).normal(size=8)

        clean = parallel_map(cell, range(4), workers=2)  # repro: noqa[R004] -- fork-start test: the closure never crosses a pickle boundary
        monkeypatch.setenv(env.FAULT_PLAN.name, "crash@2,raise@0")
        faulted = parallel_map(cell, range(4), workers=2)  # repro: noqa[R004] -- fork-start test: the closure never crosses a pickle boundary
        for a, b in zip(clean, faulted):
            np.testing.assert_array_equal(a, b)


def _grid_cell(i):
    return {"value": i * i, "i": i}


class TestGridCheckpointResume:
    def build_grid(self, tmp_path, n=4, workers=1):
        cache = ResultCache(root=str(tmp_path / "cells"), enabled=True)
        grid = GridRunner("ckpt", workers=workers, cache=cache)
        for i in range(n):
            grid.add(i, lambda i=i: _grid_cell(i),
                     config={"i": i, "v": 1})
        return grid

    def test_completed_cells_checkpointed_before_failure(self, tmp_path,
                                                         monkeypatch):
        # Cell 3 fails persistently: the run dies, but cells completed
        # before it must already be in the cache.
        monkeypatch.setenv(
            env.FAULT_PLAN.name,
            "raise@3,raise@3:attempt=1,raise@3:attempt=2")
        grid = self.build_grid(tmp_path)
        with pytest.raises(InjectedFault):
            grid.run()
        cached = self.build_grid(tmp_path)
        calls = []
        monkeypatch.setenv(env.FAULT_PLAN.name, "")
        for cell in cached._cells:
            cell_fn = cell.fn
            cell.fn = lambda fn=cell_fn, i=cell.key: (calls.append(i),
                                                      fn())[1]
        results = cached.run()
        # Only the failed cell is recomputed; the rest resume from the
        # checkpoint, and the merged grid equals an uninterrupted run.
        assert calls == [3]
        assert results == {i: _grid_cell(i) for i in range(4)}

    @needs_fork
    def test_killed_parallel_grid_resumes_bit_identical(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv(
            env.FAULT_PLAN.name,
            "crash@3,crash@3:attempt=1,crash@3:attempt=2")
        grid = self.build_grid(tmp_path, workers=2)
        with pytest.raises(WorkerError):
            grid.run()
        monkeypatch.delenv(env.FAULT_PLAN.name)
        resumed = self.build_grid(tmp_path, workers=2).run()
        fresh = self.build_grid(tmp_path / "fresh", workers=2).run()
        assert resumed == fresh == {i: _grid_cell(i) for i in range(4)}
