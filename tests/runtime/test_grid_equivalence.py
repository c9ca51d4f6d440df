"""GridRunner: serial/parallel equivalence and cache round-trips.

The load-bearing guarantee of the runtime: the same grid produces
bit-identical results whether cells run serially, across forked workers, or
out of the result cache.
"""

import os

import numpy as np
import pytest

from repro.runtime import GridRunner, fork_available, stable_seed
from repro.runtime.cache import ResultCache
from repro.runtime.instrument import Instrumentation

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")

CELLS = ["FGSM", "Auto-PGD", "SimBA", "RP2", "Gaussian"]


def _make_grid(workers, cache, instrumentation=None):
    grid = GridRunner("toy", workers=workers, cache=cache,
                      instrumentation=instrumentation or Instrumentation())
    for name in CELLS:
        def cell(name=name):
            rng = np.random.default_rng(stable_seed("toy", name))
            return rng.normal(size=(4, 8)).astype(np.float32)
        grid.add(name, cell, config={"cell": name, "v": 1})
    return grid


def _disabled_cache(tmp_path):
    return ResultCache(root=str(tmp_path), enabled=False)


@pytest.mark.smoke
class TestSerialGrid:
    def test_returns_every_cell(self, tmp_path):
        results = _make_grid(1, _disabled_cache(tmp_path)).run()
        assert set(results) == set(CELLS)

    def test_duplicate_keys_rejected(self, tmp_path):
        grid = _make_grid(1, _disabled_cache(tmp_path))
        with pytest.raises(ValueError, match="duplicate"):
            grid.add("FGSM", lambda: None)


@needs_fork
class TestParallelEquivalence:
    def test_parallel_rows_bit_identical_to_serial(self, tmp_path):
        serial = _make_grid(1, _disabled_cache(tmp_path)).run()
        forked = _make_grid(3, _disabled_cache(tmp_path)).run()
        for name in CELLS:
            np.testing.assert_array_equal(serial[name], forked[name])

    def test_worker_records_have_pass_counts(self, tmp_path):
        inst = Instrumentation()
        _make_grid(2, _disabled_cache(tmp_path), inst).run()
        assert len(inst.cells) == len(CELLS)
        assert all(record.grid == "toy" for record in inst.cells)
        assert all(not record.cached for record in inst.cells)


class TestGridCache:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(root=str(tmp_path), enabled=True)
        cold = _make_grid(1, cache).run()
        inst = Instrumentation()
        warm_grid = _make_grid(1, cache, inst)
        warm = warm_grid.run()
        assert all(record.cached for record in inst.cells)
        for name in CELLS:
            np.testing.assert_array_equal(cold[name], warm[name])

    @pytest.mark.smoke
    def test_config_bump_recomputes(self, tmp_path):
        cache = ResultCache(root=str(tmp_path), enabled=True)
        grid = GridRunner("toy", workers=1, cache=cache,
                          instrumentation=Instrumentation())
        grid.add("a", lambda: np.ones(3), config={"v": 1})
        grid.run()
        inst = Instrumentation()
        bumped = GridRunner("toy", workers=1, cache=cache,
                            instrumentation=inst)
        bumped.add("a", lambda: np.zeros(3), config={"v": 2})
        results = bumped.run()
        assert not inst.cells[0].cached
        np.testing.assert_array_equal(results["a"], np.zeros(3))

    @pytest.mark.smoke
    def test_result_type_picks_the_encoding(self, tmp_path):
        cache = ResultCache(root=str(tmp_path), enabled=True)

        def build():
            grid = GridRunner("toy", workers=1, cache=cache,
                              instrumentation=Instrumentation())
            grid.add("arr", lambda: np.arange(4, dtype=np.float32),
                     config={"v": 1})
            grid.add("row", lambda: {"mae": 1.5, "n": 3}, config={"v": 1})
            return grid

        cold = build().run()
        assert sorted(os.path.splitext(name)[1]
                      for name in os.listdir(tmp_path)) == [".json", ".npz"]
        warm_grid = build()
        warm = warm_grid.run()
        assert all(record.cached
                   for record in warm_grid.instrumentation.cells)
        np.testing.assert_array_equal(warm["arr"], cold["arr"])
        assert warm["arr"].dtype == np.float32
        assert warm["row"] == {"mae": 1.5, "n": 3}

    @pytest.mark.smoke
    def test_configless_cells_never_cache(self, tmp_path):
        cache = ResultCache(root=str(tmp_path), enabled=True)
        calls = []

        def build():
            grid = GridRunner("toy", workers=1, cache=cache,
                              instrumentation=Instrumentation())
            grid.add("a", lambda: calls.append(1) or np.ones(2))
            return grid

        build().run()
        build().run()
        assert len(calls) == 2

    @pytest.mark.smoke
    def test_json_cells_round_trip_tuples(self, tmp_path):
        cache = ResultCache(root=str(tmp_path), enabled=True)

        def build(inst):
            grid = GridRunner("toy", workers=1, cache=cache,
                              instrumentation=inst)
            grid.add("pair", lambda: (None, 42.0), config={"v": 1})
            return grid

        cold = build(Instrumentation()).run()
        inst = Instrumentation()
        warm = build(inst).run()
        assert inst.cells[0].cached
        assert cold["pair"] == warm["pair"] == (None, 42.0)

    @needs_fork
    def test_cached_serial_and_parallel_all_agree(self, tmp_path):
        cache = ResultCache(root=str(tmp_path), enabled=True)
        serial = _make_grid(1, _disabled_cache(tmp_path / "off")).run()
        cold = _make_grid(3, cache).run()     # parallel, populates cache
        warm = _make_grid(1, cache).run()     # pure cache read-back
        for name in CELLS:
            np.testing.assert_array_equal(serial[name], cold[name])
            np.testing.assert_array_equal(serial[name], warm[name])
