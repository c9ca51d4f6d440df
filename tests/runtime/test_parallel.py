"""parallel_map: serial fallback, forked execution, failure propagation."""

import numpy as np
import pytest

from repro.runtime import (WorkerError, env, fork_available, parallel_map,
                           stable_seed, worker_count)

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


def _square(x):
    return x * x


def _cell(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=16).astype(np.float32)


@pytest.mark.smoke
class TestWorkerCount:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(env.WORKERS.name, "7")
        assert worker_count(3) == 3

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(env.WORKERS.name, "5")
        assert worker_count() == 5

    def test_floor_of_one(self):
        assert worker_count(0) == 1
        assert worker_count(-2) == 1

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv(env.WORKERS.name, "many")
        with pytest.raises(ValueError):
            worker_count()

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv(env.WORKERS.name, raising=False)
        assert worker_count() >= 1


@pytest.mark.smoke
class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)

    def test_distinct_cells_distinct_seeds(self):
        seeds = {stable_seed("cell", i) for i in range(100)}
        assert len(seeds) == 100

    def test_base_perturbs(self):
        assert stable_seed("x", base=0) != stable_seed("x", base=1)

    def test_fits_in_32_bits(self):
        assert 0 <= stable_seed("anything") < 2 ** 32


@pytest.mark.smoke
class TestSerialPath:
    def test_matches_builtin_map(self):
        assert parallel_map(_square, range(10), workers=1) == \
            [x * x for x in range(10)]

    def test_empty_input(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_exception_propagates_directly(self):
        def boom(_):
            raise ValueError("inner")
        with pytest.raises(ValueError, match="inner"):
            parallel_map(boom, [1], workers=1)  # repro: noqa[R004] -- serial path (workers=1) never pickles the callable


@needs_fork
class TestForkedPath:
    def test_results_in_input_order(self):
        out = parallel_map(_square, range(11), workers=3)
        assert out == [x * x for x in range(11)]

    def test_bit_identical_to_serial(self):
        seeds = [stable_seed("eq", i) for i in range(6)]
        serial = parallel_map(_cell, seeds, workers=1)
        forked = parallel_map(_cell, seeds, workers=3)
        for a, b in zip(serial, forked):
            np.testing.assert_array_equal(a, b)

    def test_worker_error_carries_remote_traceback(self):
        def boom(x):
            if x == 2:
                raise RuntimeError("cell exploded")
            return x
        with pytest.raises(WorkerError) as excinfo:
            parallel_map(boom, range(4), workers=2)  # repro: noqa[R004] -- fork-start test: the closure never crosses a pickle boundary
        assert excinfo.value.index == 2
        assert "cell exploded" in excinfo.value.remote_traceback

    def test_large_results_cross_the_queue(self):
        # Bigger than a pipe buffer, to exercise the queue feeder thread.
        arrays = parallel_map(lambda i: np.full((256, 256), i, np.float32),  # repro: noqa[R004] -- fork-start test: the closure never crosses a pickle boundary
                              range(4), workers=2)
        for i, array in enumerate(arrays):
            assert array.shape == (256, 256)
            assert (array == i).all()
