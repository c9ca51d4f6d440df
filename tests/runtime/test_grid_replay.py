"""Journaled resume: completed cells come back as result-cache hits."""

import os

import numpy as np
import pytest

from repro.runtime import GridRunner, env, journal
from repro.runtime.cache import ResultCache


@pytest.fixture
def run_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_WORKERS", "1")
    monkeypatch.delenv(env.CACHE_MAX_MB.name, raising=False)
    return str(tmp_path)


def _grid(cache, calls, name="demo", keys=("a", "b", "c")):
    grid = GridRunner(name, cache=cache)
    for key in keys:
        def fn(key=key):
            calls.append(key)
            return {"cell": key, "value": len(key)}
        grid.add(key, fn, config={"cell": key, "v": 1})
    return grid


def _first_run(run_env):
    """One journaled, cached run of the demo grid."""
    cache = ResultCache(os.path.join(run_env, "cells"))
    log = journal.RunJournal("run-0001", os.path.join(run_env, "runs",
                                                      "run-0001"))
    journal.set_journal(log)
    calls = []
    results = _grid(cache, calls).run()
    assert sorted(calls) == ["a", "b", "c"]
    return cache, log, results


def _resume(log):
    """Reopen the same journal file, as ``--resume`` does."""
    resumed = journal.RunJournal("run-0001", log.directory)
    journal.set_journal(resumed)
    return resumed


def _statuses(log, skip=0):
    return [e["status"] for e in log.events() if e["event"] == "cell"][skip:]


def test_resumed_grid_re_executes_zero_cells(run_env):
    cache, log, first = _first_run(run_env)
    assert _statuses(log) == ["done"] * 3
    # cell events name a status only; the cache is where results live
    for event in log.events():
        if event["event"] == "cell":
            assert "artifact" not in event and "codec" not in event

    resumed = _resume(log)
    calls = []
    second = _grid(cache, calls).run()
    assert calls == []                      # ZERO re-executed cells
    assert second == first
    assert _statuses(resumed, skip=3) == ["cached"] * 3


def test_changed_config_invalidates_journal_replay(run_env):
    cache, log, _ = _first_run(run_env)
    _resume(log)
    calls = []
    grid = GridRunner("demo", cache=cache)
    for key in ("a", "b", "c"):
        def fn(key=key):
            calls.append(key)
            return {"cell": key, "value": len(key)}
        grid.add(key, fn, config={"cell": key, "v": 2})  # bumped version
    grid.run()
    # the changed config fingerprints to a different entry: recompute
    assert sorted(calls) == ["a", "b", "c"]


def test_lost_artifact_recomputes_loudly(run_env):
    cache, log, _ = _first_run(run_env)
    for name in os.listdir(cache.root):
        os.remove(os.path.join(cache.root, name))

    resumed = _resume(log)
    calls = []
    _grid(cache, calls).run()
    assert sorted(calls) == ["a", "b", "c"]
    statuses = _statuses(resumed, skip=3)
    assert statuses.count("lost") == 3
    assert statuses[-3:] == ["done"] * 3    # recompute journaled after


def test_npz_cells_replay_from_journal(run_env):
    cache = ResultCache(os.path.join(run_env, "cells"))
    log = journal.RunJournal("run-0001", os.path.join(run_env, "runs",
                                                      "run-0001"))
    journal.set_journal(log)

    calls = []

    def build():
        grid = GridRunner("imgs", cache=cache)
        def fn():
            calls.append("x")
            return np.arange(12, dtype=np.float32).reshape(3, 4)
        grid.add("x", fn, config={"v": 1})
        return grid

    first = build().run()
    resumed = _resume(log)
    calls.clear()
    second = build().run()
    assert calls == []
    np.testing.assert_array_equal(first["x"], second["x"])
    assert _statuses(resumed) == ["done", "cached"]


def test_resume_with_cache_disabled_recomputes_without_lost(run_env):
    cache, log, _ = _first_run(run_env)
    resumed = _resume(log)
    calls = []
    off = ResultCache(cache.root, enabled=False)
    _grid(off, calls).run()
    # a disabled cache is never read, not even for journaled cells ...
    assert sorted(calls) == ["a", "b", "c"]
    # ... and a deliberate bypass is not a lost artifact
    assert _statuses(resumed, skip=3) == ["done"] * 3


def test_uncacheable_cells_recompute_without_lost(run_env):
    cache, log, _ = _first_run(run_env)
    resumed = _resume(log)
    calls = []
    grid = GridRunner("demo", cache=cache)
    grid.add("a", lambda: calls.append("a") or {"cell": "a"})  # no config
    grid.run()
    assert calls == ["a"]
    assert _statuses(resumed, skip=3) == ["done"]


def test_resume_refreshes_lru_recency(run_env):
    cache, log, _ = _first_run(run_env)
    paths = [os.path.join(cache.root, name)
             for name in os.listdir(cache.root)]
    for path in paths:
        os.utime(path, (1000, 1000))        # age every entry alike

    _resume(log)
    calls = []
    _grid(cache, calls, keys=("a", "b")).run()
    assert calls == []
    # reads stamp mtime, which is LRU recency even on noatime mounts
    mtimes = sorted((os.stat(path).st_mtime > 1000, os.path.basename(path))
                    for path in paths)
    assert [fresh for fresh, _ in mtimes] == [False, True, True]
    assert mtimes[0][1].startswith("demo-c-")
    total = sum(os.path.getsize(path) for path in paths)
    assert cache.sweep(max_bytes=total - 1) == 1
    # the entry the resumed run did not read goes first
    survivors = sorted(name.split("-")[1] for name in os.listdir(cache.root))
    assert survivors == ["a", "b"]
