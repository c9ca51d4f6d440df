"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They need the benchmark's zoo, which the first ``perfbench/run.py`` run in a
checkout builds; without it the tests that run passes are skipped.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402

run.pin_settings()

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

needs_zoo = pytest.mark.skipif(
    len(run.zoo_files()) < 2,
    reason="benchmark zoo not built; run perfbench/run.py once")


def bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def wrapped_attributes():
    """(owner, attr, current value) of every attribute the tracer replaces."""
    probe = Tracer()
    workloads.install_layers(probe)
    for cls in workloads.WORKLOADS.values():
        workloads.install_ticks(probe, cls())
    saved = [(owner, attr) for owner, attr, _ in probe._saved]
    probe.restore()
    return [(owner, attr, vars(owner)[attr] if isinstance(owner, type)
             else getattr(owner, attr)) for owner, attr in saved]


def test_restore_puts_back_every_original():
    before = wrapped_attributes()
    tracer = Tracer()
    workloads.install_layers(tracer)
    for cls in workloads.WORKLOADS.values():
        workloads.install_ticks(tracer, cls())
    assert all((vars(owner)[attr] if isinstance(owner, type)
                else getattr(owner, attr)) is not original
               for owner, attr, original in before)
    tracer.restore()
    assert all((vars(owner)[attr] if isinstance(owner, type)
                else getattr(owner, attr)) is original
               for owner, attr, original in before)


def test_workload_names_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(
        entry["name"] for entry in bench()["workloads"])


def test_recorded_outputs_lie_inside_the_bands():
    with open(workloads.reference_path()) as handle:
        reference = json.load(handle)
    seen = set()
    with open(os.path.join(HERE, "runs", "output_bands.jsonl")) as handle:
        for line in handle:
            record = json.loads(line)
            seen.add(record["workload"])
            bands = reference[record["workload"]]
            outputs = record["outputs"]
            assert workloads.check_outputs(outputs, outputs, bands) == [], \
                record["seed"]
    assert seen == set(workloads.WORKLOADS)


@needs_zoo
@pytest.mark.parametrize("name", ["attack-grid", "serve-chaos"])
def test_traced_pass_gives_the_untraced_outputs(name):
    workload = workloads.WORKLOADS[name]()
    workload.setup(5)
    plain = workload.run_pass()
    with Tracer() as tracer:
        workloads.install_layers(tracer)
        traced = workload.run_pass()
    assert tracer.calls["nn.conv2d"] > 0
    assert traced == plain


@needs_zoo
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_result_line_names_every_metric(trace, section):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "serve-chaos", "--seed", "3", "--seconds", "0", "--trace",
         str(trace)], capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    expected = {entry["name"]: entry["unit"] for entry in bench()[section]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected


@needs_zoo
def test_a_different_seed_changes_the_inputs():
    first, second = workloads.ServeChaos(), workloads.ServeChaos()
    first.setup(1)
    second.setup(2)
    assert not np.array_equal(first.trace.frames, second.trace.frames)
    loops = workloads.ClosedLoop(), workloads.ClosedLoop()
    loops[0].setup(1)
    loops[1].setup(2)
    assert loops[0].scenario != loops[1].scenario
    purify = workloads.DiffPIRPurify(), workloads.DiffPIRPurify()
    purify[0].setup(1)
    purify[1].setup(2)
    assert not np.array_equal(purify[0].frames, purify[1].frames)


def test_missing_program_fails_without_a_result(tmp_path):
    """Run from a directory that holds only the benchmark: no result line."""
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py", "reference.json"):
        (copy / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attack-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
