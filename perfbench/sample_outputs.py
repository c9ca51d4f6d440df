"""Record one pass's outputs of a workload on many seeds.

    python3 perfbench/sample_outputs.py attack-grid 40 >> perfbench/runs/output_bands.jsonl

Run from the root of a checkout whose benchmark zoo is built (one
``perfbench/run.py`` run builds it).  It runs under the benchmark's pinned
settings, on the given seed count drawn from [0, 2**31) like the seeds a
benchmark run may get, and prints one JSON line per seed.  The bands in
``reference.json`` are set from these lines, widened well past their range,
and ``test_perfbench.py`` checks that every recorded line lies inside them.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402

run.pin_settings()

import workloads  # noqa: E402


def main(argv) -> int:
    name, count = argv[0], int(argv[1])
    plan = workloads.fault_plan(name)
    if plan:
        os.environ["REPRO_FAULT_PLAN"] = plan
    rng = random.Random(20261016)
    for seed in [rng.getrandbits(31) for _ in range(count)]:
        workload = workloads.WORKLOADS[name]()
        workload.setup(seed)
        outputs = {key: value for key, value in workload.run_pass().items()
                   if not key.endswith(" rows")}
        print(json.dumps({"workload": name, "seed": seed,
                          "outputs": outputs}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
