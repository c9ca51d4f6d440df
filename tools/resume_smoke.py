#!/usr/bin/env python
"""End-to-end crash/resume smoke: kill table3 mid-run, resume, diff tables.

Scenario (driven by ``tools/ci.sh resume``):

1. **Reference** — run a scaled-down Table III to completion in a fresh
   cache; keep the rendered table.
2. **Kill** — run the same experiment in a *second* fresh cache under
   ``REPRO_FAULT_PLAN=crash@zoo.table3-det``: the run journals its
   adversarial-set grid, then ``os._exit(13)``s at the first retraining —
   exactly a mid-run ``kill -9``.
3. **Resume** — rerun with ``--resume <run-id>`` (same journal, same
   cache, fault plan cleared) and assert the resumed table is
   byte-identical to the uninterrupted reference, that every cacheable
   cell the killed run finished is journaled ``cached`` on resume (an
   ordinary result-cache hit), that no cell is journaled ``lost``, and that
   the second run exits cleanly.

The experiment is shrunk (2 attack rows, tiny datasets, 2-epoch
retrainings) by patching the *experiment driver's* namespace — zoo
defaults are baked into function signatures at import time, so the
patches target ``repro.experiments.table3``'s own bindings.
"""

import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CRASH_EXIT = 13
KILL_PLAN = "crash@zoo.table3-det"


# ---------------------------------------------------------------------------
# child: one (possibly killed) journaled table3 run
# ---------------------------------------------------------------------------

def _shrink_table3():
    """Scale the Table III driver down to smoke size, in place."""
    import functools

    from repro.experiments import table3
    from repro.models import zoo

    table3.ROW_NAMES = ["Gaussian Noise", "FGSM"]  # cheap attack pair
    table3.TRAIN_SCENES = 10
    table3.TRAIN_FRAMES = 16
    table3.RETRAIN_EPOCHS_DET = 2
    table3.RETRAIN_EPOCHS_REG = 2
    table3.get_detector = functools.partial(zoo.get_detector, n_scenes=16,
                                            epochs=2)
    table3.get_regressor = functools.partial(zoo.get_regressor, n_frames=24,
                                             epochs=2)
    return table3


def child(resume_id, out_path):
    from repro.runtime import journal

    table3 = _shrink_table3()
    log = journal.start_run(resume_id or None)
    print(f"RUN_ID={log.run_id}", flush=True)
    log.append({"event": "run-start", "argv": ["table3"],
                "resumed": bool(resume_id)})
    rows = table3.run(n_per_range=4, n_test_scenes=6)
    table = table3.render(rows)
    with open(out_path, "w") as handle:
        handle.write(table)
    log.append({"event": "run-end", "exit_code": 0})
    return 0


# ---------------------------------------------------------------------------
# parent: orchestrate reference / kill / resume and diff the results
# ---------------------------------------------------------------------------

def _spawn(cache_dir, out_path, resume_id="", fault_plan=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["REPRO_CACHE_DIR"] = cache_dir
    env.pop("REPRO_FAULT_PLAN", None)
    env.pop("REPRO_RUN_ID", None)
    if fault_plan:
        env["REPRO_FAULT_PLAN"] = fault_plan
    command = [sys.executable, os.path.abspath(__file__), "--child",
               resume_id, out_path]
    return subprocess.run(command, env=env, cwd=REPO, capture_output=True,
                          text=True)


def _run_id(proc):
    match = re.search(r"RUN_ID=(\S+)", proc.stdout)
    if match is None:
        raise SystemExit(f"child printed no run id; stdout:\n{proc.stdout}\n"
                         f"stderr:\n{proc.stderr}")
    return match.group(1)


def main():
    import json
    import tempfile

    with tempfile.TemporaryDirectory(prefix="resume-smoke-") as scratch:
        ref_cache = os.path.join(scratch, "cache-ref")
        run_cache = os.path.join(scratch, "cache-run")
        ref_table = os.path.join(scratch, "table-ref.txt")
        resumed_table = os.path.join(scratch, "table-resumed.txt")

        print("== reference: uninterrupted run ==", flush=True)
        reference = _spawn(ref_cache, ref_table)
        if reference.returncode != 0:
            raise SystemExit("reference run failed:\n" + reference.stderr)

        print(f"== kill: {KILL_PLAN} ==", flush=True)
        killed = _spawn(run_cache, os.path.join(scratch, "unused.txt"),
                        fault_plan=KILL_PLAN)
        if killed.returncode != CRASH_EXIT:
            raise SystemExit(
                f"expected the injected crash to exit {CRASH_EXIT}, got "
                f"{killed.returncode}:\n{killed.stdout}\n{killed.stderr}")
        run_id = _run_id(killed)
        print(f"   killed run {run_id} exited {killed.returncode} as planned")

        print(f"== resume: --resume {run_id} ==", flush=True)
        resumed = _spawn(run_cache, resumed_table, resume_id=run_id)
        if resumed.returncode != 0:
            raise SystemExit("resumed run failed:\n" + resumed.stderr)
        if _run_id(resumed) != run_id:
            raise SystemExit("resume did not reopen the original run id")

        with open(ref_table) as handle:
            expected = handle.read()
        with open(resumed_table) as handle:
            actual = handle.read()
        if expected != actual:
            raise SystemExit("resumed table differs from the uninterrupted "
                             f"run:\n--- expected\n{expected}\n--- actual\n"
                             f"{actual}")
        print("   resumed table is byte-identical to the uninterrupted run")

        journal_path = os.path.join(run_cache, "runs", run_id,
                                    "journal.jsonl")
        events = []
        with open(journal_path) as handle:
            for line in handle:
                try:
                    events.append(json.loads(line))
                except ValueError:
                    pass  # torn tail from the kill is expected
        resumed_at = next(i for i, e in enumerate(events)
                          if e.get("event") == "run-start" and e["resumed"])
        cells = [((e.get("grid"), e.get("cell")), e.get("status"), i)
                 for i, e in enumerate(events) if e.get("event") == "cell"]
        # Cells with a result-cache entry; the grid's uncacheable cells
        # (config=None) have none and simply recompute on resume.
        entries = os.listdir(os.path.join(run_cache, "cells"))

        def has_entry(grid, cell):
            prefix = f"{grid}-{cell}-".replace(" ", "_").replace("/", "_")
            return any(name.startswith(prefix) for name in entries)

        finished = {key for key, status, i in cells
                    if i < resumed_at and status == "done"
                    and has_entry(*key)}
        resumed_cells = {key: status for key, status, i in cells
                         if i > resumed_at and key in finished}
        # Every cached cell the killed run finished must come back as an
        # ordinary result-cache hit, and no cell may be reported lost.
        if not finished or set(resumed_cells) != finished or any(
                status != "cached" for status in resumed_cells.values()):
            raise SystemExit("resumed run did not journal every finished "
                             "cell as cached:\n"
                             f"{[status for _, status, _ in cells]}")
        if any(status == "lost" for _, status, _ in cells):
            raise SystemExit("journal records a lost cell on resume:\n"
                             f"{[status for _, status, _ in cells]}")
        print(f"   journal: {len(cells)} cell events; the {len(finished)} "
              "cached cells finished before the kill are cached on resume")
    print("resume smoke: OK")
    return 0


if __name__ == "__main__":
    if len(sys.argv) >= 2 and sys.argv[1] == "--child":
        sys.exit(child(sys.argv[2], sys.argv[3]))
    sys.exit(main())
