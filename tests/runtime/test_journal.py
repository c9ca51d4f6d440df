"""Run journal: append/read semantics, torn tails, run ids, the fan line."""

import json
import os

import numpy as np
import pytest

from repro.runtime import env, journal

pytestmark = pytest.mark.smoke


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.setenv(env.CACHE_DIR.name, str(tmp_path))


class TestAppendAndRead:
    def test_events_round_trip_in_order(self, tmp_path):
        log = journal.RunJournal("run-0001", str(tmp_path / "run-0001"))
        log.append({"event": "grid-start", "grid": "g"})
        log.append({"event": "cell", "grid": "g", "cell": "a",
                    "status": "done"})
        events = log.events()
        assert [e["event"] for e in events] == ["grid-start", "cell"]
        assert [e["seq"] for e in events] == [0, 1]
        assert all("elapsed_s" in e for e in events)

    def test_seq_continues_across_reopen(self, tmp_path):
        directory = str(tmp_path / "run-0001")
        journal.RunJournal("run-0001", directory).append({"event": "a"})
        reopened = journal.RunJournal("run-0001", directory)
        reopened.append({"event": "b"})
        assert [e["seq"] for e in reopened.events()] == [0, 1]

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        log = journal.RunJournal("run-0001", str(tmp_path / "run-0001"))
        log.append({"event": "cell", "grid": "g", "cell": "a",
                    "status": "done"})
        with open(log.path, "a") as handle:
            handle.write('{"event": "cell", "grid": "g", "ce')  # torn line
        assert [e["event"] for e in log.events()] == ["cell"]
        assert log.completed_cells("g") == {"a"}

    def test_completed_cells_filters_status_and_grid(self, tmp_path):
        log = journal.RunJournal("run-0001", str(tmp_path / "run-0001"))
        log.append({"event": "cell", "grid": "g", "cell": "a",
                    "status": "done"})
        log.append({"event": "cell", "grid": "g", "cell": "b",
                    "status": "cached"})
        log.append({"event": "cell", "grid": "g", "cell": "c",
                    "status": "lost"})
        log.append({"event": "cell", "grid": "other", "cell": "d",
                    "status": "done"})
        assert log.completed_cells("g") == {"a", "b"}

    def test_summary_counts_events(self, tmp_path):
        log = journal.RunJournal("run-0001", str(tmp_path / "run-0001"))
        log.append({"event": "cell"})
        log.append({"event": "cell"})
        log.append({"event": "grid-end"})
        assert log.summary() == {"cell": 2, "grid-end": 1}

    def test_lines_are_plain_json(self, tmp_path):
        log = journal.RunJournal("run-0001", str(tmp_path / "run-0001"))
        log.append({"event": "x", "n": 1})
        with open(log.path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "x"


class TestRunLifecycle:
    def test_run_ids_allocate_sequentially(self):
        assert journal.new_run_id() == "run-0001"
        journal.start_run()
        journal.set_journal(None)
        assert journal.new_run_id() == "run-0002"

    def test_start_run_installs_and_exports(self):
        log = journal.start_run()
        assert journal.get_journal() is log
        assert env.RUN_ID.get() == log.run_id
        assert os.path.dirname(log.path).endswith(log.run_id)

    def test_resume_unknown_run_raises(self):
        with pytest.raises(FileNotFoundError, match="no journal"):
            journal.start_run("run-9999")

    def test_resume_reopens_same_journal(self):
        first = journal.start_run()
        first.append({"event": "cell", "grid": "g", "cell": "a",
                      "status": "done"})
        journal.set_journal(None)
        resumed = journal.start_run(first.run_id)
        assert resumed.path == first.path
        assert resumed.completed_cells("g") == {"a"}

    def test_get_journal_attaches_lazily_from_env(self, monkeypatch):
        log = journal.start_run()
        log.append({"event": "probe"})
        # Simulate a forked worker: fresh process-global, env inherited.
        journal.set_journal(None)
        attached = journal.get_journal()
        assert attached is not None
        assert attached.run_id == log.run_id
        assert [e["event"] for e in attached.events()] == ["probe"]

    def test_emit_without_active_journal_is_noop(self):
        journal.emit({"event": "ignored"})  # must not raise or create files
        assert not os.path.exists(journal.runs_root())


class TestNoRunLeaksBetweenTests:
    """``tests/conftest.py`` detaches the journal and unsets
    ``REPRO_RUN_ID`` after every test; pytest runs these two in order."""

    def test_opens_a_run(self):
        journal.start_run()
        assert env.RUN_ID.raw() is not None

    def test_the_next_test_sees_no_run(self):
        assert env.RUN_ID.raw() is None
        assert journal.get_journal() is None


class TestRetrainingFan:
    """The ``--resume`` banner's fan line, folded from ``train-*`` events."""

    def test_lifecycle(self, tmp_path):
        log = journal.RunJournal("run-0001", str(tmp_path / "run-0001"))
        assert log.describe_fan() is None
        log.append({"event": "train-start", "model": "adv-FGSM",
                    "path": "/x/adv-FGSM.npz"})
        log.append({"event": "train-start", "model": "adv-PGD"})
        log.append({"event": "train-progress", "model": "adv-FGSM",
                    "epoch": 5})
        assert log.describe_fan() == (
            "retraining fan: 0/2 variant(s) trained; remaining: "
            "adv-FGSM (epoch 5), adv-PGD (epoch 0)")
        log.append({"event": "train-done", "model": "adv-FGSM"})
        assert log.describe_fan() == (
            "retraining fan: 1/2 variant(s) trained; remaining: "
            "adv-PGD (epoch 0)")
        log.append({"event": "train-done", "model": "adv-PGD"})
        assert log.describe_fan() == "retraining fan: 2/2 variant(s) trained"

    def test_train_events_fold(self, tmp_path):
        log = journal.RunJournal("run-0001", str(tmp_path / "run-0001"))
        log.append({"event": "train-start", "model": "adv-FGSM",
                    "path": "/x/adv-FGSM.npz"})
        log.append({"event": "train-progress", "label": "zoo.adv-FGSM",
                    "epoch": 4})
        log.append({"event": "cell", "grid": "g", "cell": "c",
                    "status": "done"})
        assert log.describe_fan() == (
            "retraining fan: 0/1 variant(s) trained; remaining: "
            "adv-FGSM (epoch 4)")
        log.append({"event": "train-done", "model": "adv-FGSM"})
        assert log.describe_fan() == "retraining fan: 1/1 variant(s) trained"

    def test_describe(self, tmp_path):
        log = journal.RunJournal("run-0001", str(tmp_path / "run-0001"))
        log.append({"event": "train-start", "model": "adv-FGSM"})
        log.append({"event": "train-progress", "model": "adv-FGSM",
                    "epoch": 3})
        log.append({"event": "train-start", "model": "adv-PGD"})
        log.append({"event": "train-done", "model": "adv-PGD"})
        assert log.describe_fan() == (
            "retraining fan: 1/2 variant(s) trained; remaining: "
            "adv-FGSM (epoch 3)")

    def test_checkpointer_snapshot_reports_progress(self, tmp_path):
        from repro.models.training import EpochCheckpointer
        from repro.nn import Adam, Tensor

        log = journal.RunJournal("run-0001", str(tmp_path / "run-0001"))
        journal.set_journal(log)

        class Module:
            def __init__(self):
                self.w = Tensor(np.zeros(3, dtype=np.float32))

            def state_dict(self):
                return {"w": self.w.data}

            def parameters(self):
                return [self.w]

        module = Module()
        optimizer = Adam(module.parameters(), lr=1e-3)
        ckpt = EpochCheckpointer(str(tmp_path / "m.ckpt.npz"), every=1,
                                 label="zoo.variant-x")
        ckpt.save(2, module, optimizer, np.random.default_rng(0), [1.0, 0.5])
        assert log.events()[-1]["label"] == "zoo.variant-x"
        assert log.describe_fan() == (
            "retraining fan: 0/1 variant(s) trained; remaining: "
            "variant-x (epoch 2)")

    def test_torn_and_garbled_lines_are_skipped(self, tmp_path):
        log = journal.RunJournal("run-0001", str(tmp_path / "run-0001"))
        log.append({"event": "train-start", "model": "adv-FGSM"})
        with open(log.path, "a") as handle:
            handle.write("[1, 2]\n")                  # JSON, not an event
            handle.write('{"event": "train-done", "mo')  # torn tail
        assert log.describe_fan() == (
            "retraining fan: 0/1 variant(s) trained; remaining: "
            "adv-FGSM (epoch 0)")
