"""Request broker: deadlines, retries, hedging, shedding, breaker trips."""

import pytest

from repro.serving import (BreakerConfig, BrokerConfig, ReplicaPool,
                           RequestBroker, REPLICA_SCOPE, slot_scope)

pytestmark = pytest.mark.serving


def _echo(payload):
    return ("echo", payload)


def _broker(plan_env, plan="", n_replicas=3, **config):
    plan_env(plan)
    pool = ReplicaPool(_echo, n_replicas=n_replicas, forked=False)
    defaults = dict(deadline_ms=60.0, retries=2, hedge_percentile=95.0,
                    queue_ms=120.0)
    defaults.update(config)
    return RequestBroker(pool, BrokerConfig(**defaults))


@pytest.fixture
def plan_env(monkeypatch):
    def set_plan(spec):
        monkeypatch.setenv("REPRO_FAULT_PLAN", spec)
    return set_plan


class TestHappyPath:
    def test_ok_request_carries_value_and_latency(self, plan_env):
        broker = _broker(plan_env)
        result = broker.submit(0, "frame", arrival_ms=0.0)
        assert result.status == "ok"
        assert result.value == ("echo", "frame")
        assert result.latency_ms > 0.0
        assert result.attempts == 1
        assert broker.counters["ok"] == 1

    def test_spread_arrivals_use_least_loaded_slot(self, plan_env):
        broker = _broker(plan_env, n_replicas=2)
        for seq in range(10):
            result = broker.submit(seq, "x", arrival_ms=seq * 50.0)
            assert result.status == "ok"
        assert broker.counters["ok"] == 10


class TestRetries:
    def test_raise_retries_on_another_slot(self, plan_env):
        broker = _broker(plan_env, plan=f"raise@{slot_scope(0)}:attempt=0")
        result = broker.submit(0, "x", arrival_ms=0.0)
        assert result.status == "ok"
        assert result.attempts == 2
        assert result.slot != 0
        assert broker.counters["retries"] == 1
        assert broker.counters["raises"] == 1

    def test_crash_is_detected_fast_then_retried(self, plan_env):
        broker = _broker(plan_env, plan=f"crash@{REPLICA_SCOPE}:attempt=0")
        result = broker.submit(0, "x", arrival_ms=0.0)
        # the crash hits whatever slot got attempt one; the retry lands on
        # a different slot where the same seq-keyed fault fires again,
        # until the retry budget burns out or a slot repeats
        assert broker.counters["crashes"] >= 1

    def test_budget_exhaustion_is_a_deadline_miss(self, plan_env):
        # every slot crashes request 0 on every attempt
        broker = _broker(plan_env, plan=f"crash@{REPLICA_SCOPE}:attempt=0",
                         retries=2)
        result = broker.submit(0, "x", arrival_ms=0.0)
        assert result.status == "deadline"
        assert result.attempts == 3
        assert broker.counters["deadline"] == 1
        assert broker.counters["retries"] == 2


class TestShedding:
    def test_queue_overload_sheds(self, plan_env):
        broker = _broker(plan_env, n_replicas=1, deadline_ms=60.0,
                         queue_ms=120.0)
        statuses = [broker.submit(seq, "x", arrival_ms=0.0).status
                    for seq in range(40)]
        assert "shed" in statuses
        assert broker.counters["shed"] > 0
        # admission control: nothing was dispatched into a certain miss
        assert broker.counters["deadline"] == 0

    def test_all_breakers_open_sheds(self, plan_env):
        broker = _broker(plan_env, plan=f"crash@{REPLICA_SCOPE}:attempt=0+",
                         n_replicas=2)
        broker.config.breaker = BreakerConfig(min_requests=2,
                                              open_cooldown_s=1000.0)
        broker.breakers = [type(b)(broker.config.breaker, label=b.label)
                           for b in broker.breakers]
        statuses = [broker.submit(seq, "x", arrival_ms=seq * 50.0).status
                    for seq in range(20)]
        assert statuses[-1] == "shed"
        last = [r for r in (broker.submit(99, "x", arrival_ms=2000.0),)][0]
        assert last.shed_reason == "breakers-open"


class TestBreakerIntegration:
    def test_crashloop_trips_breaker_while_survivors_serve(self, plan_env):
        broker = _broker(plan_env, plan=f"crash@{slot_scope(0)}:attempt=0+",
                         n_replicas=3)
        results = [broker.submit(seq, "x", arrival_ms=seq * 50.0)
                   for seq in range(60)]
        assert broker.trip_count() >= 1
        # the loop keeps answering: survivors absorb the traffic
        assert sum(1 for r in results if r.status == "ok") >= 55
        transitions = broker.breaker_transitions()
        assert all(t["slot"] == 0 for t in transitions
                   if t["to"] == "open")
        # transitions are virtual-time ordered
        times = [t["at_s"] for t in transitions]
        assert times == sorted(times)

    def test_half_open_recovery_closes_after_fault_window(self, plan_env):
        # slot 0 crashes only for requests 0-9, then heals
        broker = _broker(plan_env, plan=f"crash@{slot_scope(0)}:attempt=0-9",
                         n_replicas=2)
        for seq in range(80):
            broker.submit(seq, "x", arrival_ms=seq * 50.0)
        states = [t["to"] for t in broker.breaker_transitions()]
        assert "open" in states
        assert "closed" in states  # recovered via half-open probes


class TestHedging:
    def test_hedges_fire_on_tail_latencies(self, plan_env):
        broker = _broker(plan_env, hedge_percentile=50.0)
        broker.config.hedge_min_samples = 10
        broker.tracker.min_samples = 10
        for seq in range(200):
            broker.submit(seq, "x", arrival_ms=seq * 50.0)
        assert broker.counters["hedges"] > 0
        assert broker.counters["hedge_wins"] <= broker.counters["hedges"]

    def test_percentile_100_never_hedges(self, plan_env):
        broker = _broker(plan_env, hedge_percentile=100.0)
        for seq in range(100):
            broker.submit(seq, "x", arrival_ms=seq * 50.0)
        assert broker.counters["hedges"] == 0


class TestDeterminism:
    def test_submission_stream_is_bit_identical(self, plan_env):
        def stream():
            broker = _broker(plan_env,
                             plan=f"crash@{slot_scope(0)}:attempt=5-15,"
                                  f"raise@{slot_scope(1)}:attempt=20")
            return [(r.status, round(r.latency_ms, 9), r.attempts, r.slot)
                    for r in (broker.submit(seq, "x", arrival_ms=seq * 50.0)
                              for seq in range(120))]

        assert stream() == stream()


class TestConfigValidation:
    def test_defaults(self):
        config = BrokerConfig()
        assert (config.deadline_ms, config.retries, config.hedge_percentile,
                config.queue_ms) == (45.0, 2, 95.0, 120.0)

    @pytest.mark.parametrize("field, value", [
        ("deadline_ms", 0.0), ("deadline_ms", -5.0), ("retries", -1),
        ("queue_ms", -0.5)])
    def test_rejects_out_of_range_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            BrokerConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("retries", 0), ("queue_ms", 0.0)])
    def test_accepts_the_boundary(self, field, value):
        assert getattr(BrokerConfig(**{field: value}), field) == value
