"""Replica pool: real forked crash/hang/respawn + serial-mode synthesis."""

import pytest

from repro.runtime.parallel import fork_available
from repro.serving import (ReplicaPool, REPLICA_SCOPE, ServeConfig,
                           slot_scope)

pytestmark = pytest.mark.serving

forked_only = pytest.mark.skipif(not fork_available(),
                                 reason="needs os.fork")


def _echo(payload):
    if payload == "boom":
        raise ValueError("handler exploded")
    return ("echo", payload)


@pytest.fixture
def plan_env(monkeypatch):
    def set_plan(spec):
        monkeypatch.setenv("REPRO_FAULT_PLAN", spec)
    return set_plan


@pytest.mark.faults
class TestForked:
    @forked_only
    def test_ok_and_raised(self):
        with ReplicaPool(_echo, n_replicas=2, wall_timeout=5.0,
                         forked=True) as pool:
            reply = pool.call(0, 0, "hello")
            assert reply.status == "ok"
            assert reply.value == ("echo", "hello")
            reply = pool.call(1, 1, "boom")
            assert reply.status == "raised"
            assert "handler exploded" in reply.detail
            # a raising handler leaves the replica alive
            assert pool.call(1, 2, "x").status == "ok"
            assert pool.respawns == 0

    @forked_only
    def test_injected_crash_respawns(self, plan_env):
        plan_env(f"crash@{slot_scope(0)}:attempt=1")
        with ReplicaPool(_echo, n_replicas=2, wall_timeout=5.0,
                         forked=True) as pool:
            assert pool.call(0, 0, "a").status == "ok"
            reply = pool.call(0, 1, "b")
            assert reply.status == "crashed"
            assert pool.respawns == 1
            assert [e.kind for e in pool.events] == ["crashed"]
            # the respawned process serves again
            assert pool.call(0, 2, "c").status == "ok"
            # the sibling slot never noticed
            assert pool.call(1, 3, "d").status == "ok"

    @forked_only
    def test_injected_hang_times_out_and_respawns(self, plan_env):
        plan_env(f"hang@{slot_scope(0)}:attempt=0")
        with ReplicaPool(_echo, n_replicas=1, wall_timeout=0.5,
                         forked=True) as pool:
            reply = pool.call(0, 0, "a")
            assert reply.status == "hung"
            assert pool.respawns == 1
            assert pool.call(0, 1, "b").status == "ok"


class TestSerial:
    def test_serial_synthesizes_planned_outcomes(self, plan_env):
        plan_env(f"crash@{slot_scope(0)}:attempt=1,"
                 f"hang@{slot_scope(1)}:attempt=2,"
                 f"raise@{REPLICA_SCOPE}:attempt=3")
        pool = ReplicaPool(_echo, n_replicas=2, forked=False)
        assert pool.call(0, 0, "a").status == "ok"
        assert pool.call(0, 1, "a").status == "crashed"
        assert pool.call(1, 2, "a").status == "hung"
        assert pool.call(1, 3, "a").status == "raised"
        assert pool.respawns == 2

    @forked_only
    def test_serial_matches_forked_outcome_stream(self, plan_env):
        plan = (f"crash@{slot_scope(0)}:attempt=1,"
                f"raise@{REPLICA_SCOPE}:attempt=3")
        plan_env(plan)
        calls = [(0, 0), (0, 1), (0, 2), (1, 3), (1, 4)]
        serial = ReplicaPool(_echo, n_replicas=2, forked=False)
        serial_replies = [serial.call(slot, seq, "x") for slot, seq in calls]
        with ReplicaPool(_echo, n_replicas=2, wall_timeout=5.0,
                         forked=True) as forked:
            forked_replies = [forked.call(slot, seq, "x")
                              for slot, seq in calls]
        statuses = [reply.status for reply in serial_replies]
        assert statuses == [reply.status for reply in forked_replies]
        assert statuses == ["ok", "crashed", "ok", "raised", "ok"]
        # wherever the handler ran, both modes report the same detail
        # (a crash's detail is synthesized serially, observed when forked)
        ran = [i for i, status in enumerate(statuses) if status != "crashed"]
        assert ([serial_replies[i].detail for i in ran]
                == [forked_replies[i].detail for i in ran])
        assert serial_replies[3].detail == ("InjectedFault: injected failure "
                                            "for scope 'serve.replica' "
                                            "attempt 3")

    def test_bad_slot_raises(self):
        pool = ReplicaPool(_echo, n_replicas=1, forked=False)
        with pytest.raises(IndexError):
            pool.call(5, 0, "x")

    @pytest.mark.parametrize("n_replicas", [0, -1])
    def test_rejects_an_empty_pool(self, n_replicas):
        # ServeConfig is the one place the replica count is validated.
        with pytest.raises(ValueError, match="n_replicas"):
            ServeConfig(n_replicas=n_replicas)
