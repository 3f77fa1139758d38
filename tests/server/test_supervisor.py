"""The shard supervisor: state machine units + live fault injection.

The unit half drives :class:`ShardSupervisor` synchronously with a
manual clock over scriptable doubles — every transition of the
healthy/backoff/quarantined machine is pinned without a single real
worker process.  The integration half breaks a real server: poison
documents hard-exit workers (``REPRO_SERVE_CRASH_LABEL``), ``SIGKILL``
takes out live pool processes, and the tests assert the supervised
outcome — per-document errors (never dropped connections), restarts
within the backoff budget, quarantine with degraded health, and the
crash/restart counters that make all of it observable.
"""

from tests.server.faults import (
    FakeEntry,
    FakeRegistry,
    ManualClock,
    POISON_DOCUMENT,
    kill_one_worker,
    poison_label,
    wait_until,
    worker_pids,
)
from repro.errors import ReproError, ServiceError, UndefinedTransductionError
from repro.server import ServerClient, ServerMetrics, ServerThread
from repro.server.logging import EventLog
from repro.server.supervisor import (
    BACKOFF,
    HEALTHY,
    QUARANTINED,
    ShardSupervisor,
)

# ---------------------------------------------------------------------------
# Unit: the state machine under a manual clock
# ---------------------------------------------------------------------------


def make_supervisor(*entries, **options):
    clock = options.pop("clock", None) or ManualClock()
    metrics = ServerMetrics()
    events = []
    log = EventLog(enabled=True).add_sink(events.append)
    options.setdefault("backoff_base", 1.0)
    options.setdefault("backoff_cap", 8.0)
    options.setdefault("flap_threshold", 3)
    options.setdefault("flap_window", 60.0)
    options.setdefault("quarantine_seconds", 120.0)
    supervisor = ShardSupervisor(
        FakeRegistry(*entries), metrics, log, clock=clock, **options
    )
    return supervisor, clock, metrics, events


def state_of(supervisor, entry):
    return supervisor.describe()[entry.key]["state"]


class TestStateMachine:
    def test_healthy_shard_stays_healthy(self):
        entry = FakeEntry()
        supervisor, clock, metrics, _events = make_supervisor(entry)
        for _ in range(5):
            supervisor.tick()
            clock.advance(1.0)
        assert state_of(supervisor, entry) == HEALTHY
        assert metrics.counter_total("repro_worker_crashes_total") == 0
        assert not supervisor.degraded

    def test_crash_enters_backoff_then_restarts(self):
        entry = FakeEntry()
        supervisor, clock, metrics, events = make_supervisor(entry)
        supervisor.tick()
        entry.crash()
        supervisor.tick()
        assert state_of(supervisor, entry) == BACKOFF
        assert entry.restart_calls == 0  # the backoff delay gates it
        assert metrics.counter_value(
            "repro_worker_crashes_total", {"model": entry.key}
        ) == 1
        clock.advance(0.5)
        supervisor.tick()
        assert entry.restart_calls == 0  # 0.5 < backoff_base
        clock.advance(0.6)
        supervisor.tick()
        assert entry.restart_calls == 1
        assert state_of(supervisor, entry) == HEALTHY
        assert metrics.counter_value(
            "repro_shard_restarts_total", {"model": entry.key}
        ) == 1
        assert [e["event"] for e in events] == [
            "shard.crash",
            "shard.backoff",
            "shard.restart",
        ]

    def test_backoff_doubles_per_consecutive_crash(self):
        entry = FakeEntry()
        supervisor, clock, _metrics, events = make_supervisor(
            entry, flap_threshold=10
        )
        supervisor.tick()
        delays = []
        for _ in range(3):
            entry.crash()
            supervisor.tick()
            delays.append(
                [e for e in events if e["event"] == "shard.backoff"][-1][
                    "delay_s"
                ]
            )
            clock.advance(delays[-1] + 0.01)
            supervisor.tick()  # restart
        assert delays == [1.0, 2.0, 4.0]

    def test_backoff_caps(self):
        entry = FakeEntry()
        supervisor, clock, _metrics, events = make_supervisor(
            entry, backoff_cap=3.0, flap_threshold=100
        )
        supervisor.tick()
        for _ in range(6):
            entry.crash()
            supervisor.tick()
            clock.advance(3.1)
            supervisor.tick()
        delays = [
            e["delay_s"] for e in events if e["event"] == "shard.backoff"
        ]
        assert delays[0] == 1.0 and delays[-1] == 3.0
        assert max(delays) == 3.0

    def test_quiet_window_resets_the_backoff(self):
        entry = FakeEntry()
        supervisor, clock, _metrics, events = make_supervisor(
            entry, flap_threshold=10, flap_window=10.0
        )
        supervisor.tick()
        entry.crash()
        supervisor.tick()
        clock.advance(1.1)
        supervisor.tick()  # restart; attempts == 1
        clock.advance(11.0)  # a full quiet flap window
        supervisor.tick()  # resets attempts
        entry.crash()
        supervisor.tick()
        delays = [
            e["delay_s"] for e in events if e["event"] == "shard.backoff"
        ]
        assert delays == [1.0, 1.0]  # not doubled: history expired

    def test_flapping_shard_is_quarantined(self):
        entry = FakeEntry()
        supervisor, clock, metrics, events = make_supervisor(
            entry, flap_threshold=3, flap_window=60.0
        )
        supervisor.tick()
        for _ in range(3):
            entry.crash()
            supervisor.tick()
            clock.advance(1.1)
            supervisor.tick()
        assert state_of(supervisor, entry) == QUARANTINED
        assert entry.quarantine_calls == [True]
        assert entry.quarantined
        assert supervisor.degraded
        assert metrics.counter_value(
            "repro_quarantines_total", {"model": entry.key}
        ) == 1
        assert any(e["event"] == "shard.quarantine" for e in events)

    def test_one_burst_of_crashes_can_quarantine(self):
        entry = FakeEntry()
        supervisor, _clock, _metrics, _events = make_supervisor(
            entry, flap_threshold=2
        )
        supervisor.tick()
        entry.crash(2)  # a poisoned chunk: initial break + failed retry
        supervisor.tick()
        assert state_of(supervisor, entry) == QUARANTINED

    def test_quarantine_probation_restores(self):
        entry = FakeEntry()
        supervisor, clock, _metrics, events = make_supervisor(
            entry, flap_threshold=1, quarantine_seconds=30.0
        )
        supervisor.tick()
        entry.crash()
        supervisor.tick()
        assert state_of(supervisor, entry) == QUARANTINED
        clock.advance(29.0)
        supervisor.tick()
        assert state_of(supervisor, entry) == QUARANTINED
        clock.advance(1.1)
        supervisor.tick()
        assert state_of(supervisor, entry) == HEALTHY
        assert entry.quarantine_calls == [True, False]
        assert entry.restart_calls == 1
        assert not supervisor.degraded
        assert any(e["event"] == "shard.restore" for e in events)

    def test_crashes_during_quarantine_do_not_schedule_restarts(self):
        entry = FakeEntry()
        supervisor, clock, metrics, _events = make_supervisor(
            entry, flap_threshold=1, quarantine_seconds=1000.0
        )
        supervisor.tick()
        entry.crash()
        supervisor.tick()
        assert state_of(supervisor, entry) == QUARANTINED
        # A straggler dispatch on the old pool reports one more crash.
        entry._service = FakeEntry().peek_service()
        entry.crash()
        clock.advance(5.0)
        supervisor.tick()
        assert state_of(supervisor, entry) == QUARANTINED
        assert entry.restart_calls == 0
        assert metrics.counter_value(
            "repro_quarantines_total", {"model": entry.key}
        ) == 1  # not re-quarantined

    def test_idle_pool_break_is_detected_without_a_dispatch(self):
        entry = FakeEntry()
        supervisor, clock, metrics, _events = make_supervisor(entry)
        supervisor.tick()
        entry.break_pool()  # worker died; stats counter never moved
        supervisor.tick()
        assert state_of(supervisor, entry) == BACKOFF
        assert metrics.counter_value(
            "repro_worker_crashes_total", {"model": entry.key}
        ) == 1
        clock.advance(1.1)
        supervisor.tick()
        assert state_of(supervisor, entry) == HEALTHY

    def test_unsharded_entries_are_ignored(self):
        entry = FakeEntry(jobs=1)
        supervisor, _clock, _metrics, _events = make_supervisor(entry)
        supervisor.tick()
        assert supervisor.describe() == {}

    def test_dropped_entries_are_pruned(self):
        entry = FakeEntry()
        supervisor, _clock, _metrics, _events = make_supervisor(entry)
        supervisor.tick()
        assert entry.key in supervisor.describe()
        supervisor.registry.drop(entry)
        supervisor.tick()
        assert supervisor.describe() == {}

    def test_shard_state_gauge_tracks_transitions(self):
        entry = FakeEntry()
        supervisor, clock, metrics, _events = make_supervisor(
            entry, flap_threshold=2
        )
        labels = {"model": entry.key}

        def gauge():
            for sample in metrics.snapshot()["gauges"].get(
                "repro_shard_state", []
            ):
                if sample["labels"] == labels:
                    return sample["value"]
            return None

        supervisor.tick()
        assert gauge() == 0
        entry.crash()
        supervisor.tick()
        assert gauge() == 1
        clock.advance(70.0)  # past the flap window *and* the backoff
        supervisor.tick()
        assert gauge() == 0
        entry.crash(2)
        supervisor.tick()
        assert gauge() == 2


# ---------------------------------------------------------------------------
# Integration: a real server under injected faults
# ---------------------------------------------------------------------------

FAST_SUPERVISION = dict(
    supervise_interval=0.03,
    supervisor_options=dict(
        backoff_base=0.05,
        backoff_cap=0.5,
        flap_threshold=100,  # keep the restart path out of quarantine
        flap_window=30.0,
        quarantine_seconds=60.0,
    ),
)


def crash_count(server, model="flip@1"):
    return server.metrics.counter_value(
        "repro_worker_crashes_total", {"model": model}
    )


def restart_count(server, model="flip@1"):
    return server.metrics.counter_value(
        "repro_shard_restarts_total", {"model": model}
    )


class TestFaultInjection:
    def test_poisoned_chunk_resolves_per_document_and_shard_restarts(
        self, models_dir
    ):
        with poison_label():
            with ServerThread(
                models_dir, jobs=2, **FAST_SUPERVISION
            ) as handle:
                with ServerClient(handle.host, handle.port) as client:
                    assert (
                        client.transform("flip", "root(a(#, #), #)")
                        == "root(#, a(#, #))"
                    )
                    outcome = client.try_transform("flip", POISON_DOCUMENT)
                    # The worker hard-exited mid-chunk; the in-flight
                    # document resolves to a structured per-document
                    # error — never a dropped connection.
                    assert isinstance(outcome, ServiceError)
                    assert "crash" in str(outcome)
                    server = handle.server
                    wait_until(
                        lambda: crash_count(server) >= 1,
                        message="crash counter never incremented",
                    )
                    wait_until(
                        lambda: restart_count(server) >= 1,
                        message="supervisor never restarted the shard",
                    )
                    # The restarted shard serves again.
                    assert (
                        client.transform("flip", "root(a(#, #), #)")
                        == "root(#, a(#, #))"
                    )
                    assert client.health()["status"] == "serving"

    def test_repeated_crashes_quarantine_and_health_degrades(
        self, models_dir
    ):
        options = dict(
            supervise_interval=0.03,
            supervisor_options=dict(
                backoff_base=0.02,
                backoff_cap=0.1,
                flap_threshold=2,
                flap_window=30.0,
                quarantine_seconds=60.0,
            ),
        )
        with poison_label():
            with ServerThread(
                models_dir, jobs=2, **options
            ) as handle:
                with ServerClient(handle.host, handle.port) as client:
                    client.transform("flip", "root(a(#, #), #)")
                    server = handle.server
                    for _ in range(4):
                        if server.supervisor.degraded:
                            break
                        outcome = client.try_transform(
                            "flip", POISON_DOCUMENT
                        )
                        assert isinstance(outcome, ReproError)
                        wait_until(
                            lambda: not any(
                                s["state"] == BACKOFF
                                for s in server.supervisor.describe().values()
                            ),
                            message="shard stuck in backoff",
                        )
                    wait_until(
                        lambda: server.supervisor.degraded,
                        message="flapping shard never quarantined",
                    )
                    health = client.health()
                    assert health["status"] == "degraded"
                    assert health["shards"]["flip@1"]["state"] == QUARANTINED
                    assert (
                        server.metrics.counter_value(
                            "repro_quarantines_total", {"model": "flip@1"}
                        )
                        == 1
                    )
                    # Quarantined ≠ down: the entry serves in-process,
                    # where the poison document is simply out of domain.
                    outcome = client.try_transform("flip", POISON_DOCUMENT)
                    assert isinstance(outcome, UndefinedTransductionError)
                    assert (
                        client.transform("flip", "root(a(#, #), #)")
                        == "root(#, a(#, #))"
                    )

    def test_sigkill_of_an_idle_worker_is_noticed_and_healed(
        self, models_dir
    ):
        with ServerThread(
            models_dir, jobs=2, **FAST_SUPERVISION
        ) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.transform("flip", "root(a(#, #), #)")
                server = handle.server
                entry = server.registry.get("flip")
                service = entry.peek_service()
                assert service is not None
                wait_until(
                    lambda: len(worker_pids(service)) > 0,
                    message="pool never started workers",
                )
                assert kill_one_worker(service) is not None
                wait_until(
                    lambda: crash_count(server) >= 1,
                    message="idle worker death never detected",
                )
                wait_until(
                    lambda: restart_count(server) >= 1,
                    message="killed shard never restarted",
                )
                assert (
                    client.transform("flip", "root(a(#, #), #)")
                    == "root(#, a(#, #))"
                )

    def test_acceptance_two_worker_kills_server_stays_up(self, models_dir):
        """ISSUE acceptance: kill a worker twice; the server survives,
        restarts the shard within the backoff budget, and the metrics
        report both the crashes and the restarts."""
        with ServerThread(
            models_dir, jobs=2, **FAST_SUPERVISION
        ) as handle:
            with ServerClient(handle.host, handle.port) as client:
                server = handle.server
                client.transform("flip", "root(a(#, #), #)")
                for round_number in (1, 2):
                    entry = server.registry.get("flip")
                    wait_until(
                        lambda: entry.peek_service() is not None
                        and len(worker_pids(entry.peek_service())) > 0,
                        message="no live workers to kill",
                    )
                    assert kill_one_worker(entry.peek_service()) is not None
                    wait_until(
                        lambda: crash_count(server) >= round_number,
                        message="crash not counted",
                    )
                    wait_until(
                        lambda: restart_count(server) >= round_number,
                        message="shard not restarted",
                    )
                    assert (
                        client.transform("flip", "root(a(#, #), #)")
                        == "root(#, a(#, #))"
                    )
                snapshot = client.metrics()
                crashes = {
                    tuple(sorted(s["labels"].items())): s["value"]
                    for s in snapshot["counters"][
                        "repro_worker_crashes_total"
                    ]
                }
                restarts = {
                    tuple(sorted(s["labels"].items())): s["value"]
                    for s in snapshot["counters"][
                        "repro_shard_restarts_total"
                    ]
                }
                assert crashes[(("model", "flip@1"),)] >= 2
                assert restarts[(("model", "flip@1"),)] >= 2
                assert client.health()["status"] == "serving"
