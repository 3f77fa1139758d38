"""TransformService: parity, determinism, backpressure, crash recovery,
and tables packed once per service."""

import random

import pytest

from repro import api
from repro.engine import engine_for
from repro.errors import ServiceError, UndefinedTransductionError
from repro.serve import TransformService
from repro.serve.shard import CRASH_LABEL_ENV
from repro.trees.alphabet import RankedAlphabet
from repro.trees.generate import random_tree
from repro.trees.tree import Tree, leaf, tree
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import rhs_tree
from repro.workloads.families import random_total_dtop

from tests.conftest import without_rules


def fingerprint(outcomes):
    return [(type(o).__name__, str(o)) for o in outcomes]


def partial_machine(seed=3, knockout=0.3):
    machine, _ = random_total_dtop(4, seed=seed)
    rng = random.Random(seed + 40)
    return without_rules(
        machine,
        [
            key
            for key in sorted(machine.rules, key=repr)
            if rng.random() < knockout
        ],
    )


def forest_for(machine, seed=11, count=30):
    rng = random.Random(seed)
    return [
        random_tree(machine.input_alphabet, max_height=6, rng=rng)
        for _ in range(count)
    ]


class TestParity:
    def test_submit_results_matches_map_and_engine(self):
        machine = partial_machine()
        forest = forest_for(machine)
        reference = fingerprint(engine_for(machine).run_batch_outcomes(forest))
        with TransformService(machine, jobs=2, chunk_size=4) as service:
            for doc in forest:
                service.submit(doc)
            assert fingerprint(service.results()) == reference

    def test_service_reusable_across_batches(self):
        machine = partial_machine()
        forest = forest_for(machine)
        with TransformService(machine, jobs=2, chunk_size=8) as service:
            first = fingerprint(service.map(forest))
            second = fingerprint(service.map(forest))
        assert first == second
        assert first == fingerprint(
            engine_for(machine).run_batch_outcomes(forest)
        )

    def test_api_run_batch_parallel_matches_serial(self):
        machine, _ = random_total_dtop(3, seed=21)
        forest = forest_for(machine, seed=8, count=25)
        assert api.run_batch(machine, forest, parallel=2) == api.run_batch(
            machine, forest
        )

    def test_api_run_batch_parallel_raises_first_error_in_order(self):
        machine = partial_machine()
        forest = forest_for(machine)
        serial_error = parallel_error = None
        try:
            api.run_batch(machine, forest)
        except UndefinedTransductionError as error:
            serial_error = error
        try:
            api.run_batch(machine, forest, parallel=2)
        except UndefinedTransductionError as error:
            parallel_error = error
        assert serial_error is not None, "fixture should contain a failure"
        assert str(parallel_error) == str(serial_error)


class TestBackpressureAndStats:
    def test_max_pending_bounds_inflight_chunks(self):
        machine, _ = random_total_dtop(2, seed=2)
        forest = forest_for(machine, seed=3, count=40)
        with TransformService(
            machine, jobs=2, chunk_size=1, max_pending=2
        ) as service:
            for doc in forest:
                service.submit(doc)
                assert len(service._unresolved) <= 2
            outcomes = list(service.results())
        assert fingerprint(outcomes) == fingerprint(
            engine_for(machine).run_batch_outcomes(forest)
        )

    def test_stats_cover_all_documents_per_shard(self):
        machine, _ = random_total_dtop(2, seed=2)
        forest = forest_for(machine, seed=3, count=24)
        with TransformService(machine, jobs=2, chunk_size=3) as service:
            list(service.map(forest))
            stats = service.stats
        assert stats["documents"] == len(forest)
        assert stats["chunks"] >= 2
        assert sum(s["documents"] for s in stats["shards"].values()) == len(forest)

    def test_serial_service_needs_no_pool(self):
        machine, _ = random_total_dtop(2, seed=2)
        forest = forest_for(machine, seed=3, count=10)
        with TransformService(machine, jobs=1) as service:
            outcomes = list(service.map(forest))
            assert service._executor is None
        assert fingerprint(outcomes) == fingerprint(
            engine_for(machine).run_batch_outcomes(forest)
        )

    def test_map_refuses_leftovers_from_abandoned_map(self):
        machine, _ = random_total_dtop(2, seed=2)
        forest = forest_for(machine, seed=3, count=12)
        with TransformService(machine, jobs=2, chunk_size=2) as service:
            iterator = service.map(forest)
            next(iterator)  # abandon mid-way: chunks remain in flight
            with pytest.raises(ServiceError):
                list(service.map(forest))
            # results() drains the dispatched leftovers (outcomes held
            # inside the abandoned generator frame are gone with it);
            # then map works again.
            drained = list(service.results())
            assert drained
            again = list(service.map(forest))
        assert fingerprint(again) == fingerprint(
            engine_for(machine).run_batch_outcomes(forest)
        )

    def test_closed_service_rejects_work(self):
        machine, _ = random_total_dtop(2, seed=2)
        service = TransformService(machine, jobs=1)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(leaf("c"))

    def test_invalid_chunk_size_rejected(self):
        machine, _ = random_total_dtop(2, seed=2)
        with pytest.raises(ServiceError):
            TransformService(machine, chunk_size=0)


class TestCrashRecovery:
    def test_poison_chunk_fails_alone_and_pool_recovers(self, monkeypatch):
        monkeypatch.setenv(CRASH_LABEL_ENV, "kaboom")
        machine = partial_machine()
        forest = forest_for(machine, count=12)
        poison_index = 5
        forest[poison_index] = Tree("kaboom", ())
        with TransformService(machine, jobs=2, chunk_size=1) as service:
            outcomes = list(service.map(forest))
            stats = service.stats
        assert isinstance(outcomes[poison_index], ServiceError)
        assert stats["crashes"] >= 1 and stats["pool_restarts"] >= 1
        monkeypatch.delenv(CRASH_LABEL_ENV)
        reference = engine_for(machine).run_batch_outcomes(forest)
        for index, (got, want) in enumerate(zip(outcomes, reference)):
            if index != poison_index:
                assert (type(got), str(got)) == (type(want), str(want))

    def test_try_run_batch_raises_service_error_instead_of_none(
        self, monkeypatch
    ):
        # A worker crash must never be reported as "outside the domain".
        monkeypatch.setenv(CRASH_LABEL_ENV, "kaboom")
        machine, _ = random_total_dtop(2, seed=2)
        forest = forest_for(machine, seed=3, count=6)
        forest[2] = Tree("kaboom", ())
        with pytest.raises(ServiceError):
            api.try_run_batch(machine, forest, parallel=2)

    def test_crash_errors_scale_with_chunk_granularity(self, monkeypatch):
        monkeypatch.setenv(CRASH_LABEL_ENV, "kaboom")
        machine = partial_machine()
        forest = forest_for(machine, count=9)
        forest[4] = Tree("kaboom", ())
        with TransformService(machine, jobs=2, chunk_size=3) as service:
            outcomes = list(service.map(forest))
        failed = [
            i for i, o in enumerate(outcomes) if isinstance(o, ServiceError)
        ]
        assert 4 in failed
        assert len(failed) <= 3  # at most the poison document's chunk


class TestPackedOnce:
    @staticmethod
    def _relabel_machine(a_output="a"):
        alphabet = RankedAlphabet({"g": 1, "a": 0, "b": 0})
        return DTOP(
            alphabet,
            alphabet,
            rhs_tree(("q", 0)),
            {
                ("q", "g"): rhs_tree(("g", ("q", 1))),
                ("q", "a"): rhs_tree(a_output),
                ("q", "b"): rhs_tree("b"),
            },
        )

    def test_pool_serves_tables_packed_once(self):
        # Machines are immutable, so a service packs its tables when the
        # first pool starts and never again.
        machine = self._relabel_machine()
        document = tree("g", leaf("b"))
        with TransformService(machine, jobs=2, chunk_size=1) as service:
            list(service.map([document]))
            payload = service._payload
            assert payload is not None
            assert [str(o) for o in service.map([document])] == ["g(b)"]
            assert service._payload is payload
            assert service.stats["pool_restarts"] == 0
            assert "repacks" not in service.stats

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_new_rules_are_a_new_machine_and_service(self, jobs):
        # Changed rules make a new DTOP with its own service; the live
        # service keeps answering with the machine it was built for.
        document = tree("g", leaf("a"))
        with TransformService(
            self._relabel_machine(), jobs=jobs, chunk_size=1
        ) as old, TransformService(
            self._relabel_machine("b"), jobs=jobs, chunk_size=1
        ) as new:
            before = [str(o) for o in old.map([document])]
            changed = [str(o) for o in new.map([document])]
            after = [str(o) for o in old.map([document])]
            assert old.stats["pool_restarts"] == 0
            assert new.stats["pool_restarts"] == 0
        assert before == after == ["g(a)"]
        assert changed == ["g(b)"]


class TestCloseLifecycle:
    """close() is idempotent, crash-safe, and atexit-registered."""

    def test_double_close_is_a_noop(self):
        machine, _ = random_total_dtop(2, seed=5)
        service = TransformService(machine, jobs=2)
        list(service.map(forest_for(machine, seed=7, count=4)))
        service.close()
        service.close()  # must not raise, hang, or restart anything
        with pytest.raises(ServiceError):
            service.submit(leaf("a"))

    def test_close_after_worker_crash(self, monkeypatch):
        monkeypatch.setenv(CRASH_LABEL_ENV, "kaboom")
        machine = partial_machine()
        forest = forest_for(machine, count=6)
        forest[1] = Tree("kaboom", ())
        service = TransformService(machine, jobs=2, chunk_size=1)
        outcomes = list(service.map(forest))
        assert any(isinstance(o, ServiceError) for o in outcomes)
        service.close()
        service.close()

    def test_close_with_unconsumed_inflight_work(self):
        machine, _ = random_total_dtop(2, seed=9)
        service = TransformService(machine, jobs=2, chunk_size=1)
        for document in forest_for(machine, seed=13, count=5):
            service.submit(document)
        # Never consume results(): close() must still not leak or hang.
        service.close()
        service.close()

    def test_live_registry_tracks_open_services(self):
        from repro.serve import service as service_module

        machine, _ = random_total_dtop(2, seed=4)
        service = TransformService(machine, jobs=2)
        assert service in service_module._LIVE_SERVICES
        service.close()
        assert service not in service_module._LIVE_SERVICES

    def test_atexit_hook_closes_abandoned_services(self):
        from repro.serve import service as service_module

        machine, _ = random_total_dtop(2, seed=6)
        abandoned = TransformService(machine, jobs=2)
        list(abandoned.map(forest_for(machine, seed=8, count=3)))
        assert abandoned in service_module._LIVE_SERVICES
        # Simulate interpreter exit: the registered hook must close it
        # (and be idempotent when everything is already closed).
        service_module._close_live_services()
        assert abandoned._closed
        assert abandoned._executor is None
        service_module._close_live_services()
