"""Light batches run on the event loop; heavy or sharded ones do not.

``MicroBatcher`` calls ``run_batch`` directly on the loop when the entry
is unsharded, its engine is compiled, the batch empties the entry's
queue and its parsed documents weigh at most ``INLINE_WEIGHT`` nodes
together; every other batch goes to an executor thread.  These tests
pin which thread runs each batch, that an inline batch is observed
exactly like an executor batch, and that the two paths give
byte-identical outcomes at the bound.
"""

import asyncio
import shutil
import threading
import time
from pathlib import Path

import pytest

from repro import api
from repro.codec import TERM_CODEC, Transformation, load_transformation
from repro.errors import ServiceError
from repro.json.jsonio import serialize_json
from repro.obs.trace import TraceContext
from repro.server import ServerClient, ServerMetrics, ServerThread
from repro.server.batcher import INLINE_WEIGHT, MicroBatcher, document_weight
from repro.server.registry import ModelEntry
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import Tree
from repro.workloads.flip import flip_input
from repro.workloads.library import transform_library
from repro.xml import parse_xml
from repro.xml.dtd import parse_dtd
from repro.xml.pipeline import learn_xml_transformation
from repro.xml.unranked import element

from tests.server.conftest import identity_dtop
from tests.server.test_batcher import raw_model
from tests.server.test_trace import span_names

STOCK_MODELS = Path(__file__).resolve().parents[2] / "models"

#: 294 bytes of nested internal-subset entities that expand to a
#: ``library@1`` document of 10,000 books (expat's amplification guard
#: only activates past 8 MiB of output).
ENTITY_LIBRARY = (
    '<!DOCTYPE LIBRARY [<!ENTITY a "<BOOK><AUTHOR>a</AUTHOR>'
    '<TITLE>t</TITLE><YEAR>1</YEAR></BOOK>">'
    '<!ENTITY b "&a;&a;&a;&a;&a;&a;&a;&a;&a;&a;">'
    '<!ENTITY c "&b;&b;&b;&b;&b;&b;&b;&b;&b;&b;">'
    '<!ENTITY d "&c;&c;&c;&c;&c;&c;&c;&c;&c;&c;">'
    '<!ENTITY e "&d;&d;&d;&d;&d;&d;&d;&d;&d;&d;">]>'
    "<LIBRARY>&e;</LIBRARY>"
)


class RecordingEntry(ModelEntry):
    """An entry whose ``run_batch`` records the running thread and
    batch size, then translates as usual.  Its engine is compiled up
    front unless ``warm=False``."""

    def __init__(self, transformation=None, warm=True, **kwargs):
        super().__init__(
            "rec", "1", Path("rec@1.json"),
            transformation or raw_model(), **kwargs
        )
        self.threads = []
        self.batches = []
        if warm:
            self.ensure_engine()

    def run_batch(self, documents, trace=None):
        self.threads.append(threading.get_ident())
        self.batches.append(len(documents))
        if self.sharded:
            # The gate is under test, not the worker pool: translate in
            # process instead of starting one.
            return self.transformation.apply_batch(documents, trace=trace)
        return super().run_batch(documents, trace)


def wide_flip(nodes: int) -> Tree:
    """A flip input of at least ``nodes`` nodes."""
    return flip_input(nodes // 2, 1)


def run_in_batcher(entry, documents, traces=None, max_batch=32):
    """Submit ``documents`` in one loop turn; returns the outcomes, the
    loop thread's ident and the batcher stats."""

    async def main():
        batcher = MicroBatcher(max_batch=max_batch)
        outcomes = await asyncio.gather(
            *(
                batcher.submit(
                    entry, document, trace=traces[index] if traces else None
                )
                for index, document in enumerate(documents)
            )
        )
        stats = batcher.stats
        await batcher.close()
        return outcomes, threading.get_ident(), stats

    return asyncio.run(main())


class TestDocumentWeight:
    def test_ranked_tree_weighs_its_size(self):
        document = flip_input(3, 2)
        assert document_weight(document) == document.size

    def test_xml_and_json_weigh_their_nodes(self):
        book = element("BOOK", element("AUTHOR"), element("TITLE"))
        assert document_weight(element("LIBRARY", book, book)) == 7
        assert document_weight({"a": [1, 2], "b": None}) == 5
        assert document_weight("scalar") == 1

    def test_walk_stops_just_past_the_bound(self):
        wide = list(range(100_000))
        assert document_weight(wide) == len(wide) + 1
        deep = []
        for _ in range(10 * INLINE_WEIGHT):
            deep = [deep, 0]
        assert INLINE_WEIGHT < document_weight(deep) <= INLINE_WEIGHT + 2


class TestGate:
    def test_small_document_runs_on_the_loop_thread(self):
        entry = RecordingEntry()
        document = flip_input(1, 0)
        assert document_weight(document) <= INLINE_WEIGHT
        (outcome,), loop_thread, stats = run_in_batcher(entry, [document])
        assert str(outcome) == "root(#, a(#, #))"
        assert entry.threads == [loop_thread]
        assert stats["batches"] == 1

    def test_document_over_the_bound_runs_on_an_executor_thread(self):
        entry = RecordingEntry()
        document = wide_flip(INLINE_WEIGHT + 2)
        assert document_weight(document) > INLINE_WEIGHT
        (outcome,), loop_thread, _stats = run_in_batcher(entry, [document])
        assert outcome == api.run(entry.machine, document)
        assert len(entry.threads) == 1 and entry.threads != [loop_thread]

    def test_a_batch_over_the_bound_in_total_runs_on_an_executor_thread(
        self,
    ):
        entry = RecordingEntry()
        document = wide_flip(INLINE_WEIGHT // 2)
        weight = document_weight(document)
        assert weight <= INLINE_WEIGHT < 3 * weight
        outcomes, loop_thread, _stats = run_in_batcher(entry, [document] * 3)
        assert entry.batches == [3]
        assert entry.threads != [loop_thread]
        assert outcomes == [api.run(entry.machine, document)] * 3

    def test_the_engine_compiles_off_the_loop(self):
        entry = RecordingEntry(warm=False)
        (first,), loop_thread, _stats = run_in_batcher(
            entry, [flip_input(1, 0)]
        )
        assert entry.peek_engine() is not None
        assert len(entry.threads) == 1 and entry.threads != [loop_thread]
        (second,), loop_thread, _stats = run_in_batcher(
            entry, [flip_input(1, 0)]
        )
        assert entry.threads[1] == loop_thread
        assert str(first) == str(second) == "root(#, a(#, #))"

    def test_a_backlog_runs_on_an_executor_thread_but_its_last_batch(self):
        entry = RecordingEntry()
        outcomes, loop_thread, stats = run_in_batcher(
            entry, [flip_input(1, 0)] * 3, max_batch=1
        )
        assert entry.batches == [1, 1, 1]
        assert loop_thread not in entry.threads[:2]
        assert entry.threads[2] == loop_thread
        assert stats["batches"] == 3
        assert {str(outcome) for outcome in outcomes} == {"root(#, a(#, #))"}

    def test_a_sharded_entry_never_runs_inline(self):
        entry = RecordingEntry(jobs=2)
        documents = [flip_input(n % 3, 1) for n in range(4)]
        for document in documents:
            run_in_batcher(entry, [document])
        outcomes, loop_thread, _stats = run_in_batcher(entry, documents)
        assert len(entry.threads) == len(documents) + 1
        assert loop_thread not in entry.threads
        assert [str(o) for o in outcomes] == [
            str(api.run(entry.machine, d)) for d in documents
        ]

    def test_a_quarantined_sharded_entry_runs_inline(self):
        entry = RecordingEntry(jobs=2)
        entry.set_quarantined(True)
        _outcomes, loop_thread, _stats = run_in_batcher(
            entry, [flip_input(1, 0)]
        )
        assert entry.threads == [loop_thread]


class TestInlineBatchesAreObservedAlike:
    def test_inline_batch_records_queue_dispatch_and_execute_spans(self):
        entry = RecordingEntry()
        trace = TraceContext()
        _outcomes, loop_thread, _stats = run_in_batcher(
            entry, [flip_input(1, 1)], traces=[trace]
        )
        assert entry.threads == [loop_thread]
        tree = trace.to_dict()
        assert {"queue", "batch.assemble", "dispatch", "execute"} <= (
            span_names(tree)
        )

    def test_inline_batch_records_queue_wait_and_dispatch_metrics(self):
        entry = RecordingEntry()
        metrics = ServerMetrics()

        async def main():
            batcher = MicroBatcher(metrics=metrics)
            document = flip_input(1, 1)
            await asyncio.gather(
                *(batcher.submit(entry, document) for _ in range(3))
            )
            await batcher.close()
            return threading.get_ident()

        loop_thread = asyncio.run(main())
        assert entry.threads == [loop_thread]
        labels = {"model": "rec@1"}
        assert metrics.histogram("repro_queue_wait_seconds", labels).count == 3
        assert metrics.histogram("repro_dispatch_seconds", labels).count == 1
        assert (
            metrics.histogram("repro_batch_assembly_seconds", labels).count
            == 1
        )

    def test_inline_failure_is_the_batch_dispatch_error(self):
        class Failing(RecordingEntry):
            def run_batch(self, documents, trace=None):
                super().run_batch(documents, trace)
                raise RuntimeError("the engine fell over")

        entry = Failing()
        outcomes, loop_thread, stats = run_in_batcher(
            entry, [flip_input(0, 0), flip_input(1, 1)]
        )
        assert entry.threads == [loop_thread]
        assert [str(o) for o in outcomes] == [
            "batch dispatch failed: RuntimeError: the engine fell over"
        ] * 2
        assert all(isinstance(o, ServiceError) for o in outcomes)
        assert stats["dispatch_failures"] == 1

    def test_the_entry_goes_idle_after_an_inline_batch(self):
        entry = RecordingEntry()
        document = flip_input(0, 0)

        async def main():
            batcher = MicroBatcher()
            outcomes = [
                await batcher.submit(entry, document) for _ in range(3)
            ]
            stats = batcher.stats
            await batcher.close()
            return outcomes, stats, threading.get_ident()

        outcomes, stats, loop_thread = asyncio.run(main())
        assert entry.threads == [loop_thread] * 3
        assert stats["batches"] == 3 and stats["pending"] == 0
        assert {str(outcome) for outcome in outcomes} == {"root(#, #)"}


class TestCoalescingAroundAnExecutorDispatch:
    def test_requests_during_an_executor_dispatch_join_the_next_batch(self):
        gate, entered = threading.Event(), threading.Event()

        class Held(RecordingEntry):
            def run_batch(self, documents, trace=None):
                if not self.threads:
                    entered.set()
                    gate.wait(timeout=30)
                return super().run_batch(documents, trace)

        entry = Held()
        heavy = wide_flip(INLINE_WEIGHT + 2)
        forest = [flip_input(n % 4, (n + 1) % 3) for n in range(10)]
        assert sum(map(document_weight, forest)) <= INLINE_WEIGHT

        async def main():
            batcher = MicroBatcher(max_batch=32)
            # Over the bound, so it goes to the executor and holds there.
            first = asyncio.ensure_future(batcher.submit(entry, heavy))
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, entered.wait, 10)
            rest = []
            for document in forest:
                rest.append(
                    asyncio.ensure_future(batcher.submit(entry, document))
                )
                await asyncio.sleep(0)
            gate.set()
            results = await asyncio.gather(*rest)
            await first
            stats = batcher.stats
            await batcher.close()
            return results, stats, threading.get_ident()

        results, stats, loop_thread = asyncio.run(main())
        assert entry.batches == [1, 10]
        assert entry.threads[0] != loop_thread
        assert entry.threads[1] == loop_thread
        assert stats["batches"] == 2
        assert [str(r) for r in results] == [
            str(api.run(entry.machine, d)) for d in forest
        ]


def xml_chain_transformation():
    dtd = parse_dtd("<!ELEMENT n n? >")

    def chain(length):
        document = element("n")
        for _ in range(length - 1):
            document = element("n", document)
        return document

    examples = [(chain(k), chain(k)) for k in range(1, 5)]
    return learn_xml_transformation(dtd, dtd, examples), chain(INLINE_WEIGHT)


def term_chain_transformation():
    machine = identity_dtop(RankedAlphabet({"s": 1, "z": 0}))
    document = Tree("z")
    for _ in range(INLINE_WEIGHT - 1):
        document = Tree("s", (document,))
    return Transformation(machine, TERM_CODEC), document


def json_chain_transformation():
    document = []
    for _ in range(INLINE_WEIGHT - 1):
        document = [document]
    return load_transformation(STOCK_MODELS / "identity-json@1.json"), document


class TestOutcomesAtTheBound:
    """Inline code runs deeper in the stack than an executor thread, and
    the encoders recurse once per nesting level: a chain exactly at the
    bound must get the same outcome on both paths."""

    @pytest.mark.parametrize(
        "make",
        [term_chain_transformation, xml_chain_transformation,
         json_chain_transformation],
        ids=["term", "xml", "json"],
    )
    def test_chain_at_the_bound_is_byte_identical_both_ways(self, make):
        transformation, document = make()
        assert document_weight(document) == INLINE_WEIGHT

        def outcome(jobs):
            # A sharded entry's batch runs on an executor thread.
            entry = RecordingEntry(transformation, jobs=jobs)
            (result,), loop_thread, _stats = run_in_batcher(entry, [document])
            assert (entry.threads == [loop_thread]) is (jobs == 1)
            if isinstance(result, Exception):
                return (type(result).__name__, str(result))
            return transformation.codec.render(result)

        inline, executor = outcome(1), outcome(2)
        assert inline == executor
        assert not isinstance(inline, tuple), inline
        if transformation.codec.name == "json":
            assert inline == serialize_json(document)


class TestServedGate:
    @pytest.fixture
    def library_models(self, tmp_path):
        directory = tmp_path / "models"
        directory.mkdir()
        shutil.copy(STOCK_MODELS / "library@1.json", directory)
        return directory

    def wrap(self, entry):
        """Record which thread runs each of ``entry``'s batches."""
        original = entry.run_batch
        threads, entered = [], threading.Event()

        def recording(*args):
            threads.append(threading.get_ident())
            entered.set()
            return original(*args)

        entry.run_batch = recording
        return threads, entered

    def test_small_traced_request_runs_inline_with_every_span(
        self, models_dir
    ):
        with ServerThread(models_dir, warm=True) as handle:
            threads, _entered = self.wrap(handle.server.registry.get("flip"))
            with ServerClient(handle.host, handle.port) as client:
                output, trace = client.transform_traced(
                    "flip", "root(a(#, #), #)"
                )
            loop_thread = handle._thread.ident
        assert output == "root(#, a(#, #))"
        assert threads == [loop_thread]
        assert {"queue", "batch.assemble", "dispatch", "execute"} <= (
            span_names(trace)
        )

    def test_entity_amplified_document_leaves_the_loop(self, library_models):
        assert len(ENTITY_LIBRARY.encode()) == 294
        expected = transform_library(parse_xml(ENTITY_LIBRARY))
        with ServerThread(library_models) as handle:
            threads, entered = self.wrap(handle.server.registry.get("library"))
            finished = {}

            def transform():
                with ServerClient(handle.host, handle.port) as client:
                    finished["output"] = client.transform(
                        "library", ENTITY_LIBRARY
                    )
                finished["at"] = time.monotonic()

            worker = threading.Thread(target=transform)
            worker.start()
            assert entered.wait(30)
            with ServerClient(handle.host, handle.port) as other:
                assert other.health()["status"] == "serving"
            health_at = time.monotonic()
            worker.join(60)
            assert not worker.is_alive()
            loop_thread = handle._thread.ident
        assert health_at < finished["at"]
        assert len(threads) == 1 and threads != [loop_thread]
        assert parse_xml(finished["output"]) == expected
