"""The shard layer: codec, engine payloads, and chunking."""

import pickle
import random

import pytest

from repro.engine import artifact_stats, engine_for, reset_artifact_stats
from repro.engine.compile import OP_CONST
from repro.errors import ServiceError
from repro.serve.shard import (
    PAYLOAD_FIELDS,
    PAYLOAD_FORMAT,
    chunk_forest,
    decode_forest,
    encode_forest,
    forest_costs,
    pack_engine,
    unpack_engine,
)
from repro.trees.generate import monadic_tree, random_tree
from repro.trees.tree import Tree, leaf, tree
from repro.workloads.families import cycle_relabel, random_total_dtop

from tests.conftest import without_rules


def legacy_payload(machine):
    """A valid ``repro/engine-payload@2`` tuple, built by hand: it also
    carried the execution backend name and the symbol arity table."""
    compiled = engine_for(machine).compiled
    consts = []

    def strip(template):
        out = []
        for instruction in template:
            if instruction[0] == OP_CONST:
                out.append((OP_CONST, len(consts)))
                consts.append(instruction[1])
            else:
                out.append(instruction)
        return tuple(out)

    rule_templates = tuple(strip(t) for t in compiled.rule_templates)
    axiom_template = strip(compiled.axiom_template)
    return (
        "repro/engine-payload@2",
        "tables",
        tuple(compiled.state_names),
        tuple(compiled.symbol_names),
        tuple(
            machine.input_alphabet.rank(symbol)
            for symbol in compiled.symbol_names
        ),
        tuple(compiled.rule_of),
        tuple(compiled.rule_calls),
        rule_templates,
        compiled.axiom_calls,
        axiom_template,
        encode_forest(consts),
    )


#: Tuples :func:`unpack_engine` must refuse, built from a good payload.
MALFORMED_PAYLOADS = {
    "empty": lambda good: (),
    "none": lambda good: None,
    "list": lambda good: list(good),
    "bare-format-tag": lambda good: PAYLOAD_FORMAT,
    "truncated": lambda good: good[:-1],
    "extra-field": lambda good: good + ((),),
    "version-4": lambda good: ("repro/engine-payload@4",) + good[1:],
}


class TestForestCodec:
    def test_roundtrip_is_identity(self):
        machine, _ = random_total_dtop(3, seed=1)
        rng = random.Random(2)
        forest = [
            random_tree(machine.input_alphabet, max_height=6, rng=rng)
            for _ in range(40)
        ]
        decoded = decode_forest(encode_forest(forest))
        # Interning: decoding re-produces the *same objects*.
        assert all(a is b for a, b in zip(forest, decoded))

    def test_shared_subtrees_encoded_once(self):
        shared = tree("f", leaf("a"), leaf("b"))
        forest = [tree("g", shared), tree("f", shared, shared), shared]
        records, roots = encode_forest(forest)
        # Distinct subtrees: a, b, f(a,b), g(f(a,b)), f(shared, shared).
        assert len(records) == 5
        assert len(roots) == 3
        assert decode_forest((records, roots)) == forest

    def test_duplicate_roots_share_one_record_index(self):
        doc = tree("f", leaf("a"), leaf("a"))
        records, roots = encode_forest([doc, doc, doc])
        assert roots[0] == roots[1] == roots[2]

    def test_deep_tree_roundtrips_without_recursion(self):
        deep = monadic_tree(["a"] * 100_000)
        payload = pickle.dumps(encode_forest([deep]))
        assert decode_forest(pickle.loads(payload))[0] is deep

    def test_empty_forest(self):
        assert decode_forest(encode_forest([])) == []


class TestEnginePayload:
    @pytest.mark.parametrize("seed", range(4))
    def test_pickled_payload_reproduces_outcomes(self, seed):
        machine, _ = random_total_dtop(4, seed=seed)
        if seed % 2:  # partial machines must ship their undefinedness too
            rng = random.Random(seed)
            machine = without_rules(
                machine,
                [
                    key
                    for key in sorted(machine.rules, key=repr)
                    if rng.random() < 0.3
                ],
            )
        rng = random.Random(seed + 100)
        forest = [
            random_tree(machine.input_alphabet, max_height=6, rng=rng)
            for _ in range(30)
        ]
        payload = pickle.loads(pickle.dumps(pack_engine(engine_for(machine).compiled)))
        shipped = unpack_engine(payload)
        want = engine_for(machine).run_batch_outcomes(forest)
        got = shipped.run_batch_outcomes(forest)
        assert [(type(a), str(a)) for a in want] == [
            (type(b), str(b)) for b in got
        ]

    def test_payload_contains_no_trees_or_machines(self):
        machine, _ = random_total_dtop(3, seed=9)
        payload = pack_engine(engine_for(machine).compiled)

        def scan(value):
            assert not isinstance(value, Tree)
            assert value is not machine
            if isinstance(value, (tuple, list)):
                for item in value:
                    scan(item)

        scan(payload)

    def test_unpacked_engine_compiles_nothing(self):
        machine, _ = random_total_dtop(3, seed=5)
        payload = pack_engine(engine_for(machine).compiled)
        forest = [
            random_tree(machine.input_alphabet, max_height=5, rng=random.Random(6))
            for _ in range(20)
        ]
        reset_artifact_stats()
        shipped = unpack_engine(pickle.loads(pickle.dumps(payload)))
        got = shipped.run_batch_outcomes(forest)
        assert artifact_stats() == {"compiles": 0, "payload_hits": 0}
        want = [machine.apply(document) for document in forest]
        assert [str(outcome) for outcome in got] == [str(tree) for tree in want]

    def test_unpack_rejects_foreign_payloads(self):
        with pytest.raises(ServiceError):
            unpack_engine(("not-a-payload",))

    def test_unpack_refuses_a_version_2_payload(self):
        machine, _ = cycle_relabel(2)
        with pytest.raises(
            ServiceError, match=r"^not a repro/engine-payload@3 payload$"
        ):
            unpack_engine(legacy_payload(machine))


    def test_payload_format_is_version_3(self):
        machine, _ = cycle_relabel(2)
        payload = pack_engine(engine_for(machine).compiled)
        assert PAYLOAD_FORMAT == "repro/engine-payload@3"
        assert payload[0] == PAYLOAD_FORMAT
        assert len(payload) == PAYLOAD_FIELDS

    def test_payload_carries_no_backend_name_or_arity_table(self):
        machine, _ = random_total_dtop(3, seed=4)
        compiled = engine_for(machine).compiled
        payload = pack_engine(compiled)
        # @2 put the backend name and the arity table around the names.
        assert len(legacy_payload(machine)) == len(payload) + 2
        assert payload[1:4] == (
            tuple(compiled.state_names),
            tuple(compiled.symbol_names),
            tuple(compiled.rule_of),
        )
        assert not any(isinstance(field, str) for field in payload[1:])

    @pytest.mark.parametrize(
        "make", MALFORMED_PAYLOADS.values(), ids=MALFORMED_PAYLOADS.keys()
    )
    def test_unpack_refuses_malformed_payloads(self, make):
        machine, _ = cycle_relabel(2)
        good = pack_engine(engine_for(machine).compiled)
        with pytest.raises(
            ServiceError, match=r"^not a repro/engine-payload@3 payload$"
        ):
            unpack_engine(make(good))

    def test_each_unpack_is_a_cold_independent_engine(self):
        machine, _ = random_total_dtop(3, seed=8)
        payload = pack_engine(engine_for(machine).compiled)
        rng = random.Random(8)
        forest = [
            random_tree(machine.input_alphabet, max_height=5, rng=rng)
            for _ in range(20)
        ]
        first = unpack_engine(payload)
        expected = first.run_batch(forest)
        second = unpack_engine(payload)
        assert first.memo_size() > 0
        assert second.memo_size() == 0
        assert second.cache_stats["misses"] == 0
        assert second.run_batch(forest) == expected
        assert expected == [machine.apply(document) for document in forest]


class TestChunking:
    def _forest(self, count=20):
        machine, _ = random_total_dtop(2, seed=5)
        rng = random.Random(7)
        return [
            random_tree(machine.input_alphabet, max_height=6, rng=rng)
            for _ in range(count)
        ]

    def test_ranges_partition_in_order(self):
        forest = self._forest()
        for chunks in (1, 2, 3, 4, 7, 20, 50):
            ranges = chunk_forest(forest, chunks)
            assert ranges[0][0] == 0 and ranges[-1][1] == len(forest)
            for (_, left_end), (right_start, _) in zip(ranges, ranges[1:]):
                assert left_end == right_start
            assert all(end > start for start, end in ranges)
            assert len(ranges) <= max(1, min(chunks, len(forest)))

    def test_deterministic(self):
        forest = self._forest()
        assert chunk_forest(forest, 4) == chunk_forest(forest, 4)

    def test_max_docs_caps_every_chunk(self):
        forest = self._forest(23)
        for cap in (1, 2, 5):
            ranges = chunk_forest(forest, 3, max_docs=cap)
            assert all(end - start <= cap for start, end in ranges)
            assert ranges[0][0] == 0 and ranges[-1][1] == len(forest)

    def test_costs_are_marginal_dag_costs(self):
        shared = tree("f", leaf("a"), leaf("b"))
        forest = [shared, shared, tree("g", shared)]
        # First doc pays for 3 distinct nodes; the duplicate pays the
        # 1-floor; the extension pays only its new root.
        assert forest_costs(forest) == [3, 1, 1]

    def test_heavy_tail_document_does_not_collapse_chunk_count(self):
        # A dominant-cost document near the end must not swallow its
        # neighbours: the chunker owes min(num_chunks, len) ranges.
        forest = [
            monadic_tree(["a"] * 2, end="t0"),
            monadic_tree(["a"] * 3, end="t1"),
            monadic_tree(["a"] * 4, end="t2"),
            monadic_tree(["a"] * 400, end="t3"),
        ]
        ranges = chunk_forest(forest, 3)
        assert len(ranges) == 3
        assert ranges[-1] == (3, 4)  # the heavy document sits alone

    def test_chunk_count_is_exact_across_shapes(self):
        forest = self._forest(11)
        for chunks in (1, 2, 3, 5, 11):
            assert len(chunk_forest(forest, chunks)) == chunks

    def test_worker_memo_capped_between_chunks(self, monkeypatch):
        from repro.engine import execute
        from repro.serve import shard as shard_module

        machine, _ = random_total_dtop(2, seed=5)
        compiled = engine_for(machine).compiled
        monkeypatch.setattr(execute, "MEMO_LIMIT", 8)
        rng = random.Random(1)
        chunks = [
            [
                random_tree(machine.input_alphabet, max_height=6, rng=rng)
                for _ in range(20)
            ]
            for _ in range(2)
        ]
        shard_module.init_worker(pack_engine(compiled))
        worker = shard_module._WORKER_ENGINE
        for chunk in chunks:
            shard_module.worker_translate(encode_forest(chunk))
        # The engine's own bound cleared the memo before the second
        # chunk's sweep: the worker holds that chunk's pairs only, not
        # every subtree it ever translated.
        alone = unpack_engine(pack_engine(compiled))
        alone.run_batch_outcomes(chunks[1])
        assert worker.cache_stats["evictions"] == 1
        assert worker.memo_size() == alone.memo_size()

    def test_cost_balancing_splits_heavy_prefix(self):
        heavy = [monadic_tree(["a"] * 50, end=f"e{i}") for i in range(4)]
        light = [leaf("x") for _ in range(16)]
        ranges = chunk_forest(heavy + light, 4)
        # The four heavy documents must not all land in one chunk.
        heavy_spans = [end for start, end in ranges if start < 4]
        assert len(heavy_spans) >= 2

    def test_empty_forest(self):
        assert chunk_forest([], 4) == []
