"""The engine hot-path profiler: per-rule hits, per-height timings.

The profiler counts at *evaluation* time — a ``(state, subtree)`` pair
increments its rule exactly once, when the memo misses — so memo-warm
reruns add nothing, and the totals equal the number of distinct pairs
the sweep instantiated.
"""

from repro.engine import engine_for
from repro.engine.profile import clear_profile, new_profile, rule_labels
from repro.workloads.flip import flip_input, flip_transducer

FOREST = [flip_input(a, b) for a in range(3) for b in range(3)]


def fresh_engine():
    # A fresh transducer instance per call: engine_for caches per
    # machine identity, so sharing one would share profiles too.
    return engine_for(flip_transducer())


class TestSnapshotShape:
    def test_snapshot_of_an_idle_engine_is_all_zero(self):
        engine = fresh_engine()
        snapshot = engine.profile_snapshot()
        assert snapshot["sweeps"] == 0
        assert snapshot["rules_evaluated"] == 0
        assert snapshot["rules"] == []
        assert snapshot["heights"] == []

    def test_rules_are_sorted_hottest_first_and_nonzero_only(self):
        engine = fresh_engine()
        engine.run_batch(FOREST)
        snapshot = engine.profile_snapshot()
        hits = [entry["hits"] for entry in snapshot["rules"]]
        assert hits == sorted(hits, reverse=True)
        assert all(h > 0 for h in hits)
        assert snapshot["rules_evaluated"] == sum(hits)
        assert snapshot["sweeps"] == 1
        assert snapshot["sweep_seconds"] >= 0.0

    def test_labels_name_state_and_symbol(self):
        engine = fresh_engine()
        engine.run_batch(FOREST)
        for entry in engine.profile_snapshot()["rules"]:
            assert " × " in entry["label"]

    def test_heights_cover_the_forest_and_count_every_pair(self):
        engine = fresh_engine()
        engine.run_batch(FOREST)
        snapshot = engine.profile_snapshot()
        pair_total = sum(level["pairs"] for level in snapshot["heights"])
        assert pair_total == snapshot["rules_evaluated"]
        heights = [level["height"] for level in snapshot["heights"]]
        assert heights == sorted(heights)
        assert all(level["seconds"] >= 0.0 for level in snapshot["heights"])


class TestCountingSemantics:
    def test_warm_rerun_adds_no_hits(self):
        engine = fresh_engine()
        engine.run_batch(FOREST)
        first = engine.profile_snapshot()
        engine.run_batch(FOREST)
        second = engine.profile_snapshot()
        assert second["rules"] == first["rules"]
        assert second["rules_evaluated"] == first["rules_evaluated"]
        assert second["sweeps"] == first["sweeps"] + 1

    def test_clear_profile_zeroes_but_keeps_the_memo(self):
        engine = fresh_engine()
        outputs = engine.run_batch(FOREST)
        engine.clear_profile()
        snapshot = engine.profile_snapshot()
        assert snapshot["rules_evaluated"] == 0
        assert snapshot["sweeps"] == 0
        assert snapshot["heights"] == []
        # The memo survived: a rerun still evaluates nothing new.
        assert engine.run_batch(FOREST) == outputs
        assert engine.profile_snapshot()["rules_evaluated"] == 0

    def test_counts_equal_the_distinct_pairs_evaluated(self):
        engine = fresh_engine()
        engine.run_batch(FOREST)
        snapshot = engine.profile_snapshot()
        assert snapshot["rules_evaluated"] == engine.cache_stats["misses"]
        assert snapshot["rules_evaluated"] == engine.memo_size()
        # A second fresh engine counts exactly the same evaluations.
        other = fresh_engine()
        other.run_batch(FOREST)
        again = other.profile_snapshot()
        assert again["rules"] == snapshot["rules"]
        assert [
            (level["height"], level["pairs"]) for level in again["heights"]
        ] == [
            (level["height"], level["pairs"]) for level in snapshot["heights"]
        ]


class TestHelpers:
    def test_rule_labels_reverse_the_dispatch_table(self):
        from repro.engine import compile_dtop

        compiled = compile_dtop(flip_transducer())
        labels = rule_labels(compiled)
        assert len(labels) == len(compiled.rule_templates)
        assert all(" × " in label for label in labels)

    def test_new_profile_and_clear_shapes(self):
        profile = new_profile(3)
        assert profile["rule_hits"] == [0, 0, 0]
        profile["rule_hits"][1] = 9
        profile["sweeps"] = 2
        profile["height_pairs"][4] = 7
        clear_profile(profile)
        assert profile["rule_hits"] == [0, 0, 0]
        assert profile["sweeps"] == 0
        assert profile["height_pairs"] == {}
