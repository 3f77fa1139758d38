"""Tests for the compiled sample tables (repro.engine.sample_tables).

:class:`tests.learning.reference_sample.ReferenceSample` is the
reference implementation; every table query must agree with it, both
on a freshly built table and across incremental extensions.
"""

import pytest

from repro.engine.sample_tables import (
    MergeIndex,
    path_index,
    residual_signature,
    sample_tables_stats,
    tables_for,
)
from repro.errors import InconsistentSampleError
from repro.learning.sample import Sample
from repro.trees.tree import parse_term
from repro.workloads.flip import flip_domain, flip_paper_sample

from tests.learning.reference_sample import ReferenceSample, mergeable


@pytest.fixture
def flip_sample():
    return Sample(flip_paper_sample())


@pytest.fixture
def flip_reference():
    return ReferenceSample(flip_paper_sample())


def _probe_paths(sample):
    paths = set()
    for source, _target in sample:
        paths.update(path_index(source))
    return sorted(paths)


def _probe_pairs(sample):
    in_paths = _probe_paths(sample)
    out_paths = set()
    for _source, target in sample:
        out_paths.update(path_index(target))
    return [(u, v) for u in in_paths for v in sorted(out_paths)]


class TestQueriesMatchReference:
    def test_out_and_out_npath(self, flip_sample, flip_reference):
        tables = tables_for(flip_sample)
        for u in _probe_paths(flip_sample):
            assert tables.out(u) == flip_reference.out(u)
            prefix = u[:-1] if u else ()
            symbol = u[-1][0] if u else "root"
            assert tables.out_npath(prefix, symbol) == flip_reference.out_npath(
                prefix, symbol
            )
        assert tables.out((("zzz", 1),)) is None

    def test_residuals_and_io_paths(self, flip_sample, flip_reference):
        tables = tables_for(flip_sample)
        for p in _probe_pairs(flip_sample):
            assert tables.residual_uid_map(p) == flip_reference.residual_uid_map(p)
            assert tables.is_io_path(p) == flip_reference.is_io_path(p)
            uid_map = tables.residual_uid_map(p)
            if uid_map is None:
                assert tables.signature(p) == 0
            else:
                assert tables.signature(p) == residual_signature(uid_map)

    def test_inputs_containing(self, flip_sample, flip_reference):
        """The inverted input-path index lists the reference's pairs."""
        tables = tables_for(flip_sample)
        for u in _probe_paths(flip_sample):
            entries = tables._by_path.get(u, ())
            assert [(s, t) for s, t, _ in entries] == flip_reference.inputs_containing(u)

    def test_tables_cached_on_sample(self, flip_sample):
        assert tables_for(flip_sample) is tables_for(flip_sample)


class TestIncrementalExtension:
    def test_extension_matches_fresh_build(self):
        pairs = flip_paper_sample()
        grown = Sample(pairs[:2])
        tables = tables_for(grown)
        tables.out(())  # warm a cache entry that extension must refresh
        for pair in pairs[2:]:
            grown = grown.extended_with([pair])
        full = Sample(pairs)
        grown_tables, full_tables = tables_for(grown), tables_for(full)
        assert grown_tables.stats["builds"] == 1
        assert grown_tables.stats["extends"] == len(pairs) - 2
        for u in _probe_paths(full):
            assert grown_tables.out(u) == full_tables.out(u)
        for p in _probe_pairs(full):
            assert grown_tables.residual_uid_map(p) == full_tables.residual_uid_map(p)
            assert grown_tables.signature(p) == full_tables.signature(p)
            assert grown_tables.is_io_path(p) == full_tables.is_io_path(p)

    def test_parent_tables_stay_valid(self):
        pairs = flip_paper_sample()
        parent = Sample(pairs[:2])
        parent_tables = tables_for(parent)
        before = {u: parent_tables.out(u) for u in _probe_paths(parent)}
        child = parent.extended_with(pairs[2:])
        tables_for(child).out(())
        for u, value in before.items():
            assert parent_tables.out(u) == value
        assert len(parent_tables.pairs) == 2
        assert len(tables_for(child).pairs) == len(pairs)

    def test_signature_changes_on_new_evidence(self):
        pairs = flip_paper_sample()
        small = Sample(pairs[:2])
        p = ((("root", 1),), (("root", 2),))
        before = tables_for(small).signature(p)
        grown = small.extended_with(pairs[2:])
        after = tables_for(grown).signature(p)
        assert tables_for(grown).residual_uid_map(p) is not None
        assert before != after

    def test_global_counters_track_builds_and_extensions(self):
        base = sample_tables_stats()
        sample = Sample(flip_paper_sample()[:2])
        tables_for(sample)
        grown = sample.extended_with(flip_paper_sample()[2:])
        tables_for(grown)
        stats = sample_tables_stats()
        assert stats["tables_built"] == base["tables_built"] + 1
        assert stats["tables_extended"] == base["tables_extended"] + 1


class TestSampleExtension:
    def test_extended_with_known_pairs_returns_self(self, flip_sample):
        assert flip_sample.extended_with([]) is flip_sample
        assert flip_sample.extended_with(list(flip_sample)[:2]) is flip_sample

    def test_extended_with_noop_returns_self(self, flip_sample):
        assert flip_sample.extended_with([]) is flip_sample

    def test_extended_with_conflict_message_matches_construction(self):
        pairs = [(parse_term("a"), parse_term("a"))]
        conflict = [(parse_term("a"), parse_term("b"))]
        with pytest.raises(InconsistentSampleError) as from_init:
            Sample(pairs + conflict)
        with pytest.raises(InconsistentSampleError) as from_extend:
            Sample(pairs).extended_with(conflict)
        assert str(from_init.value) == str(from_extend.value)

    def test_extended_with_appends(self):
        from repro.workloads.flip import flip_input, flip_output

        pairs = flip_paper_sample()
        sample = Sample(pairs[:3])
        extra = (flip_input(3, 1), flip_output(3, 1))
        grown = sample.extended_with([pairs[3], extra])
        assert len(grown) == 5
        assert grown.output_of(extra[0]) == extra[1]
        assert grown.pairs[:3] == sample.pairs

    def test_cache_stats_include_table_counters(self, flip_sample):
        tables_for(flip_sample)
        stats = flip_sample.cache_stats()
        assert stats["tables_builds"] == 1
        assert "tables_extends" in stats and "tables_refreshes" in stats


class TestMergeIndex:
    def test_candidates_match_pairwise_scan(self, flip_sample, flip_reference):
        domain = flip_domain()
        from repro.automata.ops import canonical_form

        domain = canonical_form(domain)
        tables = tables_for(flip_sample)
        probes = [p for p in _probe_pairs(flip_sample) if tables.is_io_path(p)]
        index = MergeIndex(tables)
        ok = []
        for p in probes:
            dstate = domain.state_at_path(p[0])
            expected = [q for q in ok if mergeable(flip_reference, domain, p, q)]
            assert index.candidates(p, dstate) == expected
            ok.append(p)
            index.add_ok(p, dstate)

    def test_non_functional_border_has_no_candidates(self, flip_sample):
        domain = flip_domain()
        tables = tables_for(flip_sample)
        index = MergeIndex(tables)
        p_bad = ((("root", 1),), (("root", 1),))
        assert tables.residual_uid_map(p_bad) is None
        index.add_ok(p_bad, domain.initial)
        assert index.candidates(p_bad, domain.initial) == []
        assert index.stats["ok_states"] == 1
        assert index.stats["ok_indexed"] == 0
