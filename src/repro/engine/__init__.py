"""Compiled batch execution engine.

This package is the execution substrate sitting between the declarative
machine objects (:class:`~repro.transducers.dtop.DTOP`,
:class:`~repro.automata.dtta.DTTA`) and the workloads that run them at
volume.  It separates evaluation into two stages:

compile (once per machine)
    :func:`~repro.engine.compile.compile_dtop` /
    :func:`~repro.engine.compile.compile_dtta` lower a machine into
    integer-indexed flat tables: interned symbol and state ids, a dense
    ``state × symbol → rule`` dispatch array, and per-rule postorder
    instruction templates replacing the dict-keyed, recursively walked
    right-hand-side trees.

execute (per batch)
    :class:`~repro.engine.execute.Engine` evaluates a whole forest of
    inputs in one bottom-up sweep over the shared hash-consed structure:
    a demand pass collects the reachable ``(state, subtree)`` pairs
    iteratively, then a topological pass (children strictly before
    parents) instantiates each pair exactly once.  No Python recursion is
    involved anywhere, so inputs of depth 100 000+ are routine, and a
    subtree shared between batch members is paid for once.

:func:`engine_for` / :func:`automaton_engine_for` cache one compiled
engine per machine instance (machines are immutable after construction,
so the compilation never goes stale).  The classic recursive interpreter
(:meth:`DTOP.apply`, :meth:`DTTA.accepts_from`) remains for origin
tracking and as the differential-testing reference.

Compilation is cheap enough to repeat in every process: nothing
compiled is persisted, and :func:`artifact_stats` counts every
:func:`~repro.engine.compile.compile_dtop` call.

The *execute* stage has one engine, :class:`~repro.engine.execute.Engine`;
nothing selects another.

compile the sample (once per sample, extended incrementally)
    :mod:`repro.engine.sample_tables` is the learning-side analogue:
    :class:`~repro.engine.sample_tables.SampleTables` lowers a sample
    into uid-keyed indexes with precomputed residual signatures, and
    :class:`~repro.engine.sample_tables.MergeIndex` replaces RPNI's
    border×OK pairwise merge scan with signature-bucketed lookups.
    :func:`tables_for` caches the tables on the sample;
    ``Sample.extended_with`` extends them copy-on-write in O(new data).
    The interpreted methods of
    :class:`~repro.learning.sample.Sample` remain the reference.
"""

from repro.engine.compile import (
    CompiledDTOP,
    CompiledDTTA,
    artifact_stats,
    compile_dtop,
    compile_dtta,
    reset_artifact_stats,
)
from repro.engine.execute import (
    AutomatonEngine,
    Engine,
    automaton_engine_for,
    engine_for,
)
from repro.engine.profile import profile_snapshot, rule_labels
from repro.engine.sample_tables import (
    MergeIndex,
    SampleTables,
    reset_sample_tables_stats,
    residual_signature,
    sample_tables_stats,
    tables_for,
)

__all__ = [
    "CompiledDTOP",
    "CompiledDTTA",
    "compile_dtop",
    "compile_dtta",
    "Engine",
    "AutomatonEngine",
    "engine_for",
    "automaton_engine_for",
    "profile_snapshot",
    "rule_labels",
    "artifact_stats",
    "reset_artifact_stats",
    "SampleTables",
    "MergeIndex",
    "tables_for",
    "residual_signature",
    "sample_tables_stats",
    "reset_sample_tables_stats",
]
