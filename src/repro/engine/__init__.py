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

Compilation results persist across processes: :mod:`repro.engine.artifacts`
stores packed engine payloads as fingerprinted ``.engine`` sidecars next
to the model JSON, so servers and workers load tables instead of
recompiling (``compiles`` / ``payload_hits`` counters tell which path
ran).

The *execute* stage has two engines over the same compiled tables,
named in :mod:`repro.engine.backends`: ``tables`` (the dict-driven
default) and ``codegen`` (per-machine generated Python), selected per
call via ``engine_for(machine, backend=...)``, per model via registry
artifacts, or process-wide via the ``REPRO_BACKEND`` environment
variable.

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

from repro.engine.artifacts import (
    ARTIFACT_FORMAT,
    ENGINE_SUFFIX,
    artifact_stats,
    attach_payload,
    engine_path_for,
    fingerprint_payload,
    load_engine_artifact,
    reset_artifact_stats,
    write_engine_artifact,
)
from repro.engine.backends import (
    AUTO_BACKEND,
    DEFAULT_BACKEND,
    available_backends,
    backend_stats,
    get_backend,
    reset_backend_stats,
    resolve_backend,
)
from repro.engine.compile import (
    CompiledDTOP,
    CompiledDTTA,
    compile_dtop,
    compile_dtta,
)
from repro.engine.execute import (
    AutomatonEngine,
    Engine,
    EngineSet,
    automaton_engine_for,
    engine_for,
)
from repro.engine.profile import profile_snapshot, rule_labels
from repro.engine.sample_tables import (
    MergeIndex,
    SampleTables,
    clear_sample_table_caches,
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
    "EngineSet",
    "AutomatonEngine",
    "engine_for",
    "automaton_engine_for",
    "profile_snapshot",
    "rule_labels",
    "ARTIFACT_FORMAT",
    "ENGINE_SUFFIX",
    "artifact_stats",
    "attach_payload",
    "engine_path_for",
    "fingerprint_payload",
    "load_engine_artifact",
    "reset_artifact_stats",
    "write_engine_artifact",
    "AUTO_BACKEND",
    "DEFAULT_BACKEND",
    "available_backends",
    "backend_stats",
    "get_backend",
    "reset_backend_stats",
    "resolve_backend",
    "SampleTables",
    "MergeIndex",
    "tables_for",
    "residual_signature",
    "sample_tables_stats",
    "reset_sample_tables_stats",
    "clear_sample_table_caches",
]
