"""The two execution backends behind the engine interface.

A *backend* is a factory turning a :class:`~repro.engine.compile.CompiledDTOP`
into an executor implementing the engine surface (``run_batch_outcomes``,
``run_batch``, ``try_run_batch``, ``run``, ``try_run``, ``eval_state``,
``cache_stats``, ``clear_cache``, ``memo_size``) with interpreter-identical
semantics — byte-identical :class:`~repro.errors.UndefinedTransductionError`
messages included.  The table is fixed:

``tables`` (default)
    :class:`~repro.engine.execute.Engine` — the dict-driven template
    replayer; the reference the other is fuzzed against.
``codegen``
    :class:`~repro.engine.backends.codegen.CodegenEngine` — per-machine
    generated Python: one specialized function per rule, compiled with
    :func:`compile`, constants and child memos bound as plain names.

Selection precedence, applied by :func:`resolve_backend`: explicit call
argument > model artifact ``"backend"`` key > server default >
``REPRO_BACKEND`` in the environment > :data:`DEFAULT_BACKEND`.
:func:`get_backend` raises :class:`~repro.errors.BackendError` for
unknown names.  The pseudo-name ``auto`` (:data:`AUTO_BACKEND`) is an
alias of ``codegen``, the faster engine on every E18 row.

Every backend engine reports its per-batch hit/miss counters here
(:func:`note_batch`), so :func:`backend_stats` shows which backend served
what process-wide — surfaced by ``api.cache_stats()`` and the server's
``stats``/``metrics`` verbs.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Optional

from repro.errors import BackendError

#: The backend used when neither caller, artifact, nor environment says.
DEFAULT_BACKEND = "tables"

#: Environment variable consulted by :func:`resolve_backend`.
ENV_VAR = "REPRO_BACKEND"

#: Pseudo-name :func:`resolve_backend` maps to ``codegen``.
AUTO_BACKEND = "auto"

BackendFactory = Callable[[object], object]  # CompiledDTOP → engine

_STATS_LOCK = threading.Lock()
_STATS: Dict[str, Dict[str, int]] = {}


# Factories import lazily: execute.py imports this module for
# resolution, so eager imports would cycle.


def _tables_factory(compiled):
    from repro.engine.execute import Engine

    return Engine(compiled)


def _codegen_factory(compiled):
    from repro.engine.backends.codegen import CodegenEngine

    return CodegenEngine(compiled)


_BACKENDS: Dict[str, BackendFactory] = {
    "tables": _tables_factory,
    "codegen": _codegen_factory,
}


def available_backends() -> List[str]:
    """Every backend name, ``tables`` first."""
    return list(_BACKENDS)


def get_backend(name: str) -> BackendFactory:
    """The engine factory named ``name``.

    Raises :class:`~repro.errors.BackendError` for unknown names.
    """
    factory = _BACKENDS.get(name)
    if factory is None:
        known = ", ".join(sorted(_BACKENDS))
        raise BackendError(
            f"unknown execution backend {name!r} (registered: {known})"
        )
    return factory


def resolve_backend(*preferences: Optional[str]) -> str:
    """Pick a backend name: first non-``None`` preference > env > default.

    Callers list their precedence explicitly, e.g.
    ``resolve_backend(call_arg, artifact_backend)``.  The winning name is
    validated so a typo in ``REPRO_BACKEND`` fails loudly at resolution
    time, not mid-batch.
    """
    name = next((p for p in preferences if p is not None), None)
    if name is None:
        name = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    if name == AUTO_BACKEND:
        name = "codegen"
    get_backend(name)  # validate; raises BackendError when bad
    return name


def note_batch(name: str, hits: int, misses: int) -> None:
    """Fold one batch's counters into the process-wide per-backend stats."""
    with _STATS_LOCK:
        counters = _STATS.get(name)
        if counters is None:
            counters = _STATS[name] = {"batches": 0, "hits": 0, "misses": 0}
        counters["batches"] += 1
        counters["hits"] += hits
        counters["misses"] += misses


def backend_stats() -> Dict[str, Dict[str, int]]:
    """Process-wide ``{backend: {batches, hits, misses}}`` since reset."""
    with _STATS_LOCK:
        return {name: dict(counters) for name, counters in _STATS.items()}


def reset_backend_stats() -> None:
    """Zero the process-wide per-backend counters."""
    with _STATS_LOCK:
        _STATS.clear()


__all__ = [
    "AUTO_BACKEND",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "available_backends",
    "backend_stats",
    "get_backend",
    "note_batch",
    "reset_backend_stats",
    "resolve_backend",
]
