"""Finite samples of a translation.

A sample ``S`` is a finite partial function from input trees to output
trees (``S ⊆ τ``, condition (C) of Definition 31).  The learner never
sees ``τ`` itself: every quantity it uses (``out_S(u)``, residuals
``p⁻¹S``, io-paths of ``S``) is computed from the sample's compiled
tables (:mod:`repro.engine.sample_tables`), obtained via
:func:`repro.engine.tables_for` and cached on the sample.

:meth:`Sample.extended_with` grows a sample **incrementally**: the new
sample reuses the parent's compiled tables, appending only the new
pairs' entries instead of rebuilding every index, which makes each
counterexample round of the active learner O(new data).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import InconsistentSampleError
from repro.trees.tree import Tree


class Sample:
    """An immutable finite sub-relation of a tree translation.

    Construction rejects relations that are not partial functions
    (duplicate inputs with distinct outputs — the sample could then not
    be a subset of any function).
    """

    def __init__(self, pairs: Iterable[Tuple[Tree, Tree]]):
        mapping: Dict[Tree, Tree] = {}
        ordered: List[Tuple[Tree, Tree]] = []
        for source, target in pairs:
            if source in mapping:
                if mapping[source] != target:
                    raise InconsistentSampleError(
                        f"two outputs for the same input {source}"
                    )
                continue
            mapping[source] = target
            ordered.append((source, target))
        self._pairs: Tuple[Tuple[Tree, Tree], ...] = tuple(ordered)
        self._map = mapping
        # Compiled flat tables (repro.engine.sample_tables), built on
        # first use via tables_for() and threaded through extended_with.
        self._tables = None

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[Tuple[Tree, Tree]]:
        return iter(self._pairs)

    def __contains__(self, pair: object) -> bool:
        return isinstance(pair, tuple) and len(pair) == 2 and (
            self._map.get(pair[0]) == pair[1]
        )

    @property
    def pairs(self) -> Tuple[Tuple[Tree, Tree], ...]:
        return self._pairs

    def output_of(self, source: Tree) -> Optional[Tree]:
        """The sample's output for an input tree, if present."""
        return self._map.get(source)

    def extended_with(self, other: Iterable[Tuple[Tree, Tree]]) -> "Sample":
        """Grow the sample incrementally: append pairs, reuse all indexes.

        Only the genuinely new pairs are validated (duplicates collapse;
        a conflicting output raises
        :class:`~repro.errors.InconsistentSampleError` exactly as
        construction would).  When the parent's compiled tables
        (:mod:`repro.engine.sample_tables`) exist they are *extended*
        copy-on-write rather than rebuilt: all recomputation is
        proportional to the new data (plus pointer-level dict copies of
        the existing indexes — no tree walks).  Returns ``self`` when
        nothing new is added, keeping its compiled tables alive.
        """
        additions: List[Tuple[Tree, Tree]] = []
        known = self._map
        fresh: Dict[Tree, Tree] = {}
        for source, target in other:
            existing = known.get(source)
            if existing is None:
                existing = fresh.get(source)
            if existing is not None:
                if existing != target:
                    raise InconsistentSampleError(
                        f"two outputs for the same input {source}"
                    )
                continue
            fresh[source] = target
            additions.append((source, target))
        if not additions:
            return self
        child = Sample.__new__(Sample)
        child._pairs = self._pairs + tuple(additions)
        child._map = dict(self._map)
        child._map.update(fresh)
        child._tables = (
            self._tables.extended(additions)
            if self._tables is not None
            else None
        )
        return child

    @property
    def total_nodes(self) -> int:
        """Sum of all input and output tree sizes (sample "weight")."""
        return sum(s.size + t.size for s, t in self._pairs)

    def cache_stats(self) -> Dict[str, int]:
        """The compiled tables' per-chain counters under ``tables_*`` keys
        (empty before the tables are built).

        ``tables_builds`` / ``tables_extends`` prove whether a growing
        sample chain was compiled once and extended (the active
        learner's contract) or rebuilt from scratch.
        """
        if self._tables is None:
            return {}
        return {f"tables_{key}": value for key, value in self._tables.stats.items()}

    def __repr__(self) -> str:
        return f"Sample({len(self._pairs)} pairs, {self.total_nodes} nodes)"

    def describe(self) -> str:
        """Multi-line listing ``input → output``."""
        return "\n".join(f"{s}  →  {t}" for s, t in self._pairs)
