"""Finite samples of a translation and their semantic operations.

A sample ``S`` is a finite partial function from input trees to output
trees (``S ⊆ τ``, condition (C) of Definition 31).  The learner never
sees ``τ`` itself — every quantity it uses (``out_S(u)``, residuals
``p⁻¹S``, io-paths of ``S``) is computed from the sample by the methods
of :class:`Sample`, with memoization since the learner asks for the same
paths repeatedly.

Every derived quantity — ``out_S(u)``, ``out_S(u·f)``, residuals,
residual maps, and io-path membership — is cached on the (immutable)
sample.  Example pairs are deduplicated with interned-tree uids, so the
RPNI merge loop (which probes the same path pairs once per merge
candidate) does each piece of work once.  :meth:`Sample.cache_stats`
exposes the hit/miss counters.

Two implementations coexist.  The methods on this class are the
*interpreted reference*: direct transcriptions of the paper's
definitions, memoized but rebuilt per sample.  The hot learning path
runs on the *compiled tables* instead
(:mod:`repro.engine.sample_tables`): flat uid-keyed indexes with
precomputed residual signatures, obtained via
:func:`repro.engine.tables_for` and cached on the sample.
:meth:`extended_with` grows a sample **incrementally** — the new sample
reuses the parent's compiled tables, appending only the new pairs'
entries instead of rebuilding every index — which makes each
counterexample round of the active learner O(new data).  The reference
methods double as the differential-testing oracle for the tables.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.engine.sample_tables import path_index
from repro.errors import InconsistentSampleError
from repro.trees.lcp import BOTTOM_SYMBOL, lcp_many
from repro.trees.paths import Path
from repro.trees.tree import Tree

PathPair = Tuple[Path, Path]


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
        self._out_cache: Dict[Path, Optional[Tree]] = {}
        self._residual_cache: Dict[PathPair, Tuple[Tuple[Tree, Tree], ...]] = {}
        # uid-of-input → output subtree (or None if not functional); the
        # uid-keyed form keeps the merge loop on int dictionary ops.
        self._residual_map_cache: Dict[PathPair, Optional[Dict[int, Tree]]] = {}
        self._io_path_cache: Dict[PathPair, bool] = {}
        # Per-tree index: root uid → {labeled path: subtree}.  Turns the
        # O(|u|) walk of try_subtree_at_path into one dict lookup, built
        # lazily once per distinct tree (uids are stable under interning).
        self._path_index_cache: Dict[int, Dict[Path, Tree]] = {}
        # Inverted index over all input trees: labeled path → the sample
        # pairs whose input contains it (in sample order), with the
        # subtree at the path.  Built lazily in one pass; lets residual /
        # out_S probe only the relevant pairs instead of scanning.
        self._by_input_path: Optional[
            Dict[Path, List[Tuple[Tree, Tree, Tree]]]
        ] = None
        self._stats: Dict[str, int] = {"hits": 0, "misses": 0}
        # Compiled flat tables (repro.engine.sample_tables), built on
        # first use via tables_for() and threaded through extended_with.
        self._tables = None

    def _path_index(self, root: Tree) -> Dict[Path, Tree]:
        """All ``(labeled path, subtree)`` of a tree, as a dict; memoized."""
        index = self._path_index_cache.get(root.uid)
        if index is None:
            index = self._path_index_cache[root.uid] = path_index(root)
        return index

    def _inputs_index(self) -> Dict[Path, List[Tuple[Tree, Tree, Tree]]]:
        """``u → [(s, t, u⁻¹s), …]`` over all pairs whose input has ``u``."""
        index = self._by_input_path
        if index is None:
            index = {}
            for s, t in self._pairs:
                for path, sub in self._path_index(s).items():
                    index.setdefault(path, []).append((s, t, sub))
            self._by_input_path = index
        return index

    # ------------------------------------------------------------------
    # Basic relation view
    # ------------------------------------------------------------------

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

    def merged_with(self, other: Iterable[Tuple[Tree, Tree]]) -> "Sample":
        """A new sample with the union of the pairs (checks consistency).

        When ``other`` adds nothing new — it is empty, or every pair is
        already present — ``self`` is returned unchanged, keeping all
        memoized residual/io-path caches and compiled tables alive
        instead of discarding them for a no-op merge.
        """
        return self.extended_with(other)

    def extended_with(self, other: Iterable[Tuple[Tree, Tree]]) -> "Sample":
        """Grow the sample incrementally: append pairs, reuse all indexes.

        Only the genuinely new pairs are validated (duplicates collapse;
        a conflicting output raises
        :class:`~repro.errors.InconsistentSampleError` exactly as
        construction would).  The result shares the parent's per-tree
        path indexes, and when the parent's compiled tables
        (:mod:`repro.engine.sample_tables`) exist they are *extended*
        copy-on-write rather than rebuilt: all recomputation is
        proportional to the new data (plus pointer-level dict copies of
        the existing indexes — no tree walks).  Returns ``self`` when
        nothing new is added.
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
        child._out_cache = {}
        child._residual_cache = {}
        child._residual_map_cache = {}
        child._io_path_cache = {}
        # uid-keyed pure function of interned trees: safe to share (new
        # entries added through the child are equally valid for self).
        child._path_index_cache = self._path_index_cache
        child._by_input_path = None
        child._stats = {"hits": 0, "misses": 0}
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

    # ------------------------------------------------------------------
    # Semantic operations
    # ------------------------------------------------------------------

    def inputs_containing(self, u: Path) -> List[Tuple[Tree, Tree]]:
        """All sample pairs whose input contains the labeled path ``u``."""
        return [(s, t) for s, t, _ in self._inputs_index().get(u, ())]

    def out(self, u: Path) -> Optional[Tree]:
        """``out_S(u) = ⊔ {S(s) | u =| s}`` — ``None`` when no input has ``u``.

        Section 3's maximal output, computed on the finite sample.

        Over a ranked alphabet a tree contains ``u·(f,i)`` iff it has an
        ``f``-labeled node at ``u`` (and ``i ≤ rank(f)``), so the ``⊔``
        set — and the result — is the same for every child index ``i``.
        We exploit that: all rank-many queries share one
        :meth:`out_npath` computation.
        """
        cache = self._out_cache
        if u in cache:
            self._stats["hits"] += 1
            return cache[u]
        self._stats["misses"] += 1
        entries = self._inputs_index().get(u, ())
        if not entries:
            result = None
        elif not u:
            result = lcp_many(t for _, t, _ in entries)
        else:
            prefix, (symbol, _index) = u[:-1], u[-1]
            with_symbol = sum(
                1
                for _, _, node in self._inputs_index().get(prefix, ())
                if node.label == symbol
            )
            if len(entries) == with_symbol:
                # Every pair with an f-node at `prefix` contains u — true
                # whenever f is used at one arity (ranked alphabets
                # always).  entries(u) ⊆ entries-with-f, so equal counts
                # mean equal ⊔ sets and the result is shared across all
                # child indices.
                result = self.out_npath(prefix, symbol)
            else:
                result = lcp_many(t for _, t, _ in entries)
        cache[u] = result
        return result

    def out_npath(self, u: Path, symbol: object) -> Optional[Tree]:
        """``out_S(u·f)`` for the node-path ``u·f``.

        Because trees are ranked, a tree contains ``u·f`` iff it contains
        the path ``u·(f,1)`` (or has an ``f``-labeled node at ``u`` when
        ``f`` is a constant); we filter on the node label directly.
        """
        key = u + ((symbol, 0),)  # impossible child index: private cache key
        if key in self._out_cache:
            return self._out_cache[key]
        outputs = [
            t
            for _, t, node in self._inputs_index().get(u, ())
            if node.label == symbol
        ]
        result = lcp_many(outputs) if outputs else None
        self._out_cache[key] = result
        return result

    def residual(self, p: PathPair) -> Tuple[Tuple[Tree, Tree], ...]:
        """Definition 5: ``p⁻¹S = {(u⁻¹s, v⁻¹t) | (s,t) ∈ S, u =| s, v =| t}``.

        Cached per path pair; the pair set is deduplicated on interned
        node uids (identity ⟺ structural equality).
        """
        cached = self._residual_cache.get(p)
        if cached is not None:
            self._stats["hits"] += 1
            return cached
        self._stats["misses"] += 1
        u, v = p
        items: List[Tuple[Tree, Tree]] = []
        seen: set = set()
        path_index = self._path_index
        for _, t, sub_in in self._inputs_index().get(u, ()):
            sub_out = path_index(t).get(v)
            if sub_out is None:
                continue
            key = (sub_in.uid, sub_out.uid)
            if key not in seen:
                seen.add(key)
                items.append((sub_in, sub_out))
        result = tuple(items)
        self._residual_cache[p] = result
        return result

    def residual_functional(self, p: PathPair) -> bool:
        """Is ``p⁻¹S`` a partial function?"""
        return self.residual_uid_map(p) is not None

    def residual_uid_map(self, p: PathPair) -> Optional[Dict[int, Tree]]:
        """``p⁻¹S`` keyed by input-subtree uid, or ``None`` if not functional.

        Cached; this is the merge loop's workhorse (every (border, OK)
        candidate pair probes it), so it scans the inverted index
        directly, keys on interned uids (plain int dict ops), and stops
        at the first functionality conflict — wrong variable-alignment
        candidates die on their first contradicting pair.  Because trees
        are interned, uid equality is structural equality.
        """
        if p in self._residual_map_cache:
            self._stats["hits"] += 1
            return self._residual_map_cache[p]
        self._stats["misses"] += 1
        u, v = p
        outputs: Optional[Dict[int, Tree]] = {}
        path_index = self._path_index
        for _, t, sub_in in self._inputs_index().get(u, ()):
            sub_out = path_index(t).get(v)
            if sub_out is None:
                continue
            if outputs.setdefault(sub_in.uid, sub_out) is not sub_out:
                outputs = None
                break
        self._residual_map_cache[p] = outputs
        return outputs

    def residual_map(self, p: PathPair) -> Optional[Dict[Tree, Tree]]:
        """``p⁻¹S`` as a tree-keyed mapping, or ``None`` if not functional.

        Convenience view over :meth:`residual`; hot callers use the
        cached :meth:`residual_uid_map` instead.
        """
        outputs: Dict[Tree, Tree] = {}
        for sub_in, sub_out in self.residual(p):
            if outputs.setdefault(sub_in, sub_out) is not sub_out:
                return None
        return outputs

    def is_io_path(self, p: PathPair) -> bool:
        """Definition 10 on the sample: ``out_S(u)[v] = ⊥`` and functionality.

        Cached: rule materialization probes the same ``(u·f·i, v)``
        candidates once per ``⊥`` position.
        """
        cached = self._io_path_cache.get(p)
        if cached is not None:
            self._stats["hits"] += 1
            return cached
        self._stats["misses"] += 1
        result = self._compute_io_path(p)
        self._io_path_cache[p] = result
        return result

    def _compute_io_path(self, p: PathPair) -> bool:
        u, v = p
        out = self.out(u)
        if out is None:
            return False
        current = out
        for label, index in v:
            if current.label != label or not 1 <= index <= len(current.children):
                return False
            current = current.children[index - 1]
        if current.label is not BOTTOM_SYMBOL:
            return False
        return self.residual_functional(p)

    def cache_stats(self) -> Dict[str, int]:
        """Combined hit/miss counters of the sample's memo caches.

        When the compiled tables exist, their per-chain counters are
        included under ``tables_*`` keys — ``tables_builds`` /
        ``tables_extends`` prove whether a growing sample chain was
        compiled once and extended (the active learner's contract) or
        rebuilt from scratch.
        """
        stats = dict(self._stats)
        if self._tables is not None:
            for key, value in self._tables.stats.items():
                stats[f"tables_{key}"] = value
        return stats

    def __repr__(self) -> str:
        return f"Sample({len(self._pairs)} pairs, {self.total_nodes} nodes)"

    def describe(self) -> str:
        """Multi-line listing ``input → output``."""
        return "\n".join(f"{s}  →  {t}" for s, t in self._pairs)
