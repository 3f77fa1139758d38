"""Compiled sample tables: the learning-side analogue of the rule tables.

:mod:`repro.engine.compile` lowers *machines* once into flat tables so
that running them is table lookups; this module does the same for
*samples*.  A :class:`SampleTables` compiles a finite sample (a list of
``(input, output)`` tree pairs) into uid-keyed indexes:

* an inverted input-path index ``u → [(s, t, u⁻¹s), …]`` over all pairs,
  built from a memoized per-tree path index;
* per path-pair ``p = (u, v)``: the residual ``p⁻¹S`` as a uid-keyed map
  plus a precomputed **residual signature** — an order-independent hash
  of the uid map, maintained incrementally as pairs are appended;
* the sample operators the learner needs — ``out_S(u)``, ``out_S(u·f)``,
  residual maps, io-path membership — each cached with a high-water mark
  (how many index entries the cached value consumed) so the caches
  survive *extension*: appending pairs refreshes a stale entry from the
  new entries only, instead of recomputing from scratch.

:class:`MergeIndex` turns the RPNI merge scan into index lookups: OK
states are bucketed by (restricted-domain state, residual signature) and
their residual-map entries are inverted, so the candidate set for a
border state is computed from its *own* residual entries — no pairwise
scan over the OK states.  The candidate set is provably identical to the
pairwise Definition 30 scan (see :meth:`MergeIndex.candidates`), so the
learner's decisions — including merge-ambiguity failures — are those of
the paper's algorithm.

Extension is copy-on-write: :meth:`SampleTables.extended` returns a new
tables object sharing all untouched structure with its parent, touching
only the paths the appended inputs contain.  The parent stays fully
valid.  A tables object and all its extensions form one *lineage*: the
memos of pure functions of interned trees (the per-tree path index and
the learner's memos, see :attr:`SampleTables.memos`) are shared by
reference along it, so re-learning from an extended sample reuses them,
and they are released with the last sample of the lineage.
:func:`sample_tables_stats` aggregates global counters proving builds
vs. extensions (the active learner's regression tests key on them).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.trees.lcp import BOTTOM_SYMBOL, lcp, lcp_many
from repro.trees.paths import Path
from repro.trees.tree import Tree

PathPair = Tuple[Path, Path]
#: One inverted-index entry: (input root, output root, subtree at path).
Entry = Tuple[Tree, Tree, Tree]

_GLOBAL_STATS: Dict[str, int] = {
    "tables_built": 0,
    "tables_extended": 0,
    "pairs_indexed": 0,
    "signatures_computed": 0,
    "signature_hits": 0,
    "entry_refreshes": 0,
}


def sample_tables_stats() -> Dict[str, int]:
    """Global counters of the sample-table layer (builds, extensions, …)."""
    return dict(_GLOBAL_STATS)


def reset_sample_tables_stats() -> None:
    """Zero the global sample-table counters (tests and benchmarks)."""
    for key in _GLOBAL_STATS:
        _GLOBAL_STATS[key] = 0


def path_index(root: Tree) -> Dict[Path, Tree]:
    """All ``(labeled path, subtree)`` of a tree as a dict."""
    index: Dict[Path, Tree] = {}
    stack: List[Tuple[Path, Tree]] = [((), root)]
    while stack:
        prefix, node = stack.pop()
        index[prefix] = node
        label = node.label
        for i, child in enumerate(node.children, start=1):
            stack.append((prefix + ((label, i),), child))
    return index


def residual_signature(uid_map: Dict[int, Tree]) -> int:
    """Order-independent hash of a residual uid map.

    XOR of per-entry hashes: invariant under insertion order, and
    incrementally maintainable — appending a *new* input uid updates the
    signature with one XOR.  (Each input uid contributes exactly once
    because the map is keyed on it.)
    """
    signature = 0
    for in_uid, out in uid_map.items():
        signature ^= hash((in_uid, out.uid))
    return signature


# Cache cell layouts (immutable tuples, shared copy-on-write between a
# tables object and its extensions):
#   _out:       u → (tree-or-None, upto, via_npath: Optional[symbol])
#   _out_npath: (u, f) → (tree-or-None, upto)      upto counts entries at u
#   _residual:  p → (map-or-None, signature, upto) upto counts entries at u
#   _io:        p → (bool, upto)                   upto counts entries at u


class SampleTables:
    """A sample compiled into flat, incrementally extensible indexes.

    Build with :meth:`build`; extend with :meth:`extended` (returns a new
    object, the parent stays valid).  The queries are the paper's
    definitions on the finite sample, answered from the indexes.
    """

    __slots__ = (
        "pairs",
        "_by_path",
        "_out",
        "_out_npath",
        "_residual",
        "_io",
        "_symcount",
        "_alpha_ranks",
        "_alpha_upto",
        "_alpha_obj",
        "_stats",
        "_paths",
        "memos",
    )

    def __init__(self) -> None:
        self.pairs: Tuple[Tuple[Tree, Tree], ...] = ()
        self._by_path: Dict[Path, List[Entry]] = {}
        self._out: Dict[Path, Tuple[Optional[Tree], int, Optional[object]]] = {}
        self._out_npath: Dict[Tuple[Path, object], Tuple[Optional[Tree], int]] = {}
        self._residual: Dict[
            PathPair, Tuple[Optional[Dict[int, Tree]], int, int]
        ] = {}
        self._io: Dict[PathPair, Tuple[bool, int]] = {}
        # (u, symbol) → (count of u-entries labeled symbol, upto):
        # backs the out→out_npath delegation test incrementally.
        self._symcount: Dict[Tuple[Path, object], Tuple[int, int]] = {}
        # Incremental output-alphabet fold: symbol → rank over all output
        # trees consumed so far, plus the cached RankedAlphabet object.
        self._alpha_ranks: Dict[object, int] = {}
        self._alpha_upto = 0
        self._alpha_obj = None
        self._stats: Dict[str, int] = {
            "builds": 1,
            "extends": 0,
            "hits": 0,
            "misses": 0,
            "refreshes": 0,
        }
        # Lineage-shared memos of pure functions of interned uids (see
        # the module docstring): root uid → path index, and the learner's
        # memos, keyed by name (owned by repro.learning.rpni).
        self._paths: Dict[int, Dict[Path, Tree]] = {}
        self.memos: Dict[str, Dict] = {}

    # ------------------------------------------------------------------
    # Construction and extension
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, pairs: Iterable[Tuple[Tree, Tree]]) -> "SampleTables":
        """Compile a sample's pairs into fresh tables."""
        tables = cls()
        tables._index_pairs(tuple(pairs), owned_paths=None)
        _GLOBAL_STATS["tables_built"] += 1
        return tables

    def extended(self, new_pairs: Sequence[Tuple[Tree, Tree]]) -> "SampleTables":
        """A new tables object with ``new_pairs`` appended.

        Copy-on-write: the inverted index and every cache dict are copied
        at the pointer level (one O(index-size) pointer copy — no tree
        walks, no recomputation); only the per-path entry lists the new
        inputs actually touch are re-made, so all *computation* is
        O(new data).  Cached query results carry high-water marks and
        refresh themselves lazily from the appended entries on next
        access, so everything already computed on the parent is reused,
        not rebuilt.  The parent tables stay valid.
        """
        child = object.__new__(SampleTables)
        child.pairs = self.pairs
        child._by_path = dict(self._by_path)
        child._out = dict(self._out)
        child._out_npath = dict(self._out_npath)
        child._residual = dict(self._residual)
        child._io = dict(self._io)
        child._symcount = dict(self._symcount)
        child._alpha_ranks = dict(self._alpha_ranks)
        child._alpha_upto = self._alpha_upto
        child._alpha_obj = self._alpha_obj
        child._stats = dict(self._stats)
        child._stats["extends"] += 1
        child._paths = self._paths
        child.memos = self.memos
        child._index_pairs(tuple(new_pairs), owned_paths=set())
        _GLOBAL_STATS["tables_extended"] += 1
        return child

    def _index_pairs(
        self,
        new_pairs: Tuple[Tuple[Tree, Tree], ...],
        owned_paths: Optional[Set[Path]],
    ) -> None:
        """Append pairs to the inverted index.

        When the index was pointer-copied from a parent, every existing
        entry list is shared until this extension copies it;
        ``owned_paths`` accumulates the ones copied so far (``None``
        when the whole index is freshly owned).
        """
        by_path = self._by_path
        for source, target in new_pairs:
            for prefix, sub in self._path_index(source).items():
                entries = by_path.get(prefix)
                if entries is None:
                    by_path[prefix] = [(source, target, sub)]
                elif owned_paths is not None and prefix not in owned_paths:
                    by_path[prefix] = entries + [(source, target, sub)]
                    owned_paths.add(prefix)
                else:
                    entries.append((source, target, sub))
        self.pairs = self.pairs + new_pairs
        _GLOBAL_STATS["pairs_indexed"] += len(new_pairs)

    def _path_index(self, root: Tree) -> Dict[Path, Tree]:
        index = self._paths.get(root.uid)
        if index is None:
            index = self._paths[root.uid] = path_index(root)
        return index

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def out(self, u: Path) -> Optional[Tree]:
        """``out_S(u) = ⊔ {S(s) | u =| s}`` (Section 3's maximal output on
        the finite sample) — ``None`` when no input has ``u``."""
        entries = self._by_path.get(u, ())
        cached = self._out.get(u)
        if cached is not None:
            value, upto, via = cached
            if upto == len(entries):
                self._stats["hits"] += 1
                # Entries at u grow in lockstep with f-entries at its
                # prefix (a tree has u·(f,i) iff it has an f-node at u),
                # so an unchanged entry list means an unchanged result.
                return value
            if via is None and value is not None:
                # Incremental refresh: ⊔ is associative/commutative, so
                # folding the new outputs into the cached value is exact.
                self._stats["refreshes"] += 1
                _GLOBAL_STATS["entry_refreshes"] += 1
                for _, t, _ in entries[upto:]:
                    value = lcp(value, t)
                self._out[u] = (value, len(entries), None)
                return value
            if via is not None:
                # Stale delegation: recheck the sharing condition and
                # re-delegate (out_npath refreshes incrementally).
                prefix = u[:-1]
                if self._symbol_count(prefix, via) == len(entries):
                    self._stats["refreshes"] += 1
                    _GLOBAL_STATS["entry_refreshes"] += 1
                    value = self.out_npath(prefix, via)
                    self._out[u] = (value, len(entries), via)
                    return value
            # Stale None (entries appeared): recompute below.
        self._stats["misses"] += 1
        value, via = self._compute_out(u, entries)
        self._out[u] = (value, len(entries), via)
        return value

    def _symbol_count(self, u: Path, symbol: object) -> int:
        """How many entries at ``u`` carry ``symbol``; incremental."""
        key = (u, symbol)
        entries = self._by_path.get(u, ())
        cached = self._symcount.get(key)
        if cached is not None:
            count, upto = cached
            if upto == len(entries):
                return count
        else:
            count, upto = 0, 0
        for _, _, node in entries[upto:]:
            if node.label == symbol:
                count += 1
        self._symcount[key] = (count, len(entries))
        return count

    def _compute_out(
        self, u: Path, entries: Sequence[Entry]
    ) -> Tuple[Optional[Tree], Optional[object]]:
        if not entries:
            return None, None
        if not u:
            return lcp_many(t for _, t, _ in entries), None
        prefix, (symbol, _index) = u[:-1], u[-1]
        if len(entries) == self._symbol_count(prefix, symbol):
            # Every pair with an f-node at `prefix` contains u (ranked
            # alphabets use each symbol at one arity), so all rank-many
            # child paths share one out_npath computation.
            return self.out_npath(prefix, symbol), symbol
        return lcp_many(t for _, t, _ in entries), None

    def out_npath(self, u: Path, symbol: object) -> Optional[Tree]:
        """``out_S(u·f)`` for the node-path ``u·f``."""
        key = (u, symbol)
        entries = self._by_path.get(u, ())
        cached = self._out_npath.get(key)
        if cached is not None:
            value, upto = cached
            if upto == len(entries):
                self._stats["hits"] += 1
                return value
            if value is not None:
                self._stats["refreshes"] += 1
                _GLOBAL_STATS["entry_refreshes"] += 1
                for _, t, node in entries[upto:]:
                    if node.label == symbol:
                        value = lcp(value, t)
                self._out_npath[key] = (value, len(entries))
                return value
        self._stats["misses"] += 1
        outputs = [t for _, t, node in entries if node.label == symbol]
        value = lcp_many(outputs) if outputs else None
        self._out_npath[key] = (value, len(entries))
        return value

    def residual_uid_map(self, p: PathPair) -> Optional[Dict[int, Tree]]:
        """``p⁻¹S`` keyed by input-subtree uid, or ``None`` if not functional."""
        uid_map, _signature = self._residual_state(p)
        return uid_map

    def residual_functional(self, p: PathPair) -> bool:
        """Is ``p⁻¹S`` a partial function?"""
        return self.residual_uid_map(p) is not None

    def signature(self, p: PathPair) -> int:
        """The residual signature of ``p`` (0 when non-functional)."""
        _uid_map, signature = self._residual_state(p)
        return signature

    def _residual_state(
        self, p: PathPair
    ) -> Tuple[Optional[Dict[int, Tree]], int]:
        u, v = p
        entries = self._by_path.get(u, ())
        cached = self._residual.get(p)
        if cached is not None:
            uid_map, signature, upto = cached
            if upto == len(entries):
                self._stats["hits"] += 1
                return uid_map, signature
            if uid_map is None:
                # A functionality conflict cannot be un-observed by
                # appending pairs; only the high-water mark moves.
                self._residual[p] = (None, 0, len(entries))
                return None, 0
            self._stats["refreshes"] += 1
            _GLOBAL_STATS["entry_refreshes"] += 1
            # The cached map may be shared with a parent tables object:
            # copy before extending (bounded by the residual size).
            uid_map = dict(uid_map)
            uid_map, signature = self._fold_residual(
                uid_map, signature, v, entries[upto:]
            )
            self._residual[p] = (uid_map, signature, len(entries))
            return uid_map, signature
        self._stats["misses"] += 1
        _GLOBAL_STATS["signatures_computed"] += 1
        uid_map, signature = self._fold_residual({}, 0, v, entries)
        self._residual[p] = (uid_map, signature, len(entries))
        return uid_map, signature

    def _fold_residual(
        self,
        uid_map: Dict[int, Tree],
        signature: int,
        v: Path,
        entries: Sequence[Entry],
    ) -> Tuple[Optional[Dict[int, Tree]], int]:
        for _, t, sub_in in entries:
            sub_out = self._path_index(t).get(v)
            if sub_out is None:
                continue
            in_uid = sub_in.uid
            existing = uid_map.get(in_uid)
            if existing is None:
                uid_map[in_uid] = sub_out
                signature ^= hash((in_uid, sub_out.uid))
            elif existing is not sub_out:
                # Interned trees: identity inequality is structural
                # inequality — the residual is not a partial function.
                return None, 0
        return uid_map, signature

    def is_io_path(self, p: PathPair) -> bool:
        """Definition 10 on the sample: ``out_S(u)[v] = ⊥`` and functionality."""
        u, _v = p
        entries = self._by_path.get(u, ())
        cached = self._io.get(p)
        if cached is not None:
            value, upto = cached
            if upto == len(entries):
                self._stats["hits"] += 1
                return value
            self._stats["refreshes"] += 1
            _GLOBAL_STATS["entry_refreshes"] += 1
        else:
            self._stats["misses"] += 1
        value = self._compute_io_path(p)
        self._io[p] = (value, len(entries))
        return value

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

    def output_alphabet(self):
        """The ranked alphabet of all output trees, folded incrementally.

        Content-equal to ``RankedAlphabet.from_trees(outputs)``; the
        alphabet object is cached and only rebuilt when a new pair
        actually introduces a new symbol, so re-learning from an
        extended sample reuses the same instance.  A rank conflict
        defers to :meth:`RankedAlphabet.from_trees` for the reference
        error message.
        """
        from repro.trees.alphabet import RankedAlphabet

        if self._alpha_upto < len(self.pairs):
            ranks = self._alpha_ranks
            changed = False
            for _, target in self.pairs[self._alpha_upto :]:
                for node in self._path_index(target).values():
                    arity = len(node.children)
                    known = ranks.get(node.label)
                    if known is None:
                        ranks[node.label] = arity
                        changed = True
                    elif known != arity:
                        # Reproduce the reference failure exactly.
                        return RankedAlphabet.from_trees(
                            [t for _, t in self.pairs]
                        )
            self._alpha_upto = len(self.pairs)
            if changed or self._alpha_obj is None:
                self._alpha_obj = RankedAlphabet(ranks)
        if self._alpha_obj is None:
            self._alpha_obj = RankedAlphabet(self._alpha_ranks)
        return self._alpha_obj

    @property
    def stats(self) -> Dict[str, int]:
        """Per-chain counters: builds (always 1 per chain), extends,
        hits/misses/refreshes of the incremental caches."""
        return dict(self._stats)

    def __repr__(self) -> str:
        return (
            f"SampleTables({len(self.pairs)} pairs, "
            f"{len(self._by_path)} paths, "
            f"{self._stats['extends']} extensions)"
        )


def tables_for(sample) -> SampleTables:
    """The shared compiled tables of a Sample (compiled on first use).

    Cached on the sample instance; :meth:`Sample.extended_with` threads
    the cache through extension so a growing sample chain compiles once.
    """
    tables = getattr(sample, "_tables", None)
    if tables is None:
        tables = SampleTables.build(sample.pairs)
        sample._tables = tables
    return tables


class MergeIndex:
    """Signature-bucketed index of RPNI's OK states for one learning run.

    Replaces the border×OK pairwise scan of the mergeability test
    (Definition 30).  OK states are indexed two ways:

    * ``_by_domain``: restricted-domain state → OK states, in promotion
      order, with their (precomputed, warm) residual uid maps.  A state
      with a non-functional residual is never indexed — it disagrees
      with itself and can never be merged into;
    * ``_by_signature``: (domain state, residual signature) → OK state
      index — the exact-residual dict-lookup fast path.  At most one OK
      state per key: two OK states with equal domains and equal residual
      maps would have merged with each other when the second was a
      border state.

    A border lookup first resolves its ``(domain state, signature)``
    bucket — a signature hit accepts that candidate after one C-level
    map-equality check, no entry probing.  The remaining group members
    are screened by probing the *smaller* of the two residual maps
    against the larger with an early exit on the first disagreeing
    input uid — exactly Definition 30's conflict test (both maps are
    functional, and agreement is symmetric), so the candidate list is
    provably the one the pairwise scan produces, in the same promotion
    order.

    The index is valid for a fixed sample (RPNI never grows the sample
    mid-run); build a fresh one per :func:`~repro.learning.rpni.rpni_dtop`
    call — the residual maps themselves live in the (persistent,
    incrementally extended) tables, so rebuilding the index is cheap.
    """

    __slots__ = (
        "_tables",
        "_ok_order",
        "_by_domain",
        "_by_signature",
        "stats",
    )

    def __init__(self, tables: SampleTables):
        self._tables = tables
        self._ok_order: List[PathPair] = []
        self._by_domain: Dict[object, List[Tuple[int, Dict[int, Tree]]]] = {}
        self._by_signature: Dict[Tuple[object, int], int] = {}
        self.stats: Dict[str, int] = {
            "ok_states": 0,
            "ok_indexed": 0,
            "lookups": 0,
            "signature_hits": 0,
            "entries_probed": 0,
        }

    def add_ok(self, p: PathPair, dstate: object) -> None:
        """Index a freshly promoted OK state."""
        index = len(self._ok_order)
        self._ok_order.append(p)
        self.stats["ok_states"] += 1
        uid_map = self._tables.residual_uid_map(p)
        if uid_map is None:
            # Never a merge candidate; kept in _ok_order only so indexes
            # stay aligned with promotion order.
            return
        self.stats["ok_indexed"] += 1
        self._by_domain.setdefault(dstate, []).append((index, uid_map))
        self._by_signature.setdefault(
            (dstate, self._tables.signature(p)), index
        )

    def candidates(self, p: PathPair, dstate: object) -> List[PathPair]:
        """All OK states mergeable with ``p`` (Definition 30), in
        promotion order — identical to the pairwise scan."""
        self.stats["lookups"] += 1
        uid_map = self._tables.residual_uid_map(p)
        if uid_map is None:
            return []
        group = self._by_domain.get(dstate)
        if not group:
            return []
        exact = self._by_signature.get((dstate, self._tables.signature(p)), -1)
        found: List[int] = []
        probes = 0
        for index, ok_map in group:
            if index == exact and ok_map == uid_map:
                # Byte-identical residual (signature bucket + one
                # C-level dict comparison): mergeable with no probing.
                self.stats["signature_hits"] += 1
                _GLOBAL_STATS["signature_hits"] += 1
                found.append(index)
                continue
            small, large = (
                (ok_map, uid_map)
                if len(ok_map) <= len(uid_map)
                else (uid_map, ok_map)
            )
            for in_uid, out in small.items():
                probes += 1
                other = large.get(in_uid)
                if other is not None and other is not out:
                    break  # first disagreeing shared input: not mergeable
            else:
                found.append(index)
        self.stats["entries_probed"] += probes
        order = self._ok_order
        return [order[i] for i in found]
