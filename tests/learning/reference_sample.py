"""The interpreted learning substrate, kept as a test reference.

``src/`` learns on one substrate: the compiled sample tables and the
signature-bucketed merge index of :mod:`repro.engine.sample_tables`.
This module keeps the interpreted one they replaced: direct
transcriptions of the paper's definitions on a finite sample
(:class:`ReferenceSample`), the pairwise mergeability test of
Definition 30 (:func:`mergeable`), and the round-based Kleene sweep of
the earliest normal form's ``out`` table (:func:`out_table_reference`).

:func:`rpni_reference` runs the learner's own loop
(``repro.learning.rpni._learn``) on the interpreted substrate, with a
fresh memo dict per call and the pairwise merge scan, so the learning
tests and the fuzz harness can diff :func:`~repro.learning.rpni.rpni_dtop`
against it: states, rules, trace and errors.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.automata.dtta import DTTA
from repro.automata.ops import canonical_form, minimal_witness_trees
from repro.engine.sample_tables import path_index
from repro.learning.rpni import LearnedDTOP, _learn
from repro.learning.sample import Sample
from repro.transducers.domain import effective_domain
from repro.transducers.dtop import DTOP
from repro.transducers.earliest import reachable_pairs
from repro.transducers.rhs import Call
from repro.trees.alphabet import RankedAlphabet
from repro.trees.lcp import BOTTOM_SYMBOL, lcp_many
from repro.trees.paths import Path
from repro.trees.tree import Tree

PathPair = Tuple[Path, Path]


class ReferenceSample(Sample):
    """A sample with the paper's semantic operations, computed directly.

    Every query is memoized per sample; :attr:`stats` counts the hits
    and misses.  As a learning substrate it also answers
    :meth:`output_alphabet` and hands out a fresh :attr:`memos` dict on
    every access, so nothing is shared between learning runs.
    """

    def __init__(self, pairs: Iterable[Tuple[Tree, Tree]]):
        super().__init__(pairs)
        self._out_cache: Dict[Path, Optional[Tree]] = {}
        self._residual_cache: Dict[PathPair, Tuple[Tuple[Tree, Tree], ...]] = {}
        self._residual_map_cache: Dict[PathPair, Optional[Dict[int, Tree]]] = {}
        self._io_path_cache: Dict[PathPair, bool] = {}
        self._path_index_cache: Dict[int, Dict[Path, Tree]] = {}
        # Labeled path → the pairs whose input contains it, with the
        # subtree at the path; built in one pass on first use.
        self._by_input_path: Optional[
            Dict[Path, List[Tuple[Tree, Tree, Tree]]]
        ] = None
        self._stats: Dict[str, int] = {"hits": 0, "misses": 0}

    @property
    def memos(self) -> Dict[str, Dict]:
        return {}

    @property
    def stats(self) -> Dict[str, int]:
        return dict(self._stats)

    def output_alphabet(self) -> RankedAlphabet:
        return RankedAlphabet.from_trees([t for _, t in self.pairs])

    def _path_index(self, root: Tree) -> Dict[Path, Tree]:
        index = self._path_index_cache.get(root.uid)
        if index is None:
            index = self._path_index_cache[root.uid] = path_index(root)
        return index

    def _inputs_index(self) -> Dict[Path, List[Tuple[Tree, Tree, Tree]]]:
        """``u → [(s, t, u⁻¹s), …]`` over all pairs whose input has ``u``."""
        index = self._by_input_path
        if index is None:
            index = {}
            for s, t in self.pairs:
                for path, sub in self._path_index(s).items():
                    index.setdefault(path, []).append((s, t, sub))
            self._by_input_path = index
        return index

    def inputs_containing(self, u: Path) -> List[Tuple[Tree, Tree]]:
        """All sample pairs whose input contains the labeled path ``u``."""
        return [(s, t) for s, t, _ in self._inputs_index().get(u, ())]

    def out(self, u: Path) -> Optional[Tree]:
        """``out_S(u) = ⊔ {S(s) | u =| s}`` — ``None`` when no input has ``u``.

        Over a ranked alphabet a tree contains ``u·(f,i)`` iff it has an
        ``f``-labeled node at ``u``, so every child index ``i`` shares
        one :meth:`out_npath` computation when all pairs with an
        ``f``-node at ``u`` contain the queried index.
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
                result = self.out_npath(prefix, symbol)
            else:
                result = lcp_many(t for _, t, _ in entries)
        cache[u] = result
        return result

    def out_npath(self, u: Path, symbol: object) -> Optional[Tree]:
        """``out_S(u·f)`` for the node-path ``u·f``."""
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
        """Definition 5: ``p⁻¹S = {(u⁻¹s, v⁻¹t) | (s,t) ∈ S, u =| s, v =| t}``,
        deduplicated on interned node uids."""
        cached = self._residual_cache.get(p)
        if cached is not None:
            self._stats["hits"] += 1
            return cached
        self._stats["misses"] += 1
        u, v = p
        items: List[Tuple[Tree, Tree]] = []
        seen: set = set()
        for _, t, sub_in in self._inputs_index().get(u, ()):
            sub_out = self._path_index(t).get(v)
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
        """``p⁻¹S`` keyed by input-subtree uid, or ``None`` if not functional."""
        if p in self._residual_map_cache:
            self._stats["hits"] += 1
            return self._residual_map_cache[p]
        self._stats["misses"] += 1
        u, v = p
        outputs: Optional[Dict[int, Tree]] = {}
        for _, t, sub_in in self._inputs_index().get(u, ()):
            sub_out = self._path_index(t).get(v)
            if sub_out is None:
                continue
            if outputs.setdefault(sub_in.uid, sub_out) is not sub_out:
                outputs = None
                break
        self._residual_map_cache[p] = outputs
        return outputs

    def residual_map(self, p: PathPair) -> Optional[Dict[Tree, Tree]]:
        """``p⁻¹S`` as a tree-keyed mapping, or ``None`` if not functional."""
        outputs: Dict[Tree, Tree] = {}
        for sub_in, sub_out in self.residual(p):
            if outputs.setdefault(sub_in, sub_out) is not sub_out:
                return None
        return outputs

    def is_io_path(self, p: PathPair) -> bool:
        """Definition 10 on the sample: ``out_S(u)[v] = ⊥`` and functionality."""
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
        current = self.out(u)
        if current is None:
            return False
        for label, index in v:
            if current.label != label or not 1 <= index <= len(current.children):
                return False
            current = current.children[index - 1]
        if current.label is not BOTTOM_SYMBOL:
            return False
        return self.residual_functional(p)


def same_restricted_domain(domain: DTTA, u1: Path, u2: Path) -> bool:
    """``u1⁻¹(L(A)) = u2⁻¹(L(A))`` on a minimized, trimmed DTTA, where
    equal restricted domains are equal states."""
    return domain.state_at_path(u1) == domain.state_at_path(u2)


def mergeable(
    sample: ReferenceSample, domain: DTTA, p1: PathPair, p2: PathPair
) -> bool:
    """Definition 30: are ``p1`` and ``p2`` mergeable w.r.t. ``S`` and ``D``?

    ``domain`` must be minimized (see
    :func:`repro.automata.ops.canonical_form`).
    """
    if not same_restricted_domain(domain, p1[0], p2[0]):
        return False
    map1 = sample.residual_uid_map(p1)
    map2 = sample.residual_uid_map(p2)
    if map1 is None or map2 is None:
        # A non-functional residual disagrees with itself on some input.
        return False
    for sub_in_uid, sub_out in map1.items():
        other = map2.get(sub_in_uid)
        if other is not None and other is not sub_out:
            return False
    return True


class PairwiseMerges:
    """The merge-candidate index as a scan: every OK state is tested
    against the border state with :func:`mergeable`, in promotion order."""

    def __init__(self, sample: ReferenceSample, domain: DTTA):
        self._sample = sample
        self._domain = domain
        self._ok: List[PathPair] = []
        self.stats: Dict[str, int] = {"scan_probes": 0}

    def add_ok(self, p: PathPair, dstate: object) -> None:
        self._ok.append(p)

    def candidates(self, p: PathPair, dstate: object) -> List[PathPair]:
        self.stats["scan_probes"] += len(self._ok)
        return [q for q in self._ok if mergeable(self._sample, self._domain, p, q)]


def rpni_reference(sample: Sample, domain: DTTA) -> LearnedDTOP:
    """``rpni_dtop`` on the interpreted substrate and the pairwise scan."""
    reference = ReferenceSample(sample.pairs)
    return _learn(
        reference,
        domain,
        reference,
        PairwiseMerges(reference, canonical_form(domain)),
    )


def out_table_reference(transducer: DTOP, domain: Optional[DTTA] = None):
    """The round-based Kleene iteration of ``out(q, d)``, uncompiled: the
    reference for :func:`repro.transducers.earliest.out_table`.

    Recursive :func:`subst_calls` substitution, full sweeps until
    stabilization, interpreter-evaluated seeds.
    """
    if domain is None:
        domain = effective_domain(transducer)
    pairs = reachable_pairs(transducer, domain)
    witnesses = minimal_witness_trees(domain)
    table = {(q, d): transducer.eval_state(q, witnesses[d]) for q, d in pairs}
    changed = True
    while changed:
        changed = False
        for q, d in pairs:
            candidates = [table[(q, d)]]
            for symbol in domain.allowed_symbols(d):
                children = domain.transitions[(d, symbol)]
                rhs = transducer.rules[(q, symbol)]
                candidates.append(subst_calls(rhs, children, table))
            updated = lcp_many(candidates)
            if updated is not table[(q, d)]:
                table[(q, d)] = updated
                changed = True
    return table


def subst_calls(rhs: Tree, children, table) -> Tree:
    """Replace every ``⟨q', x_i⟩`` in ``rhs`` by ``out(q', d_i)``."""
    label = rhs.label
    if isinstance(label, Call):
        return table[(label.state, children[label.var - 1])]
    if rhs.is_leaf:
        return rhs
    return Tree(label, tuple(subst_calls(c, children, table) for c in rhs.children))
