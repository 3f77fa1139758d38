"""The learning algorithm ``RPNI_dtop`` (Figure 1 of the paper).

Input: a sample ``S`` and a DTTA ``A`` with ``L(A) = dom(τ)`` for some
top-down partial function ``τ`` of finite index, such that ``S`` is a
characteristic sample for ``τ`` (Definition 31) — or any superset of one.
Output: the unique minimal earliest compatible transducer ``min(τ)``
(Theorem 38), with states named by the io-paths that reach them.

The implementation follows Figure 1: border states (io-paths of ``S``
appearing as call targets) are processed in the total order ``<``; each
is merged with the unique mergeable OK state if one exists, and promoted
to an OK state otherwise, which materializes its rules from
``out_S(u·f)`` and the residual-functionality alignment of Lemma 23.
Failures raise :class:`~repro.errors.InsufficientSampleError` with a
description of the missing evidence, rather than guessing.

Performance: the learner runs on the compiled sample tables of
:mod:`repro.engine.sample_tables` — flat uid-keyed indexes with
precomputed residual signatures — and replaces the quadratic border×OK
merge scan with :class:`~repro.engine.MergeIndex` lookups driven by the
border state's own residual entries.  Rule materialization and final
assembly memoize on interned-node uids in memos that live on the
sample's tables lineage (:attr:`~repro.engine.SampleTables.memos`):
re-learning from an extended sample (the active learner's round loop)
re-derives only what the new pairs changed, and the memos are released
with the samples.  :attr:`LearnedDTOP.stats` records the run's timing
and cache counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from repro.automata.dtta import DTTA
from repro.automata.ops import canonical_form
from repro.engine import MergeIndex, automaton_engine_for, tables_for
from repro.errors import InconsistentSampleError, InsufficientSampleError
from repro.trees.lcp import BOTTOM_SYMBOL
from repro.trees.paths import Path, pair_order_key
from repro.trees.tree import Tree
from repro.transducers.dtop import DTOP
from repro.transducers.minimize import _document_order_rename
from repro.transducers.rhs import Call, StateName
from repro.learning.sample import Sample

PathPair = Tuple[Path, Path]


@dataclass
class LearnedDTOP:
    """Result of :func:`rpni_dtop`.

    ``dtop`` has human-friendly state names ``q0, q1, …``;
    ``state_paths`` maps each of them back to the (least) io-path that
    denotes the state — the paper's *state-io-paths*; ``trace`` records
    the promote/merge decisions in order, for inspection and for
    reproducing the narrative of Example 7; ``stats`` carries the run's
    timing and cache counters (sample tables, merge index) for the
    ``--stats`` CLI flag and the benchmarks.
    """

    dtop: DTOP
    domain: DTTA
    state_paths: Dict[StateName, PathPair]
    trace: List[str] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def num_states(self) -> int:
        return len(self.dtop.states)


def _subtree_at_labeled(root: Tree, v: Path) -> Optional[Tree]:
    current = root
    for label, index in v:
        if current.label != label or not 1 <= index <= len(current.children):
            return None
        current = current.children[index - 1]
    return current


def _bottoms_with_paths(
    node: Tree, memo: Dict[int, List]
) -> List[Tuple[Path, Tuple[int, ...]]]:
    """All ``⊥`` leaves as (labeled path, Dewey address), document order;
    ``memo`` maps tree uids to results."""
    cached = memo.get(node.uid)
    if cached is not None:
        return cached
    found: List[Tuple[Path, Tuple[int, ...]]] = []

    def visit(current: Tree, lpath: Path, dewey: Tuple[int, ...]) -> None:
        if current.label is BOTTOM_SYMBOL:
            found.append((lpath, dewey))
            return
        for i, child in enumerate(current.children, start=1):
            visit(child, lpath + ((current.label, i),), dewey + (i,))

    visit(node, (), ())
    memo[node.uid] = found
    return found


def _tree_with_calls(
    node: Tree,
    calls: Dict[Tuple[int, ...], Tree],
    memo: Dict[Tuple, Tree],
) -> Tree:
    """Replace the ``⊥`` leaves at the given Dewey addresses by call trees."""
    # Call trees are interned, so their uid determines (target, var).
    key = (node.uid, tuple(sorted((d, c.uid) for d, c in calls.items())))
    cached = memo.get(key)
    if cached is not None:
        return cached

    def visit(current: Tree, dewey: Tuple[int, ...]) -> Tree:
        if dewey in calls:
            return calls[dewey]
        if current.is_leaf:
            return current
        return Tree(
            current.label,
            tuple(
                visit(child, dewey + (i,))
                for i, child in enumerate(current.children, start=1)
            ),
        )

    result = visit(node, ())
    memo[key] = result
    return result


def rpni_dtop(sample: Sample, domain: DTTA) -> LearnedDTOP:
    """Learn ``min(τ)`` from a characteristic sample and the domain DTTA.

    Runs in time polynomial in ``|S|`` (Theorem 38).  The ``domain``
    automaton may be any DTTA for ``dom(τ)``; it is canonicalized
    internally so that equal restricted domains become equal states.
    """
    tables = tables_for(sample)
    return _learn(sample, domain, tables, MergeIndex(tables))


def _learn(sample: Sample, domain: DTTA, ops, merges) -> LearnedDTOP:
    """The body of :func:`rpni_dtop` on a given substrate.

    ``ops`` answers the sample queries (``out``, ``out_npath``,
    ``is_io_path``, ``output_alphabet()``) and carries ``memos`` and
    ``stats``; ``merges`` indexes the OK states (``add_ok``,
    ``candidates``, ``stats``).  :func:`rpni_dtop` passes the compiled
    tables and a :class:`~repro.engine.MergeIndex`; the parameters exist
    so that the differential tests can run the same loop on an
    interpreted reference substrate.
    """
    total_start = perf_counter()
    if not len(sample):
        raise InsufficientSampleError("the sample is empty")
    domain = canonical_form(domain)
    # One compiled batch sweep validates every sample input (shared
    # subtrees are checked once; deep inputs don't hit recursion limits).
    validate_start = perf_counter()
    sources = [source for source, _target in sample]
    for source, accepted in zip(
        sources, automaton_engine_for(domain).accepts_batch(sources)
    ):
        if not accepted:
            raise InconsistentSampleError(
                f"sample input {source} is outside the domain language"
            )
    validate_elapsed = perf_counter() - validate_start

    # Memos of pure functions of interned uids; the compiled tables keep
    # them on their lineage, so re-learning from an extension reuses them.
    memos = ops.memos
    bottoms_memo = memos.setdefault("bottoms", {})
    calls_memo = memos.setdefault("calls", {})

    out_axiom = ops.out(())
    assert out_axiom is not None  # sample is non-empty
    trace: List[str] = []

    ok: List[PathPair] = []
    mu: Dict[PathPair, PathPair] = {}
    border: Set[PathPair] = set()
    # Rules keyed by the OK state's io-path; call targets are raw io-paths
    # of S, resolved through ``mu`` at the end (the paper rebuilds
    # M(p0, µ, S) each round; resolving late is equivalent).
    raw_rules: Dict[Tuple[PathPair, str], Tree] = {}

    def make_call_tree(target: PathPair, var: int) -> Tree:
        return Tree(Call(target, var), ())

    # Axiom: out_S(ε) with a border state per ⊥ (Definition 35 / Qborder).
    axiom_calls: Dict[Tuple[int, ...], Tree] = {}
    for lpath, dewey in _bottoms_with_paths(out_axiom, bottoms_memo):
        target: PathPair = ((), lpath)
        axiom_calls[dewey] = make_call_tree(target, 0)
        border.add(target)
    raw_axiom = _tree_with_calls(out_axiom, axiom_calls, calls_memo)

    def build_rules_for(p: PathPair) -> None:
        """Materialize all rules of the freshly promoted OK state ``p``."""
        u, v = p
        dstate = domain.state_at_path(u)
        if dstate is None:
            raise InconsistentSampleError(
                f"io-path input {u} is not consistent with the domain"
            )
        for symbol in domain.allowed_symbols(dstate):
            rank = domain.alphabet.rank(symbol)
            out_uf = ops.out_npath(u, symbol)
            if out_uf is None:
                raise InsufficientSampleError(
                    f"no sample input contains the node-path {u}·{symbol}; "
                    f"condition (T) of a characteristic sample is violated",
                    kind="missing-path",
                    u=u,
                    symbol=symbol,
                )
            sub = _subtree_at_labeled(out_uf, v)
            if sub is None:
                raise InsufficientSampleError(
                    f"out_S({u}·{symbol}) does not extend to output path {v}",
                    kind="missing-path",
                    u=u,
                    symbol=symbol,
                    v=v,
                )
            calls: Dict[Tuple[int, ...], Tree] = {}
            for rel_lpath, dewey in _bottoms_with_paths(sub, bottoms_memo):
                full_v = v + rel_lpath
                candidates = [
                    i
                    for i in range(1, rank + 1)
                    if ops.is_io_path((u + ((symbol, i),), full_v))
                ]
                if not candidates:
                    raise InsufficientSampleError(
                        f"no variable alignment for ({u}·{symbol}, {full_v}): "
                        f"condition (O) of a characteristic sample is violated",
                        kind="alignment",
                        u=u,
                        symbol=symbol,
                        v=full_v,
                    )
                if len(candidates) > 1:
                    raise InsufficientSampleError(
                        f"ambiguous variable alignment {candidates} for "
                        f"({u}·{symbol}, {full_v}); more examples are needed",
                        kind="alignment",
                        u=u,
                        symbol=symbol,
                        v=full_v,
                        candidates=candidates,
                    )
            # Second pass so the error cases above fire before mutation.
            for rel_lpath, dewey in _bottoms_with_paths(sub, bottoms_memo):
                full_v = v + rel_lpath
                i = next(
                    i
                    for i in range(1, rank + 1)
                    if ops.is_io_path((u + ((symbol, i),), full_v))
                )
                target = (u + ((symbol, i),), full_v)
                calls[dewey] = make_call_tree(target, i)
                if target not in border and target not in mu and target not in ok:
                    border.add(target)
            raw_rules[(p, symbol)] = _tree_with_calls(sub, calls, calls_memo)

    order_keys: Dict[PathPair, object] = {}

    def border_key(q: PathPair) -> object:
        key = order_keys.get(q)
        if key is None:
            key = pair_order_key(q)
            order_keys[q] = key
        return key

    loop_start = perf_counter()
    while border:
        p = min(border, key=border_key)
        border.remove(p)
        candidates = merges.candidates(p, domain.state_at_path(p[0]))
        if len(candidates) > 1:
            raise InsufficientSampleError(
                f"border state {p} is mergeable with {len(candidates)} OK "
                f"states; condition (N) of a characteristic sample is violated",
                kind="merge-ambiguity",
                u=p[0],
                v=p[1],
                candidates=candidates,
            )
        if candidates:
            mu[p] = candidates[0]
            trace.append(f"merge {p} into {candidates[0]}")
        else:
            ok.append(p)
            trace.append(f"promote {p}")
            build_rules_for(p)
            merges.add_ok(p, domain.state_at_path(p[0]))
    loop_elapsed = perf_counter() - loop_start

    def resolve(target: PathPair) -> PathPair:
        while target in mu:
            target = mu[target]
        return target

    def resolve_tree(node: Tree) -> Tree:
        if isinstance(node.label, Call):
            return Tree(Call(resolve(node.label.state), node.label.var), ())
        if node.is_leaf:
            return node
        return Tree(node.label, tuple(resolve_tree(c) for c in node.children))

    output_alphabet = ops.output_alphabet()
    # Final assembly: resolving µ, constructing (and re-validating) the
    # DTOP, and the document-order rename depend only on the raw
    # artifacts — all interned — so a re-learning round that derived the
    # identical machine is a single dict hit.
    results = memos.setdefault("results", {})
    result_key = (
        domain,
        output_alphabet,
        raw_axiom.uid,
        tuple((p, f, rhs.uid) for (p, f), rhs in raw_rules.items()),
        tuple(mu.items()),
    )
    cached_result = results.get(result_key)
    if cached_result is not None:
        renamed, order = cached_result
    else:
        raw = DTOP(
            domain.alphabet,
            output_alphabet,
            resolve_tree(raw_axiom),
            {key: resolve_tree(rhs) for key, rhs in raw_rules.items()},
        )
        renamed, order = _document_order_rename(raw)
        results[result_key] = (renamed, order)
    state_paths = {order[p]: p for p in ok if p in order}
    stats: Dict[str, object] = {
        "total_s": perf_counter() - total_start,
        "validate_s": validate_elapsed,
        "loop_s": loop_elapsed,
        "ok_states": len(ok),
        "merges": len(mu),
        "sample": sample.cache_stats(),
        "merge_index": merges.stats,
        "tables": ops.stats,
    }
    return LearnedDTOP(renamed, domain, state_paths, trace, stats)
