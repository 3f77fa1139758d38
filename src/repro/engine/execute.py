"""Iterative batch execution over compiled machines.

:class:`Engine` evaluates a compiled DTOP over a *forest* of inputs in
one pass, exploiting the global hash-consing of
:class:`~repro.trees.tree.Tree`:

1. **Demand pass** (iterative worklist): starting from the axiom's calls
   on every root, collect the ``(state_id, subtree)`` pairs the run
   actually needs, following the precompiled call sites of each rule.
   Pairs already present in the persistent memo are not revisited, and a
   subtree shared between batch members is demanded once.
2. **Sweep pass** (topological): sort the demanded pairs by subtree
   height — children are strictly lower than their parents, so replaying
   each pair's instruction template with an operand stack finds every
   call answer already computed.  Undefinedness (a -1 dispatch slot)
   becomes a recorded failure that propagates upward through the first
   failing call site in document order, reproducing the interpreter's
   error exactly.
3. **Axiom pass**: instantiate the axiom template per root; roots whose
   demanded pairs failed yield their recorded error instead of a tree.

No step recurses, so input depth is bounded by memory, not by the
Python stack.  Results are memoized on ``(state_id, uid)`` across calls
— the one persistent run memo, shared by every entry point of the
engine (batch runs, single runs, stopped-run off-path translations).

The engine also holds the machine's value provenance memo
(:mod:`repro.engine.provenance`, entry point :meth:`Engine.slot_sources`).
Both memos are bounded together by :data:`MEMO_LIMIT` entries, in every
process: at a batch boundary — before a sweep's demand pass, after a
provenance call, never between a sweep and the replay that reads it —
memos past the limit are cleared wholesale and
``cache_stats["evictions"]`` counts it.  A clear is
always sound (uids are never reused and the memo is a pure cache), so a
stream of distinct documents runs on a flat heap while any working set
below the limit stays warm.  Each engine serializes its entry points
on its own lock, so an eviction never lands between one thread's sweep
and the replay that reads it (the server's batcher already serializes
dispatches per model, so the lock is uncontended there).

:class:`AutomatonEngine` is the analogous one-sweep membership checker
for compiled DTTAs: one bottom-up pass computes, per distinct subtree, a
bitmask of all automaton states that accept it.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import UndefinedTransductionError
from repro.trees.tree import Tree
from repro.transducers.rhs import StateName

from repro.engine.profile import clear_profile, new_profile, profile_snapshot
from repro.engine.provenance import SlotMaps
from repro.engine.compile import (
    OP_CALL,
    OP_CONST,
    CompiledDTOP,
    CompiledDTTA,
    compile_dtop,
    compile_dtta,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.automata.dtta import DTTA
    from repro.transducers.dtop import DTOP

PairKey = Tuple[int, int]  # (state_id, tree uid)
Outcome = Union[Tree, UndefinedTransductionError]

#: Bound on an engine's memoized ``(state, subtree)`` pairs, run and
#: slot-map, plus the subtrees they key and the input slot counts.  The
#: memo holds strong references to every subtree it keys and every
#: output it built, so unbounded distinct traffic would otherwise grow
#: the heap (and the cost of every full collection) without limit.
#: Measured warm working sets sit far below it: at most 622 pairs per
#: served stock model, 8,214 for the 24-state validator forest of E15.
MEMO_LIMIT = 1 << 14


def serialized(method):
    """Run an engine entry point under the engine's ``_lock``.

    Sweeps, replays and evictions of one engine then never interleave
    across threads; the hot loops inside stay lock-free.
    """

    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return locked


class Engine:
    """Iterative batch executor for one compiled DTOP.

    Holds the ``(state_id, uid) → Tree`` memo and the slot-map memo,
    bounded together by :data:`MEMO_LIMIT`; failures are never cached
    (matching the interpreter).  Obtain the per-transducer shared
    instance with :func:`engine_for`.
    """

    __slots__ = (
        "compiled",
        "_memo",
        "_pins",
        "_slot_maps",
        "_slot_fills",
        "_stats",
        "_profile",
        "_lock",
    )

    def __init__(self, compiled: CompiledDTOP):
        self.compiled = compiled
        self._memo: Dict[PairKey, Tree] = {}
        # uid → keyed subtree, kept alive (and counted toward MEMO_LIMIT)
        # so that a document encoded again gets the same uids and hits.
        self._pins: Dict[int, Tree] = {}
        # value labels → the provenance memo (:mod:`repro.engine.provenance`).
        self._slot_maps: Dict[Tuple, SlotMaps] = {}
        self._slot_fills = 0
        self._stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "batches": 0, "evictions": 0
        }
        self._profile = new_profile(len(compiled.rule_templates))
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Core sweep
    # ------------------------------------------------------------------

    def _sweep(
        self, seeds: Sequence[Tuple[int, Tree]]
    ) -> Dict[PairKey, UndefinedTransductionError]:
        """Demand and evaluate every pair reachable from the seed pairs.

        On return, each demanded pair is either in the persistent memo or
        in the returned failure map (carrying the same error the
        interpreter would raise from that pair).
        """
        self._bound_memo()
        compiled = self.compiled
        memo = self._memo
        pins = self._pins
        stats = self._stats
        stats["batches"] += 1
        hits = 0
        misses = 0
        rule_of = compiled.rule_of
        rule_calls = compiled.rule_calls
        num_symbols = compiled.num_symbols
        symbol_ids = compiled.symbol_ids

        # Demand pass: every (state, subtree) pair the run needs.
        demanded: Dict[PairKey, Tuple[int, Tree]] = {}
        stack: List[Tuple[int, Tree]] = []
        for state_id, node in seeds:
            key = (state_id, node.uid)
            if key in memo:
                hits += 1
            elif key not in demanded:
                demanded[key] = (state_id, node)
                stack.append((state_id, node))
        while stack:
            state_id, node = stack.pop()
            symbol_id = symbol_ids.get(node.label)
            if symbol_id is None:
                continue  # undefined here; recorded in the sweep pass
            rule = rule_of[state_id * num_symbols + symbol_id]
            if rule < 0:
                continue
            children = node.children
            for called_id, var in rule_calls[rule]:
                child = children[var - 1]
                key = (called_id, child.uid)
                if key in memo:
                    hits += 1
                elif key not in demanded:
                    demanded[key] = (called_id, child)
                    stack.append((called_id, child))

        # Sweep pass: children strictly before parents (height order).
        # The profiler rides this loop: one per-rule counter bump per
        # evaluation, and a clock read only at height-level boundaries
        # (the order is height-sorted, so levels are contiguous runs).
        failed: Dict[PairKey, UndefinedTransductionError] = {}
        order = sorted(demanded.values(), key=lambda pair: pair[1].height)
        profile = self._profile
        profile["sweeps"] += 1
        rule_hits = profile["rule_hits"]
        height_pairs = profile["height_pairs"]
        height_seconds = profile["height_seconds"]
        clock = time.perf_counter
        level_height = -1
        level_start = 0
        sweep_began = level_began = clock()
        for index, (state_id, node) in enumerate(order):
            height = node.height
            if height != level_height:
                now = clock()
                if index > level_start:
                    height_pairs[level_height] = (
                        height_pairs.get(level_height, 0) + index - level_start
                    )
                    height_seconds[level_height] = (
                        height_seconds.get(level_height, 0.0) + now - level_began
                    )
                level_height = height
                level_start = index
                level_began = now
            symbol_id = symbol_ids.get(node.label)
            rule = (
                rule_of[state_id * num_symbols + symbol_id]
                if symbol_id is not None
                else -1
            )
            key = (state_id, node.uid)
            if rule < 0:
                failed[key] = UndefinedTransductionError(
                    f"no rule for state {compiled.state_names[state_id]!r} "
                    f"on symbol {node.label!r}"
                )
                continue
            children = node.children
            error: Optional[UndefinedTransductionError] = None
            for called_id, var in rule_calls[rule]:
                error = failed.get((called_id, children[var - 1].uid))
                if error is not None:
                    break
            if error is not None:
                failed[key] = error
                continue
            memo[key] = self._replay(
                compiled.rule_templates[rule], node, children
            )
            pins[node.uid] = node
            rule_hits[rule] += 1
            misses += 1
        now = clock()
        if order and len(order) > level_start:
            height_pairs[level_height] = (
                height_pairs.get(level_height, 0) + len(order) - level_start
            )
            height_seconds[level_height] = (
                height_seconds.get(level_height, 0.0) + now - level_began
            )
        profile["sweep_seconds"] += now - sweep_began
        stats["hits"] += hits
        stats["misses"] += misses
        return failed

    def _replay(
        self, template: Sequence[Tuple], root: Tree, children: Tuple[Tree, ...]
    ) -> Tree:
        """Run one postorder instruction template with an operand stack.

        ``children`` are the input node's subtrees for 1-based call
        variables; variable 0 (axiom templates) resolves to ``root``.
        """
        memo = self._memo
        operands: List[Tree] = []
        push = operands.append
        for instruction in template:
            opcode = instruction[0]
            if opcode == OP_CONST:
                push(instruction[1])
            elif opcode == OP_CALL:
                target = children[instruction[2] - 1] if instruction[2] else root
                push(memo[(instruction[1], target.uid)])
            else:  # OP_MAKE
                arity = instruction[2]
                if arity:
                    made = Tree(instruction[1], tuple(operands[-arity:]))
                    del operands[-arity:]
                else:
                    made = Tree(instruction[1], ())
                push(made)
        return operands[-1]

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    @serialized
    def run_batch_outcomes(self, trees: Sequence[Tree]) -> List[Outcome]:
        """Translate a forest; per-input outcome, never raises.

        Each entry is the output :class:`Tree`, or the
        :class:`UndefinedTransductionError` that input would raise under
        the interpreter.  Shared subtrees across the forest are
        translated exactly once.
        """
        roots = list(trees)
        axiom_calls = self.compiled.axiom_calls
        failed = self._sweep(
            [(state_id, root) for root in roots for state_id, _var in axiom_calls]
        )
        outcomes: List[Outcome] = []
        for root in roots:
            error: Optional[UndefinedTransductionError] = None
            for state_id, _var in axiom_calls:
                error = failed.get((state_id, root.uid))
                if error is not None:
                    break
            if error is not None:
                outcomes.append(error)
            else:
                outcomes.append(
                    self._replay(self.compiled.axiom_template, root, root.children)
                )
        return outcomes

    def run_batch(self, trees: Sequence[Tree]) -> List[Tree]:
        """Translate a forest in one sweep; all-or-nothing.

        Raises the first input's :class:`UndefinedTransductionError` (in
        input order) when any input lies outside the domain — the same
        error :meth:`run` would raise for that input.
        """
        outcomes = self.run_batch_outcomes(trees)
        for outcome in outcomes:
            if isinstance(outcome, UndefinedTransductionError):
                raise outcome
        return outcomes  # type: ignore[return-value]

    def try_run_batch(self, trees: Sequence[Tree]) -> List[Optional[Tree]]:
        """Like :meth:`run_batch` but ``None`` marks undefined inputs."""
        return [
            None if isinstance(outcome, UndefinedTransductionError) else outcome
            for outcome in self.run_batch_outcomes(trees)
        ]

    def run(self, tree: Tree) -> Tree:
        """``[[M]](s)`` without recursion; raises when undefined."""
        return self.run_batch([tree])[0]

    def try_run(self, tree: Tree) -> Optional[Tree]:
        """``[[M]](s)`` or ``None`` when outside the domain."""
        return self.try_run_batch([tree])[0]

    @serialized
    def eval_state(self, state: StateName, tree: Tree) -> Tree:
        """``[[M]]_q(s)`` iteratively — drop-in for :meth:`DTOP.eval_state`."""
        state_id = self.compiled.state_ids.get(state)
        if state_id is None:
            raise UndefinedTransductionError(
                f"no rule for state {state!r} on symbol {tree.label!r}"
            )
        key = (state_id, tree.uid)
        cached = self._memo.get(key)
        if cached is not None:
            self._stats["hits"] += 1
            return cached
        failed = self._sweep([(state_id, tree)])
        error = failed.get(key)
        if error is not None:
            raise error
        return self._memo[key]

    @serialized
    def slot_sources(self, source: Tree, labels: Tuple) -> Dict[int, int]:
        """«output slot ordinal → input slot ordinal» for ``[[M]](source)``.

        A value slot is a node labelled in ``labels``, on either side;
        an output slot copies the input slot its rule was reading.  The
        maps are memoized per ``(state, subtree)`` for this machine and
        ``labels`` (:mod:`repro.engine.provenance`); :attr:`slot_stats`
        counts the pairs filled.  Raises
        :class:`UndefinedTransductionError` outside the domain.  The
        memo bound is checked here too, because a sharded machine's
        engine decodes in this process but never sweeps in it.
        """
        maps = self._slot_maps.get(labels)
        if maps is None:
            maps = self._slot_maps[labels] = SlotMaps(self.compiled, labels)
        sources, fills = maps.sources(source, self._pins)
        self._slot_fills += fills
        self._bound_memo()
        return sources

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------

    def memo_size(self) -> int:
        """Number of memoized run pairs."""
        return len(self._memo)

    def _slot_entries(self) -> int:
        return sum(len(maps.entries) for maps in self._slot_maps.values())

    def _bound_memo(self) -> None:
        """Batch-boundary eviction: clear the memos past :data:`MEMO_LIMIT`.

        The run pairs, their pinned subtrees and the slot-map entries
        count together and are cleared together.  Unlike
        :meth:`clear_cache` the cumulative counters survive (hit ratios
        are computed from their deltas); ``evictions`` counts the clears.
        """
        if len(self._memo) + len(self._pins) + self._slot_entries() > MEMO_LIMIT:
            self._clear_memos()
            self._stats["evictions"] += 1

    def _clear_memos(self) -> None:
        self._memo.clear()
        self._pins.clear()
        for maps in self._slot_maps.values():
            maps.entries.clear()

    @property
    def cache_stats(self) -> Dict[str, int]:
        """Counters: ``hits``, ``misses`` (pair evaluations), ``batches``,
        ``evictions`` (memo clears at :data:`MEMO_LIMIT`) and ``entries``."""
        return {**self._stats, "entries": len(self._memo)}

    @property
    def slot_stats(self) -> Dict[str, int]:
        """The slot-map memo: ``fills`` (pairs filled, cumulative) and
        ``entries`` (pair maps and input slot counts held)."""
        return {"fills": self._slot_fills, "entries": self._slot_entries()}

    @serialized
    def clear_cache(self) -> None:
        """Drop the memos and zero the counters (explicit invalidation)."""
        self._clear_memos()
        self._slot_fills = 0
        for counter in self._stats:
            self._stats[counter] = 0

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------

    def profile_snapshot(self) -> Dict[str, object]:
        """Per-rule hit counts and per-height sweep timings.

        See :func:`repro.engine.profile.profile_snapshot` for the shape;
        counters accumulate across batches until :meth:`clear_profile`.
        """
        return profile_snapshot(self.compiled, self._profile)

    def clear_profile(self) -> None:
        """Zero the profiler (the memo and cache stats are untouched)."""
        clear_profile(self._profile)

    def __reduce__(self):
        # The memo, counters and lock are caches: a pickled or
        # deep-copied machine rebuilds its engine from the tables alone.
        return (Engine, (self.compiled,))


class AutomatonEngine:
    """One-sweep batch membership for a compiled DTTA.

    Per distinct subtree the sweep computes an integer bitmask of *all*
    automaton states accepting it, memoized persistently on the tree uid
    — so overlapping batches and repeated queries cost one visit per new
    distinct subtree, with no recursion.
    """

    __slots__ = ("compiled", "_masks")

    def __init__(self, compiled: CompiledDTTA):
        self.compiled = compiled
        self._masks: Dict[int, int] = {}

    def _sweep(self, roots: Sequence[Tree]) -> None:
        masks = self._masks
        compiled = self.compiled
        symbol_ids = compiled.symbol_ids
        by_symbol = compiled.by_symbol
        # Collect new distinct subtrees, then fold bottom-up by height.
        fresh: Dict[int, Tree] = {}
        stack: List[Tree] = [root for root in roots if root.uid not in masks]
        while stack:
            node = stack.pop()
            if node.uid in fresh:
                continue
            fresh[node.uid] = node
            for child in node.children:
                if child.uid not in masks and child.uid not in fresh:
                    stack.append(child)
        for node in sorted(fresh.values(), key=lambda n: n.height):
            symbol_id = symbol_ids.get(node.label)
            mask = 0
            if symbol_id is not None:
                children = node.children
                arity = len(children)
                for state_id, child_states in by_symbol[symbol_id]:
                    if len(child_states) != arity:
                        continue
                    for child_state, child in zip(child_states, children):
                        if not (masks[child.uid] >> child_state) & 1:
                            break
                    else:
                        mask |= 1 << state_id
            masks[node.uid] = mask

    def accepts_batch(self, trees: Sequence[Tree]) -> List[bool]:
        """Membership of each tree in ``L(A)``, one shared sweep."""
        roots = list(trees)
        self._sweep(roots)
        initial = self.compiled.initial_id
        masks = self._masks
        return [bool((masks[root.uid] >> initial) & 1) for root in roots]

    def accepts(self, tree: Tree) -> bool:
        """Membership of one tree in ``L(A)`` (no recursion)."""
        return self.accepts_batch([tree])[0]

    def accepts_from(self, state: object, tree: Tree) -> bool:
        """Does the run from ``state`` succeed on ``tree``?"""
        state_id = self.compiled.state_ids.get(state)
        if state_id is None:
            return False
        self._sweep([tree])
        return bool((self._masks[tree.uid] >> state_id) & 1)

    @property
    def cache_stats(self) -> Dict[str, int]:
        return {"entries": len(self._masks)}

    def clear_cache(self) -> None:
        self._masks.clear()


#: Guards first-use compilation: without it, two threads hitting a
#: fresh machine both compile and the loser's memo is silently
#: discarded (wasted work, split caches).
_COMPILE_LOCK = threading.Lock()


def engine_for(transducer: "DTOP") -> Engine:
    """The shared engine of a transducer.

    The machine is compiled on first use (once, under a lock) and the
    engine is stored on the transducer's ``_engine`` slot, so every
    consumer — ``api.run``, stopped runs, the learner's oracle — shares
    one compiled table and one memo.
    """
    engine = transducer._engine
    if engine is None:
        with _COMPILE_LOCK:
            engine = transducer._engine
            if engine is None:
                engine = Engine(compile_dtop(transducer))
                transducer._engine = engine
    return engine


def automaton_engine_for(automaton: "DTTA") -> AutomatonEngine:
    """The shared compiled engine of a DTTA (compiled on first use)."""
    engine = automaton._engine
    if engine is None:
        with _COMPILE_LOCK:
            engine = automaton._engine
            if engine is None:
                engine = AutomatonEngine(compile_dtta(automaton))
                automaton._engine = engine
    return engine
