"""Per-machine generated-code execution backend.

Where the tables engine replays a postorder instruction template per
demanded pair (per-instruction opcode dispatch, operand-stack pushes),
this backend emits one specialized Python function per rule **at engine
construction time** via source generation plus a single :func:`compile`
call:

* child-state calls become direct memo lookups — ``a0 = g2(c[1])`` where
  ``g2`` is the bound ``dict.get`` of state 2's memo, keyed by the
  (interned) child tree itself;
* ground subtrees and output labels are bound as plain names in the
  generated module's namespace, so ``OP_CONST`` is a name load;
* the whole right-hand side collapses to one nested
  ``Tree(label, (…))`` constructor expression — no template, no loop.

The demand pass is also specialized: single-state non-deleting machines
(recognized from ``symbol_arity``: every defined rule calls every child)
take a plain "walk every distinct subtree" worklist with one memo and
one seen-set, which is exactly the demanded set for such machines.
Everything stays iterative, so depth-100 000 inputs neither recurse nor
overflow; rules whose right-hand side nests deeper than
:data:`MAX_EXPR_DEPTH` (or exceeds :data:`MAX_TEMPLATE_LEN`
instructions) fall back to a per-rule template-replay closure rather
than risk the CPython parser's nesting limits.

Failure semantics mirror the interpreter byte-for-byte: a generated
function returns ``False`` when any called child is unanswered, and the
sweep then consults the failure map in the rule's document-order call
sequence — the first failed call site's error propagates, and undefined
``(state, symbol)`` pairs produce the exact interpreter message.
"""

from __future__ import annotations

import threading
import time
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import UndefinedTransductionError
from repro.trees.tree import Tree
from repro.transducers.rhs import StateName

from repro.engine.backends import note_batch
from repro.engine.compile import OP_CALL, OP_CONST, CompiledDTOP
from repro.engine.execute import Engine, Outcome, PairKey, serialized
from repro.engine.profile import new_profile

#: Nesting depth of the generated ``Tree(…)`` expression beyond which a
#: rule falls back to template replay (CPython's parser handles a few
#: hundred nested calls; stay far below).
MAX_EXPR_DEPTH = 80

#: Template length beyond which generating source stops paying for
#: itself; such rules also fall back to replay.
MAX_TEMPLATE_LEN = 4000

_HEIGHT = itemgetter(0)

RuleFn = Callable[[Tree, Dict[Tree, Tree]], bool]
#: Dispatch entry per (state, known symbol): the rule function, the
#: rule's document-order call sites for failure propagation, and the
#: compiled rule index (for the per-rule-function profiler).
DispatchEntry = Tuple[RuleFn, Tuple[Tuple[int, int], ...], int]


class _NamePool:
    """Interns constants into the generated module's namespace."""

    def __init__(self, namespace: Dict[str, object]):
        self.namespace = namespace
        self.known: Dict[Tuple[str, object], str] = {}
        self.count = 0

    def name_for(self, prefix: str, value: object) -> str:
        key = (prefix, value)
        name = self.known.get(key)
        if name is None:
            name = f"{prefix}{self.count}"
            self.count += 1
            self.known[key] = name
            self.namespace[name] = value
        return name


def _emit_rule(
    rule: int,
    template: Sequence[Tuple],
    calls: Tuple[Tuple[int, int], ...],
    pool: _NamePool,
    lines: List[str],
) -> Optional[str]:
    """Append the source of one rule function; ``None`` → use fallback."""
    if len(template) > MAX_TEMPLATE_LEN:
        return None
    temps: Dict[Tuple[int, int], str] = {}
    prelude: List[str] = []
    for index, (called_id, var) in enumerate(calls):
        temp = f"a{index}"
        temps[(called_id, var)] = temp
        prelude.append(f"    {temp} = g{called_id}(c[{var - 1}])")
        prelude.append(f"    if {temp} is None:")
        prelude.append("        return False")
    stack: List[Tuple[str, int]] = []
    for instruction in template:
        opcode = instruction[0]
        if opcode == OP_CONST:
            stack.append((pool.name_for("K", instruction[1]), 1))
        elif opcode == OP_CALL:
            stack.append((temps[(instruction[1], instruction[2])], 1))
        else:  # OP_MAKE
            arity = instruction[2]
            label = pool.name_for("L", instruction[1])
            if arity:
                parts = stack[-arity:]
                del stack[-arity:]
                inner = ", ".join(expr for expr, _depth in parts)
                if arity == 1:
                    inner += ","
                depth = 1 + max(depth for _expr, depth in parts)
                stack.append((f"Tree({label}, ({inner}))", depth))
            else:
                stack.append((f"Tree({label}, ())", 1))
    expression, depth = stack[-1]
    if depth > MAX_EXPR_DEPTH:
        return None
    name = f"rule{rule}"
    lines.append(f"def {name}(node, out):")
    if calls:
        lines.append("    c = node.children")
        lines.extend(prelude)
    lines.append(f"    out[node] = {expression}")
    lines.append("    return True")
    return name


def _fallback_rule(
    template: Sequence[Tuple], memos: List[Dict[Tree, Tree]]
) -> RuleFn:
    """Template-replay closure for rules too deep/large to inline."""

    def replay(node: Tree, out: Dict[Tree, Tree]) -> bool:
        children = node.children
        operands: List[Tree] = []
        push = operands.append
        for instruction in template:
            opcode = instruction[0]
            if opcode == OP_CONST:
                push(instruction[1])
            elif opcode == OP_CALL:
                value = memos[instruction[1]].get(children[instruction[2] - 1])
                if value is None:
                    return False
                push(value)
            else:  # OP_MAKE
                arity = instruction[2]
                if arity:
                    made = Tree(instruction[1], tuple(operands[-arity:]))
                    del operands[-arity:]
                else:
                    made = Tree(instruction[1], ())
                push(made)
        out[node] = operands[-1]
        return True

    return replay


def _build_dispatch(
    compiled: CompiledDTOP, memos: List[Dict[Tree, Tree]]
) -> Tuple[List[Dict[object, DispatchEntry]], Tuple[int, ...]]:
    """Generate, compile, and wire every rule function of one machine."""
    namespace: Dict[str, object] = {"Tree": Tree}
    for state_id, memo in enumerate(memos):
        namespace[f"g{state_id}"] = memo.get
    pool = _NamePool(namespace)
    lines: List[str] = []
    names: List[Optional[str]] = []
    for rule, template in enumerate(compiled.rule_templates):
        names.append(
            _emit_rule(rule, template, compiled.rule_calls[rule], pool, lines)
        )
    if lines:
        exec(
            compile("\n".join(lines), "<repro-codegen>", "exec"),
            namespace,
        )
    fallback_rules: List[int] = []
    functions: List[RuleFn] = []
    for rule, name in enumerate(names):
        if name is None:
            functions.append(
                _fallback_rule(compiled.rule_templates[rule], memos)
            )
            fallback_rules.append(rule)
        else:
            functions.append(namespace[name])  # type: ignore[arg-type]
    dispatch: List[Dict[object, DispatchEntry]] = [
        {} for _ in range(compiled.num_states)
    ]
    num_symbols = compiled.num_symbols
    rule_of = compiled.rule_of
    rule_calls = compiled.rule_calls
    for state_id in range(compiled.num_states):
        base = state_id * num_symbols
        table = dispatch[state_id]
        for symbol_id, label in enumerate(compiled.symbol_names):
            rule = rule_of[base + symbol_id]
            if rule >= 0:
                table[label] = (functions[rule], rule_calls[rule], rule)
    return dispatch, tuple(fallback_rules)


def _is_single_nondeleting(compiled: CompiledDTOP) -> bool:
    """Can demand collapse to "walk every distinct subtree"?

    True for single-state machines whose every defined rule calls every
    child of its symbol — then the demanded set *is* the set of distinct
    subtrees below the seeds, and the walk needs no per-call bookkeeping.
    """
    if compiled.num_states != 1:
        return False
    arities = getattr(compiled, "symbol_arity", None)
    if arities is None:
        return False
    for symbol_id in range(compiled.num_symbols):
        rule = compiled.rule_of[symbol_id]
        if rule < 0:
            continue
        wanted = set(range(1, arities[symbol_id] + 1))
        if {var for _q, var in compiled.rule_calls[rule]} != wanted:
            return False
    return True


class CodegenEngine:
    """Generated-source executor for one compiled DTOP.

    Unlike :class:`~repro.engine.execute.Engine`, the batch entry point
    deduplicates roots up front (``set(roots)`` runs at C speed over
    interned trees) and maps outcomes back through a per-distinct-root
    answer table — on forests with repeated documents the per-root axiom
    replay is paid per *distinct* root only.  Outcome semantics are
    unchanged: per root, the first failing axiom call site in document
    order wins, exactly as the interpreter and the tables engine report
    it.
    """

    #: Backend name; appears in ``cache_stats`` and profiles.
    backend = "codegen"

    __slots__ = (
        "compiled",
        "_stats",
        "_profile",
        "_bare_axiom",
        "_memos",
        "_dispatch",
        "_fn_of",
        "_rule_of_label",
        "_fast",
        "_lock",
        "fallback_rules",
    )

    def __init__(self, compiled: CompiledDTOP):
        self.compiled = compiled
        self._stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "batches": 0, "evictions": 0
        }
        self._profile = new_profile(len(compiled.rule_templates))
        self._lock = threading.Lock()
        # Most machines have an axiom that is one bare state call on the
        # root; remember its state id so outcome assembly is a plain
        # memo lookup instead of a template replay per distinct root.
        template = compiled.axiom_template
        self._bare_axiom: Optional[int] = (
            template[0][1]
            if len(template) == 1
            and template[0][0] == OP_CALL
            and template[0][2] == 0
            else None
        )
        #: Per state: the ``input tree → output tree`` memo, bounded in
        #: total by :data:`~repro.engine.execute.MEMO_LIMIT`.  Keyed by
        #: the interned node itself (identity hash), not uid — the
        #: generated functions read it with a bound ``dict.get``.
        self._memos: List[Dict[Tree, Tree]] = [
            {} for _ in range(compiled.num_states)
        ]
        self._dispatch, self.fallback_rules = _build_dispatch(
            compiled, self._memos
        )
        self._fast = _is_single_nondeleting(compiled)
        # Single-state walk dispatch: label → rule function, one dict
        # lookup per demanded node (the call sites for the rare failure
        # path stay in ``_dispatch``).
        self._fn_of: Dict[object, RuleFn] = (
            {label: entry[0] for label, entry in self._dispatch[0].items()}
            if self._fast
            else {}
        )
        # Fast-path profiler dispatch: label → compiled rule index.
        self._rule_of_label: Dict[object, int] = (
            {label: entry[2] for label, entry in self._dispatch[0].items()}
            if self._fast
            else {}
        )

    # -- public entry points ---------------------------------------------

    @serialized
    def run_batch_outcomes(self, trees: Sequence[Tree]) -> List[Outcome]:
        """Translate a forest; per-input outcome, never raises."""
        roots = list(trees)
        bare = self._bare_axiom
        if bare is not None and self._fast:
            memo = self._memos[bare]
            lookup = memo.__getitem__
            try:
                # Fully warm batches — the overwhelmingly common serving
                # case — answer in one C-speed lookup per root.
                outcomes = list(map(lookup, roots))
            except KeyError:
                pass
            else:
                self._note(len(roots), 0)
                return outcomes
            failed = self._sweep_fast(roots)
            if not failed:
                return list(map(lookup, roots))
            get_error = failed.get
            get_value = memo.get
            outcomes = []
            for root in roots:
                error = get_error((bare, root.uid))
                outcomes.append(get_value(root) if error is None else error)
            return outcomes
        axiom_calls = self.compiled.axiom_calls
        distinct = set(roots)
        failed = self._sweep(
            [
                (state_id, root)
                for root in distinct
                for state_id, _var in axiom_calls
            ]
        )
        answers: Dict[Tree, Tree] = {}
        if not failed:
            if bare is not None:
                value_of = self._memos[bare].get
                for root in distinct:
                    answers[root] = value_of(root)
            else:
                for root in distinct:
                    answers[root] = self._axiom_value(root)
            return list(map(answers.__getitem__, roots))
        outcomes: List[Outcome] = []
        for root in roots:
            error: Optional[UndefinedTransductionError] = None
            for state_id, _var in axiom_calls:
                error = failed.get((state_id, root.uid))
                if error is not None:
                    break
            if error is not None:
                outcomes.append(error)
                continue
            value = answers.get(root)
            if value is None:
                value = answers[root] = self._axiom_value(root)
            outcomes.append(value)
        return outcomes

    # The all-or-nothing and single-tree wrappers over
    # ``run_batch_outcomes``, the memo bound and the counters are the
    # tables engine's, verbatim (over this engine's ``memo_size`` and
    # ``_drop_memo``).
    run_batch = Engine.run_batch
    try_run_batch = Engine.try_run_batch
    run = Engine.run
    try_run = Engine.try_run
    profile_snapshot = Engine.profile_snapshot
    clear_profile = Engine.clear_profile
    _bound_memo = Engine._bound_memo
    cache_stats = Engine.cache_stats
    clear_cache = Engine.clear_cache

    @serialized
    def eval_state(self, state: StateName, tree: Tree) -> Tree:
        """``[[M]]_q(s)`` iteratively — drop-in for :meth:`DTOP.eval_state`."""
        state_id = self.compiled.state_ids.get(state)
        if state_id is None:
            raise UndefinedTransductionError(
                f"no rule for state {state!r} on symbol {tree.label!r}"
            )
        memo = self._memos[state_id]
        cached = memo.get(tree)
        if cached is not None:
            self._stats["hits"] += 1
            return cached
        failed = self._sweep([(state_id, tree)])
        error = failed.get((state_id, tree.uid))
        if error is not None:
            raise error
        return memo[tree]

    # -- sweeps ------------------------------------------------------------

    def _note(self, hits: int, misses: int) -> None:
        stats = self._stats
        stats["batches"] += 1
        stats["hits"] += hits
        stats["misses"] += misses
        note_batch(self.backend, hits, misses)

    def _undefined(self, state_id: int, label: object) -> UndefinedTransductionError:
        return UndefinedTransductionError(
            f"no rule for state {self.compiled.state_names[state_id]!r} "
            f"on symbol {label!r}"
        )

    def _axiom_value(self, root: Tree) -> Tree:
        """Operand-stack replay of the axiom template over the memos."""
        memos = self._memos
        children = root.children
        operands: List[Tree] = []
        push = operands.append
        for instruction in self.compiled.axiom_template:
            opcode = instruction[0]
            if opcode == OP_CONST:
                push(instruction[1])
            elif opcode == OP_CALL:
                target = (
                    children[instruction[2] - 1] if instruction[2] else root
                )
                push(memos[instruction[1]].get(target))
            else:  # OP_MAKE
                arity = instruction[2]
                if arity:
                    made = Tree(instruction[1], tuple(operands[-arity:]))
                    del operands[-arity:]
                else:
                    made = Tree(instruction[1], ())
                push(made)
        return operands[-1]

    def _sweep(
        self, seeds: Sequence[Tuple[int, Tree]]
    ) -> Dict[PairKey, UndefinedTransductionError]:
        """Demand and evaluate every pair reachable from the seeds.

        Successes land in the memos; the returned failure map is keyed
        ``(state_id, uid)`` with interpreter-identical errors.
        """
        if self._fast:
            return self._sweep_fast([node for _state_id, node in seeds])
        return self._sweep_generic(seeds)

    def _sweep_fast(
        self, seed_nodes: Sequence[Tree]
    ) -> Dict[PairKey, UndefinedTransductionError]:
        """Single-state non-deleting demand: walk every distinct subtree."""
        self._bound_memo()
        memo = self._memos[0]
        fn_of = self._fn_of.get
        hits = 0
        demanded: List[Tuple[int, Tree, Optional[RuleFn]]] = []
        append_pair = demanded.append
        seen: set = set()
        add = seen.add
        if memo:
            stack = []
            for node in seed_nodes:
                if node in memo:
                    hits += 1
                else:
                    stack.append(node)
            push = stack.append
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                add(node)
                append_pair((node._height, node, fn_of(node.label)))
                for child in node.children:
                    if child in memo:
                        hits += 1
                    elif child not in seen:
                        push(child)
        else:
            stack = list(seed_nodes)
            push = stack.append
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                add(node)
                append_pair((node._height, node, fn_of(node.label)))
                for child in node.children:
                    if child not in seen:
                        push(child)

        demanded.sort(key=_HEIGHT)
        failed: Dict[PairKey, UndefinedTransductionError] = {}
        profile = self._profile
        profile["sweeps"] += 1
        rule_hits = profile["rule_hits"]
        rule_of_label = self._rule_of_label
        sweep_began = time.perf_counter()
        for _height, node, fn in demanded:
            if fn is not None and fn(node, memo):
                rule_hits[rule_of_label[node.label]] += 1
                continue
            if fn is None:
                failed[(0, node.uid)] = self._undefined(0, node.label)
                continue
            # A called child is unanswered, i.e. recorded as failed
            # (children sweep strictly earlier); propagate the first
            # failing call site in document order, like the interpreter.
            children = node.children
            error: Optional[UndefinedTransductionError] = None
            for called_id, var in self._dispatch[0][node.label][1]:
                error = failed.get((called_id, children[var - 1].uid))
                if error is not None:
                    break
            failed[(0, node.uid)] = error
        profile["sweep_seconds"] += time.perf_counter() - sweep_began
        self._note(hits, len(demanded) - len(failed))
        return failed

    def _sweep_generic(
        self, seeds: Sequence[Tuple[int, Tree]]
    ) -> Dict[PairKey, UndefinedTransductionError]:
        self._bound_memo()
        memos = self._memos
        dispatch = self._dispatch
        hits = 0
        demanded: List[Tuple[int, Tree, int, Optional[DispatchEntry]]] = []
        append_pair = demanded.append
        seen_by_state: List[set] = [set() for _ in memos]
        work: List[Tuple[int, Tree]] = []
        for state_id, node in seeds:
            if node in memos[state_id]:
                hits += 1
            elif node not in seen_by_state[state_id]:
                seen_by_state[state_id].add(node)
                work.append((state_id, node))
        while work:
            state_id, node = work.pop()
            entry = dispatch[state_id].get(node.label)
            append_pair((node._height, node, state_id, entry))
            if entry is None:
                continue
            children = node.children
            for called_id, var in entry[1]:
                child = children[var - 1]
                if child in memos[called_id]:
                    hits += 1
                elif child not in seen_by_state[called_id]:
                    seen_by_state[called_id].add(child)
                    work.append((called_id, child))

        demanded.sort(key=_HEIGHT)
        failed: Dict[PairKey, UndefinedTransductionError] = {}
        profile = self._profile
        profile["sweeps"] += 1
        rule_hits = profile["rule_hits"]
        sweep_began = time.perf_counter()
        for _height, node, state_id, entry in demanded:
            if entry is not None and entry[0](node, memos[state_id]):
                rule_hits[entry[2]] += 1
                continue
            if entry is None:
                failed[(state_id, node.uid)] = self._undefined(
                    state_id, node.label
                )
                continue
            children = node.children
            error: Optional[UndefinedTransductionError] = None
            for called_id, var in entry[1]:
                error = failed.get((called_id, children[var - 1].uid))
                if error is not None:
                    break
            failed[(state_id, node.uid)] = error
        profile["sweep_seconds"] += time.perf_counter() - sweep_began
        self._note(hits, len(demanded) - len(failed))
        return failed

    # -- cache management -------------------------------------------------

    def memo_size(self) -> int:
        """Number of memoized pairs (what ``MEMO_LIMIT`` bounds)."""
        return sum(len(memo) for memo in self._memos)

    def _drop_memo(self) -> None:
        # In place: the generated functions hold bound ``dict.get``s.
        for memo in self._memos:
            memo.clear()
