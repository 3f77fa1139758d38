"""Make compiled engines and forests cheap to ship across processes.

The multiprocessing layer of :mod:`repro.serve.service` needs three
things that the in-process engine never did:

* **a picklable engine** — :class:`~repro.engine.compile.CompiledDTOP`
  carries its source :class:`~repro.transducers.dtop.DTOP` (caches,
  alphabets, live engine handle) and :class:`~repro.trees.tree.Tree`
  constants whose default pickling recurses.  :func:`pack_engine`
  strips the tables down to a plain-tuple payload (trees flat-encoded)
  that pickles in one shot, once per worker; :func:`unpack_engine`
  rebuilds a fresh :class:`~repro.engine.execute.Engine` from it.

* **a deep-safe forest codec** — :func:`encode_forest` /
  :func:`decode_forest` serialize trees as a postorder table of
  ``(label, child-index…)`` records with uid-level deduplication.  The
  encoding is iterative (a depth-100 000 tree neither overflows the
  stack nor explodes the payload), preserves the hash-consed sharing
  *across* the whole forest (a subtree shared by two documents is one
  record), and decoding re-interns, so shipped trees land as the same
  objects the parent holds.

* **cost-aware chunking** — :func:`forest_costs` estimates each
  document's *marginal* DAG cost (distinct subtrees not already seen
  earlier in the forest) and :func:`chunk_forest` cuts the forest into
  contiguous, cost-balanced index ranges.  Contiguity keeps overlap
  inside one shard (the engine pays per distinct subtree) and makes
  reassembly positional, so outputs never depend on the shard count.

Worker-side entry points (:func:`init_worker` / :func:`worker_translate`)
hold one module-global engine per process; per-document outcomes are
returned exactly as :meth:`Engine.run_batch_outcomes` produces them —
output trees re-encoded with the same codec, undefined inputs as the
interpreter-identical error message.

The ``REPRO_SERVE_CRASH_LABEL`` environment variable is a test hook:
a worker that decodes a root carrying that label hard-exits, simulating
a worker crash for the service's recovery path.
"""

from __future__ import annotations

import os
import signal
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.compile import OP_CONST, CompiledDTOP
from repro.engine.execute import Engine
from repro.errors import ServiceError, UndefinedTransductionError
from repro.obs.trace import NULL_TRACE, TraceContext
from repro.trees.tree import Tree

#: Version tag of the engine payload; bump when the layout changes.
#: :func:`unpack_engine` refuses every other version.
PAYLOAD_FORMAT = "repro/engine-payload@3"

#: Fields of a :data:`PAYLOAD_FORMAT` tuple, the format tag included.
PAYLOAD_FIELDS = 9

#: One encoded node: ``(label, child_index, …)`` — children point at
#: earlier records of the same table (postorder invariant).
NodeRecord = Tuple
EncodedForest = Tuple[Tuple[NodeRecord, ...], Tuple[int, ...]]

#: Encoded per-document outcome: ``("t", node_index)`` for an output
#: tree, ``("e", message)`` for an undefined transduction.
EncodedOutcome = Tuple[str, Union[int, str]]


# ---------------------------------------------------------------------------
# Forest codec
# ---------------------------------------------------------------------------


def encode_forest(trees: Sequence[Tree]) -> EncodedForest:
    """Flatten a forest into a postorder node table plus root indexes.

    Iterative (safe for depth-100k trees) and deduplicating: every
    distinct subtree — across the *whole* forest — becomes exactly one
    ``(label, child-index…)`` record, so the payload is proportional to
    the forest's DAG size, not its tree size.
    """
    index_of: Dict[int, int] = {}
    records: List[NodeRecord] = []
    roots: List[int] = []
    for root in trees:
        if root.uid not in index_of:
            stack: List[Tuple[Tree, bool]] = [(root, False)]
            while stack:
                node, expanded = stack.pop()
                if node.uid in index_of:
                    continue
                if expanded or not node.children:
                    index_of[node.uid] = len(records)
                    records.append(
                        (node.label,)
                        + tuple(index_of[c.uid] for c in node.children)
                    )
                else:
                    stack.append((node, True))
                    for child in reversed(node.children):
                        if child.uid not in index_of:
                            stack.append((child, False))
        roots.append(index_of[root.uid])
    return tuple(records), tuple(roots)


def decode_forest(encoded: EncodedForest) -> List[Tree]:
    """Rebuild (re-intern) the trees of :func:`encode_forest`.

    Iterative; the postorder invariant guarantees every child record is
    decoded before its parents.  Interning makes the result *the same
    objects* as the originals when both sides share a process.
    """
    records, roots = encoded
    built: List[Tree] = []
    for record in records:
        built.append(Tree(record[0], tuple(built[i] for i in record[1:])))
    return [built[i] for i in roots]


# ---------------------------------------------------------------------------
# Engine payloads
# ---------------------------------------------------------------------------


def pack_engine(compiled: CompiledDTOP) -> tuple:
    """Reduce compiled DTOP tables to a plain picklable payload.

    The payload contains no :class:`Tree`, no source transducer, and no
    caches — ``OP_CONST`` operands are flat-encoded through the forest
    codec (shared ground subtrees stay shared).  It is serialized once
    per worker by the pool initializer.
    """
    const_trees: List[Tree] = []
    for template in list(compiled.rule_templates) + [compiled.axiom_template]:
        for instruction in template:
            if instruction[0] == OP_CONST:
                const_trees.append(instruction[1])
    encoded_consts = encode_forest(const_trees)

    position = 0

    def strip(template) -> Tuple:
        nonlocal position
        out = []
        for instruction in template:
            if instruction[0] == OP_CONST:
                out.append((OP_CONST, position))
                position += 1
            else:
                out.append(instruction)
        return tuple(out)

    rule_templates = tuple(strip(t) for t in compiled.rule_templates)
    axiom_template = strip(compiled.axiom_template)
    return (
        PAYLOAD_FORMAT,
        tuple(compiled.state_names),
        tuple(compiled.symbol_names),
        tuple(compiled.rule_of),
        tuple(compiled.rule_calls),
        rule_templates,
        compiled.axiom_calls,
        axiom_template,
        encoded_consts,
    )


def unpack_engine(payload: tuple) -> Engine:
    """Rebuild a fresh engine from a :func:`pack_engine` payload.

    Raises :class:`~repro.errors.ServiceError` for anything but a
    :data:`PAYLOAD_FORMAT` tuple of :data:`PAYLOAD_FIELDS` fields,
    older payload versions included.
    """
    if (
        not isinstance(payload, tuple)
        or len(payload) != PAYLOAD_FIELDS
        or payload[0] != PAYLOAD_FORMAT
    ):
        raise ServiceError(f"not a {PAYLOAD_FORMAT} payload")
    (
        _format,
        state_names,
        symbol_names,
        rule_of,
        rule_calls,
        rule_templates,
        axiom_calls,
        axiom_template,
        encoded_consts,
    ) = payload
    consts = decode_forest(encoded_consts)

    def restore(template) -> Tuple:
        return tuple(
            (OP_CONST, consts[instruction[1]])
            if instruction[0] == OP_CONST
            else instruction
            for instruction in template
        )

    compiled = object.__new__(CompiledDTOP)
    compiled.source = None  # workers never touch the source machine
    compiled.state_names = list(state_names)
    compiled.state_ids = {name: i for i, name in enumerate(state_names)}
    compiled.symbol_names = list(symbol_names)
    compiled.symbol_ids = {name: i for i, name in enumerate(symbol_names)}
    compiled.num_states = len(state_names)
    compiled.num_symbols = len(symbol_names)
    compiled.rule_of = list(rule_of)
    compiled.rule_calls = list(rule_calls)
    compiled.rule_templates = [restore(t) for t in rule_templates]
    compiled.axiom_calls = axiom_calls
    compiled.axiom_template = restore(axiom_template)
    return Engine(compiled)


# ---------------------------------------------------------------------------
# Cost estimation and chunking
# ---------------------------------------------------------------------------


def forest_costs(trees: Sequence[Tree]) -> List[int]:
    """Marginal DAG cost per document, scanning the forest in order.

    A document's cost is the number of distinct subtrees it introduces
    that no earlier document already did — exactly the number of new
    ``(state, subtree)`` seeds (up to the state factor) the engine will
    have to evaluate for it.  Every document costs at least 1, so empty
    marginal documents still occupy a slot when balancing.
    """
    seen: set = set()
    costs: List[int] = []
    for tree in trees:
        new = 0
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.uid in seen:
                continue
            seen.add(node.uid)
            new += 1
            stack.extend(node.children)
        costs.append(max(new, 1))
    return costs


def chunk_forest(
    trees: Sequence[Tree],
    num_chunks: int,
    costs: Optional[Sequence[int]] = None,
    max_docs: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Cut ``trees`` into ≥ ``num_chunks`` contiguous ``(start, end)`` ranges.

    Deterministic and order-preserving: chunk boundaries depend only on
    the forest, the chunk count, and ``max_docs``; outputs reassemble
    positionally, and contiguity keeps DAG overlap between neighbouring
    documents inside one shard.  Balancing is greedy on the marginal
    costs of :func:`forest_costs`: a chunk closes once it holds its
    proportional share of the remaining cost.  ``max_docs`` caps the
    documents per chunk (bounding, e.g., the blast radius of a worker
    crash) by evenly splitting any over-long range afterwards.
    """
    ranges = _cost_ranges(trees, num_chunks, costs)
    if max_docs is None or max_docs < 1:
        return ranges
    capped: List[Tuple[int, int]] = []
    for start, end in ranges:
        span = end - start
        if span <= max_docs:
            capped.append((start, end))
            continue
        pieces = -(-span // max_docs)  # ceil
        base, extra = divmod(span, pieces)
        cursor = start
        for piece in range(pieces):
            width = base + (1 if piece < extra else 0)
            capped.append((cursor, cursor + width))
            cursor += width
    return capped


def _cost_ranges(
    trees: Sequence[Tree],
    num_chunks: int,
    costs: Optional[Sequence[int]],
) -> List[Tuple[int, int]]:
    count = len(trees)
    if count == 0:
        return []
    chunks = max(1, min(num_chunks, count))
    if chunks == 1:
        return [(0, count)]
    costs = list(costs) if costs is not None else forest_costs(trees)
    remaining = sum(costs)
    ranges: List[Tuple[int, int]] = []
    start = 0
    accumulated = 0
    for index, cost in enumerate(costs):
        accumulated += cost
        chunks_left = chunks - len(ranges)
        docs_left = count - index - 1
        # Close the chunk when it reached its share of the remaining
        # cost, or when waiting any longer would leave fewer documents
        # than chunks (every chunk must be non-empty, so the last
        # possible close point is docs_left == chunks_left - 1).
        if (
            accumulated >= remaining / chunks_left
            or docs_left <= chunks_left - 1
        ):
            ranges.append((start, index + 1))
            start = index + 1
            remaining -= accumulated
            accumulated = 0
            if len(ranges) == chunks - 1:
                break
    if start < count:
        ranges.append((start, count))
    return ranges


# ---------------------------------------------------------------------------
# Worker-side entry points
# ---------------------------------------------------------------------------

#: Environment hook for the crash-recovery tests: a worker translating a
#: root with this label hard-exits as if it had segfaulted.
CRASH_LABEL_ENV = "REPRO_SERVE_CRASH_LABEL"

_WORKER_ENGINE: Optional[Engine] = None


def _reset_inherited_signal_plumbing() -> None:
    """Detach this worker from the parent's asyncio signal machinery.

    Fork-start workers inherit the parent's signal dispositions *and*
    its ``signal.set_wakeup_fd`` self-pipe.  If the parent is an asyncio
    server with ``add_signal_handler`` installed, a signal delivered to
    a worker (e.g. the executor's own ``terminate()`` while cleaning up
    a broken pool) would be written into the shared wakeup pipe and
    replayed by the *parent's* event loop as if the parent had been
    signalled — gracefully stopping a healthy server because one of its
    workers was told to die.  Clearing the wakeup fd and restoring
    default dispositions keeps worker-directed signals in the worker.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        return
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - exotic host
            pass


def init_worker(payload: tuple) -> None:
    """Pool initializer: unpack the engine tables once per worker.

    The parent forks workers with SIGTERM and SIGINT blocked; they are
    unblocked only once the inherited signal plumbing is reset, so a
    signal that arrived in between now acts on this worker alone.
    """
    _reset_inherited_signal_plumbing()
    signal.pthread_sigmask(signal.SIG_UNBLOCK, (signal.SIGTERM, signal.SIGINT))
    global _WORKER_ENGINE
    _WORKER_ENGINE = unpack_engine(payload)


def worker_translate(
    chunk: EncodedForest, trace_id: Optional[str] = None
) -> Tuple[int, Tuple[NodeRecord, ...], List[EncodedOutcome]]:
    """Translate one encoded chunk inside a worker process.

    Returns ``(worker pid, output node table, per-document outcomes)``
    with outcomes positionally aligned to the chunk's roots.  Output
    trees across the chunk share one node table, so heavily overlapping
    results cost one record per distinct subtree on the wire.

    ``trace_id`` is the parent's trace id riding the chunk payload; when
    set, the return value grows a fourth element — a trace record
    ``{"parent", "trace_id", "pid", "spans"}`` whose ``trace_id`` is
    minted *in this process* (how the parent's execute span proves a
    shard worker really ran) and whose ``spans`` time the worker-side
    decode → execute → encode stages.  Untraced calls keep the
    historical 3-tuple shape.
    """
    if _WORKER_ENGINE is None:  # pragma: no cover - misuse guard
        raise ServiceError("worker used before init_worker")
    if trace_id is None:
        trace = NULL_TRACE
    else:
        trace = TraceContext(name="worker.translate")
    with trace.span("worker.decode_forest"):
        trees = decode_forest(chunk)
    crash_label = os.environ.get(CRASH_LABEL_ENV)
    if crash_label is not None and any(t.label == crash_label for t in trees):
        os._exit(3)
    with trace.span("worker.execute", documents=len(trees)):
        raw = _WORKER_ENGINE.run_batch_outcomes(trees)
    with trace.span("worker.encode_forest"):
        output_trees = [o for o in raw if isinstance(o, Tree)]
        records, root_indexes = encode_forest(output_trees)
    roots = iter(root_indexes)
    outcomes: List[EncodedOutcome] = []
    for outcome in raw:
        if isinstance(outcome, Tree):
            outcomes.append(("t", next(roots)))
        else:
            outcomes.append(("e", str(outcome)))
    if trace_id is None:
        return os.getpid(), records, outcomes
    trace_record = {
        "parent": trace_id,
        "trace_id": trace.trace_id,
        "pid": os.getpid(),
        "spans": trace.to_dict(),
    }
    return os.getpid(), records, outcomes, trace_record


def decode_outcomes(
    records: Tuple[NodeRecord, ...], outcomes: Sequence[EncodedOutcome]
) -> List[Union[Tree, UndefinedTransductionError]]:
    """Parent-side inverse of :func:`worker_translate`'s outcome encoding."""
    built: List[Tree] = []
    for record in records:
        built.append(Tree(record[0], tuple(built[i] for i in record[1:])))
    decoded: List[Union[Tree, UndefinedTransductionError]] = []
    for kind, value in outcomes:
        if kind == "t":
            decoded.append(built[value])
        else:
            decoded.append(UndefinedTransductionError(value))
    return decoded
