"""repro.api — the stable high-level facade of the library.

This module is the documented entry surface: everything a typical user
needs — learning a DTOP from examples, running one, normalizing one, and
moving artifacts to and from disk — behind six functions with permissive
input types.  The subpackages remain fully public for advanced use; the
facade only removes the boilerplate of wiring them together.

Quickstart::

    from repro import api

    learned = api.learn([
        ("f(a, b)", "g(b)"),
        ("f(b, a)", "g(a)"),
        ("f(a, a)", "g(a)"),
        ("f(b, b)", "g(b)"),
    ])
    print(api.run(learned, "f(a, b)"))      # g(b)
    text = api.serialize(learned)            # JSON, stable format
    again = api.deserialize(text)            # a DTOP

Trees may be given as :class:`~repro.trees.tree.Tree` objects or as
strings in the paper's term syntax (``"f(a, g(b))"``); transducer
arguments accept a raw :class:`~repro.transducers.dtop.DTOP`, a
:class:`~repro.learning.rpni.LearnedDTOP`, or a
:class:`~repro.transducers.minimize.CanonicalDTOP` interchangeably.

Performance notes
-----------------

All evaluation in the library runs over interned (hash-consed) trees
with memo caches owned by the object they serve — see
``docs/ARCHITECTURE.md`` for the full map.  :func:`cache_stats`
aggregates the global counters; a transducer's compiled engine memo is
released with the transducer itself, and learning memos with the sample
they were computed from.
Never mutate a :class:`~repro.trees.tree.Tree` or a label object stored
in one: nodes are shared program-wide.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple, Union

from repro import serialize as _serialize
from repro.automata.build import local_dtta_from_trees
from repro.automata.dtta import DTTA
from repro.engine import artifact_stats, engine_for, sample_tables_stats
from repro.errors import ReproError, UndefinedTransductionError
from repro.learning.rpni import LearnedDTOP, rpni_dtop
from repro.learning.sample import Sample
from repro.trees.tree import Tree, intern_stats, parse_term
from repro.transducers.dtop import DTOP
from repro.transducers.minimize import CanonicalDTOP, canonicalize, equivalent_on

#: Anything the facade accepts where a tree is expected.
TreeLike = Union[Tree, str]
#: Anything the facade accepts where a transducer is expected.
TransducerLike = Union[DTOP, LearnedDTOP, CanonicalDTOP]

__all__ = [
    "parse_tree",
    "learn",
    "run",
    "run_batch",
    "try_run_batch",
    "compose",
    "fuse",
    "minimize",
    "equivalent",
    "serialize",
    "deserialize",
    "save",
    "load",
    "serve_forever",
    "connect",
    "learn_json",
    "run_json",
    "save_json",
    "load_json",
    "cache_stats",
]


def parse_tree(source: TreeLike) -> Tree:
    """Coerce a tree-like value: parse term-syntax strings, pass trees through.

    >>> parse_tree("f(a, g(b))").size
    4
    """
    if isinstance(source, Tree):
        return source
    return parse_term(source)


def _as_dtop(transducer: TransducerLike) -> DTOP:
    """Unwrap any accepted transducer representation to the raw DTOP."""
    if isinstance(transducer, (LearnedDTOP, CanonicalDTOP)):
        return transducer.dtop
    return transducer


def learn(
    examples: Iterable[Tuple[TreeLike, TreeLike]],
    domain: Optional[DTTA] = None,
) -> LearnedDTOP:
    """Learn a DTOP from ``(input, output)`` example pairs (``RPNI_dtop``).

    ``domain`` is the DTTA for the target's domain language; when omitted
    it is inferred from the example inputs as the smallest *local* DTTA
    containing them (:func:`repro.automata.build.local_dtta_from_trees`)
    — exact for DTD-shaped languages, an over-approximation otherwise.

    The examples must form a partial function and, for the result to be
    the canonical minimal transducer of the target translation, contain a
    characteristic sample (Definition 31); otherwise
    :class:`~repro.errors.InsufficientSampleError` explains what evidence
    is missing.

    The returned :class:`~repro.learning.rpni.LearnedDTOP` carries a
    ``stats`` dict with the run's timings (total / validation / merge
    loop) and cache counters — the compiled sample tables and the
    signature-bucketed merge index — mirrored by the CLI's
    ``learn --stats`` flag; :func:`cache_stats` aggregates the global
    counters.

    >>> learned = learn([("f(a, b)", "g(b)"), ("f(b, a)", "g(a)"),
    ...                  ("f(a, a)", "g(a)"), ("f(b, b)", "g(b)")])
    >>> str(run(learned, "f(a, b)"))
    'g(b)'
    """
    pairs = [(parse_tree(s), parse_tree(t)) for s, t in examples]
    sample = Sample(pairs)
    if domain is None:
        domain = local_dtta_from_trees([s for s, _ in pairs])
    return rpni_dtop(sample, domain)


def run(transducer: TransducerLike, tree: TreeLike) -> Tree:
    """Apply a transducer to an input tree: ``[[M]](s)``.

    Raises :class:`~repro.errors.UndefinedTransductionError` when the
    input is outside the transducer's domain.  Evaluation goes through
    the compiled batch engine (:mod:`repro.engine`): the transducer is
    lowered to flat rule tables once, then evaluated iteratively over
    the shared tree DAG — arbitrarily deep inputs are fine, and repeated
    runs over overlapping inputs are incremental through the persistent
    ``(state, node-uid)`` memo.
    """
    return engine_for(_as_dtop(transducer)).run(parse_tree(tree))


def _batch_outcomes(
    transducer: TransducerLike,
    trees: Iterable[TreeLike],
    parallel: Optional[int],
) -> list:
    """Per-input outcomes, serial or through a sharded worker pool."""
    machine = _as_dtop(transducer)
    forest = [parse_tree(tree) for tree in trees]
    if parallel is not None and parallel > 1:
        from repro.serve import TransformService

        with TransformService(machine, jobs=parallel) as service:
            return list(service.map(forest))
    return engine_for(machine).run_batch_outcomes(forest)


def run_batch(
    transducer: TransducerLike,
    trees: Iterable[TreeLike],
    parallel: Optional[int] = None,
) -> list:
    """Apply a transducer to a whole forest in one bottom-up sweep.

    Subtrees shared between batch members (hash-consing makes sharing
    structural) are translated exactly once, so a batch of overlapping
    documents costs one pass over the *distinct* structure.  Raises the
    first input's :class:`~repro.errors.UndefinedTransductionError` when
    any input is outside the domain; use :func:`try_run_batch` for
    per-input outcomes.

    With ``parallel=N`` (N > 1) the forest is sharded across ``N``
    worker processes through :class:`~repro.serve.service.TransformService`
    — compiled tables shipped once per worker, DAG-aware cost-balanced
    chunks, outputs and errors byte-identical to the serial path (the
    repeated-structure memoization then applies per shard rather than
    globally).

    >>> learned = learn([("f(a, b)", "g(b)"), ("f(b, a)", "g(a)"),
    ...                  ("f(a, a)", "g(a)"), ("f(b, b)", "g(b)")])
    >>> [str(t) for t in run_batch(learned, ["f(a, b)", "f(b, b)"])]
    ['g(b)', 'g(b)']
    """
    outcomes = _batch_outcomes(transducer, trees, parallel)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def try_run_batch(
    transducer: TransducerLike,
    trees: Iterable[TreeLike],
    parallel: Optional[int] = None,
) -> list:
    """Like :func:`run_batch`, but undefined inputs yield ``None``.

    ``None`` strictly means *outside the transducer's domain*.  An
    infrastructure failure on the parallel path (a worker crash that
    exhausted its retry — :class:`~repro.errors.ServiceError`) is
    raised instead: the affected inputs may well be inside the domain,
    and silently reporting them as undefined would misclassify them.
    """
    results = []
    for outcome in _batch_outcomes(transducer, trees, parallel):
        if isinstance(outcome, UndefinedTransductionError):
            results.append(None)
        elif isinstance(outcome, Exception):
            raise outcome
        else:
            results.append(outcome)
    return results


def compose(
    first: TransducerLike, second: TransducerLike
) -> DTOP:
    """The DTOP computing ``second(first(s))`` (Engelfriet's closure).

    Parity contract, pinned by the test suite: for every ``s`` where
    both sides are defined, ``run(compose(f, g), s) == run(g, run(f, s))``
    — and where the chained run is undefined, so is the composed
    machine (the converse can fail only through the deletion/inspection
    caveat of Section 7, see :mod:`repro.transducers.compose`).

    >>> from repro.workloads.flip import flip_transducer
    >>> twice = compose(flip_transducer(), flip_transducer())
    >>> str(run(twice, "root(#, #)"))
    'root(#, #)'
    """
    from repro.transducers.compose import compose as _compose

    return _compose(_as_dtop(first), _as_dtop(second))


def fuse(
    stages: Iterable[TransducerLike],
    earliest: bool = False,
) -> DTOP:
    """Fold a pipeline of transducers into one single-pass DTOP.

    ``stages`` are listed in application order (the first stage runs
    first); the result computes ``stage_k(… stage_1(s) …)`` in a single
    compiled pass instead of K full passes over K-1 intermediate trees —
    the fused machine then compiles, caches, and serves exactly like any
    other DTOP.  ``earliest=True`` additionally normalizes the result to
    the earliest form — identical outputs, usually fewer states, but
    possibly a *larger* domain (the inspection caveat of
    :func:`~repro.transducers.compose.compose_chain`).

    Parity contract (pinned by the fuzz suite): wherever the staged
    chain ``run(stage_k, … run(stage_1, s))`` is defined, the fused
    machine produces the byte-identical output; where the staged chain
    is undefined, the fused machine is undefined too up to the
    deletion/inspection caveat of :mod:`repro.transducers.compose` —
    for nondeleting stages (and ``earliest=False``) the domains agree
    exactly.

    >>> from repro.workloads.flip import flip_transducer
    >>> twice = fuse([flip_transducer(), flip_transducer()], earliest=True)
    >>> str(run(twice, "root(#, #)"))
    'root(#, #)'
    """
    from repro.transducers.compose import compose_chain

    return compose_chain(
        [_as_dtop(stage) for stage in stages], earliest=earliest
    )


def serve_forever(
    models_dir: str,
    host: str = "127.0.0.1",
    port: int = 7455,
    jobs: Optional[int] = None,
    **knobs: Any,
) -> int:
    """Serve every model under ``models_dir`` over TCP until interrupted.

    The network face of the library: loads ``NAME@VERSION.json``
    artifacts (raw transducers and XML transformation bundles), coalesces
    concurrent requests into micro-batches, and shards each model across
    ``jobs`` worker processes.  Extra ``knobs`` — ``max_batch``,
    ``max_pending``, ``stats``, ``metrics``, ``log_json``, ``warm`` —
    are forwarded to :func:`repro.server.app.serve_forever`.  Blocks;
    returns the exit code.
    """
    from repro.server import serve_forever as _serve_forever

    return _serve_forever(models_dir, host=host, port=port, jobs=jobs, **knobs)


def connect(host: str, port: int, timeout: float = 120.0):
    """A blocking :class:`~repro.server.client.ServerClient` for a server.

    ``connect(host, port).transform(model, document)`` raises the same
    exception type and message as the local :func:`run` would — remote
    and local failures are interchangeable to callers.
    """
    from repro.server import ServerClient

    return ServerClient(host, port, timeout=timeout)


def minimize(
    transducer: TransducerLike, domain: Optional[DTTA] = None
) -> CanonicalDTOP:
    """The canonical minimal earliest compatible transducer (Theorem 28).

    Two transducers denote the same translation iff their canonical forms
    are structurally equal — see :func:`equivalent`.
    """
    return canonicalize(_as_dtop(transducer), domain)


def equivalent(
    left: TransducerLike,
    right: TransducerLike,
    domain: Optional[DTTA] = None,
) -> bool:
    """Decide whether two transducers denote the same partial function.

    With ``domain`` given, equality is relative to its language.
    """
    return equivalent_on(_as_dtop(left), _as_dtop(right), domain)


def serialize(obj: Any, indent: int = 2) -> str:
    """Serialize a Tree, DTTA, DTOP, Sample (or wrapper) to stable JSON."""
    if isinstance(obj, (LearnedDTOP, CanonicalDTOP)):
        obj = obj.dtop
    return _serialize.dumps(obj, indent=indent)


def deserialize(text: str) -> Any:
    """Inverse of :func:`serialize`; the format key selects the type."""
    return _serialize.loads(text)


def save(obj: Any, path: str) -> None:
    """Serialize ``obj`` and write it to ``path`` (UTF-8 JSON)."""
    if isinstance(obj, (LearnedDTOP, CanonicalDTOP)):
        obj = obj.dtop
    _serialize.dump(obj, path)


def load(path: str) -> Any:
    """Read and deserialize an artifact written by :func:`save`."""
    return _serialize.load(path)


def learn_json(examples: Iterable[Tuple[Any, Any]], domain: Optional[DTTA] = None):
    """Learn a JSON-to-JSON transformation from example value pairs.

    Examples are plain Python values of the modeled JSON subset
    (``dict`` / ``list`` / ``str`` / numbers / bools / ``None``); the
    result is a :class:`repro.codec.Transformation` over the JSON codec.
    See :func:`repro.json.pipeline.learn_json_transformation`.
    """
    from repro.json.pipeline import learn_json_transformation

    return learn_json_transformation(examples, domain=domain)


def run_json(transformation, document: Any) -> Any:
    """Apply a JSON transformation to one document (a plain value)."""
    return transformation.apply(document)


def save_json(transformation, path: str) -> None:
    """Persist a JSON transformation as ``repro/json-transformation@1``."""
    transformation.save(path)


def load_json(path: str):
    """Load a transformation saved by :func:`save_json`."""
    import json

    from repro.codec import transformation_from_bundle
    from repro.json.pipeline import JSON_BUNDLE_FORMAT

    with open(path) as handle:
        bundle = json.load(handle)
    if not isinstance(bundle, dict) or bundle.get("format") != JSON_BUNDLE_FORMAT:
        raise ReproError(f"{path} is not a {JSON_BUNDLE_FORMAT} bundle")
    return transformation_from_bundle(bundle)


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Global cache counters: interning, the sample-table layer (builds
    vs. incremental extensions, signature bucket hits) and engine
    compilations.

    Per-sample memos are reported by ``Sample.cache_stats()`` and a
    transducer's run memo by ``engine_for(machine).cache_stats``.  The
    ``engine_artifacts`` entry counts table compilations (``compiles``).
    """
    return {
        "intern": intern_stats(),
        "sample_tables": sample_tables_stats(),
        "engine_artifacts": artifact_stats(),
    }
