"""The serving workloads: one client over a loopback ``ServerThread``.

Both workloads boot ``ServerThread(models, warm=True, jobs=1)`` over a
copy of the shipped ``models/`` library and drive it from one client
thread over one connection, as a closed loop: the next request goes out
when the previous response is read.  Every response is compared byte
for byte with a reference computed locally through ``api.run`` (raw and
pipeline models, staged member by member) or the bundle's ``apply``.
"""

from __future__ import annotations

import gc
import json
import shutil
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import api
from repro.cli import load_any_transformation
from repro.engine import artifact_stats
from repro.errors import ReproError
from repro.json.jsonio import parse_json, serialize_json
from repro.server import ServerClient, ServerThread
from repro.server.registry import ModelRegistry
from repro.xml import parse_xml, serialize_xml

from perfbench import inputs
from perfbench.layers import REQUEST_SPANS, LayerRecorder, SpanStats, wrapped_metrics
from perfbench.measure import Metrics, Outcome, ms, quantile, top_mean

#: Server boots per run; ``setup_s`` is their median.
BOOTS = 25
#: Direct registry boots per traced run (``registry.boot_ms``).
REGISTRY_BOOTS = 25


# ---------------------------------------------------------------------------
# Models, references, boots
# ---------------------------------------------------------------------------


def copy_models(source: Path, target: Path) -> Path:
    """Copy the model JSON files (no sidecars) into a fresh directory."""
    target.mkdir(parents=True)
    for path in sorted(source.glob("*.json")):
        shutil.copyfile(path, target / path.name)
    return target


def drop_sidecars(models_dir: Path) -> None:
    for path in models_dir.glob("*.engine"):
        path.unlink()


def references(models_dir: Path, models) -> Dict[str, Callable[[str], str]]:
    """Local reference renderers, one per served model key."""
    functions: Dict[str, Callable[[str], str]] = {}
    for key in models:
        path = models_dir / f"{key}.json"
        data = json.loads(path.read_text())
        kind = data.get("format")
        if kind == "repro/pipeline@1":
            stages = [api.load(str(models_dir / f"{ref}.json")) for ref in data["stages"]]

            def staged(text, stages=stages):
                tree = api.parse_tree(text)
                for stage in stages:
                    tree = api.run(stage, tree)
                return str(tree)

            functions[key] = staged
        elif kind == "repro/dtop@1":
            machine = api.load(str(path))
            functions[key] = lambda text, machine=machine: str(api.run(machine, text))
        elif kind == "repro/json-transformation@1":
            bundle = load_any_transformation(path)
            functions[key] = lambda text, bundle=bundle: serialize_json(
                bundle.apply(parse_json(text))
            )
        else:
            bundle = load_any_transformation(path)
            functions[key] = lambda text, bundle=bundle: serialize_xml(
                bundle.apply(parse_xml(text, ignore_attributes=True))
            )
    return functions


def boot_servers(models_dir: Path, cold: bool) -> Tuple[ServerThread, List[float], Dict]:
    """Boot :data:`BOOTS` servers; keep the last one running.

    ``cold`` removes the ``.engine`` sidecars before every boot, so each
    one compiles and fuses; otherwise one unmeasured boot writes the
    sidecars and every measured boot is the restart path that loads them.
    Each boot starts after a full collection, as a fresh server process
    would start without the benchmark's garbage; otherwise a generation-2
    pass lands in one boot of a run, and in which one varies.  Returns
    the live server, the boot times and the artifact counters of the
    last boot.
    """
    if not cold:
        ServerThread(models_dir, warm=True, jobs=1).start().stop()
    samples: List[float] = []
    handle: Optional[ServerThread] = None
    counters: Dict[str, int] = {}
    for boot in range(BOOTS):
        if cold:
            drop_sidecars(models_dir)
        gc.collect()
        before = artifact_stats()
        started = time.perf_counter()
        handle = ServerThread(models_dir, warm=True, jobs=1).start()
        samples.append(time.perf_counter() - started)
        after = artifact_stats()
        counters = {key: after[key] - before[key] for key in after}
        if boot < BOOTS - 1:
            handle.stop()
    return handle, samples, counters


def registry_layers(models_dir: Path, cold: bool, counters: Dict) -> Metrics:
    """``registry.*``: a boot's artifact counters and the registry alone.

    ``registry.boot_ms`` is the median of ``ModelRegistry(...)`` plus
    ``warm()`` without the server around it.
    """
    samples = []
    for _ in range(REGISTRY_BOOTS):
        if cold:
            drop_sidecars(models_dir)
        gc.collect()
        started = time.perf_counter()
        registry = ModelRegistry(models_dir, jobs=1)
        registry.warm()
        samples.append(time.perf_counter() - started)
        registry.close()
    metrics = Metrics()
    metrics.put("registry.boot_ms", ms(quantile(samples, 0.5)), "ms")
    metrics.put("registry.compiles", counters["compiles"], "count")
    metrics.put("registry.sidecar_hits", counters["payload_hits"], "count")
    return metrics


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def _histogram_totals(snapshot: Dict, name: str) -> Tuple[float, float]:
    series = snapshot["histograms"].get(name, [])
    return (
        sum(entry["sum"] for entry in series),
        sum(entry["count"] for entry in series),
    )


def _engine_totals(handle: ServerThread, models) -> Dict[str, float]:
    totals = {"hits": 0, "misses": 0, "entries": 0}
    for key in models:
        stats = handle.server.registry.get(key).ensure_engine().cache_stats
        for name in totals:
            totals[name] += stats[name]
    return totals


def _counter_deltas(before: Dict, after: Dict, engines_before: Dict, engines_after: Dict) -> Metrics:
    """What one untraced phase moved in the always-on counters."""
    metrics = Metrics()

    def mean_of(family: str) -> float:
        total_after, count_after = _histogram_totals(after, family)
        total_before, count_before = _histogram_totals(before, family)
        count = count_after - count_before
        return (total_after - total_before) / count if count else 0.0

    for metric, family in (
        ("untraced.queue_wait_mean_ms", "repro_queue_wait_seconds"),
        ("untraced.batch_assembly_mean_ms", "repro_batch_assembly_seconds"),
        ("untraced.dispatch_mean_ms", "repro_dispatch_seconds"),
        ("untraced.request_mean_ms", "repro_request_seconds"),
    ):
        metrics.put(metric, ms(mean_of(family)), "ms")
    metrics.put("batcher.batch_docs_mean", mean_of("repro_batch_documents"), "count")

    def overloads(snapshot: Dict) -> float:
        return sum(
            entry["value"]
            for entry in snapshot["counters"].get("repro_overloads_total", [])
        )

    metrics.put("batcher.overloads", overloads(after) - overloads(before), "count")
    hits = engines_after["hits"] - engines_before["hits"]
    misses = engines_after["misses"] - engines_before["misses"]
    metrics.put(
        "engine.memo_hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio"
    )
    metrics.put("engine.memo_entries", engines_after["entries"], "count")
    return metrics


def traced_run(
    outcome: Outcome,
    client: ServerClient,
    handle: ServerThread,
    models,
    run: Callable[[Outcome, bool], None],
) -> None:
    """Half the run untraced, reading counters; half traced, wrapped.

    ``run(target, traced)`` measures one half into ``target``.  The
    untraced half reports the always-on counters it moved (the server's
    ``metrics`` verb and ``Engine.cache_stats``); the traced half runs
    with the layer wrappers installed and reports their timings.
    """
    untraced = Outcome()
    before, engines_before = client.metrics(), _engine_totals(handle, models)
    run(untraced, False)
    after, engines_after = client.metrics(), _engine_totals(handle, models)
    recorder = LayerRecorder()
    engine_classes = {
        type(handle.server.registry.get(key).ensure_engine()) for key in models
    }
    with recorder.installed(engine_classes):
        run(outcome, True)
    outcome.layers.update(_counter_deltas(before, after, engines_before, engines_after))
    outcome.layers.update(wrapped_metrics(recorder))
    outcome.layers.put(
        "trace.overhead_share", untraced.ops_per_s / outcome.ops_per_s - 1.0, "ratio"
    )


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


def _request_loop(client, pool, draws, seconds, outcome, answers, by_doc, spans=None) -> None:
    """Closed loop of single-document requests for ``seconds``.

    Each latency also lands in ``by_doc[pool index]``.  With ``spans``
    every request asks for its span tree, which is folded into
    ``spans``; the client round trip minus the server's ``request`` span
    lands in ``spans.durations["wire"]``.
    """
    started = time.perf_counter()
    deadline = started + seconds
    now = started
    while now < deadline:
        index = next(draws)
        model, text = pool[index]
        begun = time.perf_counter()
        if spans is None:
            answer = client.try_transform(model, text)
        else:
            try:
                answer, trace = client.transform_traced(model, text)
            except ReproError as error:
                answer, trace = error, None
        now = time.perf_counter()
        outcome.record(now - begun)
        by_doc.setdefault(index, []).append(now - begun)
        answers.append((index, answer))
        if spans is not None and trace:
            spans.add(trace)
            spans.durations.setdefault("wire", []).append(
                ms(now - begun) - trace["duration_ms"]
            )
    outcome.busy_s += now - started


def _span_layers(spans: SpanStats) -> Metrics:
    metrics = Metrics()
    for name, span, q in (
        ("app.decode_p50_ms", "decode", 0.5),
        ("app.encode_p50_ms", "encode", 0.5),
        ("app.encode_p99_ms", "encode", 0.99),
        ("wire.p50_ms", "wire", 0.5),
        ("batcher.queue_p50_ms", "queue", 0.5),
        ("batcher.queue_p99_ms", "queue", 0.99),
        ("batcher.assemble_p50_ms", "batch.assemble", 0.5),
        ("batcher.hop_p50_ms", "dispatch.self", 0.5),
    ):
        metrics.put(name, quantile(spans.get(span), q), "ms")
    for name in ("request",) + REQUEST_SPANS:
        metrics.put(f"share.{name}", spans.share(name), "ratio")
    return metrics


def serve_mixed(root: Path, workdir: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    models_dir = copy_models(root / "models", workdir / "models")
    pool = inputs.serve_pool(seed)
    reference = references(models_dir, inputs.SERVE_MODELS)
    expected = [reference[model](text) for model, text in pool]
    outcome = Outcome()
    handle, outcome.setup, boot_counters = boot_servers(models_dir, cold=False)
    draws = inputs.serve_requests(seed, len(pool))
    spans = SpanStats()
    by_doc: Dict[int, List[float]] = {}
    try:
        with ServerClient(handle.host, handle.port) as client:
            # Warm-up: every pool document once, so the timed requests
            # all repeat a document the server has already answered.
            answers: List[Tuple[int, object]] = [
                (index, client.try_transform(model, text))
                for index, (model, text) in enumerate(pool)
            ]
            gc.collect()

            def run(target: Outcome, traced: bool) -> None:
                _request_loop(
                    client, pool, draws, seconds / 2 if trace else seconds,
                    target, answers, by_doc, spans if traced else None,
                )

            if trace:
                traced_run(outcome, client, handle, inputs.SERVE_MODELS, run)
                outcome.layers.update(_span_layers(spans))
                outcome.layers.update(registry_layers(models_dir, False, boot_counters))
            else:
                run(outcome, False)
    finally:
        handle.stop()
    # The tail is taken over documents, each at the lower quartile of its
    # repeats: what the slowest documents cost the program.  Preemption
    # and collector passes only ever add time, so unlike a request p99
    # this does not move when they hit a few of the widest documents'
    # requests, or a slow spell of the host covers part of the run.
    per_doc = [quantile(samples, 0.25) for samples in by_doc.values()]
    outcome.tail_s = quantile(per_doc, 0.99)
    outcome.tail_note = f"p99 of {len(per_doc)} documents' lower-quartile latencies"
    outcome.attempted = len(answers)
    outcome.failed = sum(answer != expected[index] for index, answer in answers)
    outcome.notes.update(inputs.describe_documents(pool))
    outcome.notes["timed_requests"] = outcome.ops
    return outcome


# ---------------------------------------------------------------------------
# stream-distinct
# ---------------------------------------------------------------------------


def _round_loop(client, rounds, seconds, outcome, sent, max_rounds=None) -> None:
    """Send rounds of bodies until ``seconds`` of round trips are measured.

    One op of the latency metrics is one round: a body per stream model,
    back to back, so the samples do not split into one mode per model.
    The clock stops between bodies, where the next body is generated.
    Answers are kept in ``sent`` and checked after the loop: checking
    allocates, and the collector passes it triggers would otherwise land
    in the server's measured time or hide the server's own.
    """
    rounds_sent = 0
    while outcome.busy_s < seconds and rounds_sent != max_rounds:
        rounds_sent += 1
        round_s = 0.0
        round_docs = 0
        for model, documents in next(rounds):
            body = inputs.stream_body_bytes(model, documents)
            started = time.perf_counter()
            try:
                answers = client.transform_stream(model, body)
            except ReproError as error:
                answers = [error] * len(documents)
            round_s += time.perf_counter() - started
            round_docs += len(documents)
            sent.append((model, documents, answers))
        outcome.busy_s += round_s
        outcome.record(round_s, round_docs)


def stream_distinct(
    root: Path, workdir: Path, seed: int, seconds: float, trace: bool
) -> Outcome:
    models_dir = copy_models(root / "models", workdir / "models")
    reference = references(models_dir, inputs.STREAM_MODELS)
    rounds = inputs.stream_rounds(seed)
    outcome = Outcome()
    handle, outcome.setup, boot_counters = boot_servers(models_dir, cold=True)
    sent: List[tuple] = []
    try:
        with ServerClient(handle.host, handle.port) as client:
            _round_loop(client, rounds, seconds, Outcome(), sent, max_rounds=1)
            gc.collect()

            def run(target: Outcome, _traced: bool) -> None:
                _round_loop(client, rounds, seconds / 2 if trace else seconds, target, sent)

            if trace:
                traced_run(outcome, client, handle, inputs.STREAM_MODELS, run)
                outcome.layers.update(registry_layers(models_dir, True, boot_counters))
            else:
                run(outcome, False)
    finally:
        handle.stop()
    for model, documents, answers in sent:
        outcome.attempted += len(documents)
        if len(answers) != len(documents):
            outcome.failed += len(documents)
            continue
        for text, answer in zip(documents, answers):
            if answer != reference[model](text):
                outcome.failed += 1
    # The slowest rounds are the ones a full collection of the growing
    # memo heap lands in, each longer than the last.  A p95 sits on that
    # ramp and jumps with where the cut falls; their mean moves far less.
    outcome.tail_s = top_mean(outcome.latencies, 0.05)
    outcome.tail_note = f"mean of the slowest 5% of {len(outcome.latencies)} rounds"
    first_round = next(inputs.stream_rounds(seed))
    outcome.notes.update(
        inputs.describe_documents(
            [(model, text) for model, documents in first_round for text in documents]
        )
    )
    outcome.notes["body_documents"] = inputs.BODY_DOCS
    outcome.notes["timed_rounds"] = len(outcome.latencies)
    return outcome
