"""E21 — request tracing overhead and the engine hot-path profiler.

Not a paper experiment: this benchmark prices the observability layer
(``repro.obs`` + the engine profiler).  Two claims:

(a) **overhead**: serving the flip model to 8 concurrent clients with
    tracing *sampled* at rate 0.01 costs < 5% extra p99 latency over
    tracing disabled (plus a 2 ms noise floor — loopback p99 jitters
    more than a trace costs).  Each mode runs ``ROUNDS`` times, the
    two alternating, and the check compares the per-mode median p99:
    one jittery run swings p99 by more than the budget.  The
    *full*-rate configuration (every request traced, events emitted)
    is measured once and recorded but not asserted: it is the price
    ceiling, not the operating point.

(b) **profiler**: after serving traffic to a stock *pipeline* model
    (``swap-twice@1``, two fused stages), the ``profile`` verb answers
    non-empty per-rule hit counts; the top-k hottest rules are
    recorded.

Measurements land in ``BENCH_trace.json`` (or ``$BENCH_TRACE_JSON``)
so CI can archive them next to the other bench-smoke artifacts.
"""

import json
import os
import statistics
import threading
import time

from repro import api
from repro.server import ServerClient, ServerThread
from repro.server.logging import EventLog
from repro.workloads.flip import flip_input, flip_transducer
from repro.workloads.stock import build_stock_models

from benchmarks.conftest import report

_RESULTS_PATH = os.environ.get("BENCH_TRACE_JSON", "BENCH_trace.json")
_RESULTS = {}

#: Concurrent blocking clients.
CLIENTS = 8
#: Measured requests per client (after warmup).
PER_CLIENT = 50
#: Warmup requests (compile the engine, settle the batcher) — excluded
#: from the latency sample.
WARMUP = 32
#: Profiler rules reported.
TOP_K = 5
#: Alternating disabled/sampled rounds behind each median p99.
ROUNDS = 5
#: Server options of the two compared modes.
MODES = {"disabled": {}, "sampled": {"trace_sample_rate": 0.01}}
#: Overhead budget for the sampled configuration: ratio and absolute
#: noise floor, both env-tunable for slow CI hosts.
MAX_OVERHEAD_RATIO = float(os.environ.get("BENCH_TRACE_MAX_OVERHEAD", "1.05"))
NOISE_FLOOR_S = float(os.environ.get("BENCH_TRACE_NOISE_FLOOR_S", "0.002"))

DOCUMENTS = [str(flip_input(n % 7, (n + 3) % 7)) for n in range(64)]


def _flush_results() -> None:
    with open(_RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)


def _percentile(samples, q):
    ordered = sorted(samples)
    return ordered[int(q * (len(ordered) - 1))]


def _drive(host, port):
    """8 blocking clients; per-request latencies after a warmup pass."""
    latencies = [[] for _ in range(CLIENTS)]

    def worker(slot):
        with ServerClient(host, port) as client:
            for n in range(WARMUP // CLIENTS):
                client.transform("flip", DOCUMENTS[n % len(DOCUMENTS)])
            for n in range(PER_CLIENT):
                text = DOCUMENTS[(slot * PER_CLIENT + n) % len(DOCUMENTS)]
                start = time.perf_counter()
                client.transform("flip", text)
                latencies[slot].append(time.perf_counter() - start)

    threads = [
        threading.Thread(target=worker, args=(slot,))
        for slot in range(CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return elapsed, [sample for slot in latencies for sample in slot]


def _measure(tmp_path, **server_kwargs):
    """One server configuration end-to-end: latency stats + metrics."""
    events = []
    log = EventLog(enabled=True).add_sink(events.append)
    with ServerThread(
        tmp_path, max_batch=16, events=log, **server_kwargs
    ) as handle:
        elapsed, latencies = _drive(handle.host, handle.port)
        with ServerClient(handle.host, handle.port) as client:
            counters = client.metrics()["counters"]
    traced = sum(
        series["value"] for series in counters.get("repro_traces_total", [])
    )
    return {
        "requests": len(latencies),
        "elapsed_s": elapsed,
        "requests_per_s": len(latencies) / max(elapsed, 1e-9),
        "p50_s": _percentile(latencies, 0.50),
        "p99_s": _percentile(latencies, 0.99),
        "traced_requests": traced,
        "trace_events": sum(
            1 for e in events if e["event"].startswith("trace.")
        ),
    }


def test_e21_sampled_tracing_overhead_is_under_budget(benchmark, tmp_path):
    api.save(flip_transducer(), str(tmp_path / "flip@1.json"))

    def race():
        runs = {mode: [] for mode in MODES}
        for index in range(ROUNDS):
            order = list(MODES) if index % 2 == 0 else list(MODES)[::-1]
            for mode in order:
                runs[mode].append(_measure(tmp_path, **MODES[mode]))
        return runs, _measure(tmp_path, trace_sample_rate=1.0)

    runs, full = benchmark.pedantic(race, rounds=1, iterations=1)
    assert all(run["traced_requests"] == 0 for run in runs["disabled"])
    assert all(run["trace_events"] == 0 for run in runs["disabled"])
    # Full-rate tracing really traced (and event-logged) every request.
    assert full["traced_requests"] == full["requests"] + WARMUP
    assert full["trace_events"] == full["traced_requests"]

    disabled, sampled = (
        statistics.median(run["p99_s"] for run in runs[mode])
        for mode in ("disabled", "sampled")
    )
    budget_s = disabled * MAX_OVERHEAD_RATIO + NOISE_FLOOR_S
    _RESULTS["overhead"] = {
        "clients": CLIENTS,
        "per_client": PER_CLIENT,
        "rounds": ROUNDS,
        "modes": {**runs, "full": full},
        "median_p99_s": {"disabled": disabled, "sampled": sampled},
        "sampled_rate": 0.01,
        "p99_budget_s": budget_s,
        "p99_overhead_ratio": sampled / max(disabled, 1e-9),
        "full_overhead_ratio": full["p99_s"] / max(disabled, 1e-9),
    }
    _flush_results()
    report(
        "E21/overhead",
        "tracing sampled at 0.01 costs < 5% p99 latency over disabled",
        f"median p99 of {ROUNDS} rounds: disabled {disabled * 1e3:.2f} ms, "
        f"sampled {sampled * 1e3:.2f} ms; full {full['p99_s'] * 1e3:.2f} ms "
        f"({full['traced_requests']} traces at rate 1.0)",
    )
    assert sampled <= budget_s, (
        f"sampled tracing median p99 {sampled * 1e3:.2f} ms exceeds "
        f"budget {budget_s * 1e3:.2f} ms "
        f"(disabled median p99 {disabled * 1e3:.2f} ms)"
    )


def test_e21_profiler_reports_the_hot_rules_of_a_stock_pipeline(
    benchmark, tmp_path
):
    models = tmp_path / "models"
    models.mkdir()
    build_stock_models(models)
    texts = [str(flip_input(n % 6, (n + 2) % 6)) for n in range(48)]

    def race():
        # Serial server: the profiled engine runs in-process (sharded
        # workers profile in their own processes — documented caveat).
        with ServerThread(models) as handle:
            with ServerClient(handle.host, handle.port) as client:
                start = time.perf_counter()
                for text in texts:
                    client.transform("swap-twice", text)
                elapsed = time.perf_counter() - start
                profiles = client.profile(model="swap-twice")
        return elapsed, profiles

    elapsed, profiles = benchmark.pedantic(race, rounds=1, iterations=1)
    snapshot = profiles["swap-twice@1"]
    assert snapshot["rules"], "expected non-empty per-rule counts"
    assert snapshot["rules_evaluated"] > 0
    assert snapshot["sweeps"] >= 1
    top = snapshot["rules"][:TOP_K]
    assert all(entry["hits"] > 0 for entry in top)
    _RESULTS["profiler"] = {
        "model": "swap-twice@1",
        "documents": len(texts),
        "serve_s": elapsed,
        "sweeps": snapshot["sweeps"],
        "rules_evaluated": snapshot["rules_evaluated"],
        "top_rules": top,
    }
    _flush_results()
    report(
        "E21/profiler",
        "the profile verb answers per-rule hit counts for a stock pipeline",
        f"swap-twice@1: {snapshot['rules_evaluated']} evaluations over "
        f"{snapshot['sweeps']} sweeps; hottest rule "
        f"{top[0]['label']!r} with {top[0]['hits']} hits",
    )
