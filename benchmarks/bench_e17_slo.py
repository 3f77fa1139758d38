"""E17 — serving SLO: tail latency under sustained load and under faults.

Not a paper experiment: this benchmark guards the observability and
supervision layer (PR 6).  Two phases against one live server:

(a) **steady state** — 8 concurrent clients sustain ~1200 requests
    against a micro-batched flip model; the server's own streaming
    histogram must report a p99 end-to-end latency under the SLO
    (``BENCH_SLO_P99_MS``, default 250 ms — generous for CI noise; the
    typical figure is a few milliseconds), and the counted requests
    must equal the driven requests exactly.

(b) **fault injection** — with the worker-crash hook armed, two poison
    documents kill a sharded worker twice mid-load.  The server must
    stay up, resolve the poisoned requests to per-document errors,
    restart the shard (crash and restart counters observable via the
    ``metrics`` verb), and keep serving; the fault-phase p99 is
    recorded alongside the steady-state one.

Both phases' quantiles, counters, and the SLO verdict land in
``BENCH_slo.json`` (or ``$BENCH_SLO_JSON``) for the CI artifact, and
the live Prometheus exposition is validated with the shared checker.
"""

import json
import os
import threading
import time

from repro import api
from repro.errors import ReproError
from repro.server import ServerClient, ServerThread, validate_exposition
from repro.workloads.flip import flip_input, flip_transducer

from benchmarks.conftest import report
from tests.server.faults import poison_label, wait_until

_RESULTS_PATH = os.environ.get("BENCH_SLO_JSON", "BENCH_slo.json")
_RESULTS = {}

#: Concurrent blocking clients sustaining the load.
CLIENTS = 8
#: Requests per client in the steady-state phase.
PER_CLIENT = 150
#: Requests per client in the fault phase (shorter: same shape).
FAULT_PER_CLIENT = 40
#: Steady-state p99 SLO in milliseconds (override: BENCH_SLO_P99_MS).
SLO_P99_MS = float(os.environ.get("BENCH_SLO_P99_MS", "250"))

SUPERVISION = dict(
    supervise_interval=0.05,
    supervisor_options=dict(
        backoff_base=0.05,
        backoff_cap=0.5,
        flap_threshold=100,  # this run must restart, never quarantine
        flap_window=30.0,
    ),
)


def _flush_results() -> None:
    with open(_RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)


def _drive(host, port, per_client) -> float:
    """CLIENTS concurrent clients, each sending its request slice."""
    documents = [
        str(flip_input(n % 4, (n + 1) % 3)) for n in range(per_client)
    ]
    failures = []

    def worker() -> None:
        try:
            with ServerClient(host, port) as client:
                for document in documents:
                    client.transform("flip", document)
        except ReproError as error:  # pragma: no cover - diagnostics
            failures.append(error)

    threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures[0]
    return time.perf_counter() - start


def _latency(snapshot) -> dict:
    (series,) = [
        s
        for s in snapshot["histograms"]["repro_request_seconds"]
        if s["labels"] == {"model": "flip@1"}
    ]
    return series


def _counter(snapshot, name, **labels) -> float:
    for series in snapshot["counters"].get(name, []):
        if series["labels"] == labels:
            return series["value"]
    return 0.0


def test_e17_p99_slo_under_sustained_load_and_faults(benchmark, tmp_path):
    api.save(flip_transducer(), str(tmp_path / "flip@1.json"))
    total = CLIENTS * PER_CLIENT

    with poison_label() as poison:
        with ServerThread(tmp_path, jobs=2, **SUPERVISION) as handle:
            # -- phase (a): steady state --------------------------------
            elapsed = benchmark.pedantic(
                lambda: _drive(handle.host, handle.port, PER_CLIENT),
                rounds=1,
                iterations=1,
            )
            with ServerClient(handle.host, handle.port) as client:
                steady = client.metrics()
                validate_exposition(client.metrics_text())
            steady_latency = _latency(steady)
            assert (
                _counter(
                    steady,
                    "repro_requests_total",
                    model="flip@1",
                    outcome="ok",
                )
                == total
            )
            assert steady_latency["count"] == total
            steady_p99_ms = steady_latency["p99"] * 1e3

            # -- phase (b): two worker kills mid-load -------------------
            server = handle.server
            with ServerClient(handle.host, handle.port) as client:
                for round_number in (1, 2):
                    outcome = client.try_transform("flip", poison)
                    assert isinstance(outcome, ReproError)
                    wait_until(
                        lambda: server.metrics.counter_value(
                            "repro_shard_restarts_total",
                            {"model": "flip@1"},
                        )
                        >= round_number,
                        message="supervisor never restarted the shard",
                    )
                fault_elapsed = _drive(
                    handle.host, handle.port, FAULT_PER_CLIENT
                )
                final = client.metrics()
                assert client.health()["status"] == "serving"

            crashes = _counter(
                final, "repro_worker_crashes_total", model="flip@1"
            )
            restarts = _counter(
                final, "repro_shard_restarts_total", model="flip@1"
            )
            assert crashes >= 2 and restarts >= 2
            fault_latency = _latency(final)
            fault_total = total + 2 + CLIENTS * FAULT_PER_CLIENT
            assert fault_latency["count"] == fault_total
            fault_p99_ms = fault_latency["p99"] * 1e3

    _RESULTS["slo"] = {
        "clients": CLIENTS,
        "steady_requests": total,
        "steady_s": elapsed,
        "steady_docs_per_s": total / max(elapsed, 1e-9),
        "steady_p50_ms": steady_latency["p50"] * 1e3,
        "steady_p95_ms": steady_latency["p95"] * 1e3,
        "steady_p99_ms": steady_p99_ms,
        "slo_p99_ms": SLO_P99_MS,
        "fault_requests": CLIENTS * FAULT_PER_CLIENT,
        "fault_s": fault_elapsed,
        "fault_p99_ms": fault_p99_ms,
        "worker_crashes": crashes,
        "shard_restarts": restarts,
    }
    _flush_results()
    report(
        "E17/slo",
        f"p99 end-to-end latency stays under {SLO_P99_MS:.0f} ms at "
        f"{CLIENTS} sustained clients, through two worker kills",
        f"steady p99 {steady_p99_ms:.2f} ms over {total} requests; "
        f"fault-phase p99 {fault_p99_ms:.2f} ms with {crashes:.0f} "
        f"crashes / {restarts:.0f} supervised restarts",
    )
    assert steady_p99_ms <= SLO_P99_MS, (
        f"steady-state p99 {steady_p99_ms:.2f} ms exceeds the "
        f"{SLO_P99_MS:.0f} ms SLO"
    )
