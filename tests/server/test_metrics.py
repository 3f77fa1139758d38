"""The metrics layer: quantile accuracy, concurrency exactness, format.

Three pinned properties:

* **quantile accuracy** — the streaming histogram's interpolated
  p50/p95/p99 agree with the exact sample quantile over the same samples to
  within one geometric bucket's relative width, across several
  distributions (hypothesis-generated, uniform, lognormal-ish,
  constant, two-point);
* **counter exactness** — 16 threads hammering one counter (and 16
  concurrent network clients hammering one server) lose no increments:
  the counted total equals the number of requests *exactly*;
* **exposition validity** — a live server's ``metrics`` text response
  passes the shared Prometheus checker (TYPE declarations, cumulative
  buckets, ``+Inf == _count``), label values escape correctly, and the
  JSON snapshot agrees with the text rendering.
"""

import math
import random
import statistics
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.server import ServerClient, ServerMetrics, ServerThread
from repro.server.metrics import (
    DEFAULT_BOUNDS,
    GROWTH,
    Histogram,
    validate_exposition,
)

# A quantile estimate and the exact sample quantile always land in the
# same or adjacent geometric buckets, so their ratio is bounded by one
# bucket width squared; 1.6 leaves a little slack over GROWTH**2.
REL_TOL = GROWTH * GROWTH * 1.02


def assert_quantile_close(estimate: float, exact: float) -> None:
    if exact <= DEFAULT_BOUNDS[0]:
        # Inside the first bucket everything interpolates from min:
        # only absolute accuracy of one bucket width is promised.
        assert estimate <= DEFAULT_BOUNDS[0] * REL_TOL
        return
    ratio = estimate / exact
    assert 1.0 / REL_TOL <= ratio <= REL_TOL, (
        f"quantile estimate {estimate} vs exact {exact} (ratio {ratio})"
    )


def reference_quantile(values, q, method="linear"):
    """The exact sample ``q``-quantile, ``q`` a whole percentile.

    ``linear`` interpolates between the two order statistics around rank
    ``q * (n - 1)``; ``lower`` is the order statistic at its floor.
    """
    if method == "lower":
        return sorted(values)[math.floor(q * (len(values) - 1))]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


class TestReferenceQuantile:
    def test_four_points(self):
        values = [4, 2, 1, 3]
        assert reference_quantile(values, 0.50) == pytest.approx(2.5)
        assert reference_quantile(values, 0.50, method="lower") == 2
        assert reference_quantile(values, 0.99) == pytest.approx(3.97)
        assert reference_quantile(values, 0.99, method="lower") == 3

    def test_five_points(self):
        values = [10, 20, 30, 40, 50]
        assert reference_quantile(values, 0.50) == pytest.approx(30.0)
        assert reference_quantile(values, 0.95) == pytest.approx(48.0)
        assert reference_quantile(values, 0.95, method="lower") == 40


# ---------------------------------------------------------------------------
# Histogram: exact moments, estimated quantiles
# ---------------------------------------------------------------------------


class TestHistogramExactness:
    def test_count_sum_min_max_are_exact(self):
        histogram = Histogram()
        values = [0.002, 0.5, 0.0001, 3.7, 0.5, 42.0]
        for value in values:
            histogram.record(value)
        assert histogram.count == len(values)
        assert histogram.sum == pytest.approx(sum(values))
        assert histogram.min == min(values)
        assert histogram.max == max(values)

    def test_empty_histogram_answers_zero(self):
        histogram = Histogram()
        assert histogram.quantile(0.5) == 0.0
        summary = histogram.summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

    def test_single_sample_is_its_own_quantile(self):
        histogram = Histogram()
        histogram.record(0.25)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == pytest.approx(0.25)

    def test_extremes_are_clamped_to_observed_range(self):
        histogram = Histogram()
        for value in (0.010, 0.011, 0.012, 5.0):
            histogram.record(value)
        assert histogram.quantile(0.0) == 0.010
        assert histogram.quantile(1.0) == 5.0
        assert histogram.quantile(0.5) <= 5.0


class TestQuantileEdgeCases:
    """The pinned edge contract: empty → 0, one sample → itself,
    q ≤ 0 → min, q ≥ 1 → max, NaN → ValueError."""

    def test_empty_histogram_answers_zero_for_every_q(self):
        histogram = Histogram()
        for q in (-1.0, 0.0, 0.5, 1.0, 2.0):
            assert histogram.quantile(q) == 0.0

    def test_out_of_range_q_clamps_to_the_observed_extremes(self):
        histogram = Histogram()
        histogram.record(0.002)
        histogram.record(7.0)
        assert histogram.quantile(-0.5) == 0.002
        assert histogram.quantile(0.0) == 0.002
        assert histogram.quantile(1.0) == 7.0
        assert histogram.quantile(1.5) == 7.0

    def test_two_samples_interpolate_between_them(self):
        histogram = Histogram()
        histogram.record(0.010)
        histogram.record(0.020)
        for q in (0.25, 0.5, 0.75):
            assert 0.010 <= histogram.quantile(q) <= 0.020

    def test_single_observation_beyond_the_last_bucket(self):
        # One sample in the +Inf bucket: every quantile is that sample
        # (the count==1 short-circuit, not bucket interpolation).
        histogram = Histogram()
        histogram.record(500.0)
        for q in (0.0, 0.5, 1.0):
            assert histogram.quantile(q) == 500.0

    def test_nan_q_is_rejected(self):
        histogram = Histogram()
        histogram.record(0.5)
        histogram.record(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(math.nan)

    def test_summary_of_empty_histogram_is_all_zero(self):
        summary = Histogram().summary()
        assert summary == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }


class TestQuantileAccuracy:
    QS = (0.50, 0.95, 0.99)

    def check(self, values, method="linear"):
        histogram = Histogram()
        for value in values:
            histogram.record(value)
        for q in self.QS:
            assert_quantile_close(
                histogram.quantile(q),
                reference_quantile(values, q, method=method),
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=90.0, allow_nan=False),
            min_size=2,
            max_size=400,
        )
    )
    def test_against_reference_on_arbitrary_samples(self, values):
        # Sparse adversarial samples: the *linear* quantile may fall
        # between two order statistics buckets apart, where the
        # histogram holds no mass — no estimator over bucket counts can
        # bound that gap.  The ``lower`` method is an exact order
        # statistic, which provably shares the estimate's bucket.
        self.check(values, method="lower")

    def test_uniform_load(self):
        rng = random.Random(7)
        self.check([rng.uniform(0.001, 0.050) for _ in range(5000)])

    def test_heavy_tailed_load(self):
        rng = random.Random(11)
        self.check([rng.lognormvariate(-6.0, 1.5) for _ in range(5000)])

    def test_bimodal_load(self):
        rng = random.Random(13)
        fast = [rng.uniform(0.0005, 0.002) for _ in range(4500)]
        slow = [rng.uniform(0.5, 2.0) for _ in range(500)]
        self.check(fast + slow)

    def test_constant_load(self):
        self.check([0.0042] * 1000)

    def test_values_beyond_the_last_bucket_stay_in_observed_range(self):
        # The +Inf bucket is unbounded, so no relative accuracy is
        # promised there — but estimates still clamp to [min, max].
        histogram = Histogram()
        for value in (150.0, 250.0, 990.0, 990.0):
            histogram.record(value)
        for q in self.QS:
            assert 150.0 <= histogram.quantile(q) <= 990.0
        assert histogram.quantile(1.0) == 990.0


# ---------------------------------------------------------------------------
# Registry: concurrency exactness
# ---------------------------------------------------------------------------

THREADS = 16
PER_THREAD = 2000


class TestConcurrency:
    def test_16_threads_lose_no_increments(self):
        metrics = ServerMetrics()
        barrier = threading.Barrier(THREADS)

        def hammer(index: int) -> None:
            barrier.wait()
            for _ in range(PER_THREAD):
                metrics.inc("test_hits_total", {"thread": str(index % 4)})
                metrics.observe("test_seconds", None, 0.001)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.counter_total("test_hits_total") == THREADS * PER_THREAD
        assert metrics.histogram("test_seconds").count == THREADS * PER_THREAD

    def test_16_concurrent_clients_count_exactly(self, models_dir):
        clients = 16
        per_client = 25
        document = "root(a(#, #), #)"
        with ServerThread(models_dir) as handle:
            errors = []

            def drive() -> None:
                try:
                    with ServerClient(handle.host, handle.port) as client:
                        for _ in range(per_client):
                            assert (
                                client.transform("flip", document)
                                == "root(#, a(#, #))"
                            )
                except Exception as error:  # pragma: no cover - diagnostics
                    errors.append(error)

            threads = [
                threading.Thread(target=drive) for _ in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            metrics = handle.server.metrics
            assert (
                metrics.counter_value(
                    "repro_requests_total",
                    {"model": "flip@1", "outcome": "ok"},
                )
                == clients * per_client
            )
            assert (
                metrics.histogram(
                    "repro_request_seconds", {"model": "flip@1"}
                ).count
                == clients * per_client
            )
            assert (
                metrics.histogram(
                    "repro_queue_wait_seconds", {"model": "flip@1"}
                ).count
                == clients * per_client
            )
            assert (
                metrics.counter_value("repro_connections_total") == clients
            )


# ---------------------------------------------------------------------------
# Exposition: the text format and the snapshot agree
# ---------------------------------------------------------------------------


class TestExposition:
    def test_rendering_round_trips_through_the_validator(self):
        metrics = ServerMetrics()
        metrics.inc("repro_requests_total", {"model": "m@1", "outcome": "ok"})
        metrics.inc(
            "repro_requests_total", {"model": "m@1", "outcome": "error"}, by=3
        )
        metrics.set_gauge("repro_shard_state", {"model": "m@1"}, 2)
        for value in (0.001, 0.02, 0.3, 4.0):
            metrics.observe("repro_request_seconds", {"model": "m@1"}, value)
        samples = validate_exposition(metrics.render_prometheus())
        assert samples["repro_requests_total"][
            (("model", "m@1"), ("outcome", "ok"),)
        ] == 1
        assert samples["repro_requests_total"][
            (("model", "m@1"), ("outcome", "error"),)
        ] == 3
        assert samples["repro_shard_state"][(("model", "m@1"),)] == 2
        assert samples["repro_request_seconds_count"][(("model", "m@1"),)] == 4
        assert samples["repro_request_seconds_sum"][
            (("model", "m@1"),)
        ] == pytest.approx(4.321)

    def test_set_family_replaces_series_and_keeps_declared_types(self):
        metrics = ServerMetrics()
        first = [({"model": "a@1"}, 7), ({"model": "b@1"}, 3)]
        metrics.set_family("repro_engine_memo_entries", first)
        metrics.set_family("repro_memo_evictions_total", first)
        # A model gone from the next scrape leaves no stale series.
        metrics.set_family("repro_engine_memo_entries", first[:1])
        metrics.set_family("repro_memo_evictions_total", [])
        text = metrics.render_prometheus()
        samples = validate_exposition(text)
        assert samples["repro_engine_memo_entries"] == {
            (("model", "a@1"),): 7
        }
        assert "repro_memo_evictions_total" not in text
        assert "# TYPE repro_engine_memo_entries gauge" in text
        metrics.set_family("repro_memo_evictions_total", first)
        assert metrics.counter_total("repro_memo_evictions_total") == 10

    def test_label_values_escape(self):
        metrics = ServerMetrics()
        awkward = 'quo"te\\slash\nnewline'
        metrics.inc("test_total", {"model": awkward})
        samples = validate_exposition(metrics.render_prometheus())
        (labels,) = samples["test_total"]
        assert dict(labels)["model"] == 'quo\\"te\\\\slash\\nnewline'

    def test_inf_bucket_equals_count_even_with_overflow_values(self):
        metrics = ServerMetrics()
        metrics.observe("test_seconds", None, 1e6)  # beyond every bound
        metrics.observe("test_seconds", None, 0.001)
        samples = validate_exposition(metrics.render_prometheus())
        assert samples["test_seconds_bucket"][(("le", "+Inf"),)] == 2
        assert samples["test_seconds_count"][()] == 2

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_exposition("not a metric line at all!\n")
        with pytest.raises(ValueError):
            validate_exposition("orphan_total 3\n")  # no TYPE declaration
        broken = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\nh_bucket{le="+Inf"} 3\n'
            "h_sum 1.0\nh_count 3\n"
        )
        with pytest.raises(ValueError, match="cumulative"):
            validate_exposition(broken)
        missing_inf = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\nh_sum 1.0\nh_count 5\n'
        )
        with pytest.raises(ValueError, match=r"\+Inf"):
            validate_exposition(missing_inf)

    def test_live_server_exposition_is_valid(self, models_dir):
        with ServerThread(models_dir) as handle:
            with ServerClient(handle.host, handle.port) as client:
                for _ in range(5):
                    client.transform("flip", "root(a(#, #), #)")
                text = client.metrics_text()
                samples = validate_exposition(text)
                key = (("model", "flip@1"), ("outcome", "ok"))
                assert samples["repro_requests_total"][key] == 5
                snapshot = client.metrics()
                (series,) = [
                    s
                    for s in snapshot["counters"]["repro_requests_total"]
                    if s["labels"]["outcome"] == "ok"
                ]
                assert series["value"] == 5
                (latency,) = snapshot["histograms"]["repro_request_seconds"]
                assert latency["count"] == 5
                assert latency["min"] <= latency["p50"] <= latency["max"]
