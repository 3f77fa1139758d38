"""Server metrics: lock-cheap counters and streaming latency histograms.

The server's operability story rests on three primitives, all
zero-dependency and cheap enough to sit on every request path:

:class:`Histogram`
    a streaming histogram over geometrically spaced buckets
    (``GROWTH`` = 1.25 per step, ~10 µs to ~100 s).  ``record`` is O(1)
    (one bisect, three integer adds); ``quantile`` interpolates inside
    the bucket holding the requested order statistic, so p50/p95/p99
    estimates carry a bounded *relative* error of one bucket width —
    within ±25 % of the exact sample quantile, pinned against a stdlib
    reference by the property tests.  Sum/count/min/max are exact.

:class:`ServerMetrics`
    a named registry of counter / gauge / histogram families with
    ``{label="value"}`` dimensions (``model=``, ``outcome=``, …).  One
    plain ``threading.Lock`` guards every update — critical sections
    are a few dict operations, never per-node work, so 16 concurrent
    clients hammering one counter lose no increments (pinned by the
    concurrency tests) without any per-family lock zoo.

Prometheus exposition
    :meth:`ServerMetrics.render_prometheus` emits the standard text
    format (``# HELP`` / ``# TYPE``, cumulative ``_bucket{le=}`` /
    ``_sum`` / ``_count`` series); :func:`validate_exposition` is the
    shared format checker the test suite and the CI smoke job both run
    against a live server's ``metrics`` response.

The metric taxonomy the server emits (see ``docs/ARCHITECTURE.md``):

========================================  =========  =======================
family                                    type       labels
========================================  =========  =======================
``repro_requests_total``                  counter    ``model``, ``outcome``
``repro_connections_total``               counter    —
``repro_bad_requests_total``              counter    —
``repro_overloads_total``                 counter    ``model``
``repro_request_seconds``                 histogram  ``model``
``repro_queue_wait_seconds``              histogram  ``model``
``repro_batch_assembly_seconds``          histogram  ``model``
``repro_dispatch_seconds``                histogram  ``model``
``repro_batch_documents``                 histogram  ``model``
``repro_worker_crashes_total``            counter    ``model``
``repro_shard_restarts_total``            counter    ``model``
``repro_quarantines_total``               counter    ``model``
``repro_reload_total``                    counter    ``outcome``
``repro_shard_state``                     gauge      ``model``
``repro_traces_total``                    counter    ``mode``
``repro_trace_overhead_seconds``          histogram  —
``repro_engine_memo_entries``             gauge      ``model``
``repro_engine_memo_hits_total``          counter    ``model``
``repro_engine_memo_misses_total``        counter    ``model``
``repro_memo_evictions_total``            counter    ``model``
``repro_intern_live``                     gauge      —
========================================  =========  =======================

``outcome`` on requests is ``ok`` / ``error`` / ``overload``; overload
rejections never enter the queue-wait histogram (they are refused at
admission and wait in no queue — the overload regression tests pin the
exclusion).  ``repro_reload_total`` outcomes mirror the registry's
reload summary: ``loaded`` / ``reloaded`` / ``kept`` / ``dropped`` /
``failed``.  ``repro_shard_state`` is 0 healthy, 1 backoff, 2
quarantined (the supervisor's state machine).  ``mode`` on traces is
``requested`` (client asked via ``"trace": true``) / ``sampled``
(``--trace-sample-rate`` picked it) / ``watch`` (``--slow-ms`` traces
everything); the overhead histogram records the post-response cost of
serializing and logging each trace.  The five engine-memo and intern
families are read off live state at scrape time (never on the request
path): the memoized pairs of each model's in-process engine, its memo
hits and misses (pairs answered from the memo vs. evaluated, so
``hits / (hits + misses)`` is the model's memo hit ratio), the memo
clears it made at the engine's ``MEMO_LIMIT``, and the live distinct
trees of the intern table.
"""

from __future__ import annotations

import math
import re
import threading
import time
from bisect import bisect_right
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Histogram",
    "ServerMetrics",
    "validate_exposition",
    "DEFAULT_BOUNDS",
    "GROWTH",
]

#: Geometric growth factor between adjacent bucket bounds.  Bounds one
#: step apart differ by 25 %, which bounds the relative error of every
#: interpolated quantile estimate.
GROWTH = 1.25

#: Lowest finite bucket bound, in the histogram's own unit (seconds for
#: the latency families): 10 µs.  Everything below lands in the first
#: bucket and interpolates from the observed minimum.
_LOWEST = 1e-5

#: Highest finite bound just above 100 s; beyond is the +Inf bucket.
_BUCKETS = int(math.ceil(math.log(100.0 / _LOWEST) / math.log(GROWTH))) + 1


def _default_bounds() -> Tuple[float, ...]:
    return tuple(_LOWEST * GROWTH ** i for i in range(_BUCKETS))


#: The shared bucket layout of every latency histogram.
DEFAULT_BOUNDS: Tuple[float, ...] = _default_bounds()


class Histogram:
    """A streaming histogram with interpolated quantile estimation.

    Not thread-safe by itself — :class:`ServerMetrics` brackets every
    update with its one registry lock.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BOUNDS):
        self.bounds = bounds
        # counts[i] observes values <= bounds[i]; the final slot is +Inf.
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 ≤ q ≤ 1) of everything recorded.

        Uses the fractional order statistic ``q * (count - 1)`` (the
        usual "linear" sample-quantile definition) and places it
        by linear interpolation inside its bucket, clamped to the
        observed min/max.  The edges are pinned exactly: an empty
        histogram answers ``0.0``, a single observation answers itself
        for every ``q``, ``q <= 0`` answers the observed minimum and
        ``q >= 1`` the observed maximum.  A NaN ``q`` is rejected — it
        compares false with everything and would silently fall through
        to the maximum.
        """
        if q != q:
            raise ValueError("quantile q must not be NaN")
        if self.count == 0:
            return 0.0
        if q <= 0.0 or self.count == 1:
            return self.min
        if q >= 1.0:
            return self.max
        rank = q * (self.count - 1)
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if rank < cumulative + bucket_count:
                lo = self.bounds[index - 1] if index > 0 else 0.0
                hi = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.max
                )
                lo = max(lo, self.min)
                hi = max(lo, min(hi, self.max))
                position = (rank - cumulative + 0.5) / bucket_count
                return lo + (hi - lo) * min(1.0, max(0.0, position))
            cumulative += bucket_count
        return self.max  # pragma: no cover - counts always sum to count

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


#: ``family name -> (type, help text)``; families outside the table are
#: accepted with a generic help line (tests register ad-hoc ones).
FAMILIES: Dict[str, Tuple[str, str]] = {
    "repro_requests_total": (
        "counter",
        "Transform requests answered, by model and outcome "
        "(ok/error/overload)",
    ),
    "repro_connections_total": ("counter", "TCP connections accepted"),
    "repro_bad_requests_total": (
        "counter",
        "Malformed or unframable protocol requests",
    ),
    "repro_overloads_total": (
        "counter",
        "Requests refused at admission because max_pending was reached",
    ),
    "repro_request_seconds": (
        "histogram",
        "End-to-end request latency (admission to response ready)",
    ),
    "repro_queue_wait_seconds": (
        "histogram",
        "Admission-to-dispatch wait inside the micro-batcher "
        "(admitted requests only; overload rejections are excluded)",
    ),
    "repro_batch_assembly_seconds": (
        "histogram",
        "First admission until the batch is taken for dispatch, per "
        "dispatched batch",
    ),
    "repro_dispatch_seconds": (
        "histogram",
        "Engine/service execution time per dispatched batch",
    ),
    "repro_batch_documents": (
        "histogram",
        "Documents per dispatched micro-batch",
    ),
    "repro_worker_crashes_total": (
        "counter",
        "Worker-process crashes observed per model shard",
    ),
    "repro_shard_restarts_total": (
        "counter",
        "Supervisor-driven worker-pool restarts per model shard",
    ),
    "repro_quarantines_total": (
        "counter",
        "Shards quarantined by the supervisor for flapping",
    ),
    "repro_reload_total": (
        "counter",
        "Registry reload outcomes per model "
        "(loaded/reloaded/kept/dropped/failed)",
    ),
    "repro_shard_state": (
        "gauge",
        "Supervisor state per model shard (0 healthy, 1 backoff, "
        "2 quarantined)",
    ),
    "repro_traces_total": (
        "counter",
        "Transform requests traced, by mode (requested/sampled/watch)",
    ),
    "repro_trace_overhead_seconds": (
        "histogram",
        "Post-response cost of serializing and logging one trace",
    ),
    "repro_engine_memo_entries": (
        "gauge",
        "Memoized (state, subtree) pairs of each model's in-process engine",
    ),
    "repro_engine_memo_hits_total": (
        "counter",
        "(state, subtree) pairs each model's in-process engine answered "
        "from its memo",
    ),
    "repro_engine_memo_misses_total": (
        "counter",
        "(state, subtree) pairs each model's in-process engine evaluated",
    ),
    "repro_memo_evictions_total": (
        "counter",
        "Wholesale memo clears of each model's in-process engine at its "
        "pair bound",
    ),
    "repro_intern_live": (
        "gauge",
        "Live distinct trees in the process-wide intern table",
    ),
}

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Optional[Dict[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: LabelSet, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{_escape(value)}"' for key, value in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value != value or value in (math.inf, -math.inf):  # pragma: no cover
        return str(value)
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class ServerMetrics:
    """The server's metric registry: counters, gauges, histograms.

    All updates go through one short-critical-section lock, so the
    registry is safe to drive from the event loop, the batcher's
    executor threads, and the supervisor at once.  ``clock`` is
    injectable for deterministic tests (the fault toolkit's manual
    clock); it is only used for the uptime stamp in snapshots.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._lock = threading.Lock()
        self._clock = clock
        self._started_at = clock()
        self._counters: Dict[str, Dict[LabelSet, float]] = {}
        self._gauges: Dict[str, Dict[LabelSet, float]] = {}
        self._histograms: Dict[str, Dict[LabelSet, Histogram]] = {}

    # -- updates --------------------------------------------------------

    def inc(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        by: float = 1,
    ) -> None:
        key = _labelset(labels)
        with self._lock:
            family = self._counters.setdefault(name, {})
            family[key] = family.get(key, 0) + by

    def set_gauge(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        value: float = 0,
    ) -> None:
        with self._lock:
            self._gauges.setdefault(name, {})[_labelset(labels)] = value

    def set_family(
        self,
        name: str,
        series: Iterable[Tuple[Optional[Dict[str, str]], float]],
    ) -> None:
        """Replace a whole counter or gauge family in one step.

        For families mirrored from state read at scrape time: a series
        whose source is gone (an unloaded model) disappears instead of
        going stale.  The family's declared type in :data:`FAMILIES`
        picks counter or gauge.
        """
        counter = FAMILIES[name][0] == "counter"
        table = self._counters if counter else self._gauges
        family = {_labelset(labels): value for labels, value in series}
        with self._lock:
            if family:
                table[name] = family
            else:
                table.pop(name, None)

    def observe(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        value: float = 0.0,
    ) -> None:
        key = _labelset(labels)
        with self._lock:
            family = self._histograms.setdefault(name, {})
            histogram = family.get(key)
            if histogram is None:
                histogram = family[key] = Histogram()
            histogram.record(value)

    # -- reads ----------------------------------------------------------

    def counter_value(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> float:
        """One counter series' current value (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, {}).get(_labelset(labels), 0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter family across every label combination."""
        with self._lock:
            return sum(self._counters.get(name, {}).values())

    def histogram(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Optional[Histogram]:
        """The live histogram of one series, or ``None``; treat read-only."""
        with self._lock:
            return self._histograms.get(name, {}).get(_labelset(labels))

    def snapshot(self) -> Dict[str, object]:
        """A JSON-able snapshot: counters, gauges, histogram summaries."""
        with self._lock:
            counters = {
                name: [
                    {"labels": dict(labels), "value": value}
                    for labels, value in sorted(series.items())
                ]
                for name, series in sorted(self._counters.items())
            }
            gauges = {
                name: [
                    {"labels": dict(labels), "value": value}
                    for labels, value in sorted(series.items())
                ]
                for name, series in sorted(self._gauges.items())
            }
            histograms = {
                name: [
                    {"labels": dict(labels), **histogram.summary()}
                    for labels, histogram in sorted(series.items())
                ]
                for name, series in sorted(self._histograms.items())
            }
            return {
                "uptime_s": self._clock() - self._started_at,
                "counters": counters,
                "gauges": gauges,
                "histograms": histograms,
            }

    # -- exposition -----------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition of every family."""
        lines: List[str] = []
        with self._lock:
            plain = [
                ("counter", name, series)
                for name, series in sorted(self._counters.items())
            ] + [
                ("gauge", name, series)
                for name, series in sorted(self._gauges.items())
            ]
            for kind, name, series in plain:
                declared, help_text = FAMILIES.get(
                    name, (kind, f"{name} ({kind})")
                )
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {declared}")
                for labels, value in sorted(series.items()):
                    lines.append(
                        f"{name}{_render_labels(labels)} "
                        f"{_format_value(value)}"
                    )
            for name, series in sorted(self._histograms.items()):
                _, help_text = FAMILIES.get(
                    name, ("histogram", f"{name} (histogram)")
                )
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} histogram")
                for labels, histogram in sorted(series.items()):
                    cumulative = 0
                    for bound, bucket_count in zip(
                        histogram.bounds, histogram.counts
                    ):
                        cumulative += bucket_count
                        le = ("le", format(bound, ".9g"))
                        lines.append(
                            f"{name}_bucket{_render_labels(labels, (le,))} "
                            f"{cumulative}"
                        )
                    cumulative += histogram.counts[-1]
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels(labels, (('le', '+Inf'),))} "
                        f"{cumulative}"
                    )
                    rendered = _render_labels(labels)
                    lines.append(
                        f"{name}_sum{rendered} {repr(histogram.sum)}"
                    )
                    lines.append(f"{name}_count{rendered} {histogram.count}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Exposition validation (shared by the test suite and the CI smoke job)
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")"
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def validate_exposition(text: str) -> Dict[str, Dict[LabelSet, float]]:
    """Check Prometheus text-format well-formedness; raise ``ValueError``.

    Beyond per-line syntax it checks the semantic rules a scraper
    relies on: every sample's family carries a ``# TYPE`` declaration
    above it, histogram buckets are cumulative (non-decreasing in
    ``le`` order), the ``+Inf`` bucket equals ``_count``, and every
    histogram has ``_sum`` and ``_count`` series.  Returns the parsed
    samples keyed by metric name then label set.
    """
    samples: Dict[str, Dict[LabelSet, float]] = {}
    types: Dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {number}: malformed comment {line!r}")
            if parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "histogram", "summary"):
                    raise ValueError(
                        f"line {number}: unknown metric type {parts[3]!r}"
                    )
                types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {number}: malformed sample {line!r}")
        name = match.group("name")
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError:
            raise ValueError(
                f"line {number}: non-numeric value {raw_value!r}"
            ) from None
        labels: LabelSet = ()
        if match.group("labels"):
            labels = tuple(
                (key, raw) for key, raw in _LABEL_RE.findall(
                    match.group("labels")
                )
            )
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                family = name[: -len(suffix)]
                break
        if family not in types:
            raise ValueError(
                f"line {number}: sample {name!r} has no # TYPE declaration"
            )
        samples.setdefault(name, {})[labels] = value

    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets = samples.get(f"{family}_bucket", {})
        counts = samples.get(f"{family}_count", {})
        sums = samples.get(f"{family}_sum", {})
        if buckets and (not counts or not sums):
            raise ValueError(f"histogram {family} is missing _sum or _count")
        series: Dict[LabelSet, List[Tuple[str, float]]] = {}
        for labels, value in buckets.items():
            le = dict(labels).get("le")
            if le is None:
                raise ValueError(
                    f"histogram {family} bucket without an le label"
                )
            rest = tuple(pair for pair in labels if pair[0] != "le")
            series.setdefault(rest, []).append((le, value))
        for rest, entries in series.items():
            def _le_key(entry: Tuple[str, float]) -> float:
                return math.inf if entry[0] == "+Inf" else float(entry[0])

            entries.sort(key=_le_key)
            if entries[-1][0] != "+Inf":
                raise ValueError(f"histogram {family} lacks a +Inf bucket")
            previous = -math.inf
            for _, value in entries:
                if value < previous:
                    raise ValueError(
                        f"histogram {family} buckets are not cumulative"
                    )
                previous = value
            count = counts.get(rest)
            if count is None or count != entries[-1][1]:
                raise ValueError(
                    f"histogram {family}: +Inf bucket != _count"
                )
    return samples
