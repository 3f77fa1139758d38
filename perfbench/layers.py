"""Layer timing from outside the program: wrappers and span trees.

Two sources feed the per-layer metrics of a traced run:

* :class:`LayerRecorder` wraps layer functions where the program looks
  them up (module attributes for names imported by value, class
  attributes for methods) and records one duration per call.  The
  wrappers exist only inside :meth:`LayerRecorder.installed`; the
  untraced runs execute the unmodified program.
* :class:`SpanStats` folds the span trees the server returns for
  ``"trace": true`` requests into per-span durations and self times.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List

from perfbench.measure import Metrics, ms, quantile

_MISSING = object()

#: Span names of a traced ``transform`` request, in the order they run.
REQUEST_SPANS = (
    "decode",
    "queue",
    "batch.assemble",
    "dispatch",
    "pipeline.encode",
    "execute",
    "pipeline.decode",
    "encode",
)


class LayerRecorder:
    """Per-call durations of wrapped layer functions, by layer name."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.active = True
        self._patches: List[tuple] = []
        self._parse_open: Dict[int, float] = {}
        self._lock = threading.Lock()

    def _record(self, layer: str, seconds: float) -> None:
        if self.active:
            self.samples.setdefault(layer, []).append(seconds)

    @contextmanager
    def paused(self):
        """Stop recording, e.g. while the benchmark computes references."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- wrappers -------------------------------------------------------

    def _timed(self, layer: str, function, skip_empty: bool = False):
        record = self._record

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                if not (skip_empty and not args[-1]):
                    record(layer, time.perf_counter() - started)

        return wrapper

    def _per_parser(self, function, closes: bool):
        """Sum ``feed``/``close`` time per stream parser; one sample a body."""
        open_bodies = self._parse_open

        @functools.wraps(function)
        def wrapper(parser, *args, **kwargs):
            started = time.perf_counter()
            try:
                return function(parser, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                with self._lock:
                    total = open_bodies.pop(id(parser), 0.0) + elapsed
                    if not closes:
                        open_bodies[id(parser)] = total
                if closes:
                    self._record("stream.parse", total)

        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        original = owner.__dict__.get(name, _MISSING)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    @contextmanager
    def installed(self, engine_classes: Iterable[type] = ()):
        """Wrap the layer functions for the duration of the block."""
        import repro.json.pipeline as json_pipeline
        import repro.xml.pipeline as xml_pipeline
        from repro.engine.execute import Engine
        from repro.json.encode import JsonEncoder
        from repro.json.jsonio import JsonLinesParser
        from repro.serve.stream import StreamParser
        from repro.xml.encode import DTDEncoder

        # Both pipelines import apply_with_origins by name, so the
        # wrapper goes where they look it up, not on its home module.
        for module in (xml_pipeline, json_pipeline):
            self._patch(
                module,
                "apply_with_origins",
                self._timed("origins", module.apply_with_origins),
            )
        for encoder, layer in ((DTDEncoder, "xml.encode"), (JsonEncoder, "json.encode")):
            self._patch(
                encoder,
                "encode_with_values",
                self._timed(layer, encoder.encode_with_values),
            )
        for transformation in (
            xml_pipeline.XMLTransformation,
            json_pipeline.JsonTransformation,
        ):
            self._patch(
                transformation,
                "_decode_with_values",
                self._timed("pipeline.decode", transformation._decode_with_values),
            )
        # Bundles call the engine with an empty forest when every
        # document of a batch carries values; those calls do no work.
        for engine_class in {Engine, *engine_classes}:
            self._patch(
                engine_class,
                "run_batch_outcomes",
                self._timed(
                    "engine.execute",
                    engine_class.run_batch_outcomes,
                    skip_empty=True,
                ),
            )
        for parser in (StreamParser, JsonLinesParser):
            self._patch(parser, "feed", self._per_parser(parser.feed, closes=False))
            self._patch(parser, "close", self._per_parser(parser.close, closes=True))
        try:
            yield self
        finally:
            while self._patches:
                owner, name, original = self._patches.pop()
                if original is _MISSING:
                    delattr(owner, name)
                else:
                    setattr(owner, name, original)

    def get(self, layer: str) -> List[float]:
        return self.samples.get(layer, [])


class SpanStats:
    """Durations and self times of the spans of traced requests."""

    def __init__(self) -> None:
        self.durations: Dict[str, List[float]] = {}
        self.self_times: Dict[str, float] = {}
        self.request_total = 0.0

    def add(self, trace: dict) -> None:
        self.request_total += trace["duration_ms"]
        self._walk(trace)

    def _walk(self, span: dict) -> None:
        children = span.get("children") or ()
        child_total = sum(child["duration_ms"] for child in children)
        name = span["name"]
        own = max(0.0, span["duration_ms"] - child_total)
        self.self_times[name] = self.self_times.get(name, 0.0) + own
        if name != "request":
            self.durations.setdefault(name, []).append(span["duration_ms"])
        if name == "dispatch":
            self.durations.setdefault("dispatch.self", []).append(own)
        for child in children:
            self._walk(child)

    def share(self, name: str) -> float:
        """Self time of ``name`` over the summed ``request`` span time."""
        if self.request_total <= 0.0:
            return 0.0
        return self.self_times.get(name, 0.0) / self.request_total

    def get(self, name: str) -> List[float]:
        """Durations in milliseconds (the wire unit of span trees)."""
        return self.durations.get(name, [])


def wrapped_metrics(recorder: LayerRecorder) -> Metrics:
    """The serving layers' timings from the wrappers of a traced phase."""
    metrics = Metrics()
    for name, layer, q in (
        ("xml.encode_p50_ms", "xml.encode", 0.5),
        ("xml.encode_p99_ms", "xml.encode", 0.99),
        ("json.encode_p50_ms", "json.encode", 0.5),
        ("pipeline.decode_p50_ms", "pipeline.decode", 0.5),
        ("origins.p50_ms", "origins", 0.5),
        ("engine.execute_p50_ms", "engine.execute", 0.5),
        ("stream.parse_p50_ms", "stream.parse", 0.5),
    ):
        metrics.put(name, ms(quantile(recorder.get(layer), q)), "ms")
    encoded = len(recorder.get("xml.encode")) + len(recorder.get("json.encode"))
    metrics.put(
        "origins.doc_share",
        len(recorder.get("origins")) / encoded if encoded else 0.0,
        "ratio",
    )
    return metrics
