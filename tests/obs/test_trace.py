"""The tracing primitives: spans, contexts, the null fast path, render.

The invariants the server relies on:

* sequential root-level spans sum to no more than the root's duration
  (the acceptance check on every traced response);
* serialized spans carry durations only — never absolute monotonic
  times, which are meaningless across processes;
* the untraced path (``NULL_TRACE``) is falsy and every method a no-op,
  so hot paths stay hot.
"""

import json

from repro.obs.trace import (
    NULL_TRACE,
    NullTrace,
    Span,
    TraceContext,
    new_trace,
    new_trace_id,
    render_trace_dict,
    span_from_dict,
)


class FakeClock:
    """A manual monotonic clock for deterministic span intervals."""

    def __init__(self):
        self.now = 100.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class TestTraceIds:
    def test_ids_are_16_hex_chars(self):
        for _ in range(20):
            trace_id = new_trace_id()
            assert len(trace_id) == 16
            int(trace_id, 16)  # hex or raise

    def test_ids_are_distinct(self):
        assert len({new_trace_id() for _ in range(100)}) == 100

    def test_explicit_id_is_kept(self):
        assert TraceContext(trace_id="cafe").trace_id == "cafe"


class TestTraceContext:
    def test_span_nesting_follows_the_with_blocks(self):
        trace = new_trace()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
            with trace.span("sibling"):
                pass
        assert [s.name for s in trace.root.children] == ["outer"]
        outer = trace.root.children[0]
        assert [s.name for s in outer.children] == ["inner", "sibling"]

    def test_durations_come_from_the_injected_clock(self):
        clock = FakeClock()
        trace = TraceContext(clock=clock)
        with trace.span("work"):
            clock.advance(0.25)
        clock.advance(0.75)
        assert trace.finish() == 1.0
        assert trace.root.children[0].duration_s == 0.25

    def test_sequential_children_sum_to_at_most_the_root(self):
        clock = FakeClock()
        trace = TraceContext(clock=clock)
        for name in ("decode", "queue", "dispatch", "encode"):
            with trace.span(name):
                clock.advance(0.1)
        root = trace.finish()
        child_sum = sum(s.duration_s for s in trace.root.children)
        assert child_sum <= root + 1e-9

    def test_add_span_records_externally_measured_intervals(self):
        clock = FakeClock()
        trace = TraceContext(clock=clock)
        span = trace.add_span("queue", 100.0, 100.5, meta={"k": "v"})
        assert span.duration_s == 0.5
        assert trace.root.children == [span]
        assert span.meta == {"k": "v"}

    def test_finish_is_idempotent(self):
        clock = FakeClock()
        trace = TraceContext(clock=clock)
        clock.advance(1.0)
        first = trace.finish()
        clock.advance(5.0)
        assert trace.finish() == first

    def test_to_dict_carries_the_trace_id_and_finishes(self):
        trace = new_trace()
        data = trace.to_dict()
        assert data["trace_id"] == trace.trace_id
        assert trace.root.ended is not None

    def test_spans_serialize_durations_not_timestamps(self):
        clock = FakeClock()
        trace = TraceContext(clock=clock)
        with trace.span("work", documents=3):
            clock.advance(0.002)
        data = trace.to_dict()
        payload = json.dumps(data)
        assert "started" not in payload and "ended" not in payload
        child = data["children"][0]
        assert child["duration_ms"] == 2.0
        assert child["meta"] == {"documents": 3}

    def test_attach_grafts_a_finished_span(self):
        trace = new_trace()
        span = Span("worker", 0.0)
        span.ended = 0.5
        trace.attach(span)
        assert trace.root.children == [span]


class TestSpanRoundTrip:
    def test_from_dict_preserves_names_durations_meta_children(self):
        clock = FakeClock()
        trace = TraceContext(clock=clock, name="worker.translate")
        with trace.span("worker.execute", documents=3):
            clock.advance(0.004)
        rebuilt = span_from_dict(trace.to_dict())
        assert rebuilt.name == "worker.translate"
        child = rebuilt.children[0]
        assert child.name == "worker.execute"
        assert child.meta == {"documents": 3}
        assert child.duration_s == 0.004

    def test_round_trip_is_stable(self):
        clock = FakeClock()
        trace = TraceContext(clock=clock)
        with trace.span("a"):
            with trace.span("b"):
                clock.advance(0.001)
        once = trace.to_dict()
        twice = span_from_dict(once).to_dict()
        once.pop("trace_id")
        assert once == twice


class TestNullTrace:
    def test_is_falsy_and_shared(self):
        assert not NULL_TRACE
        assert isinstance(NULL_TRACE, NullTrace)
        assert bool(new_trace()) is True

    def test_every_method_is_a_noop(self):
        with NULL_TRACE.span("decode", model="m") as span:
            assert span is None
        assert NULL_TRACE.add_span("x", 0.0, 1.0) is None
        assert NULL_TRACE.attach(Span("x", 0.0)) is None
        assert NULL_TRACE.finish() == 0.0
        assert NULL_TRACE.to_dict() is None
        assert NULL_TRACE.render() == ""


class TestRender:
    def test_tree_rendering(self):
        clock = FakeClock()
        trace = TraceContext(trace_id="feedbeeffeedbeef", clock=clock)
        with trace.span("decode"):
            clock.advance(0.001)
        with trace.span("dispatch", batch_documents=2):
            with trace.span("execute"):
                clock.advance(0.002)
        text = trace.render()
        lines = text.splitlines()
        assert lines[0].startswith("trace feedbeeffeedbeef request ")
        assert lines[1] == "|- decode 1.000ms"
        assert lines[2] == "`- dispatch 2.000ms batch_documents=2"
        assert lines[3] == "   `- execute 2.000ms"

    def test_render_of_none_is_empty(self):
        assert render_trace_dict(None) == ""
