"""Span bookkeeping of the traced run: self time against the union of
overlapping child intervals, and parents of spans opened on pool threads."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from tracing import Span, Tracer, layer_times, ring_threads, union_length


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 4), (1, 2), (3, 6), (8, 9)]) == 7.0
    assert union_length([(1, 1), (2, 1)]) == 0.0


def test_self_time_subtracts_union_of_overlapping_thread_children():
    spans = [
        Span(1, "build", None, 100, 0.0, 10.0, 0),
        Span(2, "ring", 1, 200, 1.0, 5.0, 0),  # worker A
        Span(3, "ring", 1, 300, 3.0, 7.0, 0),  # worker B overlaps A on [3, 5]
        Span(4, "bessel", 2, 200, 2.0, 3.0, 0),  # grandchild: only its parent loses it
    ]
    times = layer_times(spans)
    assert times["build"]["self"] == pytest.approx(10.0 - 6.0)  # not 10 - (4 + 4)
    assert times["build"]["busy"] == pytest.approx(10.0)
    assert times["ring"]["busy"] == pytest.approx(8.0)  # summed over threads
    assert times["ring"]["wall"] == pytest.approx(6.0)
    assert times["ring"]["self"] == pytest.approx(8.0 - 1.0)
    assert times["bessel"]["self"] == pytest.approx(1.0)


def test_children_are_clipped_to_the_parent_interval():
    spans = [Span(1, "p", None, 1, 0.0, 2.0, 0), Span(2, "c", 1, 2, 1.0, 5.0, 0)]
    assert layer_times(spans)["p"]["self"] == pytest.approx(1.0)


def test_pool_thread_spans_take_the_load_thread_span_as_parent():
    tracer = Tracer()
    lib = SimpleNamespace(work=lambda x: time.sleep(0.01) or x)
    original = lib.work
    tracer.wrap(lib, "work", "ring", lambda args, out: {"items": 1})
    tracer.op = 0
    with tracer.span("build") as build_id:
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(lib.work, range(6))) == list(range(6))
    tracer.unwrap()
    assert lib.work is original
    rings = [s for s in tracer.spans if s.name == "ring"]
    assert len(rings) == 6 and all(s.parent == build_id for s in rings)
    assert all(s.thread != threading.get_ident() for s in rings)
    assert sum(v for _, name, v in tracer.counts if name == "items") == 6
    assert ring_threads(tracer.spans, "build", "ring")[0] in (1, 2)
    times = layer_times(tracer.spans)
    assert 0.0 <= times["build"]["self"] < times["build"]["busy"]
    assert times["ring"]["wall"] <= times["ring"]["busy"]

