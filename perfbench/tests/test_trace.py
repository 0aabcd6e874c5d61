"""Unit tests for the span recorder, its self-time arithmetic and the probes."""

from __future__ import annotations

import types

import pytest

from perfbench import trace
from perfbench.trace import Probes, SpanRecorder


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def record_tree(rec: SpanRecorder, clock: FakeClock) -> None:
    """root [0, 10] > (a [1, 4] > b [2, 3]), (c [5, 9] > a [6, 8])."""

    def at(t: float) -> None:
        clock.now = t

    at(0)
    root = rec.begin("root", request=7)
    at(1)
    a = rec.begin("a")
    at(2)
    b = rec.begin("b")
    at(3)
    rec.end(b)
    at(4)
    rec.end(a)
    at(5)
    c = rec.begin("c")
    at(6)
    a2 = rec.begin("a")
    at(8)
    rec.end(a2)
    at(9)
    rec.end(c)
    at(10)
    rec.end(root)


EXPECTED = {"root": 10 - 3 - 4, "a": (3 - 1) + 2, "b": 1, "c": 4 - 2}


def test_online_self_times_on_a_synthetic_tree() -> None:
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    record_tree(rec, clock)
    assert dict(rec.self_s) == pytest.approx(EXPECTED)
    # Self times partition the root spans' wall time exactly.
    assert sum(rec.self_s.values()) == pytest.approx(rec.root_s) == pytest.approx(10)


def test_stored_spans_link_parents_and_requests() -> None:
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    record_tree(rec, clock)
    # Children inherit the request id of the span that caused them.
    assert {span[5] for span in rec.spans} == {7}
    parents = {span[0]: span[1] for span in rec.spans}
    names = {span[0]: span[2] for span in rec.spans}
    assert sorted(names[p] for s, p in parents.items() if p) == ["a", "c", "root", "root"]


def test_keep_bounds_stored_spans_not_totals(monkeypatch) -> None:
    monkeypatch.setattr(trace, "KEEP_SPANS", 2)
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    record_tree(rec, clock)
    assert len(rec.spans) == 2 and rec.dropped == 3
    assert dict(rec.self_s) == pytest.approx(EXPECTED)


def test_out_of_order_end_is_an_error() -> None:
    rec = SpanRecorder()
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(RuntimeError):
        rec.end(outer)


def test_generator_probe_times_resumes_and_keeps_semantics() -> None:
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    probes = Probes(rec)

    def inner():
        clock.now += 1
        got = yield "first"
        clock.now += 2
        return got * 10

    def outer():
        value = yield from timed_inner()
        clock.now += 4
        return value + 1

    timed_inner = probes.timed_resumes("inner", inner)
    gen = probes.timed_resumes("outer", outer, new_request=True)()
    assert gen.send(None) == "first"
    with pytest.raises(StopIteration) as stop:
        gen.send(3)
    assert stop.value.value == 31
    assert rec.calls == {"outer": 1, "inner": 1}
    assert dict(rec.self_s) == pytest.approx({"inner": 3, "outer": 4})


def test_probes_restore_functions_everywhere() -> None:
    import sys

    def original() -> str:
        return "original"

    source = types.ModuleType("repro._perfbench_test_source")
    user = types.ModuleType("repro._perfbench_test_user")
    source.f = original
    user.alias = original
    sys.modules[source.__name__] = source
    sys.modules[user.__name__] = user
    try:
        rec = SpanRecorder()
        with Probes(rec) as probes:
            probes.function(source, "f", lambda fn: probes.timed_call("layer", fn))
            assert source.f() == "original" and user.alias() == "original"
            assert source.f is not original and user.alias is not original
        assert source.f is original and user.alias is original
        assert rec.calls["layer"] == 2
    finally:
        del sys.modules[source.__name__], sys.modules[user.__name__]
