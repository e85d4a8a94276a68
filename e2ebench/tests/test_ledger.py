"""Span recording and the self-time ledger arithmetic."""

import threading

import pytest
from spans import Recorder, durations, quantile, self_times, unattributed


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    spans = [
        (2, 1, "leaf", 1.0, 2.0),
        (1, 0, "mid", 0.5, 3.0),
        (3, 0, "leaf", 3.0, 3.5),
        (0, -1, "root", 0.0, 4.0),
    ]
    selfs = self_times(spans)
    assert selfs["root"] == pytest.approx(4.0 - 2.5 - 0.5)
    assert selfs["mid"] == pytest.approx(2.5 - 1.0)
    assert selfs["leaf"] == pytest.approx(1.5)
    assert sum(selfs.values()) == pytest.approx(4.0)


def test_unattributed_is_wall_outside_root_spans():
    spans = [(0, -1, "a", 0.0, 1.0), (1, -1, "b", 2.0, 2.5)]
    assert unattributed(3.0, self_times(spans)) == pytest.approx(1.5)


def test_recorder_nests_wrapped_calls():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def inner():
        clock.advance(2.0)

    wrapped_inner = recorder.wrap("inner", inner)

    def outer():
        clock.advance(1.0)
        wrapped_inner()
        wrapped_inner()
        clock.advance(0.5)
        return "done"

    seen = []
    wrapped = recorder.wrap(
        "outer", outer,
        before=lambda args: "state",
        after=lambda args, result, state, span: seen.append(
            (result, state)),
    )
    assert wrapped() == "done"
    assert seen == [("done", "state")]
    selfs = self_times(recorder.spans)
    assert selfs == {"outer": 1.5, "inner": 4.0}
    assert durations(recorder.spans, "inner") == [2.0, 2.0]
    assert unattributed(5.5, selfs) == pytest.approx(0.0)


def test_recorder_counts_errors_and_closes_span():
    recorder = Recorder()
    failures = []

    def boom():
        raise ValueError("no linkage")

    wrapped = recorder.wrap("parse", boom, on_error=failures.append)
    with pytest.raises(ValueError):
        wrapped()
    assert len(failures) == 1
    assert [s[2] for s in recorder.spans] == ["parse"]


def test_threads_keep_separate_stacks():
    recorder = Recorder()
    barrier = threading.Barrier(2)

    def work():
        with recorder.span("root"):
            barrier.wait(timeout=5)
            with recorder.span("child"):
                pass

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    roots = {s[0] for s in recorder.spans if s[2] == "root"}
    assert all(s[1] == -1 for s in recorder.spans if s[2] == "root")
    assert {s[1] for s in recorder.spans if s[2] == "child"} == roots


def test_nearest_rank_quantile():
    values = list(range(1, 101))
    assert quantile(values, 0.5) == 50
    assert quantile(values, 0.9) == 90
    assert quantile(values, 0.99) == 99
    assert quantile([7.0], 0.9) == 7.0
    assert quantile([], 0.9) == 0.0
