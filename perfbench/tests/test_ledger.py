import io
import threading
import types

import pytest

from perfbench.ledger import (
    Ledger,
    NullLedger,
    coverage,
    layer_seconds,
    patched,
    self_seconds,
    write_jsonl,
)
from repro.obs.render import render_trace_file
from repro.obs.trace import SpanRecord, current_tracer


def _span(span_id, parent, start, end, name=None):
    return SpanRecord("t", span_id, parent, name or span_id, start, end - start)


def test_self_time_under_overlapping_children():
    records = [
        _span("root", None, 0.0, 10.0),
        _span("a", "root", 1.0, 4.0),
        _span("b", "root", 3.0, 6.0),  # overlaps a
        _span("c", "root", 8.0, 12.0),  # runs past the parent's end
        _span("a1", "a", 1.5, 2.0),
    ]
    selfs = self_seconds(records)
    # covered: [1, 6] and [8, 10] -> 7 of 10 seconds
    assert selfs["root"] == pytest.approx(3.0)
    assert selfs["a"] == pytest.approx(2.5)
    assert selfs["a1"] == pytest.approx(0.5)
    assert coverage(records, records[0]) == pytest.approx(0.7)


def test_layer_seconds_sums_by_name():
    records = [
        _span("root", None, 0.0, 4.0, "replay"),
        _span("x", "root", 0.0, 1.0, "io.parse"),
        _span("y", "root", 1.0, 3.0, "io.parse"),
    ]
    assert layer_seconds(records)["io.parse"] == pytest.approx(3.0)
    assert layer_seconds(records, own=True)["replay"] == pytest.approx(1.0)


def test_ledger_nests_spans_without_activating_its_tracer(tmp_path):
    ledger = Ledger()
    with ledger.span("replay.test"):
        assert current_tracer() is None
        with ledger.span("io.parse", tile=0) as attrs:
            attrs["bytes"] = 12
            assert current_tracer() is None
    records = {r.name: r for r in ledger.records()}
    root, child = records["replay.test"], records["io.parse"]
    assert root.parent_id is None
    assert child.parent_id == root.span_id
    assert {r.trace_id for r in records.values()} == {ledger.tracer.trace_id}
    assert child.attrs == {"tile": 0, "bytes": 12}
    assert root.start <= child.start
    assert child.start + child.duration <= root.start + root.duration

    path = write_jsonl(ledger.records(), tmp_path / "ledger.jsonl")
    text = path.read_text()
    assert all('"kind": "span"' in line for line in text.splitlines())
    rendered = render_trace_file(io.StringIO(text))
    assert "replay.test" in rendered and "io.parse" in rendered


def test_null_ledger_records_nothing():
    with NullLedger().span("anything", k=1) as attrs:
        attrs["x"] = 2


def test_a_span_on_another_thread_nests_under_the_waiting_span():
    ledger = Ledger()
    with ledger.span("front_door"):
        with ledger.span("pipeline.run"):
            def launch():
                with ledger.span("backends.compare_pairs"):
                    pass

            worker = threading.Thread(target=launch)
            worker.start()
            worker.join()
    records = {r.name: r for r in ledger.records()}
    assert records["backends.compare_pairs"].parent_id == records["pipeline.run"].span_id


class _Backend:
    def compare_pairs(self, pairs):
        return len(pairs)


def test_patched_wraps_for_the_block_and_restores():
    module = types.SimpleNamespace(fn=lambda x: x + 1)
    original = module.fn
    backend = _Backend()
    calls = []

    def wrap(fn):
        def call(*args):
            calls.append(args)
            return fn(*args)

        return call

    with patched(module, "fn", wrap), patched(backend, "compare_pairs", wrap):
        assert module.fn(1) == 2
        assert backend.compare_pairs([1, 2]) == 2
    assert calls == [(1,), ([1, 2],)]
    assert module.fn is original
    assert "compare_pairs" not in vars(backend)  # the class method again
    assert backend.compare_pairs([1]) == 1 and len(calls) == 2
