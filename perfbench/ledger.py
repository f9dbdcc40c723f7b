"""The traced run's span ledger, recorded from outside the program.

Spans are recorded around calls into each layer's public functions and
stored in a :class:`repro.obs.Tracer` that is *never activated*:
``Tracer.span`` would make the tracer ambient and switch on the
program's own internal spans, changing what is measured.  Finished rows
are handed to :meth:`Tracer.adopt` instead, so the ledger has the
program's record shape and ``repro trace show FILE`` renders it.

A call the program makes itself (a backend launch inside the real front
door) is recorded by :func:`patched`, which swaps a timing wrapper in
for one attribute for the length of a block.  Such a call may run on a
program thread; a span opened on a thread with no open span of its own
is a child of the innermost span open on the ledger's thread, which is
blocked in the front-door call that started the work.

Self time and coverage are computed here over interval unions, so
overlapping children are never counted twice.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.obs.trace import SpanRecord, Tracer

__all__ = [
    "Ledger",
    "NullLedger",
    "covered_seconds",
    "self_seconds",
    "coverage",
    "layer_seconds",
    "patched",
    "write_jsonl",
]


class Ledger:
    """Nested spans of one traced request (one trace id)."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        # One clock for every span: wall anchor plus perf_counter deltas,
        # so starts and durations of siblings compare exactly.
        self._wall0 = time.time()
        self._t0 = time.perf_counter()
        self._home = threading.get_ident()
        self._open: dict[int, list[str]] = {}  # thread id -> open span ids

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Record ``name`` around the block; the yielded dict is its attrs."""
        span_id = os.urandom(8).hex()
        stack = self._open.setdefault(threading.get_ident(), [])
        home = self._open.get(self._home, [])
        parent = stack[-1] if stack else (home[-1] if home else None)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.tracer.adopt(
                [
                    {
                        "trace_id": self.tracer.trace_id,
                        "span_id": span_id,
                        "parent_id": parent,
                        "name": name,
                        "start": self._wall0 + (start - self._t0),
                        "duration": end - start,
                        "attrs": attrs,
                    }
                ]
            )

    def records(self) -> list[SpanRecord]:
        return self.tracer.records()


class NullLedger:
    """The untraced twin of :class:`Ledger`: same calls, nothing recorded."""

    def span(self, name: str, **attrs: Any):
        return nullcontext(attrs)


@contextmanager
def patched(owner: Any, attr: str, wrap: Callable) -> Iterator[None]:
    """Replace ``owner.attr`` by ``wrap(owner.attr)`` inside the block.

    ``owner`` is a module or an instance; an attribute the instance only
    inherits from its class is removed again afterwards.
    """
    own = attr in vars(owner)
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


def _merged_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def covered_seconds(parent: SpanRecord, children: list[SpanRecord]) -> float:
    """Length of ``parent``'s interval covered by the union of children."""
    lo, hi = parent.start, parent.start + parent.duration
    clipped = [
        (max(lo, c.start), min(hi, c.start + c.duration)) for c in children
    ]
    return _merged_length((a, b) for a, b in clipped if b > a)


def _children(records: list[SpanRecord]) -> dict[str, list[SpanRecord]]:
    out: dict[str, list[SpanRecord]] = {}
    for r in records:
        if r.parent_id is not None:
            out.setdefault(r.parent_id, []).append(r)
    return out


def self_seconds(records: list[SpanRecord]) -> dict[str, float]:
    """Per span id: duration minus the part its children cover."""
    kids = _children(records)
    return {
        r.span_id: r.duration - covered_seconds(r, kids.get(r.span_id, []))
        for r in records
    }


def coverage(records: list[SpanRecord], root: SpanRecord) -> float:
    """Share of ``root``'s duration covered by its direct children."""
    if root.duration <= 0:
        return 0.0
    kids = _children(records).get(root.span_id, [])
    return covered_seconds(root, kids) / root.duration


def layer_seconds(
    records: list[SpanRecord], own: bool = False
) -> dict[str, float]:
    """Summed duration per span name (self time with ``own=True``)."""
    selfs = self_seconds(records) if own else None
    out: dict[str, float] = {}
    for r in records:
        value = selfs[r.span_id] if selfs is not None else r.duration
        out[r.name] = out.get(r.name, 0.0) + value
    return out


def write_jsonl(records: Iterable[SpanRecord], path: Path) -> Path:
    """Write ``{"kind": "span", ...}`` rows, the trace sink's shape."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({"kind": "span", **r.as_dict()}) + "\n")
    return path
