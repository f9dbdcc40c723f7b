"""The workloads: timed closed and open loops, and traced replays.

Each workload has the same life cycle:

* ``load()`` reads the seeded slide (input loading, never timed);
* ``reference(rng)`` computes the oracle's answers on the ``vectorized``
  executor and spot-checks a sample against the exact overlay;
* ``open()`` / ``warm_up()`` build and warm the program exactly as a user
  would (what ``setup_s`` measures, in separate processes);
* ``timed(seconds)`` measures the end-to-end loop with tracing off;
* ``replay(ledger)`` calls the real front door once under the
  benchmark's own spans, with timing wrappers on the layer calls it
  makes (the backend launches among them), then walks the same inputs
  through the other layers' public entry points in sequence;
* ``close()`` releases the program's resources.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro import CompareOptions, CompareResult, Session
from repro.backends import get_backend
from repro.index.hilbert_rtree import bulk_load_polygons
from repro.index.join import mbr_pair_join
from repro.io import pair_result_sets, parse_vectorized
from repro.pixelbox.batch import BATCH_MAX_DIM
from repro.pixelbox.common import KernelStats
from repro.pixelbox.kernel import BatchAreas, ChunkKernel, batch_policy, shard_policy
from repro.pixelbox.vectorized import EdgeTable
from repro.service import ComparisonService, ServiceConfig

# Modules whose functions a replay wraps; imported after the package's
# front door, since repro.session and repro.api import each other.
import repro.index.join  # noqa: E402  isort: skip
import repro.pipeline.engine  # noqa: E402  isort: skip
import repro.session  # noqa: E402  isort: skip

from perfbench import oracle
from perfbench.host import nproc
from perfbench.inputs import Slide, load_tiles
from perfbench.ledger import NullLedger, patched
from perfbench.loadgen import open_loop
from perfbench.stats import median, percentile, ratio

__all__ = ["WORKLOADS", "Timed", "Replay", "BackendTally"]

# A closed loop always measures at least this many calls, however long
# one call takes.
_MIN_CALLS = 3


@dataclass
class Timed:
    """What one timed loop measured (latencies in seconds)."""

    latencies: list[float]
    attempted: int
    failed: int
    polygons_per_s: float
    pairs_per_s: float
    requests_per_s: float
    lateness: list[float] = field(default_factory=list)


class BackendTally:
    """Every ``compare_pairs`` launch the program makes on one backend.

    :meth:`probe` swaps a timing wrapper in for the instance's
    ``compare_pairs`` inside a block, so the figures count the program's
    own launches (the pipeline's aggregator, the session, the service's
    dispatcher), each also recorded as a ``backends.compare_pairs`` span.
    The program launches from one thread at a time.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.pairs = 0
        self.seconds = 0.0
        self.kernel = KernelStats()

    def probe(self, backend, ledger):
        def wrap(compare_pairs):
            def timed(pairs, *args, **kwargs):
                with ledger.span("backends.compare_pairs", pairs=len(pairs)):
                    t0 = time.perf_counter()
                    areas = compare_pairs(pairs, *args, **kwargs)
                    self.seconds += time.perf_counter() - t0
                self.calls += 1
                self.pairs += len(pairs)
                self.kernel.merge(areas.stats)
                return areas

            return timed

        return patched(backend, "compare_pairs", wrap)

    def layers(self) -> dict[str, float]:
        """The ``backends.*`` and ``pixelbox.*`` counter metrics."""
        k = self.kernel
        return {
            "backends.compare_pairs_s": self.seconds,
            "backends.calls": self.calls,
            "backends.pairs_per_call": ratio(self.pairs, self.calls),
            **{f"pixelbox.{name}": value for name, value in k.as_dict().items()},
            "pixelbox.decided_ratio": ratio(k.boxes_decided, k.boxes_classified),
            "pixelbox.pixel_tests_per_s": ratio(k.pixel_tests, self.seconds),
        }


def _spanned(ledger, name: str, keep: list | None = None):
    """A wrapper for :func:`patched`: each call runs under a ``name`` span
    (and its result is appended to ``keep``)."""

    def wrap(fn):
        def call(*args, **kwargs):
            with ledger.span(name):
                result = fn(*args, **kwargs)
            if keep is not None:
                keep.append(result)
            return result

        return call

    return wrap


@dataclass
class Replay:
    """What one replay produced besides its spans."""

    checked: int = 0
    failed: int = 0
    backend: BackendTally = field(default_factory=BackendTally)
    polygons: int = 0
    parse_bytes: int = 0
    candidate_pairs: int = 0
    intersecting_pairs: int = 0
    #: The ``PipelineOutcome`` of the front door's pipeline (files only).
    outcome: object = None


def _check(result, reference) -> int:
    """1 when ``result`` disagrees with the reference, else 0."""
    bad = oracle.result_mismatches(result, reference)
    if bad:
        print(f"perfbench: wrong answer: {'; '.join(bad)}", flush=True)
    return int(bool(bad))


def _exact_check(pairs, rng) -> tuple[int, int]:
    """Spot-check the reference executor on a seeded sample of pairs."""
    picks = rng.choice(len(pairs), size=min(16, len(pairs)), replace=False)
    sample = [pairs[k] for k in picks.tolist()]
    areas = get_backend("vectorized").compare_pairs(sample)
    bad = oracle.exact_mismatches(sample, areas)
    if bad:
        print(f"perfbench: reference disagrees with exact overlay on {bad} pairs")
    return len(sample), bad


def _median_rate(work: list[tuple[int, float]]) -> float:
    """Median over calls of units of work per second (0 with no calls)."""
    return median([units / seconds for units, seconds in work]) if work else 0.0


def _timed_closed_loop(call, reference: CompareResult, seconds: float) -> Timed:
    """One caller running ``call()`` back to back, every answer checked."""
    results, latencies = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(results) < _MIN_CALLS:
        t0 = time.perf_counter()
        try:
            results.append(call())
        except Exception as exc:  # a failed call is counted, not fatal
            print(f"perfbench: call raised {exc!r}", flush=True)
            results.append(exc)
        latencies.append(time.perf_counter() - t0)
    ok = [
        (r, lat) for r, lat in zip(results, latencies)
        if not isinstance(r, Exception)
    ]
    failed = len(results) - len(ok)
    failed += sum(_check(r, reference) for r, _ in ok)
    # One caller's throughput is its per-call rate; the median keeps a
    # few calls slowed by the host from moving the run's figure.
    return Timed(
        latencies,
        len(results),
        failed,
        _median_rate([(r.count_a + r.count_b, lat) for r, lat in ok]),
        _median_rate([(r.candidate_pairs, lat) for r, lat in ok]),
        _median_rate([(1, lat) for _, lat in ok]),
    )


def _edge_tables(pairs) -> None:
    EdgeTable.build([p for p, _ in pairs])
    EdgeTable.build([q for _, q in pairs])


# ----------------------------------------------------------------------
class _SessionLoop:
    """A closed loop of one caller on a warm ``Session(self.options)``."""

    options: CompareOptions
    session: Session | None = None
    reference_result: CompareResult | None = None

    def _call(self) -> CompareResult:
        raise NotImplementedError

    def open(self) -> None:
        self.session = Session(self.options).warm()

    def warm_up(self) -> None:
        self._call()

    def timed(self, seconds: float) -> Timed:
        return _timed_closed_loop(self._call, self.reference_result, seconds)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


class SlideFiles(_SessionLoop):
    """``Session.compare_files`` over an on-disk slide, one caller."""

    name = "slide_files"

    def __init__(self, slide: Slide, seed: int) -> None:
        self.slide = slide
        self.options = CompareOptions()  # batch, 2 parser threads, no cache

    def load(self) -> None:
        pass  # the program reads the files itself

    def reference(self, rng) -> tuple[int, int]:
        with Session(backend="vectorized") as ref:
            self.reference_result = ref.compare_files(
                self.slide.dir_a, self.slide.dir_b
            )
        pairs = []
        for set_a, set_b in load_tiles(self.slide):
            pairs += mbr_pair_join(set_a, set_b).pairs(set_a, set_b)
        return _exact_check(pairs, rng)

    def _call(self) -> CompareResult:
        return self.session.compare_files(self.slide.dir_a, self.slide.dir_b)

    def replay(self, ledger) -> Replay:
        out = Replay()
        outcomes: list = []
        with ledger.span("replay.slide_files"):
            # The real front door.  Its pipeline run and the launches the
            # pipeline's aggregator thread makes are recorded as they run.
            with (
                patched(
                    repro.pipeline.engine,
                    "run_pipelined",
                    _spanned(ledger, "pipeline.run", outcomes),
                ),
                out.backend.probe(self.session.backend, ledger),
                ledger.span("session.compare_files"),
            ):
                result = self._call()
            out.failed += _check(result, self.reference_result)
            out.checked += 1
            out.outcome = outcomes[-1]
            out.candidate_pairs = result.candidate_pairs
            out.intersecting_pairs = result.intersecting_pairs

            # The same slide through each stage's entry points in turn.
            # The polygons are parsed afresh, as in the pipeline: they
            # cache their area and edge arrays on first use.
            pairs = []
            for tile in pair_result_sets(self.slide.dir_a, self.slide.dir_b):
                with ledger.span("io.parse", tile=tile.tile_id) as attrs:
                    raw_a = tile.file_a.read_bytes()
                    raw_b = tile.file_b.read_bytes()
                    set_a = parse_vectorized(raw_a)
                    set_b = parse_vectorized(raw_b)
                    attrs["bytes"] = len(raw_a) + len(raw_b)
                out.parse_bytes += attrs["bytes"]
                out.polygons += len(set_a) + len(set_b)
                with ledger.span("index.join", tile=tile.tile_id):
                    with ledger.span("index.build"):
                        tree = bulk_load_polygons(set_b)
                    with ledger.span("index.filter"):
                        join = mbr_pair_join(set_a, set_b, tree=tree)
                        pairs += join.pairs(set_a, set_b)
            cfg = self.options.launch_config()
            with ledger.span("pixelbox.route", pairs=len(pairs)):
                ChunkKernel(batch_policy(BATCH_MAX_DIM), cfg).route_pairs(pairs)
            with ledger.span("pixelbox.edge_table", pairs=len(pairs)):
                _edge_tables(pairs)
        return out


# ----------------------------------------------------------------------
class LargeObjects(_SessionLoop):
    """``Session.compare_sets`` on a warm ``multiprocess`` session.

    The slide's tiles are stitched into one in-memory set per side; its
    objects are large enough that PixelBox subdivides every pair and the
    backend always takes the sharded pool path.
    """

    name = "large_objects"
    #: Candidate pairs per call.  The stitched slide is cut after the
    #: first objects of side A that reach this many, so every seed asks
    #: one call for the same amount of work (a whole 16-tile slide holds
    #: ~380-430 pairs, depending on how many objects merge).
    pair_budget = 320

    def __init__(self, slide: Slide, seed: int) -> None:
        self.slide = slide
        self.options = CompareOptions(
            backend="multiprocess",
            backend_options={"workers": min(2, nproc())},
        )
        self.set_a: list = []
        self.set_b: list = []

    def load(self) -> None:
        for set_a, set_b in load_tiles(self.slide):
            self.set_a += set_a
            self.set_b += set_b
        # Keep the shortest prefix of side A that reaches the budget and
        # the prefix of side B that holds all of its partners: the cut
        # sets' candidate pairs are exactly the kept objects' pairs.
        join = mbr_pair_join(self.set_a, self.set_b)
        per_object = np.bincount(join.left_idx, minlength=len(self.set_a))
        reached = np.flatnonzero(np.cumsum(per_object) >= self.pair_budget)
        if len(reached):  # else: a small slide, compared whole
            keep_a = int(reached[0]) + 1
            keep_b = int(join.right_idx[join.left_idx < keep_a].max()) + 1
            self.set_a, self.set_b = self.set_a[:keep_a], self.set_b[:keep_b]

    def reference(self, rng) -> tuple[int, int]:
        with Session(backend="vectorized") as ref:
            self.reference_result = ref.compare_sets(self.set_a, self.set_b)
        pairs = mbr_pair_join(self.set_a, self.set_b).pairs(self.set_a, self.set_b)
        return _exact_check(pairs, rng)

    def _call(self) -> CompareResult:
        return self.session.compare_sets(self.set_a, self.set_b)

    def replay(self, ledger) -> Replay:
        out = Replay()
        set_a, set_b = self.set_a, self.set_b
        with ledger.span("replay.large_objects"):
            # The real front door, with the join, the launch and J' it
            # makes recorded as it makes them.
            with (
                patched(
                    repro.index.join, "mbr_pair_join", _spanned(ledger, "index.join")
                ),
                patched(
                    repro.session,
                    "jaccard_from_areas",
                    _spanned(ledger, "metrics.jaccard"),
                ),
                out.backend.probe(self.session.backend, ledger),
                ledger.span("session.compare_sets"),
            ):
                result = self._call()
            out.failed += _check(result, self.reference_result)
            out.checked += 1
            out.candidate_pairs = result.candidate_pairs
            out.intersecting_pairs = result.intersecting_pairs

            # The join's two halves and the backend's prologue, each in a
            # call of its own on the same warm objects.
            with ledger.span("index.build"):
                tree = bulk_load_polygons(set_b)
            with ledger.span("index.filter"):
                pairs = mbr_pair_join(set_a, set_b, tree=tree).pairs(set_a, set_b)
            cfg = self.options.launch_config()
            with ledger.span("pixelbox.route", pairs=len(pairs)):
                ChunkKernel(shard_policy(), cfg).route_pairs(pairs)
            with ledger.span("pixelbox.edge_table", pairs=len(pairs)):
                _edge_tables(pairs)
        return out


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Request:
    lo: int
    hi: int
    repeat: bool


class ServiceOpenLoop:
    """Field-of-view pair requests to a warm in-process service."""

    name = "service_open_loop"
    #: Offered rate (requests/s): well below the ~300 req/s at which the
    #: backlog starts to grow, and >= 1000 requests (a p99) in 9 s.
    rate = 120.0
    #: Share of requests that repeat an earlier one (cache hits); the
    #: rest are fresh, so the median request is a cache miss.
    repeat_share = 1.0 / 3.0
    #: Pairs per field of view: a fresh request is ``fov`` +/- 4
    #: consecutive candidate pairs of the slide.
    fov = 24
    timeout_s = 10.0
    #: Untimed requests sent at the offered rate before each measured
    #: loop: the first tens of requests after start-up run slow.
    settle_requests = 60
    #: Requests a replay sends, from the start of the last open loop's
    #: stream (5 s of it at the offered rate): one at a time, a whole
    #: stream would keep the traced run's six replays going for a minute.
    replay_requests = 600

    def __init__(self, slide: Slide, seed: int) -> None:
        self.slide = slide
        self.seed = seed
        self.options = CompareOptions(cache=True)  # batch backend
        self.pairs: list = []
        self.service: ComparisonService | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.reference_areas: BatchAreas | None = None
        self.windows: list[tuple[int, int]] = []
        self.requests: list[_Request] = []
        self.warm_request: _Request | None = None

    def load(self) -> None:
        for set_a, set_b in load_tiles(self.slide):
            self.pairs += mbr_pair_join(set_a, set_b).pairs(set_a, set_b)
        # Every field of view of fov +/- 4 consecutive pairs, in a seeded
        # order; the first 1 + settle_requests are reserved for untimed
        # warm-up traffic, so no timed request hits a warm-up entry.
        windows = [
            (lo, lo + size)
            for size in range(self.fov - 4, self.fov + 5)
            for lo in range(len(self.pairs) - size + 1)
        ]
        order = np.random.default_rng([self.seed, 7]).permutation(len(windows))
        self.windows = [windows[k] for k in order.tolist()]
        self.warm_request = _Request(*self.windows[0], repeat=False)

    def schedule(self, count: int) -> list[_Request]:
        """Seeded request stream: fresh windows plus ~1/3 exact repeats."""
        rng = np.random.default_rng([self.seed, 8])
        fresh = iter(self.windows[1 + self.settle_requests :])
        out: list[_Request] = []
        for _ in range(count):
            if out and rng.random() < self.repeat_share:
                earlier = out[int(rng.integers(len(out)))]
                out.append(_Request(earlier.lo, earlier.hi, repeat=True))
            else:
                out.append(_Request(*next(fresh), repeat=False))
        return out

    def _pairs(self, r: _Request) -> list:
        return self.pairs[r.lo : r.hi]

    def reference(self, rng) -> tuple[int, int]:
        self.reference_areas = get_backend("vectorized").compare_pairs(self.pairs)
        return _exact_check(self.pairs, rng)

    def _answer_ok(self, r: _Request, areas) -> bool:
        ref = self.reference_areas
        return oracle.areas_match(
            areas,
            ref.intersection[r.lo : r.hi],
            ref.union[r.lo : r.hi],
            ref.area_p[r.lo : r.hi],
            ref.area_q[r.lo : r.hi],
        )

    # The service lives on its own event loop, driven from this thread.
    def open(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.service = ComparisonService(ServiceConfig.from_options(self.options))
        self.loop.run_until_complete(self.service.start())

    def warm_up(self) -> None:
        self.loop.run_until_complete(
            self.service.submit(self._pairs(self.warm_request))
        )

    def _open_loop(self, seconds: float, tally: BackendTally | None = None):
        settle = self.windows[1 : 1 + self.settle_requests]

        async def warm(i: int):
            lo, hi = settle[i]
            return await self.service.submit(self.pairs[lo:hi])

        self.loop.run_until_complete(open_loop(len(settle), self.rate, warm))

        count = max(1, int(round(self.rate * seconds)))
        self.requests = self.schedule(count)

        async def send(i: int):
            pairs = self._pairs(self.requests[i])
            return await self.service.submit(pairs, timeout=self.timeout_s)

        probe = (
            nullcontext()
            if tally is None
            else tally.probe(self.service.backend, NullLedger())
        )
        with probe:
            return self.loop.run_until_complete(open_loop(count, self.rate, send))

    def timed(self, seconds: float, tally: BackendTally | None = None) -> Timed:
        """The open loop; ``tally`` counts its launches (settling excluded)."""
        outcomes = self._open_loop(seconds, tally)
        failed = 0
        for o in outcomes:
            if o.error is not None:
                print(f"perfbench: request {o.index} failed: {o.error!r}")
                failed += 1
            elif not self._answer_ok(self.requests[o.index], o.value):
                print(f"perfbench: wrong answer for request {o.index}")
                failed += 1
        done = [self.requests[o.index] for o in outcomes if o.error is None]
        elapsed = max(o.done for o in outcomes) - min(o.due for o in outcomes)
        return Timed(
            [o.latency for o in outcomes],
            len(outcomes),
            failed,
            sum(self._polygons(r) for r in done) / elapsed,
            sum(r.hi - r.lo for r in done) / elapsed,
            len(done) / elapsed,
            lateness=[o.lateness for o in outcomes],
        )

    def _polygons(self, r: _Request) -> int:
        pairs = self._pairs(r)
        return len({id(p) for p, _ in pairs}) + len({id(q) for _, q in pairs})

    def service_layers(self, seconds: float) -> tuple[dict, int, int]:
        """Open-loop run read through the service's own counters and the
        launches its dispatcher makes."""
        tally = BackendTally()
        timed = self.timed(seconds, tally)
        snap = self.service.snapshot()
        fresh = [
            o_lat
            for o_lat, r in zip(timed.latencies, self.requests)
            if not r.repeat
        ]
        repeat = [
            o_lat for o_lat, r in zip(timed.latencies, self.requests) if r.repeat
        ]
        cache = snap.caches.get("service.request", {})
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        layers = {
            "service.batches": snap.batches,
            "service.mean_batch_requests": snap.mean_batch_requests,
            "service.mean_batch_pairs": snap.mean_batch_pairs,
            "service.max_queue_depth": snap.max_queue_depth,
            "service.rejected": snap.rejected,
            "service.timeouts": snap.timeouts,
            "service.failures": snap.failures,
            "service.fresh_p50_ms": median(fresh) * 1e3 if fresh else 0.0,
            "service.repeat_p50_ms": median(repeat) * 1e3 if repeat else 0.0,
            "cache.hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
            "cache.evictions": cache.get("evictions", 0),
            "cache.entries": cache.get("entries", 0),
            "cache.bytes": cache.get("current_bytes", 0),
            "loadgen.late_p99_ms": percentile(timed.lateness, 99.0) * 1e3,
            "latency_p99_ms": percentile(timed.latencies, 99.0) * 1e3,
            **tally.layers(),
        }
        return layers, timed.attempted, timed.failed

    def replay(self, ledger) -> Replay:
        """The last open loop's first requests, one at a time, through
        the real submit path, from an empty cache so every replay sees
        the same hits."""
        out = Replay()
        self.service.clear_caches()
        with ledger.span("replay.service_open_loop"):
            with out.backend.probe(self.service.backend, ledger):
                for r in self.requests[: self.replay_requests]:
                    with ledger.span("service.submit", pairs=r.hi - r.lo):
                        areas = self.loop.run_until_complete(
                            self.service.submit(self._pairs(r))
                        )
                    out.checked += 1
                    out.failed += not self._answer_ok(r, areas)
        return out

    def close(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.close())
        if self.loop is not None:
            self.loop.close()


WORKLOADS = {w.name: w for w in (SlideFiles, LargeObjects, ServiceOpenLoop)}
