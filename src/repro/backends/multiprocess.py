"""Shared-memory multiprocess backend: pair shards across worker processes.

The NumPy engines are single-process; on a multi-core host the GIL-free
way to scale them is process sharding.  This backend is the process-pool
transport of :class:`repro.cluster.executor.ShardedBackend`, which runs
the request sequence (route, build, pack, plan, schedule, merge,
finalize), the shard-result cache tier and the scheduler's fault path
for it.

This module owns how a shard reaches a slot: the request's bundle is
copied **once** into a single :mod:`multiprocessing.shared_memory`
segment; each pool worker attaches zero-copy NumPy views over it, runs
the shared chunk kernel on its contiguous range of pair indices (one
shard per worker), and ships back only its intersection slice.  Results
and work counters are bit-for-bit the vectorized backend's for any
worker count; the parity harness checks this.  Small inputs (fewer than
``min_pairs`` candidates) skip the pool and run in-process.

By default the pool is closed at the end of every call, so no resource
outlives ``compare_pairs``.  ``persistent=True`` keeps one warm pool
across calls (created lazily, pre-spawnable with :meth:`warm`) for a
long-lived owner like :class:`repro.service.ComparisonService`; only the
shared-memory packing remains per dispatch.  ``close()`` shuts it down
and joins its workers; the next pooled call re-creates it.  A pool
broken by a dead worker is dropped the same way: the scheduler finishes
that call's shards in-process and the next call starts a fresh pool.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from multiprocessing import shared_memory

import numpy as np

from repro.backends.base import BackendCapabilities, Pairs, register
from repro.cluster.executor import ShardedBackend
from repro.cluster.scheduler import ShardOutcome
from repro.cluster.worker import run_bundle_shard
from repro.errors import KernelError
from repro.pixelbox.common import KernelStats, LaunchConfig
from repro.pixelbox.kernel import BatchAreas, shard_policy

__all__ = ["MultiprocessBackend", "default_workers"]


def default_workers() -> int:
    """Worker-count default: the host's cores, capped at 4.

    The ``REPRO_WORKERS`` environment variable overrides the default —
    CI uses it to run the parity suite at several pool widths.  A value
    that does not parse is an error, not a silent fallback: the parity
    matrix must never report green for a width it did not test.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise KernelError(
                f"REPRO_WORKERS must be a positive integer, got {env!r}"
            )
        return workers
    return max(1, min(4, os.cpu_count() or 1))


def _mp_context():
    """Fork when safe (fast, POSIX, single-threaded), spawn otherwise.

    Forking a multi-threaded process can deadlock the children on locks
    held by other threads at fork time — and the pipeline calls this
    backend from its aggregator *thread* — so fork is only used when no
    other threads are running.  macOS always spawns: system frameworks
    (Accelerate/objc) are fork-unsafe there even single-threaded, which
    is why CPython made spawn the macOS default.
    """
    if threading.active_count() == 1 and sys.platform != "darwin":
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            pass
    return multiprocessing.get_context("spawn")


# ----------------------------------------------------------------------
# Shared-memory packing
# ----------------------------------------------------------------------
def _pack_arrays(
    arrays: dict[str, np.ndarray],
) -> tuple[shared_memory.SharedMemory, dict[str, tuple[int, tuple, str]]]:
    """Copy ``arrays`` into one shared segment; return it + a manifest.

    The manifest maps array name to ``(byte offset, shape, dtype str)``
    and is small enough to pickle per task.
    """
    manifest: dict[str, tuple[int, tuple, str]] = {}
    offset = 0
    for name, arr in arrays.items():
        offset = -(-offset // arr.itemsize) * arr.itemsize  # align
        manifest[name] = (offset, arr.shape, arr.dtype.str)
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for name, view in _views(shm.buf, manifest).items():
        view[...] = arrays[name]
    return shm, manifest


def _views(
    buf, manifest: dict[str, tuple[int, tuple, str]]
) -> dict[str, np.ndarray]:
    """Zero-copy NumPy views over a packed segment."""
    return {
        name: np.ndarray(shape, dtype=dtype, buffer=buf, offset=off)
        for name, (off, shape, dtype) in manifest.items()
    }


# ----------------------------------------------------------------------
# Worker body
# ----------------------------------------------------------------------
def _worker(
    shm_name: str,
    manifest: dict[str, tuple[int, tuple, str]],
    lo: int,
    hi: int,
    cfg: LaunchConfig,
    substrate: str,
) -> tuple[np.ndarray, dict[str, int]]:
    """Pool task: attach, run shard ``[lo, hi)``, detach.

    The attachment registers the segment with the parent's resource
    tracker, which fork and spawn workers alike share on POSIX: the
    tracker keeps a set, and the parent's ``unlink`` retires the entry.
    """
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        # The kernel allocates its own output: nothing returned views
        # the segment, which dies with this task.
        return run_bundle_shard(
            _views(shm.buf, manifest), lo, hi, shard_policy(substrate), cfg
        )
    finally:
        shm.close()


def _warm_probe(hold_seconds: float) -> int:
    """Pool task used to pre-spawn workers (returns the worker pid).

    Holding the worker briefly keeps an already-finished worker from
    stealing the next probe, so one probe lands on each worker and the
    whole pool is forced into existence.
    """
    import time

    time.sleep(hold_seconds)
    return os.getpid()


# ----------------------------------------------------------------------
# Backend
# ----------------------------------------------------------------------
@register("multiprocess")
class MultiprocessBackend(ShardedBackend):
    """Shared-memory pair sharding across worker processes.

    Parameters
    ----------
    workers:
        Process count; defaults to :func:`default_workers`.
    min_pairs:
        Below this many pairs the pool is skipped and the shard runs
        in-process (identical results, no fork overhead).
    persistent:
        Keep one warm worker pool across ``compare_pairs`` calls instead
        of forking per call.  The owner is responsible for ``close()``
        (or using the backend as a context manager).
    substrate:
        What each shard executes on: ``"numpy"`` (default) or
        ``"numba"`` — a shard runs the compiled chunk kernel inside its
        worker process, composing process sharding with the compiled
        substrate.  Requires the ``repro[numba]`` extra.
    result_cache_bytes:
        Byte budget of a parent-side shard-result cache keyed by the
        content-addressed bundle digest — the exact key the cluster
        workers use, shared store implementation and all.  Off (``0``)
        by default; enabled by ``CompareOptions(cache=True)``.  Only the
        pool path consults it (the in-process small path is cheaper than
        a digest).
    """

    name = "multiprocess"
    description = "pair shards across processes over shared-memory CSR tables"
    slot_span = "multiprocess.pool_shard"

    def __init__(
        self,
        workers: int | None = None,
        min_pairs: int = 256,
        persistent: bool = False,
        substrate: str = "numpy",
        result_cache_bytes: int = 0,
    ):
        resolved = default_workers() if workers is None else workers
        if resolved < 1:
            raise KernelError(f"workers must be >= 1, got {resolved}")
        if substrate not in ("numpy", "numba"):
            raise KernelError(
                f"substrate must be 'numpy' or 'numba', got {substrate!r}"
            )
        if substrate == "numba":
            # Fail at construction, not inside a worker process.
            from repro.pixelbox import numba_kernel

            numba_kernel.require_numba()
        self.workers = resolved
        self.min_pairs = min_pairs
        self.persistent = persistent
        self.substrate = substrate
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._init_caches("multiprocess.shard", result_cache_bytes)

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            persistent_pooling=True,
            stateful_lifecycle=True,
            configurable_workers=True,
            max_workers=self.workers,
            compiled=self.substrate == "numba",
            notes="shared-memory pair shards; REPRO_WORKERS sets the default",
        )

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _new_pool(self) -> ProcessPoolExecutor:
        """A started worker pool."""
        # Fork workers must inherit a *running* resource tracker: a warm
        # pool forks before any segment exists, and a worker that lazily
        # starts its own tracker would unlink the segment at its exit.
        try:  # pragma: no cover - interpreter internals
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=_mp_context()
        )
        # The first submission forks every worker of a fork pool; make it
        # here, while this is still the only thread, not from a
        # scheduler thread.
        pool.submit(int)
        return pool

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The warm pool (created lazily)."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._new_pool()
            return self._pool

    def _drop_pool(self, pool: ProcessPoolExecutor) -> None:
        """Stop ``pool``; the next pooled call starts a fresh one."""
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=True)

    def warm(self, hold_seconds: float = 0.05) -> list[int]:
        """Pre-spawn every worker in the persistent pool; returns pids.

        Only meaningful with ``persistent=True`` (a per-call pool would
        be torn down again immediately); the service calls this at
        startup so the first request does not pay the fork/spawn cost.
        """
        if not self.persistent:
            return []
        pool = self._ensure_pool()
        # One probe per worker: the executor spawns a process per pending
        # submission until max_workers exist, so this forces a full pool.
        futures = [
            pool.submit(_warm_probe, hold_seconds)
            for _ in range(self.workers)
        ]
        return sorted({f.result() for f in futures})

    def close(self) -> None:
        """Shut the warm pool down and join its workers (idempotent)."""
        pool = self._pool
        if pool is not None:
            self._drop_pool(pool)

    def cache_stats(self) -> dict[str, dict]:
        """Snapshot of the parent-side shard cache, if enabled."""
        return self._cache_stats()

    def clear_caches(self) -> None:
        """Drop every cached shard result."""
        self._clear_caches()

    def compare_pairs(
        self, pairs: Pairs, config: LaunchConfig | None = None
    ) -> BatchAreas:
        return self._compare_sharded(pairs, config)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _runs_local(self, n: int) -> bool:
        return self.workers == 1 or n < max(self.min_pairs, 2 * self.workers)

    @contextmanager
    def _open_slots(self, digest, bundle, cfg):
        """One shared-memory segment for the request; a slot per worker."""
        try:
            shm, manifest = _pack_arrays(bundle)
        except OSError:  # pragma: no cover - hosts without shm support
            yield [], None
            return
        try:
            pool = self._ensure_pool() if self.persistent else self._new_pool()

            def run(slot: int, shard) -> ShardOutcome:
                try:
                    inter, stats = pool.submit(
                        _worker, shm.name, manifest, shard.lo, shard.hi, cfg,
                        self.substrate,
                    ).result()
                except BrokenProcessPool:
                    # A worker died: the scheduler finishes this call's
                    # shards elsewhere and the next call gets a new pool.
                    self._drop_pool(pool)
                    raise
                return ShardOutcome(inter=inter, stats=KernelStats(**stats))

            try:
                yield list(range(self.workers)), run
            finally:
                if not self.persistent:
                    pool.shutdown(wait=True)
        finally:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
