"""The sharded executor: one request sequence under every sharding transport.

:class:`ShardedBackend` owns what every sharding backend does per
request: route pairs, build the CSR edge tables, pack them into one
bundle, plan contiguous shards, run them through
:class:`~repro.cluster.scheduler.ShardScheduler` (shard-cache hooks,
failure re-dispatch, straggler speculation, in-process fallback), merge
in shard order and finalize unions.  It also owns the shard and merge
cache tiers.  A subclass is a *transport* and owns only how a shard
reaches a slot: a process of a shared-memory pool (``multiprocess``) or
a :class:`~repro.cluster.coordinator.WorkerClient` socket with resident
tables (``cluster``).  Every slot runs
:meth:`~repro.pixelbox.kernel.ChunkKernel.run_shard` under the shard
policy, as the fallback does, so results and work counters match the
vectorized backend bit for bit.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.backends.base import BackendLifecycle, Pairs
from repro.cache import (
    LRUCacheStore,
    areas_nbytes,
    copy_areas,
    copy_shard_result,
    merge_key,
    shard_key,
    shard_result_nbytes,
)
from repro.cluster import wire
from repro.cluster.scheduler import Shard, ShardOutcome, ShardScheduler
from repro.cluster.worker import TABLE_FIELDS
from repro.obs.events import EVENTS
from repro.obs.trace import activate, current_context, current_tracer
from repro.pixelbox.common import KernelStats, LaunchConfig
from repro.pixelbox.kernel import BatchAreas, ChunkKernel, shard_policy
from repro.pixelbox.vectorized import EdgeTable

__all__ = ["ShardedBackend"]


def _cache(nbytes: int, name: str) -> LRUCacheStore | None:
    return LRUCacheStore(nbytes, name=name) if nbytes > 0 else None


class ShardedBackend(BackendLifecycle):
    """The shared sequence; a subclass supplies the transport hooks.

    * ``_runs_local(n)``: the small-input rule (run in-process, no slots);
    * ``_shard_pairs(pairs, cfg, slots)``: pairs per shard (default: one
      shard per slot);
    * ``_open_slots(digest, bundle, cfg)``: a context manager yielding
      ``(slots, run)`` with ``run(slot, shard) -> ShardOutcome``; leaving
      it releases the request's transport state.  With no slots the
      scheduler runs every shard in-process.
    """

    #: Registry name; prefixes this backend's trace spans.
    name = "sharded"
    #: What each shard executes on (the shard policy's substrate).
    substrate = "numpy"
    #: Trace span around one shard's trip to a slot.
    slot_span = "sharded.slot_shard"
    #: Whether the transport needs the bundle digest with no cache on.
    digest_always = False
    #: Scheduler report of the most recent dispatch to slots.
    last_report = None

    def _init_caches(
        self, shard_tier: str, shard_bytes: int, merge_bytes: int = 0
    ) -> None:
        self._shard_cache = _cache(shard_bytes, shard_tier)
        self._merge_cache = _cache(merge_bytes, "coordinator.merge")

    def _shard_pairs(self, pairs: Pairs, cfg: LaunchConfig, slots: int) -> int:
        return -(-len(pairs) // slots)

    def _scheduler_options(self) -> dict[str, Any]:
        """Keyword overrides for the scheduler (none: its defaults)."""
        return {}

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------
    def _cache_stores(self) -> list[LRUCacheStore]:
        return [
            c for c in (self._shard_cache, self._merge_cache) if c is not None
        ]

    def _cache_stats(self) -> dict[str, dict]:
        return {c.name: c.snapshot().as_dict() for c in self._cache_stores()}

    def _clear_caches(self) -> None:
        for cache in self._cache_stores():
            cache.clear()

    # ------------------------------------------------------------------
    # The sequence
    # ------------------------------------------------------------------
    def _compare_sharded(
        self, pairs: Pairs, config: LaunchConfig | None
    ) -> BatchAreas:
        cfg = config or LaunchConfig()
        n = len(pairs)
        policy = shard_policy(substrate=self.substrate)
        kernel = ChunkKernel(policy, cfg)
        # Scheduler threads do not inherit this thread's ContextVar, so
        # capture the tracer and the parent span id here and re-activate
        # them around every shard.
        tracer = current_tracer()
        ctx = current_context()
        trace_parent = ctx[1] if ctx is not None else None

        def traced(name: str, fn: Callable[[], Any], **attrs: Any) -> Any:
            if tracer is None:
                return fn()
            with activate(tracer, trace_parent), tracer.span(name, **attrs):
                return fn()

        a_p, a_q, boxes, has_box = kernel.route_pairs(pairs)
        table_p, table_q = traced(
            f"{self.name}.build_tables",
            lambda: (
                EdgeTable.build([p for p, _ in pairs]),
                EdgeTable.build([q for _, q in pairs]),
            ),
            pairs=n,
        )

        def run_local(shard: Shard) -> ShardOutcome:
            part = KernelStats()
            inter, _ = traced(
                f"{self.name}.local_shard",
                lambda: kernel.run_shard(
                    table_p, table_q, boxes, has_box, shard.lo, shard.hi, part
                ),
                lo=shard.lo,
                hi=shard.hi,
            )
            return ShardOutcome(inter=inter, stats=part)

        if self._runs_local(n):
            local = run_local(Shard(0, 0, n))
            union = kernel.finalize_union(local.inter, None, a_p, a_q, has_box)
            return BatchAreas(local.inter, union, a_p, a_q, local.stats)

        bundle = {
            **{f"p.{f}": getattr(table_p, f) for f in TABLE_FIELDS},
            **{f"q.{f}": getattr(table_q, f) for f in TABLE_FIELDS},
            "boxes": boxes,
            "has_box": has_box,
        }
        digest = None
        if self.digest_always or self._cache_stores():
            digest = wire.bundle_digest(bundle)

        def lookup(cache: LRUCacheStore, key: str) -> Any:
            hit = cache.get(key)
            if tracer is not None:
                EVENTS.record(
                    "cache.lookup",
                    tier=cache.name,
                    hit=hit is not None,
                    trace_id=tracer.trace_id,
                )
            return hit

        if self._merge_cache is not None:
            mkey = merge_key(digest, policy, cfg)
            cached = lookup(self._merge_cache, mkey)
            if cached is not None:
                return copy_areas(cached)

        cache_lookup = cache_store = None
        shard_cache = self._shard_cache
        if shard_cache is not None:

            def skey(shard: Shard) -> str:
                return shard_key(digest, shard.lo, shard.hi, policy, cfg)

            def cache_lookup(shard: Shard) -> ShardOutcome | None:
                hit = lookup(shard_cache, skey(shard))
                if hit is None:
                    return None
                inter, part = copy_shard_result(hit)
                return ShardOutcome(inter=inter, stats=KernelStats(**part))

            def cache_store(shard: Shard, outcome: ShardOutcome) -> None:
                entry = copy_shard_result((outcome.inter, outcome.stats.as_dict()))
                shard_cache.put(skey(shard), entry, shard_result_nbytes(entry))

        with self._open_slots(digest, bundle, cfg) as (slots, run):

            def run_slot(slot: Any, shard: Shard) -> ShardOutcome:
                return traced(
                    self.slot_span,
                    lambda: run(slot, shard),
                    worker=str(slot),
                    lo=shard.lo,
                    hi=shard.hi,
                )

            size = self._shard_pairs(pairs, cfg, max(1, len(slots)))
            shards = [
                Shard(index, lo, min(lo + size, n))
                for index, lo in enumerate(range(0, n, size))
            ]
            scheduler = ShardScheduler(
                run_slot,
                run_local,
                cache_lookup=cache_lookup,
                cache_store=cache_store,
                **self._scheduler_options(),
            )
            outcomes, self.last_report = scheduler.execute(shards, slots)

        inter = np.zeros(n, dtype=np.int64)
        stats = KernelStats()
        for shard in shards:  # deterministic merge order
            inter[shard.lo : shard.hi] = outcomes[shard.index].inter
            stats.merge(outcomes[shard.index].stats)
        union = kernel.finalize_union(inter, None, a_p, a_q, has_box)
        result = BatchAreas(inter, union, a_p, a_q, stats)
        if self._merge_cache is not None:
            entry = copy_areas(result)
            self._merge_cache.put(mkey, entry, areas_nbytes(entry))
        return result
