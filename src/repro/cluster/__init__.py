"""Sharded execution: ``ChunkKernel.run_shard`` across processes and hosts.

One executor runs every sharded request; transports decide where its
shards run.  Layering, beneath :mod:`repro.service`:

    service (queue + coalescer)  ->  ShardedBackend (route, build, plan,
        schedule, merge)  ->  transport: process pool (multiprocess)
                                         or worker sockets (cluster)
            ->  ChunkKernel.run_shard

* :mod:`repro.cluster.executor` — :class:`ShardedBackend`, the request
  sequence and result caches both transports share;
* :mod:`repro.cluster.scheduler` — scatter/gather with straggler
  speculation, failure re-dispatch, in-process fallback and a
  deterministic first-result-wins merge;
* :mod:`repro.cluster.wire` — length-prefixed binary frames; CSR edge
  tables travel once per worker per table version;
* :mod:`repro.cluster.worker` — the ``repro worker`` server: table
  cache + the one shared kernel entry point;
* :mod:`repro.cluster.coordinator` — :class:`ClusterBackend`, the socket
  transport, one more entry in the backend registry (bit-for-bit parity
  enforced by the same harness as every local executor);
* :mod:`repro.cluster.loopback` — N workers behind real 127.0.0.1
  sockets for CI and the parity suite.

The shared-memory process-pool transport is
:class:`repro.backends.multiprocess.MultiprocessBackend`.
"""

from __future__ import annotations

from repro.cluster.coordinator import ClusterBackend, WorkerClient, parse_hosts
from repro.cluster.loopback import LoopbackCluster
from repro.cluster.scheduler import ScheduleReport, Shard, ShardScheduler
from repro.cluster.worker import ShardWorker

__all__ = [
    "ClusterBackend",
    "LoopbackCluster",
    "ScheduleReport",
    "Shard",
    "ShardScheduler",
    "ShardWorker",
    "WorkerClient",
    "parse_hosts",
]
