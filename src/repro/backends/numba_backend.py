"""The ``numba`` backend: the chunk kernel on the compiled substrate.

Registered as a lazy shim: the module imports
unconditionally (so the registry always lists ``numba`` and can report
*why* it is unavailable), but instantiation probes for the optional
dependency and raises a :class:`~repro.errors.BackendError` naming the
``repro[numba]`` extra when it is missing.

The backend is a thin adapter — it reuses ``ChunkKernel.compute`` (and
therefore ``route_pairs``/``finalize_union``) with the compiled policy,
so the registry-introspecting parity harness and the degenerate sweep
cover it bit-for-bit with zero front-door change.
"""

from __future__ import annotations

import importlib.util

from repro.backends.base import (
    BackendCapabilities,
    BackendLifecycle,
    register,
)
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.pixelbox.common import LaunchConfig
from repro.pixelbox.kernel import (
    DEFAULT_SKIP_SUBDIVISION_DIM,
    BatchAreas,
    ChunkKernel,
    compiled_policy,
)

__all__ = ["NumbaBackend", "numba_unavailable_reason"]


def numba_unavailable_reason() -> str | None:
    """``None`` when numba can be imported, else the reason it cannot.

    A cheap ``find_spec`` probe — no JIT machinery is touched until a
    backend instance actually compiles something.
    """
    try:
        spec = importlib.util.find_spec("numba")
    except (ImportError, ValueError):
        spec = None
    if spec is None:
        return (
            "numba is not installed "
            "(install the optional extra: pip install 'repro[numba]')"
        )
    return None


@register("numba", availability=lambda: numba_unavailable_reason())
class NumbaBackend(BackendLifecycle):
    """Compiled chunk kernel: ``@njit(parallel=True)`` over all cores."""

    name = "numba"
    description = (
        "compiled chunk kernel (Numba @njit(parallel=True) over all cores)"
    )

    def __init__(
        self, skip_subdivision_max_dim: int = DEFAULT_SKIP_SUBDIVISION_DIM
    ):
        from repro.pixelbox import numba_kernel

        numba_kernel.require_numba()
        self._numba_kernel = numba_kernel
        self._policy = compiled_policy(max_dim=skip_subdivision_max_dim)

    def compare_pairs(
        self,
        pairs: list[tuple[RectilinearPolygon, RectilinearPolygon]],
        config: LaunchConfig | None = None,
    ) -> BatchAreas:
        kernel = ChunkKernel(self._policy, config or LaunchConfig())
        return kernel.compute(pairs)

    def warm(self) -> list[int]:
        """Trigger JIT compilation ahead of the first real batch.

        The first call into an ``@njit`` function pays the compile (or
        cache-load) cost; owners that care about first-request latency
        warm with a trivial pair here.  Returns an empty list — no
        processes are spawned — matching the ``warm()`` convention.
        """
        unit = RectilinearPolygon.from_box(Box(0, 0, 1, 1))
        self.compare_pairs([(unit, unit)])
        return []

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            compiled=True,
            max_workers=self._numba_kernel.thread_count(),
            notes=(
                "requires the repro[numba] extra; parallelizes one pair "
                "per thread"
            ),
        )
