"""Seeded synthetic slides, generated once per (workload, seed) and cached.

Every workload's input is a whole-slide result-set pair in the
``generate_dataset`` layout (``result_a/tile_NNNN.txt`` and
``result_b/tile_NNNN.txt``, tiles placed on a grid in slide coordinates),
built from :func:`repro.data.generate_tile`.  Generation is slow (about
one second per 512x512 tile, almost all of it hole filling in the mask
tracer), so tiles are made by ``min(2, nproc)`` worker processes and the
finished slide is cached under ``.repro-data/perfbench/`` (ignored by
git), keyed by slide name, seed and the slide's spec; a workload that
shares another's slide (:data:`SHARED_SLIDES`) reads the same files.  The time spent
generating is reported on its own, never inside ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

__all__ = ["SlideSpec", "SLIDES", "Slide", "ensure_slide", "load_tiles"]


@dataclass(frozen=True)
class SlideSpec:
    """Shape of one workload's synthetic slide."""

    tiles: int
    nuclei_per_tile: int
    tile_size: int = 512
    mean_radius: float = 6.5
    radius_sd: float = 2.0


#: Per slide: ``slide_files`` is paper-sized nuclei (~150 px), the
#: generate_dataset default shape; ``large_objects`` has radius-36
#: objects whose MBRs exceed the 64-px skip-subdivision cutoff.
SLIDES: dict[str, SlideSpec] = {
    "slide_files": SlideSpec(tiles=8, nuclei_per_tile=400),
    "large_objects": SlideSpec(
        tiles=16, nuclei_per_tile=30, tile_size=768, mean_radius=36.0, radius_sd=6.0
    ),
}

#: Workloads that read another workload's slide: the service cuts the
#: ``slide_files`` slide's candidate pairs into field-of-view requests.
SHARED_SLIDES = {"service_open_loop": "slide_files"}


@dataclass(frozen=True)
class Slide:
    """A generated slide on disk plus how long generating it took."""

    dir_a: Path
    dir_b: Path
    generate_s: float
    cached: bool


def _tile_seed(workload: str, seed: int, tile: int) -> int:
    salt = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    return int(np.random.SeedSequence([seed, salt, tile]).generate_state(1)[0])


def _make_tile(job: tuple) -> int:
    """Generate one tile and write both result files (runs in a worker)."""
    from repro.data import TileSpec, generate_tile
    from repro.io import tile_name, write_polygons

    spec_dict, tile_seed, t, dx, dy, dir_a, dir_b = job
    spec = SlideSpec(**spec_dict)
    tile = generate_tile(
        TileSpec(
            width=spec.tile_size,
            height=spec.tile_size,
            nuclei=spec.nuclei_per_tile,
            mean_radius=spec.mean_radius,
            radius_sd=spec.radius_sd,
            seed=tile_seed,
        )
    )
    write_polygons(
        Path(dir_a) / tile_name(t), [p.translate(dx, dy) for p in tile.polygons_a]
    )
    write_polygons(
        Path(dir_b) / tile_name(t), [p.translate(dx, dy) for p in tile.polygons_b]
    )
    return t


def ensure_slide(root: Path, workload: str, seed: int) -> Slide:
    """The cached slide for ``(workload, seed)``, generated if missing."""
    workload = SHARED_SLIDES.get(workload, workload)
    spec = SLIDES[workload]
    key = hashlib.sha256(
        json.dumps([workload, seed, asdict(spec)], sort_keys=True).encode()
    ).hexdigest()[:12]
    base = root / f"{workload}-seed{seed}-{key}"
    dir_a, dir_b = base / "result_a", base / "result_b"
    marker = base / ".complete"
    if marker.exists():
        return Slide(dir_a, dir_b, 0.0, True)

    start = time.perf_counter()
    if base.exists():
        shutil.rmtree(base)  # a half-written slide from an interrupted run
    dir_a.mkdir(parents=True)
    dir_b.mkdir(parents=True)
    cols = math.ceil(math.sqrt(spec.tiles))
    jobs = [
        (
            asdict(spec),
            _tile_seed(workload, seed, t),
            t,
            (t % cols) * spec.tile_size,
            (t // cols) * spec.tile_size,
            str(dir_a),
            str(dir_b),
        )
        for t in range(spec.tiles)
    ]
    workers = max(1, min(2, os.cpu_count() or 1, spec.tiles))
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        for _ in pool.map(_make_tile, jobs):
            pass
    marker.write_text(json.dumps({"workload": workload, "seed": seed}) + "\n")
    return Slide(dir_a, dir_b, time.perf_counter() - start, False)


def load_tiles(slide: Slide) -> list[tuple[list, list]]:
    """Per tile, in tile order: ``(polygons_a, polygons_b)``."""
    from repro.io import pair_result_sets, parse_vectorized

    return [
        (parse_vectorized(pair.file_a), parse_vectorized(pair.file_b))
        for pair in pair_result_sets(slide.dir_a, slide.dir_b)
    ]
