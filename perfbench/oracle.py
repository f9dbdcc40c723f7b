"""Correctness oracle: references from another executor, exact spot checks.

References are computed once per run, during set-up, on the
``vectorized`` executor, which none of the timed paths use.  A seeded
sample of pairs is also checked against the exact vector overlay
(:mod:`repro.exact`), so a reference that is itself wrong is caught.

Integers are compared bit for bit.  J' is compared within a relative
1e-12: ``compare_files`` sums per-tile ratio sums in thread-completion
order, so its J' can move in the last ulp between identical calls (see
NOTES.md, known defects).  That tolerance is the only one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "JACCARD_RTOL",
    "INT_FIELDS",
    "result_mismatches",
    "areas_match",
    "exact_mismatches",
]

JACCARD_RTOL = 1e-12

#: Integer fields of a ``CompareResult`` that must match exactly.
INT_FIELDS = (
    "intersecting_pairs",
    "candidate_pairs",
    "missing_a",
    "missing_b",
    "count_a",
    "count_b",
)


def result_mismatches(result, reference) -> list[str]:
    """Fields of ``result`` that disagree with ``reference`` (empty = ok)."""
    bad = [
        f"{name}: {getattr(result, name)} != {getattr(reference, name)}"
        for name in INT_FIELDS
        if getattr(result, name) != getattr(reference, name)
    ]
    got, want = result.jaccard_mean, reference.jaccard_mean
    if abs(got - want) > JACCARD_RTOL * abs(want):
        bad.append(f"jaccard_mean: {got!r} != {want!r}")
    return bad


def areas_match(areas, intersection, union, area_p, area_q) -> bool:
    """Bit-for-bit equality of a ``BatchAreas`` with reference arrays."""
    return (
        np.array_equal(areas.intersection, intersection)
        and np.array_equal(areas.union, union)
        and np.array_equal(areas.area_p, area_p)
        and np.array_equal(areas.area_q, area_q)
    )


def exact_mismatches(pairs, areas) -> int:
    """Pairs whose ``areas`` row differs from the exact vector overlay."""
    from repro.exact import intersection_area, union_area

    bad = 0
    for k, (p, q) in enumerate(pairs):
        want = (intersection_area(p, q), union_area(p, q), p.area, q.area)
        got = (
            int(areas.intersection[k]),
            int(areas.union[k]),
            int(areas.area_p[k]),
            int(areas.area_q[k]),
        )
        bad += got != want
    return bad
