"""Weighted sup norms and the weighted modulus of smoothness.

The modulus measures order-``r2`` differences in three regimes: a symmetric
difference with the variable step h*sqrt(x(1-x)) away from the endpoints, and
one-sided differences with the fixed step h on the two endpoint strips
[0, 16h^2] and [1 - 16h^2, 1].  Taking the max over a geometric ladder of h
values in (0, t] discretizes the supremum over 0 < h <= t.

f is evaluated on arrays: each region and each h costs one call of f per
stencil offset, about 3 * (r2 + 1) * h_count calls per modulus.  An f that
only accepts scalars still works through the per-point fallback of
``basis.evaluate``, just slowly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (_unwrap, backward_difference, forward_difference,
                    symmetric_difference)
from .blend import Weight
from .errors import DomainError, SampleError

_GRID_EXCLUSION = 1e-12
_CLUSTER_SPAN = 0.05
_CLUSTER_FLOOR = 1e-9
_ENDPOINT_FLOOR = 1e-7
# largest accepted grid size: bounds the run time and memory of one sweep
_MAX_GRID = 10**6


def step_weight(x):
    """sqrt(x(1-x)), the step-size weight for the symmetric difference."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("step weight defined on [0, 1] only")
    return _unwrap(x, np.sqrt(arr * (1.0 - arr)))


@dataclass(frozen=True, eq=False)
class EvaluationGrid:
    """Sorted evaluation points in [0, 1] clustered around one interior point.

    ``cluster_center`` itself never appears among the points; weighted
    quantities are continuous there with limit 0, so no sample is needed.
    """

    size: int
    points: np.ndarray
    cluster_center: float

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 8:
            raise DomainError("grid needs at least 8 points")
        if not np.all(np.diff(pts) > 0.0):
            raise DomainError("grid points must be strictly increasing")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise DomainError("grid must include both endpoints")
        if np.any(np.abs(pts - self.cluster_center) <= _GRID_EXCLUSION):
            raise DomainError("grid point coincides with the cluster center")
        near = int(np.count_nonzero(np.abs(pts - self.cluster_center) <= _CLUSTER_SPAN))
        if near < math.ceil(self.size / 4):
            raise DomainError("grid lacks refinement near the cluster center")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


def make_grid(weight: Weight, size: int = 2001) -> EvaluationGrid:
    """Uniform backbone, geometric cluster at weight.xi, refined endpoints."""
    if size < 16:
        raise DomainError("grid size must be at least 16")
    if size > _MAX_GRID:
        raise DomainError(f"grid size must be at most {_MAX_GRID}, got {size}")
    xi = weight.xi
    pieces = [np.linspace(0.0, 1.0, size // 2)]

    per_side = max(size // 8, math.ceil(size / 8))
    # offsets shrink geometrically from 0.05 down to ~1e-9 on each side of xi
    ratio = (_CLUSTER_FLOOR / _CLUSTER_SPAN) ** (1.0 / (per_side - 1))
    offs = _CLUSTER_SPAN * ratio ** np.arange(per_side)
    pieces.append(xi - offs)
    pieces.append(xi + offs)

    n_end = max(16, size // 16)
    end = np.geomspace(_ENDPOINT_FLOOR, 0.04, n_end)
    pieces.append(end)
    pieces.append(1.0 - end)

    pts = np.unique(np.concatenate(pieces))
    pts = pts[(pts >= 0.0) & (pts <= 1.0)]
    pts = pts[np.abs(pts - xi) > _GRID_EXCLUSION]
    if pts[0] != 0.0:
        pts = np.concatenate(([0.0], pts))
    if pts[-1] != 1.0:
        pts = np.concatenate((pts, [1.0]))
    return EvaluationGrid(size=size, points=pts, cluster_center=xi)


def weighted_norm(g, weight: Weight, grid: EvaluationGrid) -> float:
    """max over the grid of |x - xi|^alpha * |g(x)|.

    ``g`` may be a callable on [0, 1] or an array of values already sampled
    on ``grid.points``.
    """
    xs = grid.points
    if callable(g):
        vals = np.asarray(g(xs), dtype=float)
    else:
        vals = np.asarray(g, dtype=float)
        if vals.shape != xs.shape:
            raise DomainError("value array does not match the grid")
    return _weighted_max(xs, weight(xs) * vals)


def _weighted_max(xs: np.ndarray, prod: np.ndarray) -> float:
    """max |prod|; a non-finite entry raises SampleError naming its x."""
    bad = ~np.isfinite(prod)
    if np.any(bad):
        x_bad = float(xs[np.argmax(bad)])
        raise SampleError(f"non-finite weighted value at x={x_bad!r}", x_bad)
    return float(np.max(np.abs(prod)))


@dataclass(frozen=True)
class ModulusParams:
    """Difference order (even), modulus argument t, and h-ladder depth."""

    r2: int
    t: float
    h_count: int = 8

    def __post_init__(self) -> None:
        if self.r2 <= 0 or self.r2 % 2 != 0:
            raise DomainError("difference order must be a positive even integer")
        if not 0.0 < self.t <= 0.125:
            raise DomainError("modulus argument t must lie in (0, 1/8]")
        if self.h_count < 8:
            raise DomainError("h_count must be at least 8")

    def h_ladder(self) -> np.ndarray:
        # t, t/2, t/4, ...: halving keeps the ladders nested across t = 2^-k
        return self.t * 0.5 ** np.arange(self.h_count)


def weighted_modulus(f, weight: Weight, params: ModulusParams, grid: EvaluationGrid) -> float:
    """Weighted modulus of smoothness of order ``params.r2`` at ``params.t``.

    For each h in the ladder the three regional sups are evaluated on the
    grid and combined with max; the result is the max over the ladder, hence
    nondecreasing in t by construction.  A non-finite weighted difference
    raises SampleError, as in ``weighted_norm``.
    """
    pts = grid.points
    order = params.r2
    half = order / 2.0
    best = 0.0
    for h in params.h_ladder():
        cut = 16.0 * h * h
        # skip x whose stencil leaves [0,1]; never clamp
        reach = half * h * np.sqrt(pts * (1.0 - pts))
        mid = pts[(pts >= cut) & (pts <= 1.0 - cut) & (reach != 0.0)
                  & (pts - reach >= 0.0) & (pts + reach <= 1.0)]
        lo = pts[(pts <= cut) & (pts + order * h <= 1.0)]
        hi = pts[(pts >= 1.0 - cut) & (pts - order * h >= 0.0)]
        for xs, diff in ((mid, symmetric_difference), (lo, forward_difference),
                         (hi, backward_difference)):
            if xs.size:
                best = max(best, _weighted_max(xs, weight(xs) * diff(f, xs, h, order)))
    return best
