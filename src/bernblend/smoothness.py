"""Weighted sup norms and the weighted modulus of smoothness.

The modulus measures order-``r2`` differences in three regimes: a symmetric
difference with the variable step h*sqrt(x(1-x)) away from the endpoints, and
one-sided differences with the fixed step h on the two endpoint strips
[0, 16h^2] and [1 - 16h^2, 1].  Taking the max over a geometric ladder of h
values in (0, t] discretizes the supremum over 0 < h <= t.

f takes 1-d arrays: each region of each step h costs one call of f per
stencil offset, at most 3 * (r2 + 1) calls per distinct step.  A call over
several t shares the distinct steps of their ladders, which nest when the t
differ by powers of two.  A region's filter uses the same expression as its
largest stencil offset, so no stencil point leaves [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .basis import (_MAX_ORDER, _check_finite, _check_int, _compensated_sum,
                    evaluate)
from .blend import Weight
from .errors import DomainError

_GRID_EXCLUSION = 1e-12
_CLUSTER_SPAN = 0.05
_CLUSTER_FLOOR = 1e-9
_ENDPOINT_FLOOR = 1e-7
# largest modulus argument t, and the steps in each t's ladder t / 2^j
_T_CAP = 0.125
_H_COUNT = 8
# largest accepted grid size: bounds the run time and memory of one sweep
_MAX_GRID = 10**6


@dataclass(frozen=True, eq=False)
class EvaluationGrid:
    """The read-only, strictly increasing ``points`` in [0, 1] of a grid of
    about ``size`` points: a uniform backbone, a geometric cluster at
    weight.xi and refined endpoints.

    weight.xi itself never appears among the points; weighted quantities
    are continuous there with limit 0, so no sample is needed.
    """

    weight: Weight
    size: int = 2001
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        size, xi = _check_grid_size(self.size), self.weight.xi
        # so that both endpoints stay on the grid
        if min(xi, 1.0 - xi) <= _GRID_EXCLUSION:
            raise DomainError(f"grid cluster center xi={xi!r} lies within "
                              f"{_GRID_EXCLUSION} of an endpoint")
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
        pts.flags.writeable = False
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "points", pts)


def _check_grid_size(size: int) -> int:
    return _check_int(size, "grid size", 16, _MAX_GRID)


def make_grid(weight: Weight, size: int = 2001) -> EvaluationGrid:
    return EvaluationGrid(weight, size)


def weighted_norm(vals, weight: Weight, grid: EvaluationGrid) -> float:
    """max over the grid of |x - xi|^alpha * |vals|, for ``vals`` sampled on
    ``grid.points``."""
    xs = grid.points
    if vals.shape != xs.shape:
        raise DomainError("value array does not match the grid")
    return _weighted_max(xs, weight(xs) * vals)


def _weighted_max(xs: np.ndarray, prod: np.ndarray) -> float:
    """max |prod|; a non-finite entry raises SampleError naming its x."""
    _check_finite(xs, prod, "weighted value")
    return float(np.max(np.abs(prod)))


@dataclass(frozen=True)
class ModulusParams:
    """Difference order (even, at most twice the largest combination order)
    and modulus argument t."""

    r2: int
    t: float

    def __post_init__(self) -> None:
        r2 = _check_int(self.r2, "difference order", 2, 2 * _MAX_ORDER)
        if r2 % 2 != 0:
            raise DomainError(f"difference order must be even, got {r2}")
        if not 0.0 < self.t <= _T_CAP:
            raise DomainError("modulus argument t must lie in (0, 1/8]")
        object.__setattr__(self, "r2", r2)

    def h_ladder(self) -> np.ndarray:
        # t, t/2, t/4, ...: halving keeps the ladders nested across t = 2^-k
        return self.t * 0.5 ** np.arange(_H_COUNT)


def weighted_modulus(f, weight: Weight, params: ModulusParams | Sequence[ModulusParams],
                     grid: EvaluationGrid):
    """Weighted modulus of smoothness of order ``params.r2`` at ``params.t``.

    ``params`` is one ModulusParams, giving a float, or a sequence of them,
    giving a tuple with one modulus per entry.  For each h in a ladder the
    three regional sups are evaluated on the grid and combined with max; a
    modulus is the max over its ladder, hence nondecreasing in t by
    construction.  A step (order, h) shared by several ladders is scanned
    once per call, on its first visit in entry and ladder order, so each
    value and the first failure are those of one call per entry.  A
    non-finite weighted difference raises SampleError, as in
    ``weighted_norm``.
    """
    single = isinstance(params, ModulusParams)
    sups: dict[tuple[int, float], float] = {}
    values = []
    for entry in [params] if single else params:
        best = 0.0
        for h in entry.h_ladder().tolist():
            key = (entry.r2, h)
            if key not in sups:
                sups[key] = _step_sup(f, weight, grid.points, entry.r2, h)
            best = max(best, sups[key])
        values.append(best)
    return values[0] if single else tuple(values)


def _step_sup(f, weight: Weight, pts: np.ndarray, order: int, h: float) -> float:
    """max of the three regional sups of one step h."""
    cut = 16.0 * h * h
    # the middle, the strip at 0 and the strip at 1 take symmetric, forward
    # and backward stencils; each filter computes its region's largest
    # offset by the stencil's own expression, so no point leaves [0,1]
    phi = np.sqrt(pts * (1.0 - pts))
    reach = order / 2.0 * h * phi
    inner = ((pts >= cut) & (pts <= 1.0 - cut) & (reach != 0.0)
             & (pts - reach >= 0.0) & (pts + reach <= 1.0))
    ks = range(order + 1)
    regions = ((pts[inner], [(order / 2.0 - k) * h * phi[inner] for k in ks]),
               (pts[(pts <= cut) & (pts + order * h <= 1.0)], [(order - k) * h for k in ks]),
               (pts[(pts >= 1.0 - cut) & (pts - order * h >= 0.0)], [-k * h for k in ks]))
    best = 0.0
    # a huge f may overflow in the sum; _weighted_max raises on the result
    with np.errstate(over="ignore", invalid="ignore"):
        for xs, offsets in regions:
            if xs.size:
                diff = _difference(f, xs, offsets, order)
                best = max(best, _weighted_max(xs, weight(xs) * diff))
    return best


def _difference(f, xs: np.ndarray, offsets, order: int) -> np.ndarray:
    """sum_k (-1)^k C(order, k) f(xs + offsets[k]) by one call of f per k."""
    terms = []
    for k, off in enumerate(offsets):
        c = math.comb(order, k)
        v = evaluate(f, xs + off)
        terms.append(-c * v if k % 2 else c * v)
    return _compensated_sum(terms)
