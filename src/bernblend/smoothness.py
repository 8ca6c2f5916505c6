"""Weighted sup norms and the weighted modulus of smoothness.

The modulus of one even order measures differences of that order in three
regimes: a symmetric difference with the variable step h*sqrt(x(1-x)) away
from the endpoints, and one-sided differences with the fixed step h on the
two endpoint strips [0, 16h^2] and [1 - 16h^2, 1].  Taking the max over a
geometric ladder of h values in (0, t] discretizes the supremum over
0 < h <= t.  Both the norm and the modulus are weighted by the weight their
EvaluationGrid was built for, and read it from the grid.

f takes 1-d arrays.  A region of a step h calls f on the points of as many
stencil offsets at once as fit in 2^16 (at least one), so a step costs at
most 3 calls while each region holds at most 2^16 / (order + 1) points.  A
call over several t shares the distinct steps of their ladders.  A region's
filter uses the expression of its largest stencil offset, so no point
leaves [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .basis import (_MAX_ORDER, _check_finite, _check_int, _compensated_sum,
                    evaluate)
from .blend import Weight
from .errors import DomainError, SampleError

_GRID_EXCLUSION = 1e-12
_CLUSTER_SPAN = 0.05
_CLUSTER_FLOOR = 1e-9
_ENDPOINT_FLOOR = 1e-7
# largest modulus argument t, and the steps in each t's ladder t / 2^j
_T_CAP = 0.125
_H_COUNT = 8
# largest accepted grid size: bounds the run time and memory of one sweep
_MAX_GRID = 10**6
# stencil points per call of f, unless one offset's region holds more: one
# call on all 17 offsets of a 10^6-point grid took 1.4x the time and 1.6x the RSS
_CALL_POINTS = 1 << 16


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

        per_side = math.ceil(size / 8)
        # offsets shrink geometrically from 0.05 down to ~1e-9 on each side of xi
        ratio = (_CLUSTER_FLOOR / _CLUSTER_SPAN) ** (1.0 / (per_side - 1))
        offs = _CLUSTER_SPAN * ratio ** np.arange(per_side)
        pieces.append(xi - offs)
        pieces.append(xi + offs)

        n_end = max(16, size // 16)
        end = np.geomspace(_ENDPOINT_FLOOR, 0.04, n_end)
        pieces.append(end)
        pieces.append(1.0 - end)

        # np.unique's sort and adjacent-duplicate mask, without the numpy.ma
        # import that np.unique costs on first use (about 10 ms of start-up)
        pts = np.sort(np.concatenate(pieces))
        pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]
        pts = pts[(pts >= 0.0) & (pts <= 1.0)]
        pts = pts[np.abs(pts - xi) > _GRID_EXCLUSION]
        pts.flags.writeable = False
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "points", pts)


def _check_grid_size(size: int) -> int:
    return _check_int(size, "grid size", 16, _MAX_GRID)


def make_grid(weight: Weight, size: int) -> EvaluationGrid:
    return EvaluationGrid(weight, size)


def weighted_norm(vals, grid: EvaluationGrid) -> float:
    """max over the grid of the grid's weight times |vals|, for ``vals``
    sampled on ``grid.points``."""
    xs = grid.points
    if vals.shape != xs.shape:
        raise DomainError("value array does not match the grid")
    return _weighted_max(xs, grid.weight(xs) * vals)


def _weighted_max(xs: np.ndarray, prod: np.ndarray) -> float:
    """max |prod|; a non-finite entry raises SampleError naming its x."""
    _check_finite(xs, prod, "weighted value")
    return float(np.max(np.abs(prod)))


def weighted_modulus(f, order: int, ts: Iterable[float],
                     grid: EvaluationGrid) -> tuple[float, ...]:
    """The modulus of smoothness of the even ``order`` (2..16), weighted by
    the grid's weight, at each t in (0, 1/8] of ``ts``, as a tuple.

    For each h in t's ladder t, t/2, ..., t/2^7 (halving keeps the ladders
    nested across t = 2^-k) the three regional sups are evaluated on the
    grid and combined with max; a modulus is the max over its ladder, hence
    nondecreasing in t by construction.  A step h shared by several ladders
    is scanned once per call, on its first visit in t and ladder order, so
    each value and the first failure are those of one call per t.  The
    order and every t are checked before f is called.  A non-finite
    weighted difference raises SampleError, as in ``weighted_norm``.
    """
    order = _check_int(order, "difference order", 2, 2 * _MAX_ORDER)
    if order % 2 != 0:
        raise DomainError(f"difference order must be even, got {order}")
    ts = list(ts)  # an iterator too is checked in full before the first scan
    if not all(0.0 < t <= _T_CAP for t in ts):
        raise DomainError("modulus argument t must lie in (0, 1/8]")
    sups: dict[float, float] = {}
    values = []
    for t in ts:
        best = 0.0
        for h in (t * 0.5 ** np.arange(_H_COUNT)).tolist():
            if h not in sups:
                sups[h] = _step_sup(f, grid, order, h)
            best = max(best, sups[h])
        values.append(best)
    return tuple(values)


def _step_sup(f, grid: EvaluationGrid, order: int, h: float) -> float:
    """max of the three regional sups of one step h."""
    pts = grid.points
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
                best = max(best, _weighted_max(xs, grid.weight(xs) * diff))
    return best


def _difference(f, xs: np.ndarray, offsets, order: int) -> np.ndarray:
    """sum_k (-1)^k C(order, k) f(xs + offsets[k]): f takes the points of as many
    k at once, in k order, as _CALL_POINTS allows, and fails as a call per k."""
    per_call = max(1, _CALL_POINTS // xs.size)
    vals = []
    for j in range(0, len(offsets), per_call):
        pts = [xs + off for off in offsets[j:j + per_call]]
        try:
            vals += np.split(evaluate(f, np.concatenate(pts)), len(pts))
        except SampleError:
            # f may refuse a later k's x before an earlier k's NaN is seen
            for p in pts:
                evaluate(f, p)
            raise
    coeffs = ((-1) ** k * math.comb(order, k) for k in range(len(offsets)))
    return _compensated_sum(c * v for c, v in zip(coeffs, vals))
