"""Weighted sup norms and the weighted modulus of smoothness.

The modulus of one even order measures differences of that order in three
regimes: a symmetric difference with the variable step h*sqrt(x(1-x)) away
from the endpoints, and one-sided differences with the fixed step h on the
two endpoint strips [0, 16h^2] and [1 - 16h^2, 1].  Taking the max over a
geometric ladder of h values in (0, t] discretizes the supremum over
0 < h <= t.  Both the norm and the modulus are weighted by the weight their
EvaluationGrid was built for, and read it from the grid.

f takes 1-d arrays.  A call over several t scans the distinct steps of
their ladders once, in first-visit order.  A step's stencil points reach f
offset by offset, and region by region within an offset: in one call of at
most 2^14 points, else in one call per offset.  At approx's defaults (order
4, 19 steps, 2001 points) that is 19 calls on 166,440 points.  A step takes
one TwoSum cascade, one gather of the grid's weights and one max; should it
fail, it is rerun region by region with a call per offset, so its first
failure is that of scan order.  A region's filter uses the expression of
its largest stencil offset, so no point leaves [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .basis import (_MAX_ORDER, _check_finite, _check_int, _compensated_sum,
                    evaluate)
from .blend import Weight
from .catalog import _SINGULAR_EXCLUSION
from .errors import DomainError

_CLUSTER_SPAN = 0.05
_CLUSTER_FLOOR = 1e-9
_ENDPOINT_FLOOR = 1e-7
# largest modulus argument t, and the steps in each t's ladder t / 2^j
_T_CAP = 0.125
_H_COUNT = 8
# largest accepted grid size: bounds the run time and memory of one sweep
_MAX_GRID = 10**6
# a step's stencil points in one call of f, above which it takes one call per
# offset.  At orders 4 and 16 on grids of 2001, 4001 and 20001 points, 2^13
# took approx's defaults from 4.0 to 4.6 ms; 2^15 took order 4 on 4001
# points from 5.6 to 5.1 ms but its traced peak from 0.49 to 0.57 MiB, and
# order 16 on 2001 points from 0.49 to 0.76 MiB; the rest moved by noise.
# One call per step at order 16 on a 10^6-point grid took 1.3x the time and
# 1.8x the RSS
_CALL_POINTS = 1 << 14


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
        if min(xi, 1.0 - xi) <= _SINGULAR_EXCLUSION:
            raise DomainError(f"grid cluster center xi={xi!r} lies within "
                              f"{_SINGULAR_EXCLUSION} of an endpoint")
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
        pts = pts[np.abs(pts - xi) > _SINGULAR_EXCLUSION]
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
    ladders = [(t * 0.5 ** np.arange(_H_COUNT)).tolist() for t in ts]
    # the distinct steps, in first-visit order
    sups = dict.fromkeys(h for ladder in ladders for h in ladder)
    pts = grid.points
    phi, weights = np.sqrt(pts * (1.0 - pts)), grid.weight(pts)
    for h in sups:
        regions = _regions(pts, phi, order, h)
        try:
            sups[h] = _step_sup(f, regions, pts, weights, _CALL_POINTS)
        except Exception:  # whatever f raises: rerun each region with a call
            # per offset, so that the first failure is that of scan order
            sups[h] = max(_step_sup(f, [region], pts, weights, 0) for region in regions)
    return tuple(max(sups[h] for h in ladder) for ladder in ladders)


class _Region(NamedTuple):
    """A region of a step: its grid indices and points xs, and its stencil
    offset k, steps[k] * scale (scale 1.0 on the strips)."""
    idx: np.ndarray
    xs: np.ndarray
    steps: np.ndarray
    scale: np.ndarray | float


def _regions(pts: np.ndarray, phi: np.ndarray, order: int, h: float) -> list[_Region]:
    """The nonempty regions of the step h, in scan order."""
    cut = 16.0 * h * h
    ks = np.arange(order + 1)
    # the middle, the strip at 0 and the strip at 1 take symmetric, forward
    # and backward stencils; each filter computes its region's largest
    # offset by the stencil's own expression, so no point leaves [0,1]
    reach = order / 2.0 * h * phi
    inner = np.flatnonzero((pts >= cut) & (pts <= 1.0 - cut) & (reach != 0.0)
                           & (pts - reach >= 0.0) & (pts + reach <= 1.0))
    regions = ((inner, (order / 2.0 - ks) * h, phi[inner]),
               (np.flatnonzero((pts <= cut) & (pts + order * h <= 1.0)), (order - ks) * h, 1.0),
               (np.flatnonzero((pts >= 1.0 - cut) & (pts - order * h >= 0.0)), -ks * h, 1.0))
    return [_Region(idx, pts[idx], steps[:, None], scale)
            for idx, steps, scale in regions if idx.size]


def _step_sup(f, regions: list[_Region], pts: np.ndarray, weights: np.ndarray,
              cap: int) -> float:
    """max over ``regions`` of the grid's weight times |differences|.  f takes
    their stencil points offset by offset, and region by region within an
    offset: in one call if they number at most ``cap``, else in one call per
    offset.  Each offset's values, times its coefficient, replace its points
    before f is called again."""
    if not regions:
        return 0.0
    idx = np.concatenate([region.idx for region in regions])
    vals, a = np.empty((len(regions[0].steps), idx.size)), 0
    for _, xs, steps, scale in regions:
        block = vals[:, a:a + xs.size]
        np.add(xs, np.multiply(steps, scale, out=block), out=block)
        a += xs.size
    coeffs = np.array([[(-1) ** k * math.comb(len(vals) - 1, k)] for k in range(len(vals))])
    # a huge f may overflow in the sum; _check_finite raises on the result
    with np.errstate(over="ignore", invalid="ignore"):
        if vals.size <= cap:
            np.multiply(evaluate(f, vals.ravel()).reshape(vals.shape), coeffs, out=vals)
        else:
            for row, coeff in zip(vals, coeffs):
                np.multiply(evaluate(f, row), coeff, out=row)
        prod = weights[idx] * _compensated_sum(vals)
    if not np.isfinite(prod).all():  # the points only to name a bad x
        _check_finite(pts[idx], prod, "weighted value")
    return float(np.max(np.abs(prod)))
