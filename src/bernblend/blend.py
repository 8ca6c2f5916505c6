"""Local interpolation patch and smooth blend around an interior singularity.

Given a weight |x - xi|^alpha with 0 < xi < 1, the patch replaces a
function f near xi by the Lagrange polynomial H through r+1 lattice nodes

    x_j = floor(n*xi - (1 + j/r)*sqrt(n)) / n,   j = 0..r,

all strictly to the left of xi, and blends f with H through two scaled
smoothsteps anchored at the four lattice breakpoints

    b1 = floor(n*xi - 2*sqrt(n))/n,  b2 = floor(n*xi - sqrt(n))/n,
    b3 = floor(n*xi + sqrt(n))/n,    b4 = floor(n*xi + 2*sqrt(n))/n.

The blended function equals f outside (b1, b4), equals H on [b2, b3], and
transitions C^{2r}-smoothly in between.  ``BlendSpec(n, r, weight)`` holds
all of it: the nodes, the breakpoints and the order-r smoothstep.  f is never evaluated inside
(b2, b3) except at the nodes themselves, so a singularity at xi is never
touched: the blend coefficients there are exactly 0 by the smoothstep's
exact saturation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .basis import _MAX_DEGREE, _check_degree, _check_order, evaluate
from .errors import DomainError, MinNTooSmall
from .smoothstep import SmoothstepPoly, psi_eval


@dataclass(frozen=True, eq=False)
class Weight:
    """The weight |x - xi|^alpha with an interior center."""

    xi: float
    alpha: float

    def __post_init__(self):
        xi = float(self.xi)
        alpha = float(self.alpha)
        if not 0.0 < xi < 1.0:
            raise DomainError(f"weight center must lie in (0,1), got {xi!r}")
        if not 0.0 < alpha < math.inf:
            raise DomainError(f"weight exponent must be positive and finite, got {alpha!r}")
        # the farthest point of [0, 1] from xi has the largest weight
        if max(xi, 1.0 - xi) ** alpha == 0.0:
            raise DomainError(f"weight |x - {xi!r}|^{alpha!r} underflows to 0 on all of [0,1]")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "alpha", alpha)

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return np.abs(xs - self.xi) ** self.alpha


def _node_numerators(n: int, r: int, xi: float) -> list[int]:
    # r+1 lattice nodes spread evenly across the left transition zone,
    # from n*xi - sqrt(n) down to n*xi - 2*sqrt(n).  Spreading at the
    # sqrt(n) scale keeps every Lagrange cardinal function bounded on the
    # whole patch window (spread comparable to window width), which is what
    # keeps the weighted interpolant controlled by the weighted norm of f.
    # Nodes clustered at the 1/n scale instead would make the cardinal
    # functions grow like n^(r/2) on the window and the patched operator
    # diverge on singular inputs; for r = 1 the two outermost choices
    # coincide (the nodes are exactly the two left breakpoints).
    root = math.sqrt(n)
    return [math.floor(n * xi - (1.0 + j / r) * root) for j in range(r + 1)]


def _first_valid_n(ok: Callable[[int], bool], d: float) -> int:
    """Smallest n >= 4 with ok(n), for an ok(n) that implies n*d - 2*sqrt(n) >= 1."""
    # that condition holds exactly for sqrt(n) >= (1 + sqrt(1 + d)) / d; the
    # scan starts just below the root, so roundoff cannot skip the answer;
    # the root is compared before it is squared, which overflows for tiny d
    root = (1.0 + math.sqrt(1.0 + d)) / d
    n = max(4, math.floor(root * root) - 1) if root < math.sqrt(_MAX_DEGREE) else _MAX_DEGREE
    while n <= _MAX_DEGREE:
        if ok(n):
            return n
        n += 1
    raise DomainError(f"no admissible degree up to {_MAX_DEGREE}")


def _admissible(n: int, r: int, xi: float) -> bool:
    """The r+1 nodes are distinct and in 1..n-1, and so is the window [b1, b4]."""
    nums = _node_numerators(n, r, xi)
    distinct = all(a > b for a, b in zip(nums, nums[1:]))
    root = math.sqrt(n)
    window = root >= 2.0 and n * xi - 2.0 * root >= 1.0 and n * (1.0 - xi) - 2.0 * root >= 1.0
    return distinct and nums[-1] >= 1 and nums[0] <= n - 1 and window


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """w_i = 1 / prod_{j != i} (x_i - x_j)."""
    nodes = np.asarray(nodes, dtype=float)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    if np.any(diff == 0.0):
        raise DomainError("interpolation nodes must be pairwise distinct")
    return 1.0 / diff.prod(axis=1)


def lagrange_interpolant(f: Callable, nodes: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Lagrange interpolant of f at ``nodes``, in first barycentric form, on ``xs``."""
    fvals = evaluate(f, nodes)
    d = xs[:, None] - nodes[None, :]
    hit = d == 0.0
    anyhit = hit.any(axis=1)
    d_safe = np.where(hit, 1.0, d)
    # huge node values may overflow; the callers refuse the non-finite
    # results.  The first barycentric form stays stable when extrapolating
    # well outside the node cluster, which the blend does routinely
    with np.errstate(over="ignore", invalid="ignore"):
        wf = barycentric_weights(nodes) * fvals
        out = d.prod(axis=1) * (wf / d_safe).sum(axis=1)
    if anyhit.any():
        out[anyhit] = fvals[hit.argmax(axis=1)[anyhit]]
    return out


@dataclass(frozen=True, eq=False)
class BlendSpec:
    """The patch of (n, r, weight): the r+1 read-only ``nodes``, strictly
    decreasing and all left of xi, the blend window's four lattice
    ``breaks`` (b1, b2, b3, b4) and the order-r smoothstep ``step``.

    A degree too small for the window or the nodes raises MinNTooSmall
    naming the smallest degree that admits both.
    """

    n: int
    r: int
    weight: Weight
    nodes: np.ndarray = field(init=False, repr=False)
    breaks: tuple[float, float, float, float] = field(init=False)
    step: SmoothstepPoly = field(init=False, repr=False)

    def __post_init__(self):
        n, r, xi = _check_degree(self.n), _check_order(self.r), self.weight.xi
        if not _admissible(n, r, xi):
            n_min = _first_valid_n(lambda m: _admissible(m, r, xi), min(xi, 1.0 - xi))
            raise MinNTooSmall(
                f"degree n={n} is too small for the blend window and {r + 1} "
                f"distinct interior patch nodes at xi={xi}; need n >= {n_min}",
                n_min,
            )
        nodes = np.array([m / n for m in _node_numerators(n, r, xi)])
        nodes.flags.writeable = False
        root = math.sqrt(n)
        # n*xi + (-c)*root is n*xi - c*root exactly
        breaks = tuple(math.floor(n * xi + c * root) / n for c in (-2.0, -1.0, 1.0, 2.0))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "step", SmoothstepPoly(r))


def blend_eval(f: Callable, spec: BlendSpec, xs: np.ndarray):
    """The blended extension of f for the patch ``spec``, on ``xs``.

    Piecewise: f on [0, b1] and [b4, 1] (bit-for-bit, the blend coefficient
    is exactly 1 there), the patch polynomial on [b2, b3], and the
    smoothstep mixture on the two transition bands.  f is only evaluated
    where its coefficient is nonzero, and then at the patch nodes.
    """
    b1, b2, b3, b4 = spec.breaks
    t1 = psi_eval(spec.step, (xs - b1) / (b2 - b1))
    t2 = psi_eval(spec.step, (xs - b3) / (b4 - b3))
    fcoef = 1.0 - t1 + t2
    hcoef = t1 * (1.0 - t2)
    out = np.zeros(xs.shape)
    fmask = fcoef != 0.0
    if fmask.any():
        # where the coefficient is exactly 1.0 this reproduces f bit-for-bit
        out[fmask] = fcoef[fmask] * evaluate(f, xs[fmask])
    hmask = hcoef != 0.0
    if hmask.any():
        out[hmask] += hcoef[hmask] * lagrange_interpolant(f, spec.nodes, xs[hmask])
    return out
