"""Local interpolation patch and smooth blend around an interior singularity.

Given a weight |x - xi|^alpha with 0 < xi < 1, the patch replaces a
function f near xi by the Lagrange polynomial H through r+1 lattice nodes

    x_i = floor(n*xi - ((r-1)/2 + i)) / n,   i = 1..r+1,

all strictly to the left of xi, and blends f with H through two scaled
smoothsteps anchored at the four lattice breakpoints

    b1 = floor(n*xi - 2*sqrt(n))/n,  b2 = floor(n*xi - sqrt(n))/n,
    b3 = floor(n*xi + sqrt(n))/n,    b4 = floor(n*xi + 2*sqrt(n))/n.

The blended function equals f outside (b1, b4), equals H on [b2, b3], and
transitions C^{2r}-smoothly in between.  f is never evaluated inside
(b2, b3) except at the nodes themselves, so a singularity at xi is never
touched: the blend coefficients there are exactly 0 by the smoothstep's
exact saturation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .basis import _unwrap, evaluate
from .errors import DomainError, MinNTooSmall, SampleError
from .smoothstep import SmoothstepPoly, psi_eval

# the degree search gives up at this n
_MAX_N = 10**7


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
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "alpha", alpha)

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        vals = np.abs(xs - self.xi) ** self.alpha
        return float(vals) if xs.ndim == 0 else vals


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
    # scan starts just below the root, so roundoff cannot skip the answer
    root = (1.0 + math.sqrt(1.0 + d)) / d
    n = max(4, math.floor(root * root) - 1)
    while n < _MAX_N:
        if ok(n):
            return n
        n += 1
    raise DomainError(f"no admissible degree below {_MAX_N:.0e}")


def interpolation_nodes(n: int, r: int, weight: Weight) -> np.ndarray:
    """Patch nodes, strictly decreasing, all left of the weight center."""
    if r < 1:
        raise DomainError(f"patch order r must be >= 1, got {r}")
    def usable(m: int) -> bool:
        cand = _node_numerators(m, r, weight.xi)
        distinct = all(a > b for a, b in zip(cand, cand[1:]))
        return distinct and cand[-1] >= 1 and cand[0] <= m - 1

    nums = _node_numerators(n, r, weight.xi)
    if not usable(n):
        n_min = _first_valid_n(usable, weight.xi)
        raise MinNTooSmall(
            f"degree n={n} leaves no room for {r + 1} distinct interior patch "
            f"nodes at xi={weight.xi}; need n >= {n_min}",
            n_min,
        )
    nodes = np.array([m / n for m in nums])
    # the floor construction pins every node between 1/sqrt(n) and
    # (2*sqrt(n)+1)/n left of the center; assert those sharp bounds
    dist = weight.xi - nodes
    root = math.sqrt(n)
    if dist.min() < 1.0 / root - 1e-12 or dist.max() > (2.0 * root + 1.0) / n + 1e-12:
        raise DomainError("patch nodes strayed outside the left transition zone")
    return nodes


def _breakpoint_ok(n: int, xi: float) -> bool:
    root = math.sqrt(n)
    return root >= 2.0 and n * xi - 2.0 * root >= 1.0 and n * (1.0 - xi) - 2.0 * root >= 1.0


def breakpoints(n: int, weight: Weight) -> tuple[float, float, float, float]:
    """The four blend breakpoints (b1, b2, b3, b4) on the lattice."""
    xi = weight.xi
    if not _breakpoint_ok(n, xi):
        n_min = _first_valid_n(lambda m: _breakpoint_ok(m, xi), min(xi, 1.0 - xi))
        raise MinNTooSmall(
            f"degree n={n} is too small for the blend window at xi={xi}; "
            f"need n >= {n_min}",
            n_min,
        )
    root = math.sqrt(n)
    nums = (
        math.floor(n * xi - 2.0 * root),
        math.floor(n * xi - root),
        math.floor(n * xi + root),
        math.floor(n * xi + 2.0 * root),
    )
    if not (0 < nums[0] < nums[1] < nums[2] < nums[3] < n):
        raise MinNTooSmall(
            f"blend breakpoints collapse at n={n}, xi={xi}",
            _first_valid_n(lambda m: _breakpoint_ok(m, xi), min(xi, 1.0 - xi)),
        )
    return tuple(m / n for m in nums)


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """w_i = 1 / prod_{j != i} (x_i - x_j)."""
    nodes = np.asarray(nodes, dtype=float)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    if np.any(diff == 0.0):
        raise DomainError("interpolation nodes must be pairwise distinct")
    return 1.0 / diff.prod(axis=1)


def _lagrange_closure(fvals: np.ndarray, nodes: np.ndarray) -> Callable:
    w = barycentric_weights(nodes)
    wf = w * fvals

    def h(xs: np.ndarray) -> np.ndarray:
        d = xs[:, None] - nodes[None, :]
        hit = d == 0.0
        anyhit = hit.any(axis=1)
        d_safe = np.where(hit, 1.0, d)
        # first barycentric form: stays stable when extrapolating well
        # outside the node cluster, which the blend does routinely
        out = d.prod(axis=1) * (wf / d_safe).sum(axis=1)
        if anyhit.any():
            out[anyhit] = fvals[hit.argmax(axis=1)[anyhit]]
        return out

    return h


def _node_values(f: Callable, nodes: np.ndarray) -> np.ndarray:
    fvals = evaluate(f, nodes)
    bad = ~np.isfinite(fvals)
    if bad.any():
        x_bad = float(nodes[np.argmax(bad)])
        raise SampleError(f"non-finite value at interpolation node x={x_bad!r}", x_bad)
    return fvals


def lagrange_interpolant(f: Callable, nodes: np.ndarray, x):
    """Lagrange interpolant of f at the given nodes, in first barycentric form."""
    nodes = np.asarray(nodes, dtype=float)
    fvals = _node_values(f, nodes)
    h = _lagrange_closure(fvals, nodes)
    return _unwrap(x, h(np.atleast_1d(np.asarray(x, dtype=float))))


def lebesgue_function(nodes: np.ndarray, x) -> np.ndarray:
    """sum_i |l_i(x)|, the growth factor of the patch at each point."""
    nodes = np.asarray(nodes, dtype=float)
    w = barycentric_weights(nodes)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    d = xs[:, None] - nodes[None, :]
    hit = d == 0.0
    d_safe = np.where(hit, 1.0, d)
    ell = np.abs(d.prod(axis=1)[:, None] * (w / d_safe))
    # a node hit zeroes its whole row via the product; restore the single
    # cardinal that equals 1 there (the others are exactly 0 already)
    ell[hit] = 1.0
    return ell.sum(axis=1)


@dataclass(frozen=True, eq=False)
class BlendSpec:
    """Validated patch geometry for one degree n."""

    n: int
    r: int
    weight: Weight
    nodes: np.ndarray = field(repr=False)
    breaks: tuple[float, float, float, float] = ()

    def __post_init__(self):
        n = int(self.n)
        r = int(self.r)
        nodes = np.asarray(self.nodes, dtype=float)
        b = tuple(float(v) for v in self.breaks)
        if len(b) != 4 or nodes.shape != (r + 1,):
            raise DomainError("blend spec needs r+1 nodes and 4 breakpoints")
        if not (0.0 < b[0] < b[1] < b[2] < b[3] < 1.0):
            raise DomainError(f"breakpoints must be strictly ordered in (0,1): {b}")
        if not np.all(np.diff(nodes) < 0.0):
            raise DomainError("nodes must be strictly decreasing")
        if nodes.min() <= 0.0 or nodes.max() >= 1.0:
            raise DomainError("nodes must be interior")
        xi = self.weight.xi
        if not b[1] < xi < b[2]:
            raise DomainError("weight center must lie strictly inside the patch window")
        if nodes.max() >= xi:
            raise DomainError("all nodes must lie strictly left of the weight center")
        nodes = nodes.copy()
        nodes.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "breaks", b)


def build_blend_spec(n: int, r: int, weight: Weight) -> BlendSpec:
    return BlendSpec(n, r, weight, interpolation_nodes(n, r, weight), breakpoints(n, weight))


def blend_eval(f: Callable, spec: BlendSpec, step: SmoothstepPoly, x):
    """The blended extension of f for the given patch geometry.

    Piecewise: f on [0, b1] and [b4, 1] (bit-for-bit, the blend coefficient
    is exactly 1 there), the patch polynomial on [b2, b3], and the
    smoothstep mixture on the two transition bands.  f is only evaluated
    where its coefficient is nonzero, plus at the patch nodes.
    """
    if step.r != spec.r:
        raise DomainError(f"smoothstep order {step.r} does not match patch order {spec.r}")
    b1, b2, b3, b4 = spec.breaks
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    t1 = psi_eval(step, (xs - b1) / (b2 - b1))
    t2 = psi_eval(step, (xs - b3) / (b4 - b3))
    fcoef = 1.0 - t1 + t2
    hcoef = t1 * (1.0 - t2)
    out = np.zeros(xs.shape)
    fmask = fcoef != 0.0
    if fmask.any():
        # where the coefficient is exactly 1.0 this reproduces f bit-for-bit
        out[fmask] = fcoef[fmask] * evaluate(f, xs[fmask])
    hmask = hcoef != 0.0
    if hmask.any():
        h = _lagrange_closure(_node_values(f, spec.nodes), spec.nodes)
        out[hmask] += hcoef[hmask] * h(xs[hmask])
    return _unwrap(x, out)
