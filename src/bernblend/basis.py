"""Bernstein basis evaluation and finite-difference operators.

The basis values p_{nk}(x) = C(n,k) x^k (1-x)^(n-k) are evaluated in log
space so that degrees up to about 1e5 neither overflow nor underflow to
garbage.  Log-binomials are accumulated with a compensated running sum,
which keeps each basis value within a few 1e-13 relative even at n = 4096.
Evaluation at x > 1/2 is mirrored onto 1-x (exact for x >= 1/2), making
the symmetry p_{nk}(x) = p_{n,n-k}(1-x) hold by construction.

Endpoint convention: 0^0 = 1, so p_{n0}(0) = 1 and p_{nn}(1) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, SampleError

# evaluation points this far outside [0,1] are treated as endpoint roundoff
_EDGE_SLACK = 1e-12

# cap on rows*cols of any basis matrix built in one shot (memory guard);
# 1M doubles is 8 MB, well below glibc's mmap threshold ceiling of 32 MiB
_CHUNK_ENTRIES = 1_000_000

# basis_matrix leaves out entries with ln p_nk below -_UNDERFLOW_LOG: exp
# rounds anything below -745.13 to +0.0, so they are exactly 0.0 anyway
_UNDERFLOW_LOG = 760.0
# rows of basis_matrix evaluated together on the union of their bands
_GROUP_ROWS = 32


def _check_int(value, what: str, low: int) -> int:
    """``value`` as an int; DomainError unless it is an integer >= ``low``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"{what} must be >= {low}, got {value}")
    return int(value)


def _check_degree(n: int) -> int:
    return _check_int(n, "degree n", 1)


def _check_unit(x: float, what: str = "x") -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"{what} must lie in [0,1], got {x!r}")
    return x


@lru_cache(maxsize=256)
def _log_binom_row(n: int) -> np.ndarray:
    """ln C(n,k) for k = 0..n, via a compensated cumulative sum.

    The increments ln((n-k+1)/k) are O(1), so a Neumaier running sum keeps
    the absolute error near the representation error of the increments
    instead of eps * |ln C(n,k)| (which reaches ~3e-13 at n = 4096).
    """
    out = np.empty(n + 1)
    out[0] = 0.0
    total = 0.0
    comp = 0.0
    for k in range(1, n + 1):
        term = math.log((n - k + 1) / k)
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        out[k] = total + comp
    out.flags.writeable = False
    return out


def log_binomial(n: int, k: int) -> float:
    """ln C(n,k) for integers 0 <= k <= n."""
    n = _check_degree(n)
    if _check_int(k, "index k", 0) > n:
        raise DomainError(f"index k must satisfy 0 <= k <= n={n}, got {k}")
    return float(_log_binom_row(n)[k])


def _check_indices(n: int, ks) -> np.ndarray:
    """Basis indices as int64: all of 0..n for None, else integers in 0..n."""
    if ks is None:
        return np.arange(n + 1)
    ks = np.asarray(ks)
    if ks.size and (ks.dtype.kind not in "iu" or ks.min() < 0 or ks.max() > n):
        raise DomainError(f"basis indices must be integers in 0..{n}")
    return ks.astype(np.int64, copy=False)


def _row_interior(n: int, x: float, ks: np.ndarray) -> np.ndarray:
    # assumes 0 < x <= 0.5; mirroring is handled by the callers
    logc = _log_binom_row(n)[ks]
    logp = logc + ks * math.log(x) + (n - ks) * math.log1p(-x)
    return np.exp(logp)


def basis_row(n: int, x: float, ks: np.ndarray | None = None) -> np.ndarray:
    """p_{nk}(x) for k in ``ks`` (default: all of 0..n)."""
    n = _check_degree(n)
    x = _check_unit(x)
    ks = _check_indices(n, ks)
    if x == 0.0:
        return (ks == 0).astype(float)
    if x == 1.0:
        return (ks == n).astype(float)
    if x > 0.5:
        return _row_interior(n, 1.0 - x, n - ks)
    return _row_interior(n, x, ks)


def _band(n: int, ks: np.ndarray, centre: np.ndarray,
          var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column range [lo, hi) of sorted ``ks`` outside which p_nk underflows.

    Bernstein's inequality bounds p_nk(x) <= exp(-d^2 / (2(n v + d/3)))
    with d = |k - n x| and v = x(1-x).  That exponent falls below -760
    (_UNDERFLOW_LOG) for d > t = 760/3 + sqrt(760^2/9 + 2 * 760 n v); the
    log-space value of p_nk then sits far below -745.13, so exp rounds it
    to exactly +0.0.  One column of slack on each side absorbs the
    roundoff in t and n x.
    """
    L = _UNDERFLOW_LOG
    t = L / 3.0 + np.sqrt(L * L / 9.0 + 2.0 * L * n * var) + 1.0
    return (np.searchsorted(ks, centre - t, "left"),
            np.searchsorted(ks, centre + t, "right"))


def basis_matrix(n: int, xs: np.ndarray, ks: np.ndarray | None = None) -> np.ndarray:
    """Matrix P[i, j] = p_{n, ks[j]}(xs[i]).

    For sorted ``ks`` only each row's Bernstein band (see ``_band``) is
    evaluated; the entries left out are the ones a full-width evaluation
    underflows to exactly 0.0, so the result is the same bit for bit.
    Rows are taken in sorted groups of _GROUP_ROWS, each evaluated on the
    union of its bands.
    """
    n = _check_degree(n)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise DomainError("xs must be a 1-d array")
    if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
        raise DomainError("all evaluation points must lie in [0,1]")
    ks = _check_indices(n, ks)
    banded = bool(np.all(ks[1:] >= ks[:-1]))
    out = np.zeros((xs.size, ks.size))
    left = xs <= 0.5
    # x > 1/2 is mirrored: p_{n,k}(x) = p_{n,n-k}(1-x), and 1-x is exact there
    for rows, p, kk in ((np.flatnonzero(left), xs[left], ks),
                        (np.flatnonzero(~left), 1.0 - xs[~left], n - ks)):
        edge = p == 0.0
        out[rows[edge]] = kk == 0
        rows, p = rows[~edge], p[~edge]
        if not rows.size:
            continue
        lc = _log_binom_row(n)[kk]
        kf = kk.astype(float)
        mf = (n - kk).astype(float)
        log_p = np.log(p)
        log_q = np.log1p(-p)
        if banded:
            # the band's centre n*x in the coordinates of ks
            centre = n * p if kk is ks else n - n * p
            lo, hi = _band(n, ks, centre, p * (1.0 - p))
        else:
            lo = np.zeros(p.size, dtype=np.intp)
            hi = np.full(p.size, ks.size)
        order = np.argsort(p, kind="stable")
        for g in range(0, order.size, _GROUP_ROWS):
            sel = order[g:g + _GROUP_ROWS]
            a, b = lo[sel].min(), hi[sel].max()
            if a >= b:
                continue
            # the full-width expression and order, restricted to columns a:b
            m = lc[a:b] + log_p[sel, None] * kf[a:b]
            m += log_q[sel, None] * mf[a:b]
            np.exp(m, out=m)
            out[rows[sel], a:b] = m
    return out


@dataclass(frozen=True, eq=False)
class SampleVector:
    """Values of a function on the uniform lattice k/n, k = 0..n."""

    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = _check_degree(self.n)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (n + 1,):
            raise DomainError(
                f"sample vector for degree {n} needs {n + 1} values, got shape {vals.shape}"
            )
        bad = ~np.isfinite(vals)
        if bad.any():
            k = int(np.nonzero(bad)[0][0])
            raise SampleError(f"non-finite sample at k/n = {k}/{n}", k / n)
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", vals)


def sample_function(f: Callable[[np.ndarray], np.ndarray], n: int) -> SampleVector:
    """Sample f on the lattice k/n.  Non-finite samples raise SampleError."""
    n = _check_degree(n)
    xs = np.arange(n + 1) / n
    vals = evaluate(f, xs)
    return SampleVector(n, vals)


def evaluate(f: Callable, xs: np.ndarray) -> np.ndarray:
    """Apply f to an array, falling back to a scalar loop if needed.

    The fallback serves f that only accept scalars; a SampleError from the
    array call is raised at once.
    """
    xs = np.asarray(xs, dtype=float)
    try:
        vals = np.asarray(f(xs), dtype=float)
    except SampleError:
        # a sampling failure is an answer, not a sign that f is scalar-only
        raise
    except (TypeError, ValueError):
        vals = np.array([float(f(float(x))) for x in xs])
    if vals.shape != xs.shape:
        vals = np.broadcast_to(vals, xs.shape).astype(float)
    return vals


def _row_chunks(size: int, cols: int) -> list[slice]:
    """Row slices covering range(size), each at most _CHUNK_ENTRIES / cols rows.

    Chunking by rows changes no per-row sum, so results do not depend on it.
    """
    step = max(1, _CHUNK_ENTRIES // max(cols, 1))
    return [slice(lo, lo + step) for lo in range(0, size, step)]


def bernstein_apply_grid(samples: SampleVector | Sequence[SampleVector],
                         xs: np.ndarray):
    """Vectorized B_n(f, .) on an array of points.

    ``samples`` is one SampleVector, giving one array, or a sequence of
    SampleVectors of one degree, giving a list with one array per vector.
    Each row chunk's basis matrix is built once and reduced against every
    vector in turn.
    """
    single = isinstance(samples, SampleVector)
    vectors = [samples] if single else list(samples)
    if not vectors or any(sv.n != vectors[0].n for sv in vectors):
        raise DomainError("bernstein_apply_grid needs sample vectors of one degree")
    n = vectors[0].n
    xs = np.asarray(xs, dtype=float)
    outs = [np.empty(xs.size) for _ in vectors]
    for chunk in _row_chunks(xs.size, n + 1):
        rows = basis_matrix(n, xs[chunk])
        for out, sv in zip(outs, vectors):
            # ufunc pairwise sum, not BLAS: identical bytes at any thread
            # count; one vector at a time keeps the temporary 2-d
            out[chunk] = (rows * sv.values).sum(axis=1)
    return outs[0] if single else outs


def _difference_points(x: np.ndarray, offsets: Sequence) -> list[np.ndarray]:
    """Stencil abscissae x + off, one array per offset, clamped to [0,1].

    Points within _EDGE_SLACK outside [0,1] are roundoff and are clamped;
    points farther out raise DomainError.
    """
    pts = []
    for off in offsets:
        p = x + off
        bad = (p < -_EDGE_SLACK) | (p > 1.0 + _EDGE_SLACK)
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(
                f"difference stencil leaves [0,1]: point {float(p[i])!r} "
                f"from x={float(x[i])!r}"
            )
        pts.append(np.clip(p, 0.0, 1.0))
    return pts


def _check_diff_args(x, h: float, r: int) -> tuple[np.ndarray, float, int]:
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise DomainError("difference base points must be a scalar or a 1-d array")
    xs = np.atleast_1d(xs)
    inside = (xs >= 0.0) & (xs <= 1.0)
    if not inside.all():
        raise DomainError(f"x must lie in [0,1], got {float(xs[~inside][0])!r}")
    h = float(h)
    if not h > 0.0:
        raise DomainError(f"step h must be positive, got {h!r}")
    return xs, h, _check_int(r, "difference order", 1)


def _compensated_sum(terms: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise sum of equal-shape arrays by a TwoSum cascade.

    Ogita-Rump-Oishi Sum2 (SIAM J. Sci. Comput. 2005): the result is as
    accurate as if summed in twice the working precision and then rounded.
    """
    total = terms[0]
    comp = np.zeros_like(total)
    for term in terms[1:]:
        s = total + term
        bp = s - total
        comp += (total - (s - bp)) + (term - bp)
        total = s
    return total + comp


def _alternating_sum(f: Callable, pts: Sequence[np.ndarray], r: int) -> np.ndarray:
    # one array call of f per stencil offset k
    terms = []
    for k, p in enumerate(pts):
        c = math.comb(r, k)
        v = evaluate(f, p)
        terms.append(-c * v if k % 2 else c * v)
    return _compensated_sum(terms)


def _unwrap(x, vals: np.ndarray):
    """A float for scalar ``x`` (``vals`` holds its one value), else ``vals``."""
    return float(np.ravel(vals)[0]) if np.ndim(x) == 0 else vals


def forward_difference(f: Callable, x, h: float, r: int):
    """r-th forward difference: sum_k (-1)^k C(r,k) f(x + (r-k) h).

    ``x`` is a scalar or a 1-d array of base points; the result has the
    same form.
    """
    xs, h, r = _check_diff_args(x, h, r)
    pts = _difference_points(xs, [(r - k) * h for k in range(r + 1)])
    return _unwrap(x, _alternating_sum(f, pts, r))


def backward_difference(f: Callable, x, h: float, r: int):
    """r-th backward difference: sum_k (-1)^k C(r,k) f(x - k h)."""
    xs, h, r = _check_diff_args(x, h, r)
    pts = _difference_points(xs, [-k * h for k in range(r + 1)])
    return _unwrap(x, _alternating_sum(f, pts, r))


def symmetric_difference(f: Callable, x, h: float, r: int):
    """r-th central difference with step h*phi(x), phi(x) = sqrt(x(1-x)).

    Evaluation points are x + (r/2 - k) h phi(x), k = 0..r.  Points outside
    [0,1] (beyond roundoff slack) raise DomainError; callers that scan a
    grid are expected to filter such x out rather than clamp.
    """
    xs, h, r = _check_diff_args(x, h, r)
    phi = np.sqrt(xs * (1.0 - xs))
    pts = _difference_points(xs, [(r / 2.0 - k) * h * phi for k in range(r + 1)])
    return _unwrap(x, _alternating_sum(f, pts, r))
