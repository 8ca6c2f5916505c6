"""Bernstein basis evaluation, lattice samples and compensated sums.

The basis values p_{nk}(x) = C(n,k) x^k (1-x)^(n-k) are evaluated in log
space, so that no degree up to the commands' cap (``harness._MAX_DEGREE``,
10^6) overflows or underflows to garbage.  Log-binomials are accumulated
with a compensated running sum, which keeps each basis value within a few
1e-13 relative even at n = 4096.  Evaluation at x > 1/2 is mirrored onto
1-x (exact for x >= 1/2), making the symmetry p_{nk}(x) = p_{n,n-k}(1-x)
hold by construction.

Every basis path keeps one contract: an entry whose log lies below
_NORMAL_LOG is exactly +0.0, and every other entry is exp of its log, a
normal double.  No value is subnormal (below 2^-1022): numpy's exp takes
about a hundred times longer for a subnormal result than for a normal
one, and a row sum loses at most 2^-1022 * sum |w_k| over the flushed
columns.

``_band_blocks`` computes the basis values of every array evaluation.  Logs
and exps are taken only on each row's Bernstein band, one column range of
the sorted indices, outside which every log lies below _NORMAL_LOG (see
``_band``): _NORMAL_LOG is the one threshold of the basis layer.
``basis_matrix`` scatters the blocks into zeros.  The applies and the
lemma scans sum each block over its band (lemma 6 itself, the rest
through ``_row_sums``): the same bytes run to run and at any thread
count, but not a dense product's.  ``basis_row`` serves ``moment_table``
alone.

Endpoint convention: 0^0 = 1, so p_{n0}(0) = 1 and p_{nn}(1) = 1.

Functions take 1-d arrays.  ``_compensated_sum`` serves ``moment_table``,
the lattice differences and the weighted modulus's stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, SampleError

# ln 2^-1022 = -708.3964: exp of a log at or above this is a normal double
# (exp(-708.39) = 2.2394e-308); basis values with lower logs are +0.0, and
# _band leaves out the entries whose logs Bernstein's inequality puts below it
_NORMAL_LOG = -708.39
# rows of basis values evaluated together on the union of their bands
_GROUP_ROWS = 32
# entries (2 MB) that a row group's band may take; groups hold fewer rows
# where the band is wider than this over 32
_BLOCK_ENTRIES = 1 << 18
# entries (512 KB) up to which adjacent groups with one band share a block, to
# pay its fixed numpy cost once; 2^17 and 2^18 ran slower, 2^18 with 4 MB more RSS
_MERGE_ENTRIES = 1 << 16
# largest combination order r, for the ladder, the patch and the smoothstep
# alike; the patch's Lebesgue constant already reaches about 25000 at r = 4
_MAX_ORDER = 8


def _check_int(value, what: str, low: int, high: int | None = None) -> int:
    """``value`` as an int; DomainError unless it is an integer in [low, high]."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"{what} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise DomainError(f"{what} must be at most {high}, got {value}")
    return int(value)


def _check_degree(n: int) -> int:
    return _check_int(n, "degree n", 1)


def _check_order(r: int) -> int:
    """The combination order r, which is also the blend's and smoothstep's."""
    return _check_int(r, "combination order r", 1, _MAX_ORDER)


def _check_degrees(ns, high: int | None = None) -> tuple[int, ...]:
    """Degrees as ints: each an integer in [1, high], strictly ascending."""
    ns = tuple(_check_int(n, "degree n", 1, high) for n in ns)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError(f"degrees must be strictly ascending, got {list(ns)}")
    return ns


def _check_unit(x) -> np.ndarray:
    """``x`` as a float array; DomainError unless every entry lies in [0,1]."""
    xs = np.asarray(x, dtype=float)
    bad = ~((xs >= 0.0) & (xs <= 1.0))
    if bad.any():
        raise DomainError(f"x must lie in [0,1], got {float(xs[bad][0])!r}")
    return xs


def _check_finite(xs, vals: np.ndarray, what: str) -> None:
    """SampleError naming the first x in ``xs`` whose value is not finite."""
    bad = ~np.isfinite(vals)
    if bad.any():
        x = float(np.asarray(xs)[np.argmax(bad)])
        raise SampleError(f"non-finite {what} at x={x!r}", x)


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


def _check_indices(n: int, ks) -> np.ndarray:
    """Basis indices as int64: all of 0..n for None, else sorted ints in 0..n."""
    if ks is None:
        return np.arange(n + 1)
    ks = np.asarray(ks)
    if ks.size and (ks.dtype.kind not in "iu" or ks.min() < 0 or ks.max() > n
                    or np.any(np.diff(ks.astype(np.int64).ravel()) < 0)):
        raise DomainError(f"basis indices must be nondescending integers in 0..{n}")
    return ks.astype(np.int64, copy=False)


def _row_interior(n: int, x: float, ks: np.ndarray) -> np.ndarray:
    # assumes 0 < x <= 0.5; mirroring is handled by the callers
    logc = _log_binom_row(n)[ks]
    logp = logc + ks * math.log(x) + (n - ks) * math.log1p(-x)
    np.exp(logp, out=logp, where=logp >= _NORMAL_LOG)
    return np.maximum(logp, 0.0, out=logp)


def basis_row(n: int, x: float, ks: np.ndarray | None = None) -> np.ndarray:
    """p_{nk}(x) for k in ``ks`` (default: all of 0..n).

    Values below 2^-1022 (logs below _NORMAL_LOG) are +0.0.
    """
    n = _check_degree(n)
    x = float(_check_unit(x))
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
    """Column range [lo, hi) of sorted ``ks`` outside which p_nk is +0.0.

    Bernstein's inequality bounds p_nk(x) <= exp(-d^2 / (2(n v + d/3)))
    with d = |k - n x| and v = x(1-x).  With L = -_NORMAL_LOG that exponent
    falls below -L for d > t = L/3 + sqrt(L^2/9 + 2 L n v), so the value
    there is one the flush makes +0.0.  One column of slack on each side
    absorbs the roundoff in t and n x.  The inequality is loose by about
    ln sqrt(2 pi n v) and more, so the computed logs outside the band lie
    well below _NORMAL_LOG: at least 17.6 below at n = 10^6 and 50 at
    n = 65536 (x in {1e-300, 1e-3, 0.25, 0.5, 0.513, 0.999}), against a
    roundoff of about eps * n in each log.
    """
    L = -_NORMAL_LOG
    t = L / 3.0 + np.sqrt(L * L / 9.0 + 2.0 * L * n * var) + 1.0
    return (np.searchsorted(ks, centre - t, "left"),
            np.searchsorted(ks, centre + t, "right"))


def _check_points(xs) -> np.ndarray:
    """``xs`` as a 1-d float array; DomainError unless it lies in [0,1]."""
    xs = _check_unit(xs)
    if xs.ndim != 1:
        raise DomainError("xs must be a 1-d array")
    return xs


def _basis_args(n: int, xs, ks) -> tuple[int, np.ndarray, np.ndarray]:
    """Checked (n, xs, ks) of a basis evaluation: xs a 1-d array in [0,1]."""
    n = _check_degree(n)
    return n, _check_points(xs), _check_indices(n, ks)


def _band_blocks(n: int, xs: np.ndarray, ks: np.ndarray):
    """The nonzero basis values p_{n, ks[j]}(xs[i]) of checked arguments.

    Yields blocks (rows, a, b, vals) with vals[i, j] = p_{n, ks[a + j]}(
    xs[rows[i]]); each row lies in at most one block, and every entry outside
    the blocks is exactly +0.0.  Rows are taken in sorted groups of
    _GROUP_ROWS, fewer where bands are wide (_BLOCK_ENTRIES).  A group's
    logs are computed on the union [a, b) of its rows' Bernstein bands
    (see ``_band``), with the full-width elementwise expression and order,
    and exp runs only on logs >= _NORMAL_LOG, so every value is the one a
    full-width evaluation gives, with entries under 2^-1022 as +0.0.
    Adjacent groups with the same [a, b) share a block of at most
    _MERGE_ENTRIES entries, which changes no row's columns, values or sum.
    Rows at x = 0 or 1 form one block over the columns of index 0 or n.
    """
    left = xs <= 0.5
    # x > 1/2 is mirrored: p_{n,k}(x) = p_{n,n-k}(1-x), and 1-x is exact there
    for rows, p, kk in ((np.flatnonzero(left), xs[left], ks),
                        (np.flatnonzero(~left), 1.0 - xs[~left], n - ks)):
        edge = p == 0.0
        ones = np.flatnonzero(kk == 0)
        if edge.any() and ones.size:
            a, b = ones[0], ones[-1] + 1
            vals = np.zeros((int(edge.sum()), b - a))
            vals[:] = kk[a:b] == 0
            yield rows[edge], a, b, vals
        rows, p = rows[~edge], p[~edge]
        if not rows.size:
            continue
        logc = _log_binom_row(n)
        log_p = np.log(p)
        log_q = np.log1p(-p)
        # the band's centre n*x in the coordinates of ks
        centre = n * p if kk is ks else n - n * p
        lo, hi = _band(n, ks, centre, p * (1.0 - p))
        order = np.argsort(p, kind="stable")
        step = min(_GROUP_ROWS, max(1, _BLOCK_ENTRIES // max(1, int((hi - lo).max()))))
        starts = range(0, order.size, step)
        cuts = []  # (first row, a, b) of each block
        for g, a, b in zip(starts, np.minimum.reduceat(lo[order], starts).tolist(),
                           np.maximum.reduceat(hi[order], starts).tolist()):
            end = min(g + step, order.size)
            if not (cuts and cuts[-1][1:] == (a, b)
                    and (end - cuts[-1][0]) * (b - a) <= _MERGE_ENTRIES):
                cuts.append((g, a, b))
        for (g, a, b), end in zip(cuts, [c[0] for c in cuts[1:]] + [order.size]):
            if a >= b:
                continue
            sel = order[g:end]
            # the full-width expression and order, restricted to columns a:b
            kb = kk[a:b]
            m = logc[kb] + log_p[sel, None] * kb.astype(float)
            m += log_q[sel, None] * (n - kb).astype(float)
            # logs left below _NORMAL_LOG are negative: maximum makes them +0.0
            np.exp(m, out=m, where=m >= _NORMAL_LOG)
            yield rows[sel], a, b, np.maximum(m, 0.0, out=m)


def basis_matrix(n: int, xs: np.ndarray, ks: np.ndarray | None = None) -> np.ndarray:
    """Matrix P[i, j] = p_{n, ks[j]}(xs[i]).

    The blocks of ``_band_blocks`` scattered into zeros: the same matrix
    as a full-width evaluation of every entry, with entries under 2^-1022
    as +0.0.
    """
    n, xs, ks = _basis_args(n, xs, ks)
    out = np.zeros((xs.size, ks.size))
    for rows, a, b, vals in _band_blocks(n, xs, ks):
        out[rows, a:b] = vals
    return out


def _row_sums(n: int, xs: np.ndarray, ks, weights: Sequence[np.ndarray]
              ) -> list[np.ndarray]:
    """Row sums of basis_matrix(n, xs, ks) * w for each w in ``weights``.

    One numpy sum per ``_band_blocks`` block, over its columns alone (every
    entry left out is +0.0).  Deterministic run to run and at any thread
    count, within a few eps * sum |p w| of the exact sum, but not the dense
    product's bits.
    """
    n, xs, ks = _basis_args(n, xs, ks)
    w = np.array(weights, dtype=float).reshape(len(weights), ks.size)
    out = np.zeros((w.shape[0], xs.size))
    for rows, a, b, vals in _band_blocks(n, xs, ks):
        out[:, rows] = (vals * w[:, None, a:b]).sum(axis=-1)
    return list(out)


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
        _check_finite(np.arange(n + 1) / n, vals, "sample")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", vals)


def sample_function(f: Callable[[np.ndarray], np.ndarray], n: int) -> SampleVector:
    """Sample f on the lattice k/n.  Non-finite samples raise SampleError."""
    n = _check_degree(n)
    return SampleVector(n, evaluate(f, np.arange(n + 1) / n))


def evaluate(f: Callable, xs: np.ndarray) -> np.ndarray:
    """f applied to the 1-d array ``xs``, as a float array of its shape.

    An f that returns one constant is broadcast.  A non-finite value, also
    one where f overflows (quietly), raises SampleError naming its x.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        vals = np.broadcast_to(vals, xs.shape).astype(float)
    _check_finite(xs, vals, "value of f")
    return vals


def bernstein_apply_grid(samples: SampleVector | Sequence[SampleVector],
                         xs: np.ndarray):
    """Vectorized B_n(f, .) on an array of points.

    ``samples`` is one SampleVector, giving one array, or a sequence of
    SampleVectors of one degree, giving a list with one array per vector.
    The basis is evaluated once and reduced against every vector, each row
    summed over its band alone (see ``_row_sums``): the same bytes for one
    vector as for several, from run to run and at any thread count.
    """
    single = isinstance(samples, SampleVector)
    vectors = [samples] if single else list(samples)
    if not vectors or any(sv.n != vectors[0].n for sv in vectors):
        raise DomainError("bernstein_apply_grid needs sample vectors of one degree")
    outs = _row_sums(vectors[0].n, xs, None, [sv.values for sv in vectors])
    return outs[0] if single else outs


def _compensated_sum(terms: Iterable[np.ndarray]) -> np.ndarray:
    """Elementwise sum of an iterable of equal-shape arrays, in its order,
    by a TwoSum cascade.

    Ogita-Rump-Oishi Sum2 (SIAM J. Sci. Comput. 2005): the result is as
    accurate as if summed in twice the working precision and then rounded.
    """
    terms = iter(terms)
    total = next(terms)
    comp = np.zeros_like(total)
    for term in terms:
        s = total + term
        bp = s - total
        comp += (total - (s - bp)) + (term - bp)
        total = s
    return total + comp
