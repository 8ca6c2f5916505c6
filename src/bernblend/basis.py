"""Bernstein basis evaluation, lattice samples and compensated sums.

The basis values p_{nk}(x) = C(n,k) x^k (1-x)^(n-k) are evaluated in log
space, so that no degree up to the commands' cap (``_MAX_DEGREE``, 10^6)
overflows or underflows to garbage; each is within a few 1e-13
relative at n = 4096 (see ``_log_binom_row``).  Evaluation at x > 1/2 is
mirrored onto 1-x (exact for x >= 1/2), so p_{nk}(x) = p_{n,n-k}(1-x)
holds bit for bit where 1-x is exact, but not at x = 1/2, evaluated
unmirrored: ln C(n,k) and ln C(n,n-k) differ in their last bits, which moves
18 of 65 entries at n = 64, and some by 0.67 n eps relative at n = 12288
(``TestMirror::test_half_row_mirrors_within_n_eps``).

Every basis path keeps one contract: an entry whose log lies below
_NORMAL_LOG is exactly +0.0, and every other entry is exp of its log, a
normal double.  No value is subnormal (below 2^-1022): numpy's exp takes
about a hundred times longer for a subnormal result than for a normal
one, and a row sum loses at most 2^-1022 * sum |w_k| over the flushed
columns.

``_band_blocks`` computes the basis values of every array evaluation on one
column range, each row on its Bernstein band alone (``_band``), block by
block in two scratch arrays per call, which the consumer owns until it asks
for the next block.  ``_dense_rows`` scatters the blocks into zeros: with
numpy's logs for ``basis_matrix``, with libm's for ``basis_row`` and
moment_table.  The applies and lemma scans sum each block over its band in
place (lemma 6 itself, the rest through ``_row_sums``): the same bytes run
to run and at any thread count, but not a dense product's.

Endpoint convention: 0^0 = 1, so p_{n0}(0) = 1 and p_{nn}(1) = 1.

Functions take 1-d arrays.  ``_compensated_sum`` serves ``moment_table``,
the lattice differences and the weighted modulus's stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
# pay its fixed numpy cost once; the fastest of 2^15..2^17 on both benchmarks
_MERGE_ENTRIES = 1 << 16
# largest combination order r, for the ladder, the patch and the smoothstep
# alike; the patch's Lebesgue constant already reaches about 25000 at r = 4
_MAX_ORDER = 8
# largest degree in any n list, and the last the smallest-degree search
# tries: a grid row of a sweep's or lemma 1's basis costs O(n) time and
# memory (a ladder applies up to r * n), and the log-binomial row of every
# basis costs O(n); the large-n runs README records (compare at 65536,
# lemma 6 at 262144) stay well inside.
_MAX_DEGREE = 10**6


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


def _check_points(xs) -> np.ndarray:
    """``xs`` as a 1-d float array; DomainError unless it lies in [0,1]."""
    xs = np.asarray(xs, dtype=float)
    bad = ~((xs >= 0.0) & (xs <= 1.0))
    if bad.any():
        raise DomainError(f"x must lie in [0,1], got {float(xs[bad][0])!r}")
    if xs.ndim != 1:
        raise DomainError("xs must be a 1-d array")
    return xs


def _check_finite(xs, vals: np.ndarray, what: str) -> None:
    """SampleError naming the first x in ``xs`` whose value is not finite."""
    bad = ~np.isfinite(vals)
    if bad.any():
        x = float(np.asarray(xs)[np.argmax(bad)])
        raise SampleError(f"non-finite {what} at x={x!r}", x)


def _log_binom_row(n: int) -> np.ndarray:
    """ln C(n,k) for k = 0..n, via a compensated cumulative sum.

    The increments ln((n-k+1)/k) are O(1), so a Neumaier running sum keeps
    the absolute error near the representation error of the increments
    instead of eps * |ln C(n,k)| (which reaches ~3e-13 at n = 4096).  Each
    is libm's log of a float64 quotient, correctly rounded as int / int is:
    np.log of a reversed view, which numpy keeps off its SIMD loop, gives
    math.log's bits (``TestReversedLogs``); contiguous np.log does not.  The
    total, then the compensation, are sequential np.cumsum runs over 2^14
    increments at a time, each seeded with the last chunk's: the bits of a
    loop over k, without its n-sized temporaries.  No row is cached.
    """
    out = np.empty(n + 1)
    out[0] = total = comp = 0.0
    for a in range(1, n + 1, 1 << 14):
        k = np.arange(a, min(a + (1 << 14), n + 1), dtype=float)
        term = np.log(((n + 1 - k) / k)[::-1])[::-1]
        t = np.cumsum(np.concatenate(([total], term)))  # t[j]: the total before term[j]
        c = np.where(np.abs(t[:-1]) >= np.abs(term),
                     (t[:-1] - t[1:]) + term, (term - t[1:]) + t[:-1])
        c = np.cumsum(np.concatenate(([comp], c)))
        out[a:a + k.size] = t[1:] + c[1:]
        total, comp = t[-1], c[-1]
    out.flags.writeable = False
    return out


def _band(n: int, lo: int, hi: int, centre: np.ndarray,
          var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions [first, last) in columns lo..hi-1 outside which p_nk is +0.0.

    Bernstein's inequality bounds p_nk(x) <= exp(-d^2 / (2(n v + d/3)))
    with d = |k - n x| and v = x(1-x).  With L = -_NORMAL_LOG that exponent
    falls below -L for d > t = L/3 + sqrt(L^2/9 + 2 L n v), so the value
    there is one the flush makes +0.0.  One column of slack on each side
    absorbs the roundoff in t and n x.  The inequality is loose by about
    ln sqrt(2 pi n v) and more, so the computed logs outside the band lie
    well below _NORMAL_LOG: at least 17.6 below at n = 10^6 and 50 at
    n = 65536 (x in {1e-300, 1e-3, 0.25, 0.5, 0.513, 0.999}), against a
    roundoff of about eps * n in each log.  first and last count the columns
    k < centre - t and k <= centre + t exactly, by ceil and floor.
    """
    L = -_NORMAL_LOG
    t = L / 3.0 + np.sqrt(L * L / 9.0 + 2.0 * L * n * var) + 1.0
    return (np.clip(np.ceil(centre - t) - lo, 0, hi - lo).astype(np.intp),
            np.clip(np.floor(centre + t) + 1 - lo, 0, hi - lo).astype(np.intp))


def _band_blocks(n: int, xs: np.ndarray, lo: int, hi: int, libm: bool = False):
    """The nonzero basis values p_{nk}(xs[i]), lo <= k < hi, of checked
    arguments, with 0 <= lo <= hi <= n + 1.

    Yields blocks (rows, a, b, vals, spare) with vals[i, j] = p_{n, lo+a+j}(
    xs[rows[i]]); each row lies in at most one block, and every entry outside
    the blocks is exactly +0.0.  vals and spare, of one shape, view two
    scratch arrays made once per call at its largest block's size: they are
    the consumer's, to overwrite too, until it asks for the next block.
    Rows are taken in sorted groups of _GROUP_ROWS, fewer where bands are
    wide (_BLOCK_ENTRIES).  A group's logs are computed on the union [a, b)
    of its rows' bands (see ``_band``) by the full-width elementwise
    expression and order, and exp runs only on logs >= _NORMAL_LOG, so every
    value is the one a full-width evaluation gives.  Adjacent groups with the
    same [a, b) share a block of at most _MERGE_ENTRIES entries, which
    changes no row's columns, values or sum.  Rows at x = 0 or 1 form one
    block over column 0 or n, where that column lies in [lo, hi).  ln x and
    ln(1-x) are numpy's, or with ``libm`` math.log's and math.log1p's, which
    numpy's do not always match.
    """
    logc = _log_binom_row(n)
    left = xs <= 0.5
    plan = []  # (row of k in cols, ln C(n, k) by k, blocks) of each side of 1/2
    # x > 1/2 is mirrored: p_{n,k}(x) = p_{n,n-k}(1-x), and 1-x is exact there
    for rows, p, lc, mirrored in ((np.flatnonzero(left), xs[left], logc[lo:hi], False),
                                  (np.flatnonzero(~left), 1.0 - xs[~left],
                                   logc[::-1][lo:hi], True)):
        blocks = []  # (rows, [ln x; 1; ln(1-x)], a, b); None at x = 0
        edge, edge_k = p == 0.0, n if mirrored else 0
        if edge.any() and lo <= edge_k < hi:
            blocks.append((rows[edge], None, edge_k - lo, edge_k - lo + 1))
        rows, p = rows[~edge], p[~edge]
        if rows.size:
            # the band's centre n*x in the coordinates of k
            first, last = _band(n, lo, hi, n - n * p if mirrored else n * p, p * (1.0 - p))
            order = np.argsort(p, kind="stable")
            rows, p, first, last = rows[order], p[order], first[order], last[order]
            if libm:
                log_p, log_q = np.array([(math.log(v), math.log1p(-v)) for v in p.tolist()]).T
            else:
                log_p, log_q = np.log(p), np.log1p(-p)
            terms = np.array([log_p, np.ones(p.size), log_q])
            step = min(_GROUP_ROWS, max(1, _BLOCK_ENTRIES // max(1, int((last - first).max()))))
            starts = range(0, p.size, step)
            cuts = []  # [row start, row end, a, b] of each block
            for g, a, b in zip(starts, np.minimum.reduceat(first, starts).tolist(),
                               np.maximum.reduceat(last, starts).tolist()):
                end = min(g + step, p.size)
                if (cuts and cuts[-1][2:] == [a, b]
                        and (end - cuts[-1][0]) * (b - a) <= _MERGE_ENTRIES):
                    cuts[-1][1] = end
                else:
                    cuts.append([g, end, a, b])
            blocks += [(rows[g:e], terms[:, g:e].copy(), a, b) for g, e, a, b in cuts if a < b]
        plan.append((2 if mirrored else 0, lc, blocks))
    size = max([r.size * (b - a) for *_, blocks in plan for r, _, a, b in blocks], default=0)
    width = max([b - a for *_, blocks in plan for *_, a, b in blocks], default=0)
    logs, spare = np.empty(size), np.empty(size)
    # a block's [k; ln C(n,k); n-k], or [n-k; ln C(n,k); k] if mirrored, goes in cols
    steps, cols = np.arange(width, dtype=float), np.empty(3 * width)
    for kr, lc, blocks in plan:
        for rows, terms, a, b in blocks:
            m, t = (s[:rows.size * (b - a)].reshape(rows.size, b - a) for s in (logs, spare))
            if terms is None:
                m.fill(1.0)
            else:
                c = cols[:3 * (b - a)].reshape(3, b - a)
                np.add(steps[:b - a], lo + a, out=c[kr])
                np.subtract(n, c[kr], out=c[2 - kr])
                c[1] = lc[a:b]
                # ((0 + ln x * k) + 1 * ln C(n,k)) + ln(1-x) * (n-k), summed in this order,
                # unfused: the full-width expression's bits up to a zero's sign.  terms goes in
                # transposed from C-contiguous rows: as a C-contiguous (rows, 3) array numpy
                # loops over the three products innermost on one-column blocks, in other bits
                np.einsum("ik,kj->ij", terms.T, c, out=m)
                # logs left below _NORMAL_LOG are negative: maximum makes them +0.0
                np.exp(m, out=m, where=m >= _NORMAL_LOG)
                np.maximum(m, 0.0, out=m)
            yield rows, a, b, m, t


def _dense_rows(n: int, xs: np.ndarray, libm: bool) -> np.ndarray:
    """Matrix P[i, k] = p_{nk}(xs[i]), k = 0..n, of checked arguments: the
    blocks of ``_band_blocks`` (with libm's logs or numpy's) scattered into
    zeros, which is the full-width matrix with entries under 2^-1022 as +0.0."""
    out = np.zeros((xs.size, n + 1))
    for rows, a, b, vals, _ in _band_blocks(n, xs, 0, n + 1, libm):
        out[rows, a:b] = vals
    return out


def basis_matrix(n: int, xs: np.ndarray) -> np.ndarray:
    """Matrix P[i, k] = p_{nk}(xs[i]), k = 0..n, from numpy's logs."""
    return _dense_rows(_check_degree(n), _check_points(xs), False)


def basis_row(n: int, x: float) -> np.ndarray:
    """p_{nk}(x) for k = 0..n, from libm's logs: moment_table's rows, one point."""
    return _dense_rows(_check_degree(n), _check_points([x]), True)[0]


def _row_sums(n: int, xs: np.ndarray, weights: Sequence[np.ndarray], lo: int = 0
              ) -> list[np.ndarray]:
    """Row sums of basis_matrix(n, xs)[:, lo:lo + m] * w for each w in
    ``weights``, all of length m, at a checked degree n.

    One numpy sum per ``_band_blocks`` block and weight over its columns
    alone (every entry left out is +0.0), of products formed in the block's
    spare (the last weight's in vals): deterministic run to run and at any
    thread count, within a few eps * sum |p w| of the exact sum.
    """
    xs = _check_points(xs)
    w = np.array(weights, dtype=float)
    out = np.zeros((w.shape[0], xs.size))
    for rows, a, b, vals, spare in _band_blocks(n, xs, lo, lo + w.shape[1]):
        for j in range(w.shape[0]):
            prod = vals if j == w.shape[0] - 1 else spare
            out[j, rows] = np.multiply(vals, w[j, a:b], out=prod).sum(axis=-1)
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
        if not np.isfinite(vals).all():  # the lattice only to name a bad x
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


def bernstein_apply_grid(sv: SampleVector, xs: np.ndarray) -> np.ndarray:
    """Vectorized B_n(f, .) on an array of points, each row summed over its
    band alone (see ``_row_sums``): the same bytes run to run and at any
    thread count."""
    return _row_sums(sv.n, xs, [sv.values])[0]


def _compensated_sum(terms: Iterable[np.ndarray]) -> np.ndarray:
    """Elementwise sum of an iterable of equal-shape arrays, in its order,
    by a TwoSum cascade.

    Ogita-Rump-Oishi Sum2 (SIAM J. Sci. Comput. 2005): the result is as
    accurate as if summed in twice the working precision and then rounded.
    """
    terms = iter(terms)
    # a copy: a caller may refill its term's buffer for the next term
    total = np.array(next(terms), dtype=float)
    comp, s, bp, err = (np.zeros_like(total) for _ in range(4))
    for term in terms:
        # comp += (total - (s - bp)) + (term - bp) with s = total + term and
        # bp = s - total, in buffers allocated once per call
        np.add(total, term, out=s)
        np.subtract(s, total, out=bp)
        np.subtract(total, np.subtract(s, bp, out=err), out=err)
        comp += np.add(err, np.subtract(term, bp, out=bp), out=err)
        total, s = s, total
    return total + comp
