"""Linear combinations of Bernstein operators with moment-killing weights.

A combination scheme picks degrees n_0 < n_1 < ... < n_{r-1} and weights
C_i with sum(C_i) = 1 and sum(C_i / n_i^k) = 0 for k = 1..r-1.  Those side
conditions cancel the O(n^-1), ..., O(n^-(r-1)) terms of the classical
operator, so the combined operator annihilates the moments (t-x)^j for
j = 1..r.

The degree ladder used here is n_i = (i+1) * base_n.  For that ladder the
weights have the closed form C_i = prod_{j != i} n_i / (n_i - n_j), which
is exact in rational arithmetic; it is the value at 0 of the Lagrange
cardinal polynomial through the reciprocal degrees 1/n_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .basis import (
    SampleVector,
    _check_degree,
    _check_degrees,
    _check_int,
    _check_order,
    _check_points,
    _compensated_sum,
    _dense_rows,
    bernstein_apply_grid,
    sample_function,
)
# not called here since moment_table builds its rows at once; kept as a module
# attribute because perfbench/sweeps.py wraps it here to trace calls
from .basis import basis_row  # noqa: F401
from .errors import DomainError

# values of k per block of moment_table's streamed terms
_MOMENT_BLOCK = 64


def solve_coefficients(nodes: Sequence[int]) -> np.ndarray:
    """Combination weights C_i for a strictly increasing degree schedule,
    each an int / int division: correctly rounded, as float(Fraction) is."""
    nodes = _check_degrees(nodes)
    return np.array([ni ** (len(nodes) - 1) / math.prod(ni - nj for nj in nodes if nj != ni)
                     for ni in nodes])


@dataclass(frozen=True, eq=False)
class CombinationScheme:
    """The ladder (base_n, 2*base_n, ..., r*base_n) as ``nodes``, with its
    read-only weights ``solve_coefficients(nodes)`` as ``coeffs``."""

    base_n: int
    r: int
    nodes: tuple[int, ...] = field(init=False)
    coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        base_n, r = _check_degree(self.base_n), _check_order(self.r)
        nodes = tuple((i + 1) * base_n for i in range(r))
        coeffs = solve_coefficients(nodes)
        coeffs.flags.writeable = False
        object.__setattr__(self, "base_n", base_n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "coeffs", coeffs)


def build_scheme(base_n: int, r: int) -> CombinationScheme:
    return CombinationScheme(base_n, r)


def combine_applied(scheme: CombinationScheme, applied: Mapping[int, np.ndarray]
                    ) -> np.ndarray:
    """sum_i C_i * applied[n_i] in ladder order, given the grid apply that
    each ladder degree contributes.  The harness sweep shares one apply
    per degree across every ladder that contains it, and gets the bytes of
    ``combine_samples`` and ``operator_derivative_2r``, which both combine
    through here."""
    out = np.zeros(applied[scheme.nodes[0]].size)
    for c, n in zip(scheme.coeffs.tolist(), scheme.nodes):
        out += c * applied[n]
    return out


def combine_samples(
    scheme: CombinationScheme, samples: Sequence[SampleVector], xs: np.ndarray
) -> np.ndarray:
    """Apply the combination on ``xs``, given one sample vector per ladder degree."""
    if len(samples) != scheme.r:
        raise DomainError("need one sample vector per ladder degree")
    for sv, n in zip(samples, scheme.nodes):
        if sv.n != n:
            raise DomainError(f"sample vector degree {sv.n} does not match node {n}")
    applied = {sv.n: bernstein_apply_grid(sv, xs) for sv in samples}
    return combine_applied(scheme, applied)


def combine(f: Callable, scheme: CombinationScheme, xs: np.ndarray) -> np.ndarray:
    """Combined operator sum_i C_i B_{n_i}(f, x) on the 1-d array ``xs``."""
    samples = [sample_function(f, n) for n in scheme.nodes]
    return combine_samples(scheme, samples, xs)


def _power(d: np.ndarray, m: int) -> np.ndarray:
    """d**m by square-and-multiply: O(log m) products, no libm pow.

    m = 0, 1 and 2 give ones, d and d*d, the bits of numpy's d**m."""
    out = None
    while True:
        if m & 1:
            out = d if out is None else out * d
        m >>= 1
        if not m:
            return np.ones_like(d) if out is None else out
        d = d * d


def _moment_terms(n: int, cols: np.ndarray, powers: Sequence[int],
                  xs: np.ndarray) -> Iterator[np.ndarray]:
    """terms[p, i] = cols[k, i] * (k/n - xs[i])^powers[p] for k = 0..n in
    order, _MOMENT_BLOCK values of k at a time, as views of one block that
    is refilled: no (n+1) x powers x points array is held, nor a second
    block.  The refill is safe for ``_compensated_sum``, which copies its
    first term and is done with each term before it takes the next."""
    terms = np.empty((min(_MOMENT_BLOCK, n + 1), len(powers), xs.size))
    for a in range(0, n + 1, _MOMENT_BLOCK):
        b = min(a + _MOMENT_BLOCK, n + 1)
        d = (np.arange(a, b) / n)[:, None] - xs
        for p, power in enumerate(powers):
            np.multiply(cols[a:b], _power(d, power), out=terms[:b - a, p])
        yield from terms[:b - a]


def moment_table(
    scheme: CombinationScheme, powers: Sequence[int], xs: np.ndarray
) -> np.ndarray:
    """Array M[p, i] = sum_j C_j B_{n_j}((t - x)^powers[p], x) at x = xs[i].

    Sums one matrix of ``basis_row`` rows per degree, built in one call
    (numpy's logs, not libm's, move a benchmark entry past 1e-15), times
    ``_power`` products, streamed in k order by ``_moment_terms``."""
    powers = [_check_int(p, "moment power", 0) for p in powers]
    xs = _check_points(xs)
    out = np.zeros((len(powers), xs.size))
    for c, n in zip(scheme.coeffs.tolist(), scheme.nodes):
        rows = None  # the previous degree's matrix goes before the next is built
        rows = _dense_rows(n, xs, True)
        out += c * _compensated_sum(_moment_terms(n, rows.T, powers, xs))
    return out
