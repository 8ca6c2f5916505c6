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
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .basis import (
    SampleVector,
    _check_degree,
    _check_degrees,
    _check_int,
    _check_order,
    _compensated_sum,
    _unwrap,
    basis_row,
    bernstein_apply_grid,
    sample_function,
)
from .errors import DomainError

# relative tolerance on the moment side conditions, applied term-wise
_CONDITION_RTOL = 1e-10


def make_schedule(base_n: int, r: int) -> list[int]:
    """Degree ladder (base_n, 2*base_n, ..., r*base_n)."""
    base_n = _check_degree(base_n)
    r = _check_order(r)
    return [(i + 1) * base_n for i in range(r)]


def _coefficient_fractions(nodes: Sequence[int]) -> list[Fraction]:
    cs = []
    for i, ni in enumerate(nodes):
        c = Fraction(1)
        for j, nj in enumerate(nodes):
            if j == i:
                continue
            c *= Fraction(ni, ni - nj)
        cs.append(c)
    return cs


def solve_coefficients(nodes: Sequence[int]) -> np.ndarray:
    """Combination weights C_i for a strictly increasing degree schedule."""
    return np.array([float(c) for c in _coefficient_fractions(_check_degrees(nodes))])


@dataclass(frozen=True, eq=False)
class CombinationScheme:
    """A validated degree ladder plus its combination weights."""

    r: int
    nodes: tuple[int, ...]
    coeffs: np.ndarray = field(repr=False)

    @property
    def base_n(self) -> int:
        return self.nodes[0]

    def __post_init__(self):
        r = _check_order(self.r)
        nodes = _check_degrees(self.nodes)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if len(nodes) != r or coeffs.shape != (r,):
            raise DomainError("scheme needs r nodes and r coefficients")
        if nodes[-1] > r * nodes[0]:
            raise DomainError("largest degree exceeds r * base_n")
        scale = np.abs(coeffs).sum()
        if abs(coeffs.sum() - 1.0) > _CONDITION_RTOL * max(scale, 1.0):
            raise DomainError("coefficients do not sum to 1")
        for k in range(1, r):
            lhs = math.fsum(c * n ** (-k) for c, n in zip(coeffs.tolist(), nodes))
            ref = math.fsum(abs(c) * n ** (-k) for c, n in zip(coeffs.tolist(), nodes))
            if abs(lhs) > _CONDITION_RTOL * ref:
                raise DomainError(f"moment side condition fails at k={k}: {lhs!r}")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "coeffs", coeffs)


def build_scheme(base_n: int, r: int) -> CombinationScheme:
    nodes = make_schedule(base_n, r)
    return CombinationScheme(r, tuple(nodes), solve_coefficients(nodes))


def combine_applied(scheme: CombinationScheme, applied: Mapping[int, np.ndarray],
                    factors: Mapping[int, float] | None = None) -> np.ndarray:
    """sum_i C_i * applied[n_i] in ladder order, given one apply per degree.

    ``applied[n]`` is a Bernstein apply of degree-n samples on a grid.  With
    ``factors``, each weight is the float C_i * factors[n_i].  Sweeps share
    one apply per degree across every ladder that contains it, and get the
    bytes of ``combine_samples`` and ``operator_derivative_2r`` because both
    combine through here.
    """
    out = np.zeros(applied[scheme.nodes[0]].size)
    for c, n in zip(scheme.coeffs.tolist(), scheme.nodes):
        if factors is not None:
            c = c * factors[n]
        out += c * applied[n]
    return out


def combine_samples(
    scheme: CombinationScheme, samples: Sequence[SampleVector], x
) -> float | np.ndarray:
    """Apply the combination given one sample vector per ladder degree."""
    if len(samples) != scheme.r:
        raise DomainError("need one sample vector per ladder degree")
    for sv, n in zip(samples, scheme.nodes):
        if sv.n != n:
            raise DomainError(f"sample vector degree {sv.n} does not match node {n}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    applied = {sv.n: bernstein_apply_grid(sv, xs) for sv in samples}
    return _unwrap(x, combine_applied(scheme, applied))


def combine(f: Callable, scheme: CombinationScheme, x) -> float | np.ndarray:
    """Combined operator sum_i C_i B_{n_i}(f, x); x may be scalar or array."""
    samples = [sample_function(f, n) for n in scheme.nodes]
    return combine_samples(scheme, samples, x)


def moment_table(
    scheme: CombinationScheme, powers: Sequence[int], xs: np.ndarray
) -> np.ndarray:
    """Array M[p, i] = sum_j C_j B_{n_j}((t - x)^powers[p], x) at x = xs[i]."""
    powers = [_check_int(p, "moment power", 0) for p in powers]
    xs = np.asarray(xs, dtype=float)
    out = np.zeros((len(powers), xs.size))
    for c, n in zip(scheme.coeffs.tolist(), scheme.nodes):
        rows = np.array([basis_row(n, x) for x in xs.tolist()]).reshape(xs.size, n + 1)
        d = (np.arange(n + 1) / n)[:, None] - xs
        # terms[k, p, i] = p_nk(x_i) (k/n - x_i)^powers[p], summed over k
        terms = np.empty((n + 1, len(powers), xs.size))
        for p, power in enumerate(powers):
            np.multiply(rows.T, d**power, out=terms[:, p])
        out += c * _compensated_sum(terms)
    return out
