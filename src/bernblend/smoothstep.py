"""Polynomial smoothstep of adjustable smoothness order.

For order r the step is the degree-(4r+1) polynomial

    psi(x) = a_1 x^(2r+1) + a_2 x^(2r+2) + ... + a_{2r+1} x^(4r+1)

determined by psi(1) = 1 and psi^(m)(1) = 0 for m = 1..2r.  Together with
the built-in zero of order 2r+1 at x = 0 this glues psi C^{2r}-smoothly to
the constants 0 (for x <= 0) and 1 (for x >= 1).  The linear system has
matrix entries perm(2r+1+j, m), the falling factorials that produce the
m-th derivative of x^(2r+1+j) at x = 1; its determinant equals
prod_{j=2}^{2r} j!.

Counting roots of psi' (order 2r at both endpoints, degree 4r) shows
psi'(x) = c x^(2r) (1-x)^(2r), so psi(x) + psi(1-x) = 1.  Evaluation uses
that identity for x > 1/2, which avoids the cancellation the raw monomial
form suffers near 1 once r gets large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from .basis import _check_int, _unwrap
from .errors import DomainError

_MAX_ORDER = 8

# |psi(1) - 1| <= this times sum|a|
_SUM_RTOL = 1e-10
# per-row relative residual of the defining system
_ROW_RTOL = 1e-9
# slack on the numeric range check over a dense grid
_RANGE_SLACK = 1e-10
_RANGE_GRID = 10_000


def _check_order(r: int) -> int:
    if _check_int(r, "smoothstep order", 1) > _MAX_ORDER:
        raise DomainError(f"smoothstep order must be in 1..{_MAX_ORDER}, got {r}")
    return int(r)


def system_matrix(r: int) -> np.ndarray:
    """A[m, j] = perm(2r+1+j, m) for m, j = 0..2r (exact integers in float)."""
    r = _check_order(r)
    size = 2 * r + 1
    a = np.empty((size, size))
    for m in range(size):
        for j in range(size):
            a[m, j] = float(math.perm(2 * r + 1 + j, m))
    return a


def solve_psi_coefficients(r: int) -> np.ndarray:
    """Coefficients (a_1, ..., a_{2r+1}) of the order-r smoothstep.

    Solved by pivoted elimination over exact rationals and only then
    rounded to float.  The falling-factorial matrix is so ill-conditioned
    that a double-precision solve, while backward-stable, returns forward
    garbage from about r = 6 on (the r = 8 "solution" is off by 100%);
    at this size (matrix order <= 17) the exact solve costs microseconds.
    """
    r = _check_order(r)
    size = 2 * r + 1
    a = [
        [Fraction(math.perm(2 * r + 1 + j, m)) for j in range(size)]
        for m in range(size)
    ]
    b = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for col in range(size):
        piv = max(range(col, size), key=lambda i: abs(a[i][col]))
        if a[piv][col] == 0:
            raise DomainError(f"singular smoothstep system at order {r}")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for i in range(size):
            if i != col and a[i][col] != 0:
                f = a[i][col] / a[col][col]
                a[i] = [u - f * v for u, v in zip(a[i], a[col])]
                b[i] = b[i] - f * b[col]
    return np.array([float(b[i] / a[i][i]) for i in range(size)])


def determinant_check(r: int) -> float:
    """Determinant of the defining system by pivoted elimination in doubles.

    Rows are equilibrated first and the row scales multiplied back in;
    without that the raw LU determinant only reaches ~1e-9 relative at
    r = 3, right at the edge of what downstream comparisons allow.
    """
    a = system_matrix(r)
    scale = np.abs(a).max(axis=1)
    det = float(np.linalg.det(a / scale[:, None]))
    for s in scale.tolist():
        det *= s
    return det


def determinant_reference(r: int) -> float:
    """prod_{j=2}^{2r} j!, the closed form of the system determinant."""
    r = _check_order(r)
    out = 1
    for j in range(2, 2 * r + 1):
        out *= math.factorial(j)
    return float(out)


@dataclass(frozen=True, eq=False)
class SmoothstepPoly:
    """A validated smoothstep polynomial of order r."""

    r: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        r = _check_order(self.r)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (2 * r + 1,):
            raise DomainError(
                f"order-{r} smoothstep needs {2 * r + 1} coefficients, got {coeffs.shape}"
            )
        scale = np.abs(coeffs).sum()
        if abs(coeffs.sum() - 1.0) > _SUM_RTOL * max(scale, 1.0):
            raise DomainError("smoothstep does not reach 1 at x = 1")
        a = system_matrix(r)
        for m in range(1, 2 * r + 1):
            resid = float(a[m] @ coeffs)
            ref = float(np.abs(a[m]) @ np.abs(coeffs))
            if abs(resid) > _ROW_RTOL * ref:
                raise DomainError(
                    f"derivative order {m} does not vanish at x = 1: residual {resid!r}"
                )
        ascending = np.zeros(4 * r + 2)
        ascending[2 * r + 1 :] = coeffs
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        ascending.flags.writeable = False
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_ascending", ascending)
        grid = np.linspace(0.0, 1.0, _RANGE_GRID)
        vals = psi_eval(self, grid)
        if vals.min() < -_RANGE_SLACK or vals.max() > 1.0 + _RANGE_SLACK:
            raise DomainError(
                f"order-{r} smoothstep leaves [0,1]: range "
                f"[{vals.min()!r}, {vals.max()!r}]"
            )


def build_smoothstep(r: int) -> SmoothstepPoly:
    return SmoothstepPoly(r, solve_psi_coefficients(r))


def psi_eval(poly: SmoothstepPoly, x):
    """Piecewise step value: 0 for x <= 0, the polynomial on (0,1), 1 for x >= 1.

    Accepts scalars or arrays.  Values beyond 1 stay exactly 1 (constant
    extension), so downstream blending coefficients vanish exactly there.
    """
    asc = poly._ascending
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(xs.shape)
    lo = xs <= 0.0
    hi = xs >= 1.0
    out[lo] = 0.0
    out[hi] = 1.0
    mid = ~(lo | hi)
    if mid.any():
        xm = xs[mid]
        vals = np.empty(xm.shape)
        left = xm <= 0.5
        if left.any():
            vals[left] = npoly.polyval(xm[left], asc)
        if (~left).any():
            vals[~left] = 1.0 - npoly.polyval(1.0 - xm[~left], asc)
        out[mid] = vals
    return _unwrap(x, out)


def psi_derivative(poly: SmoothstepPoly, x, order: int):
    """Derivative of the piecewise step.

    Returns 0 outside (0,1) for order >= 1; for order <= 2r the one-sided
    polynomial limits at the seams vanish as well, so this is the honest
    two-sided derivative there.  Accepts scalars or arrays.
    """
    order = _check_int(order, "derivative order", 0)
    if order > 2 * poly.r:
        # beyond 2r the one-sided limits at the seams disagree, so there
        # is no honest two-sided value to return
        raise DomainError(
            f"order-{poly.r} smoothstep is only {2 * poly.r} times differentiable "
            f"at the seams, got derivative order {order}"
        )
    if order == 0:
        return psi_eval(poly, x)
    der = npoly.polyder(poly._ascending, order)
    sign = -1.0 if order % 2 == 0 else 1.0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros(xs.shape)
    mid = (xs > 0.0) & (xs < 1.0)
    if mid.any():
        xm = xs[mid]
        vals = np.empty(xm.shape)
        left = xm <= 0.5
        if left.any():
            vals[left] = npoly.polyval(xm[left], der)
        if (~left).any():
            vals[~left] = sign * npoly.polyval(1.0 - xm[~left], der)
        out[mid] = vals
    return _unwrap(x, out)
