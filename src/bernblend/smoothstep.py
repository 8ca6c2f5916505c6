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
psi'(x) = c x^(2r) (1-x)^(2r) with c = (4r+1)! / ((2r)!)^2, so the system
is never solved: expanding (1-x)^(2r) and integrating gives every a_j in
closed form.  It also gives psi(x) + psi(1-x) = 1.  Evaluation uses that
identity for x > 1/2, which avoids the cancellation the raw monomial form
suffers near 1 once r gets large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .basis import _check_order


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

    With psi' = c x^(2r) (1-x)^(2r), c = (4r+1)! / ((2r)!)^2, the coefficient
    of x^(2r+1+j) is a_{j+1} = c (-1)^j C(2r, j) / (2r+1+j).  Each is an
    exact integer, below 2^53 for r <= 8, so the floats are exact.  The
    falling-factorial system is far too ill-conditioned for a
    double-precision solve: from about r = 6 on it returns forward garbage.
    """
    r = _check_order(r)
    c = math.factorial(4 * r + 1) // math.factorial(2 * r) ** 2
    return np.array([float((-1) ** j * (c * math.comb(2 * r, j) // (2 * r + 1 + j)))
                     for j in range(2 * r + 1)])


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
    """The order-r smoothstep; ``coeffs`` is ``solve_psi_coefficients(r)``."""

    r: int
    coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        r = _check_order(self.r)
        coeffs = solve_psi_coefficients(r)
        ascending = np.zeros(4 * r + 2)
        ascending[2 * r + 1 :] = coeffs
        coeffs.flags.writeable = False
        ascending.flags.writeable = False
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_ascending", ascending)


def build_smoothstep(r: int) -> SmoothstepPoly:
    return SmoothstepPoly(r)


def psi_eval(poly: SmoothstepPoly, xs: np.ndarray) -> np.ndarray:
    """Piecewise step value on a 1-d array: 0 for x <= 0, the polynomial on
    (0,1), 1 for x >= 1.

    Values beyond 1 stay exactly 1 (constant extension), so downstream
    blending coefficients vanish exactly there.
    """
    asc = poly._ascending
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
    return out

