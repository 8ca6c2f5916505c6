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
closed form.  It also gives psi(x) + psi(1-x) = 1.  ``psi_eval(r, xs)``
uses that identity for x > 1/2, which avoids the cancellation the raw
monomial form suffers near 1 once r gets large; it reads each order's
coefficients from one read-only array, made on first use.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .basis import _check_order


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


def _horner(xs, coeffs: np.ndarray):
    """sum_j coeffs[j] xs^j by the loop of numpy.polynomial's polyval, so
    the same bits, without its import (about 2 ms of start-up)."""
    out = coeffs[-1] + xs * 0
    for c in coeffs[-2::-1]:
        out = c + out * xs
    return out


@lru_cache(maxsize=None)
def _ascending(r: int) -> np.ndarray:
    """The order-r step's read-only coefficients by ascending power, from
    x^0: zeros up to x^(2r), then ``solve_psi_coefficients(r)``."""
    coeffs = solve_psi_coefficients(r)
    ascending = np.zeros(2 * coeffs.size)
    ascending[coeffs.size :] = coeffs
    ascending.flags.writeable = False
    return ascending


def psi_eval(r: int, xs: np.ndarray) -> np.ndarray:
    """The order-r step on a 1-d array: 0 for x <= 0, the polynomial on
    (0,1), 1 for x >= 1.

    Values beyond 1 stay exactly 1 (constant extension), so downstream
    blending coefficients vanish exactly there.
    """
    asc = _ascending(_check_order(r))
    out = np.where(xs >= 1.0, 1.0, 0.0)
    left = (xs > 0.0) & (xs <= 0.5)
    # NaN joins the right piece, as x in (1/2, 1) does
    right = ~((xs <= 0.5) | (xs >= 1.0))
    out[left] = _horner(xs[left], asc)
    out[right] = 1.0 - _horner(1.0 - xs[right], asc)
    return out
