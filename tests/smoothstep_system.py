"""The smoothstep's defining linear system, for the tests only.

The package computes the coefficients in closed form; these helpers build
the falling-factorial system they solve and its determinant, so the tests
can check the closed form against the system it replaces.
"""

import math

import numpy as np


def system_matrix(r: int) -> np.ndarray:
    """A[m, j] = perm(2r+1+j, m) for m, j = 0..2r (exact integers in float)."""
    size = 2 * r + 1
    a = np.empty((size, size))
    for m in range(size):
        for j in range(size):
            a[m, j] = float(math.perm(2 * r + 1 + j, m))
    return a


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
    out = 1
    for j in range(2, 2 * r + 1):
        out *= math.factorial(j)
    return float(out)
