"""An independent oracle for the blended combination L*_{n,r} f, for the tests only.

It shares no code with bernblend: it builds the operator at 40 digits in
mpmath from the closed forms that README and the package docstrings state.

- The ladder n_i = (i+1) n, i = 0..r-1, with weights
  C_i = prod_{j != i} n_i / (n_i - n_j).
- Per ladder degree m: the r+1 patch nodes floor(m xi - (1 + j/r) sqrt(m))/m,
  j = 0..r, all left of xi, and the breaks floor(m xi + c sqrt(m))/m for
  c = -2, -1, 1, 2.
- The smoothstep psi with psi(0) = 0 and psi' = c x^(2r) (1-x)^(2r),
  c = (4r+1)! / ((2r)!)^2, which is the regularized incomplete beta function
  I_x(2r+1, 2r+1).
- The patch H in Lagrange form, and the blend g = (1 - s) f + s H with
  s = psi((x - b1)/(b2 - b1)) on [b1, b2], 1 on [b2, b3],
  1 - psi((x - b3)/(b4 - b3)) on [b3, b4] and 0 elsewhere; f is evaluated
  only where s < 1.
- B_m(g, x) = sum_k C(m, k) x^k (1-x)^(m-k) g(k/m) over the k within 60
  standard deviations sqrt(m x (1-x)) of m x, with exact binomials.
"""

import math

import mpmath
from mpmath import mpf

DIGITS = 40


def _psi(r: int, u):
    if u <= 0:
        return mpf(0)
    if u >= 1:
        return mpf(1)
    return mpmath.betainc(2 * r + 1, 2 * r + 1, 0, u, regularized=True)


def _blended_samples(f, m: int, r: int, xi) -> list:
    """g(k/m) for k = 0..m, for the degree-m patch and blend."""
    root = mpmath.sqrt(m)
    nodes = [mpmath.floor(m * xi - (1 + mpf(j) / r) * root) / m for j in range(r + 1)]
    b1, b2, b3, b4 = (mpmath.floor(m * xi + c * root) / m for c in (-2, -1, 1, 2))
    at_nodes = [f(node) for node in nodes]

    def patch(x):
        return mpmath.fsum(
            fj * mpmath.fprod((x - other) / (node - other) for other in nodes if other != node)
            for node, fj in zip(nodes, at_nodes))

    samples = []
    for k in range(m + 1):
        x = mpf(k) / m
        if x <= b1 or x >= b4:
            s = mpf(0)
        elif x < b2:
            s = _psi(r, (x - b1) / (b2 - b1))
        elif x <= b3:
            s = mpf(1)
        else:
            s = 1 - _psi(r, (x - b3) / (b4 - b3))
        if s == 0:
            samples.append(f(x))
        elif s == 1:
            samples.append(patch(x))
        else:
            samples.append((1 - s) * f(x) + s * patch(x))
    return samples


def modified_operator_oracle(f, n: int, r: int, xi: float, xs) -> list:
    """(L*_{n,r} f(x), sum over i and k of |C_i p_{n_i,k}(x) g_i(k/n_i)|) for
    each x of ``xs``; ``f`` maps an mpf to an mpf, and ``xi`` and ``xs`` are
    read as the exact values of their doubles."""
    with mpmath.workdps(DIGITS):
        xi = mpf(xi)
        degrees = [(i + 1) * n for i in range(r)]
        ladder = []
        for m in degrees:
            weight = mpf(math.prod(m for other in degrees if other != m))
            weight /= math.prod(m - other for other in degrees if other != m)
            ladder.append((m, weight, _blended_samples(f, m, r, xi)))
        out = []
        for x in map(mpf, xs):
            value = size = mpf(0)
            for m, weight, samples in ladder:
                spread = 60 * mpmath.sqrt(m * x * (1 - x))
                lo = max(0, int(mpmath.ceil(m * x - spread)))
                hi = min(m, int(mpmath.floor(m * x + spread)))
                for k in range(lo, hi + 1):
                    term = weight * math.comb(m, k) * x ** k * (1 - x) ** (m - k) * samples[k]
                    value += term
                    size += abs(term)
            out.append((value, size))
        return out
