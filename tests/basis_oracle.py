"""Bernstein basis rows one point at a time, for the tests only.

``libm_row`` states the contract of the rows built from libm's logs
(``basis_row`` and the matrices ``moment_table`` sums) on every column of
one point, with no band, no row grouping and no outer product: a test that
compares the package with it is not comparing the package with itself.
Its ln C(n, k) row is its own too (``log_binom_row``), built from one
math.log call per increment.
"""

import math
from functools import lru_cache

import numpy as np

from bernblend import basis


@lru_cache(maxsize=64)
def log_binom_row(n: int) -> np.ndarray:
    """ln C(n,k), k = 0..n: the Neumaier running sum of the increments
    math.log((n-k+1)/k), as sequential np.cumsum runs over 2^14 increments
    at a time, each seeded with the last chunk's (the bits of a loop over
    k).  Cached per n, so that repeated oracle points at one degree build
    the row once."""
    out = np.empty(n + 1)
    out[0] = total = comp = 0.0
    for a in range(1, n + 1, 1 << 14):
        k = np.arange(a, min(a + (1 << 14), n + 1), dtype=float)
        term = np.fromiter(map(math.log, memoryview((n + 1 - k) / k)), float, k.size)
        t = np.cumsum(np.concatenate(([total], term)))  # t[j]: the total before term[j]
        c = np.where(np.abs(t[:-1]) >= np.abs(term),
                     (t[:-1] - t[1:]) + term, (term - t[1:]) + t[:-1])
        c = np.cumsum(np.concatenate(([comp], c)))
        out[a:a + k.size] = t[1:] + c[1:]
        total, comp = t[-1], c[-1]
    out.flags.writeable = False
    return out


def libm_row(n: int, x: float) -> np.ndarray:
    """p_{nk}(x), k = 0..n: (ln C(n,k) + ln x * k) + ln(1-x) * (n-k) with
    ln C(n,k) from ``log_binom_row``, ln x and ln(1-x) from math.log and
    math.log1p, mirrored onto 1-x above 1/2, and +0.0 where the log lies
    below basis._NORMAL_LOG."""
    k = np.arange(n + 1, dtype=float)
    kk, qq, logc = k, n - k, log_binom_row(n)
    if x > 0.5:  # p_{n,k}(x) = p_{n,n-k}(1-x), and 1-x is exact there
        x, kk, qq, logc = 1.0 - x, n - k, k, logc[::-1]
    if x == 0.0:  # 0^0 = 1
        return (kk == 0).astype(float)
    logs = (logc + math.log(x) * kk) + math.log1p(-x) * qq
    return np.where(logs >= basis._NORMAL_LOG, np.exp(logs), 0.0)
