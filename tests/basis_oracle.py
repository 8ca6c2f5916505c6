"""Bernstein basis rows one point at a time, for the tests only.

``libm_row`` states the contract of the rows built from libm's logs
(``basis_row`` and the matrices ``moment_table`` sums) on every column of
one point, with no band, no row grouping and no outer product: a test that
compares the package with it is not comparing the package with itself.
"""

import math

import numpy as np

from bernblend import basis


def libm_row(n: int, x: float) -> np.ndarray:
    """p_{nk}(x), k = 0..n: (ln C(n,k) + ln x * k) + ln(1-x) * (n-k) with
    ln x and ln(1-x) from math.log and math.log1p, mirrored onto 1-x above
    1/2, and +0.0 where the log lies below basis._NORMAL_LOG."""
    k = np.arange(n + 1, dtype=float)
    kk, qq, logc = k, n - k, basis._log_binom_row(n)
    if x > 0.5:  # p_{n,k}(x) = p_{n,n-k}(1-x), and 1-x is exact there
        x, kk, qq, logc = 1.0 - x, n - k, k, logc[::-1]
    if x == 0.0:  # 0^0 = 1
        return (kk == 0).astype(float)
    logs = (logc + math.log(x) * kk) + math.log1p(-x) * qq
    return np.where(logs >= basis._NORMAL_LOG, np.exp(logs), 0.0)
