"""Bernstein basis values, operator application, and the finite differences
of the weighted modulus's stencils."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from basis_oracle import libm_row
from hypothesis import given
from hypothesis import strategies as st

from bernblend import (DomainError, SampleError, SampleVector, Weight, basis,
                       basis_matrix, basis_row, bernstein_apply_grid, evaluate,
                       harness, lemma6_scan, make_grid, sample_function,
                       smoothness, weighted_modulus)
from bernblend.basis import _compensated_sum


def exact_basis(n: int, k: int, num: int, den: int) -> float:
    """p_{nk}(num/den) in exact rational arithmetic."""
    x = Fraction(num, den)
    return float(math.comb(n, k) * x**k * (1 - x) ** (n - k))


def basis_value(n, k, x):
    """Single basis value p_{nk}(x), entry k of ``libm_row``'s full row,
    after checking that ``basis_row`` gives that row bit for bit."""
    want = libm_row(n, x)
    assert _same_bits(basis_row(n, x), want)
    return want[k]


def fsum_apply(samples, x):
    """B_n(f, x) summed exactly (math.fsum) over ``libm_row``'s full row."""
    return math.fsum((libm_row(samples.n, x) * samples.values).tolist())


class TestBasisValues:
    def test_simple_values(self):
        assert basis_value(2, 1, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert basis_value(4, 0, 0.0) == 1.0
        assert basis_value(4, 2, 0.0) == 0.0
        assert basis_value(7, 7, 1.0) == 1.0
        assert basis_value(7, 3, 1.0) == 0.0

    def test_oracle_value(self):
        # 120 * 0.3^3 * 0.7^7, checked against the exact rational product
        want = exact_basis(10, 3, 3, 10)
        assert want == pytest.approx(0.26682793, abs=5e-9)
        assert basis_value(10, 3, 0.3) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n,k,num,den", [
        (5, 2, 1, 4), (12, 7, 9, 16), (40, 13, 3, 8),
        (64, 40, 7, 10), (200, 101, 1, 2), (1030, 515, 1, 2),
    ])
    def test_against_exact_rationals(self, n, k, num, den):
        want = exact_basis(n, k, num, den)
        assert basis_value(n, k, num / den) == pytest.approx(want, rel=5e-12)

    def test_large_degree_does_not_overflow(self):
        v = basis_value(100_000, 50_000, 0.5)
        assert 0.0 < v < 1.0
        assert np.isfinite(v)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            basis_row(0, 0.5)
        with pytest.raises(DomainError):
            basis_row(5, 1.5)

    def test_rejects_malformed_point(self):
        # x is checked as a one-point array, as every basis entry point does
        for bad in (np.array([[0.5]]), np.array([0.5]), [0.2, 0.4]):
            with pytest.raises(DomainError, match="xs must be a 1-d array"):
                basis_row(4, bad)

    def test_log_binomial_matches_exact(self):
        for n, k in [(10, 3), (100, 50), (4096, 2000)]:
            want = math.log(math.comb(n, k))
            assert basis._log_binom_row(n)[k] == pytest.approx(want, rel=1e-13)

    # 2^14 and 2^14 + 1 put a chunk edge at the row's end and one increment
    # past it; 2^17 sums eight chunks
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 16384, 16385, 2**17])
    def test_log_binomial_keeps_loop_bits(self, n):
        assert _same_bits(basis._log_binom_row(n), neumaier_log_binom(n))


def neumaier_log_binom(n):
    """ln C(n,k), k = 0..n: a Neumaier running sum of the increments
    ln((n-k+1)/k), one increment at a time."""
    out, total, comp = [0.0], 0.0, 0.0
    for k in range(1, n + 1):
        term = math.log((n - k + 1) / k)
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        out.append(total + comp)
    return np.array(out)


class TestLibmRows:
    """Rows from libm's logs, ``basis_row``'s and moment_table's, against
    ``libm_row`` point by point: equal bits, sign bits too."""

    @pytest.mark.parametrize("n", [1, 5, 256, 768, 4096])
    def test_rows_keep_oracle_bits(self, n):
        rng = np.random.default_rng(n)
        xs = np.concatenate(([0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16], rng.random(400)))
        want = np.array([libm_row(n, x) for x in xs.tolist()])
        assert _same_bits(basis._dense_rows(n, xs, True), want)
        for x, row in zip(xs.tolist(), want):
            assert _same_bits(basis_row(n, x), row), x

    def test_rows_at_degree_cap(self):
        # the band leaves out columns whose libm logs lie below _NORMAL_LOG too
        n = 10 ** 6
        for x in (0.5, 0.513, 0.25, 1e-3, 1e-300, 0.999):
            assert _same_bits(basis_row(n, x), libm_row(n, x)), x


class TestRowsAndMatrices:
    def test_row_matches_scalar(self):
        row = basis_row(37, 0.3)
        for k in (0, 5, 18, 37):
            assert row[k] == pytest.approx(exact_basis(37, k, 3, 10), rel=1e-13)

    def test_restricted_indices(self):
        # a window's values are the full row's columns lo..hi-1, and its row
        # sum their sum
        full = libm_row(12, 0.41)
        np.testing.assert_allclose(window_matrix(12, [0.41], 2, 10)[0], full[2:10], rtol=1e-14)
        got, = basis._row_sums(12, [0.41], [np.ones(8)], 2)
        assert got[0] == pytest.approx(full[2:10].sum(), rel=1e-14)

    def test_matrix_matches_rows(self):
        xs = np.array([0.0, 0.2, 0.5, 0.77, 1.0])
        mat = basis_matrix(20, xs)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(mat[i], libm_row(20, float(x)), rtol=1e-13)

    def test_matrix_rejects_bad_points(self):
        with pytest.raises(DomainError):
            basis_matrix(10, np.array([0.5, 1.2]))
        with pytest.raises(DomainError):
            basis_matrix(10, np.array([[0.5]]))
        # NaN is no point of [0,1], for the matrix and for an apply alike
        with pytest.raises(DomainError, match="nan"):
            basis_matrix(10, np.array([0.5, np.nan]))
        with pytest.raises(DomainError, match="nan"):
            bernstein_apply_grid(SampleVector(10, np.ones(11)), np.array([np.nan]))

    @pytest.mark.parametrize("n", [5, 64, 512, 4096])
    def test_partition_of_unity(self, n, grid513):
        sums = basis_matrix(n, grid513.points).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    @given(n=st.integers(1, 300), x=st.floats(0.0, 1.0))
    def test_nonnegative_and_normalized(self, n, x):
        row = basis_row(n, x)
        assert row.min() >= 0.0
        assert abs(row.sum() - 1.0) <= 1e-12

    @given(n=st.integers(1, 200), j=st.integers(0, 1024))
    def test_symmetry(self, n, j):
        # dyadic x keeps 1-x exactly representable, so the mirror is exact
        x = j / 1024
        k = n // 3
        left = basis_value(n, k, x)
        right = basis_value(n, n - k, 1.0 - x)
        assert left == pytest.approx(right, rel=1e-13, abs=1e-300)


def window_matrix(n, xs, lo, hi):
    """Columns lo..hi-1 of the basis matrix: the blocks of ``_band_blocks``
    on that range scattered into zeros, as ``basis_matrix`` scatters all n + 1."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros((xs.size, hi - lo))
    for rows, a, b, vals in basis._band_blocks(n, xs, lo, hi):
        out[rows, a:b] = vals
    return out


def dense_logs(n, xs):
    """Full-width ln p_nk: log and outer products for every entry.

    The same elementwise expression and order as ``basis_matrix``, with no
    band; rows at x = 0 or 1 read 0.0 at index 0 or n and -inf elsewhere.
    """
    ks = np.arange(n + 1)
    logc = basis._log_binom_row(n)
    xs = np.asarray(xs, dtype=float)
    out = np.empty((xs.size, ks.size))
    left = xs <= 0.5
    for mask, pts, kk in ((left, xs, ks), (~left, 1.0 - xs, n - ks)):
        p = pts[mask]
        with np.errstate(divide="ignore", invalid="ignore"):
            m = logc[kk] + np.outer(np.log(p), kk) + np.outer(np.log1p(-p), n - kk)
        m[p == 0.0] = np.where(kk == 0, 0.0, -np.inf)
        out[mask] = m
    return out


def dense_basis(n, xs):
    """Full-width basis matrix: exp of ``dense_logs``, +0.0 below _NORMAL_LOG.

    The contract of every basis path applied to every entry, so
    ``basis_matrix`` must agree with it bit for bit.
    """
    m = dense_logs(n, xs)
    return np.where(m >= basis._NORMAL_LOG, np.exp(m), 0.0)


def bernstein_band(n, xs):
    """True where |k - n x| <= t(x), Bernstein's-inequality band at ln p = _NORMAL_LOG."""
    ks = np.arange(n + 1)
    xs = np.asarray(xs, dtype=float)[:, None]
    L = -basis._NORMAL_LOG
    t = L / 3.0 + np.sqrt(L * L / 9.0 + 2.0 * L * n * xs * (1.0 - xs))
    return np.abs(ks - n * xs) <= t


def _oracle_points(n):
    rng = np.random.default_rng(n)
    size = {4096: 24, 12288: 16, 65536: 8}.get(n, 120)
    special = np.array([0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16, 0.25, 0.75, 1e-3])
    clustered = np.clip(0.513 + 1e-3 * rng.standard_normal(size), 0.0, 1.0)
    points = {
        "sorted": np.sort(rng.random(size)),
        "unsorted": rng.random(size),
        "clustered": np.sort(np.concatenate([clustered, rng.random(size // 4)])),
        "special": special,
    }
    if n == 12288:
        # 300 rows: one _row_sums call sums about ten _band_blocks blocks
        points["many"] = np.sort(rng.random(300))
    return points


def _oracle_windows(n):
    """Column ranges [lo, hi): the head holds column 0 alone of the edge
    columns and the tail column n alone, so the x = 0 and x = 1 rows meet a
    window that ends or starts inside 0..n."""
    half = int(math.isqrt(n))
    centre = n // 2
    return {
        "all": (0, n + 1),
        "inner": (1, n) if n > 1 else (0, n + 1),
        "window": (max(0, centre - half), min(n, centre + half) + 1),
        "head": (0, half + 1),
        "tail": (n - half, n + 1),
    }


ORACLE_DEGREES = [1, 2, 5, 64, 255, 4096, 12288, 65536]


class TestBandedMatrix:
    @pytest.mark.parametrize("n", ORACLE_DEGREES)
    def test_matches_dense_bit_for_bit(self, n):
        for xname, xs in _oracle_points(n).items():
            full = dense_basis(n, xs)
            assert _same_bits(basis_matrix(n, xs), full), xname
            for kname, (lo, hi) in _oracle_windows(n).items():
                got = window_matrix(n, xs, lo, hi)
                assert np.array_equal(got, full[:, lo:hi]), (xname, kname)
                assert not np.signbit(got).any(), (xname, kname)

    @pytest.mark.parametrize("n", ORACLE_DEGREES)
    def test_dense_is_zero_outside_band(self, n):
        # outside the band every full-width log lies below _NORMAL_LOG, so
        # the flush makes the entry +0.0 (a plain exp may give a subnormal)
        for xs in _oracle_points(n).values():
            outside = ~bernstein_band(n, xs)
            assert np.all(dense_logs(n, xs)[outside] < basis._NORMAL_LOG)

    def test_band_at_degree_cap(self):
        # the band's margin under _NORMAL_LOG shrinks with n (50 at 65536,
        # 17.6 at 10^6, least near x = 0.25); 10^6 is the commands' cap
        n = 10 ** 6
        for x in (0.5, 0.513, 0.25, 1e-3, 1e-300, 0.999):
            outside = ~bernstein_band(n, [x])
            assert outside.any(), x
            assert dense_logs(n, [x])[outside].max() < basis._NORMAL_LOG, x
            assert np.array_equal(basis_matrix(n, [x]), dense_basis(n, [x])), x

    @pytest.mark.parametrize("n", ORACLE_DEGREES)
    def test_no_subnormal_or_negative_zero(self, n):
        # every path flushes values under 2^-1022 to +0.0; the band of the
        # larger degrees holds logs in [-745.13, _NORMAL_LOG), which a plain
        # exp would make subnormal
        tiny = np.finfo(float).tiny

        def check(vals):
            assert not np.any((vals > 0.0) & (vals < tiny))
            assert not np.signbit(vals).any()

        flushed = 0
        for xs in _oracle_points(n).values():
            logs = dense_logs(n, xs)
            check(basis_matrix(n, xs))
            for lo, hi in _oracle_windows(n).values():
                window = logs[:, lo:hi]
                flushed += np.count_nonzero((window >= -745.13) & (window < basis._NORMAL_LOG))
                # each block as it is yielded: the next one reuses its scratch
                for *_, vals in basis._band_blocks(n, xs, lo, hi):
                    check(vals)
            for x in xs:
                check(basis_row(n, float(x)))
        assert flushed > 0 or n < 64

    def test_normal_log_gives_normal_doubles(self):
        # the cut flushes no value above 1.01 times the smallest normal
        tiny = np.finfo(float).tiny
        assert tiny <= np.exp(basis._NORMAL_LOG) <= 1.01 * tiny

    def test_empty_arguments(self):
        assert basis_matrix(8, np.array([])).shape == (0, 9)
        assert window_matrix(8, np.array([0.3, 1.0]), 4, 4).shape == (2, 0)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestMirror:
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 255, 4096, 12288])
    def test_matrix_mirrors_bit_for_bit(self, n):
        # p_nk(x) = p_{n,n-k}(1-x); on the 2^-20 grid 1-x is exact, so the
        # mirrored evaluation of 1-x gives x's row reversed, sign bits too
        rng = np.random.default_rng(n)
        js = np.concatenate(([0, 1, 2**19 - 1, 2**19 + 1, 2**20 - 1, 2**20],
                             rng.integers(0, 2**20 + 1, 64)))
        xs = js[js != 2**19] / 2.0**20
        assert _same_bits(basis_matrix(n, 1.0 - xs)[:, ::-1], basis_matrix(n, xs))

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 255, 4096, 12288])
    def test_half_row_mirrors_within_n_eps(self, n):
        # x = 1/2 is its own mirror and is evaluated unmirrored, so its row
        # reversed is p_{n,n-k}(1/2) from ln C(n, n-k), whose bits differ from
        # ln C(n, k)'s: the reversal moves entries by up to 0.67 n eps relative
        row, = basis_matrix(n, np.array([0.5]))
        assert np.array_equal(row[::-1] > 0.0, row > 0.0)
        nz = row > 0.0
        gap = np.abs(row[::-1] - row)[nz] / row[nz]
        assert gap.max() <= n * np.finfo(float).eps


class TestMergedBlocks:
    """Adjacent row groups with one band merge into a block; no bit moves."""

    def test_merging_moves_no_bit(self, monkeypatch):
        def run():
            out = []
            for n in ORACLE_DEGREES:
                for xs in _oracle_points(n).values():
                    for lo, hi in _oracle_windows(n).values():
                        out.append(window_matrix(n, xs, lo, hi))
                        out += basis._row_sums(n, xs, list(_weights(hi - lo, n).values()), lo)
            grid = make_grid(Weight(0.513, 1.0), 2001)
            for beta in (0.5, 1.0, 2.0):
                rep = lemma6_scan(beta, grid.weight, [n for n in ORACLE_DEGREES if n >= 5], grid)
                out.append(np.array(rep.values))
            return out

        merged = run()
        monkeypatch.setattr(basis, "_MERGE_ENTRIES", 0)
        apart = run()
        assert len(merged) == len(apart)
        assert all(_same_bits(a, b) for a, b in zip(merged, apart))

    def test_block_count_and_cap(self):
        xs = make_grid(Weight(0.513, 1.0), 2001).points
        # n = 32: every band is all 33 columns; each side of 1/2 gives one
        # block and its x = 0 or 1 row another
        assert len(list(basis._band_blocks(32, xs, 0, 33))) <= 4
        for n in (32, 255, 1024, 4096, 65536):
            for rows, a, b, *_ in basis._band_blocks(n, xs, 0, n + 1):
                if rows.size > basis._GROUP_ROWS:
                    assert rows.size * (b - a) <= basis._MERGE_ENTRIES, (n, rows.size)


def _weights(size, seed):
    rng = np.random.default_rng(seed)
    signed = rng.standard_normal(size)
    # zero and minus_zero: every product is +0.0 or -0.0, and so is each sum
    return {"signed": signed, "zero": np.zeros(size), "minus_zero": -np.zeros(size),
            "minus_one": -np.ones(size), "tiny": 1e-300 * signed}


class TestRowSums:
    """The banded reduction against math.fsum of the same products."""

    # the worst |got - fsum(p w)| over these cases is 2.0 eps * fsum(|p w|),
    # at the default block split and at one row per block alike (n = 255,
    # "inner" window, weights -1); the bound leaves a factor 2 of margin
    FSUM_BOUND = 4.0

    @pytest.mark.parametrize("n", ORACLE_DEGREES + [128, 4090, 12282])
    def test_within_fsum_bound(self, n, monkeypatch):
        # any block split may give other bits, but each must hold the bound
        eps = np.finfo(float).eps
        for xname, xs in _oracle_points(n).items():
            full = dense_logs(n, xs)
            for kname, (lo, hi) in _oracle_windows(n).items():
                # the oracle keeps the values the flush makes +0.0
                logs = full[:, lo:hi]
                dense = np.exp(logs)
                weights = _weights(dense.shape[1], n)
                default = basis._row_sums(n, xs, list(weights.values()), lo)
                with monkeypatch.context() as m:
                    m.setattr(basis, "_GROUP_ROWS", 1)
                    m.setattr(basis, "_BLOCK_ENTRIES", 64)
                    one_row = basis._row_sums(n, xs, list(weights.values()), lo)
                for (wname, w), got, split in zip(weights.items(), default, one_row):
                    for i, row in enumerate(dense * w):
                        # fsum of the terms above 2^-100 of the largest, and
                        # the rest, which sum to under 2^-83 of it, added to
                        # the bound: fsum then keeps few partials.  The mass
                        # of the flushed terms is added to the bound too
                        mags = np.abs(row)
                        big = mags > 2.0 ** -100 * mags.max()
                        exact = math.fsum(row[big].tolist())
                        dropped = mags[logs[i] < basis._NORMAL_LOG].sum()
                        bound = (self.FSUM_BOUND * eps * mags.sum() + mags[~big].sum()
                                 + dropped)
                        case = (xname, kname, wname, i)
                        assert abs(got[i] - exact) <= bound, case
                        assert abs(split[i] - exact) <= bound, case

    def test_weights_reduced_apart_in_one_row_blocks(self, monkeypatch):
        # several weight vectors give each the bits it gets alone also when
        # every row is its own block (test_several_vectors_match_single_applies
        # covers the default split)
        monkeypatch.setattr(basis, "_GROUP_ROWS", 1)
        n = 12288
        xs = _oracle_points(n)["many"]
        weights = list(_weights(n + 1, n).values())
        for w, got in zip(weights, basis._row_sums(n, xs, weights)):
            assert np.array_equal(got, basis._row_sums(n, xs, [w])[0])

    def test_empty_arguments(self):
        got, = basis._row_sums(8, np.array([0.3, 1.0]), [np.array([])], 4)
        assert got.tolist() == [0.0, 0.0]
        got, = basis._row_sums(8, np.array([]), [np.ones(9)])
        assert got.shape == (0,)


def per_block_kernel(n, xs, lo, hi):
    """The blocks of ``_band_blocks`` with values by the per-block expression
    the scratch kernel replaced: new arrays in every block (ln C(n,k) by
    fancy index, k and n - k cast, two broadcast products, the exp mask)."""
    ks = np.arange(lo, hi)
    logc = basis._log_binom_row(n)
    for rows, a, b, *_ in basis._band_blocks(n, xs, lo, hi):
        x = xs[rows]
        # a block's rows lie on one side of 1/2; x > 1/2 is mirrored
        p, kk = (1.0 - x, n - ks) if x[0] > 0.5 else (x, ks)
        kb = kk[a:b]
        if p[0] == 0.0:
            vals = np.zeros((rows.size, b - a))
            vals[:] = kb == 0
        else:
            m = logc[kb] + np.log(p)[:, None] * kb.astype(float)
            m += np.log1p(-p)[:, None] * (n - kb).astype(float)
            np.exp(m, out=m, where=m >= basis._NORMAL_LOG)
            vals = np.maximum(m, 0.0, out=m)
        yield rows.copy(), a, b, vals


class TestScratchKernel:
    """The scratch kernel and its in-place reductions against
    ``per_block_kernel`` and the reductions it had: equal bits, sign bits too."""

    def test_cases_reach_both_shapes(self):
        # the kernel forms a block's logs in one einsum call, which keeps the
        # bits of the three-step form only with [ln x; 1; ln(1-x)] transposed
        # from C-contiguous rows: from a row-major (rows, 3) array numpy loops
        # over the three products innermost on one-column blocks of two or
        # more rows, in other bits.  The cases below have such blocks, and
        # blocks wider than 2730 columns, on either side of 1/2
        seen = set()
        for n in ORACLE_DEGREES:
            for xs in _oracle_points(n).values():
                for lo, hi in _oracle_windows(n).values():
                    for rows, a, b, *_ in basis._band_blocks(n, xs, lo, hi):
                        right = bool(xs[rows[0]] > 0.5)
                        if not 0.0 < xs[rows[0]] < 1.0:  # x = 0 and 1 take no einsum
                            continue
                        if b - a == 1 and rows.size >= 2:
                            seen.add(("column", right))
                        if b - a > 2730:
                            seen.add(("wide", right))
        assert seen == {(shape, right) for shape in ("column", "wide")
                        for right in (False, True)}

    @pytest.mark.parametrize("n", ORACLE_DEGREES)
    def test_matrix_and_row_sums_keep_bits(self, n):
        for xname, xs in _oracle_points(n).items():
            for kname, (lo, hi) in _oracle_windows(n).items():
                size = hi - lo
                weights = list(_weights(size, n).values())
                w = np.array(weights)
                matrix = np.zeros((xs.size, size))
                sums = np.zeros((w.shape[0], xs.size))
                for rows, a, b, vals in per_block_kernel(n, xs, lo, hi):
                    matrix[rows, a:b] = vals
                    sums[:, rows] = (vals * w[:, None, a:b]).sum(axis=-1)
                case = (xname, kname)
                assert _same_bits(window_matrix(n, xs, lo, hi), matrix), case
                if size == n + 1:
                    assert _same_bits(basis_matrix(n, xs), matrix), case
                several = basis._row_sums(n, xs, weights, lo)
                for wname, one, got, want in zip(_weights(size, n), weights, several, sums):
                    assert _same_bits(got, want), case + (wname,)
                    assert _same_bits(basis._row_sums(n, xs, [one], lo)[0], want), case + (wname,)

    def test_lemma6_keeps_bits(self, monkeypatch):
        # lemma 6 owns each block until it asks for the next: then vals holds
        # its products p_nk |k - n x|^beta, which the check reads
        beta, checked = None, []

        def checking(n, xs, lo, hi):
            ks = np.arange(lo, hi)
            for block, (rows, a, b, vals) in zip(basis._band_blocks(n, xs, lo, hi),
                                                 per_block_kernel(n, xs, lo, hi)):
                yield block
                want = vals * np.abs(ks[a:b] - n * xs[rows, None]) ** beta
                checked.append((n, beta, _same_bits(block[3], want)))

        grid = make_grid(Weight(0.513, 1.0), 2001)
        ns = [n for n in ORACLE_DEGREES if n >= 5]
        betas = (0.5, 1.0, 1.5, 2.0, 3.0)
        for beta in betas:
            plain = lemma6_scan(beta, grid.weight, ns, grid).values
            with monkeypatch.context() as m:
                m.setattr(harness, "_band_blocks", checking)
                assert lemma6_scan(beta, grid.weight, ns, grid).values == plain
        assert {case[:2] for case in checked} == {(n, b) for n in ns for b in betas}
        assert all(same for *_, same in checked), [case for case in checked if not case[2]]


class TestEinsumLogs:
    """The numpy fact the kernel's log expression rests on."""

    @pytest.mark.parametrize("rows", [1, 2, 7, 32, 33])
    def test_one_call_keeps_three_step_bits(self, rows):
        # einsum("ik,kj->ij") of [ln x; 1; ln(1-x)] transposed from C-contiguous
        # rows and [k; ln C(n,k); n-k] adds its three products to zeros in k
        # order, unfused: ((0 + ln x k) + ln C) + ln(1-x) (n-k), the bits of
        # (ln x k + ln C) + ln(1-x) (n-k) but for the sign of a zero log, which
        # exp makes 1.0.  A numpy that reorders the loops or fuses a multiply
        # and add fails here
        rng = np.random.default_rng(rows)
        p = rng.uniform(1e-3, 0.5, rows)
        log_p, log_q = np.log(p), np.log1p(-p)
        terms = np.array([log_p, np.ones(rows), log_q])
        for width in [*range(1, 41), 257, 2731, 4099, 37000]:
            for start in (0, int(rng.integers(1, 1000))):
                n = start + width - 1 + int(rng.integers(0, 100))
                k = np.arange(start, start + width, dtype=float)
                logc = rng.uniform(0.0, 700.0, width)
                if start == 0:
                    logc[0] = 0.0  # (0 + ln x * 0) + 0.0: a signed zero sum
                one = np.empty((rows, width))
                np.einsum("ik,kj->ij", terms.T, np.array([k, logc, n - k]), out=one)
                three = np.multiply(log_p[:, None], k)
                three += logc
                three += np.multiply(log_q[:, None], n - k)
                assert np.array_equal(one, three), (width, start)
                for m in (one, three):
                    np.exp(m, out=m, where=m >= basis._NORMAL_LOG)
                    np.maximum(m, 0.0, out=m)
                assert _same_bits(one, three), (width, start)


class TestReversedLogs:
    """The numpy fact ``_log_binom_row``'s increments rest on: np.log of a
    reversed float64 view has math.log's bits.  Contiguous np.log runs
    numpy's SIMD loop, which differs in 1,948 of the 10^6 quotients at
    n = 10^6 with numpy 2.4.6; a numpy that sends reversed views through
    that loop fails here."""

    @staticmethod
    def _assert_libm_bits(q):
        got = np.log(q[::-1])[::-1]
        want = np.fromiter(map(math.log, q.tolist()), float, q.size)
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert bad.size == 0, (bad.size, q[bad[:3]].tolist())

    # the quotients (n + 1 - k) / k, k = 1..n, of the rows the kernel builds
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 16384, 16385, 2**17, 10**6])
    def test_binomial_quotients(self, n):
        k = np.arange(1, n + 1, dtype=float)
        self._assert_libm_bits((n + 1 - k) / k)

    def test_doubles_over_many_binades(self):
        rng = np.random.default_rng(34)
        size = 200_000
        self._assert_libm_bits(np.ldexp(rng.uniform(1.0, 2.0, size),
                                        rng.integers(-1022, 1024, size)))


class TestRowSumsMemory:
    # tracemalloc peak of a first call over the bytes of its largest block,
    # at n = 12288 on the 2001-point grid.  With two weight vectors: 2.33
    # (the scratch array and the first vector's products in a new array, the
    # per-call [k; ln C; n - k] buffer and its 0, 1, 2, ... at the widest
    # block's width, the ln C(n, k) row the call builds); 2.61 with a second
    # scratch array and a stacked copy of the weights.  New arrays in every
    # block, as ``per_block_kernel`` makes them, gave 3.42 with the row built
    # beforehand.  With one vector: 1.45 (the scratch array and the exp mask
    # over it, the buffers and the row), 2.53 with the second scratch array
    # and the copy, so a bound of 1.8 holds no second block-sized array
    PEAK_BLOCKS = 3.0
    ONE_SET_PEAK_BLOCKS = 1.8

    @staticmethod
    def _peak_and_held(n, xs, weights):
        tracemalloc.start()
        try:
            sums = basis._row_sums(n, xs, weights)
            peak = tracemalloc.get_traced_memory()[1]
            del sums
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        largest = 8 * max(rows.size * (b - a) for rows, a, b, *_ in
                          basis._band_blocks(n, xs, 0, n + 1))
        return peak / largest, held / largest

    def test_peak_within_block_multiple(self):
        n = 12288
        xs = make_grid(Weight(0.513, 1.0), 2001).points
        peak, held = self._peak_and_held(n, xs, list(_weights(n + 1, n).values())[:2])
        assert peak <= self.PEAK_BLOCKS, peak
        # no scratch and no ln C(n, k) row (98 KB) is kept for the next call
        assert held <= 1 / 64, held

    def test_one_set_reads_weights_in_place(self):
        n = 12288
        xs = make_grid(Weight(0.513, 1.0), 2001).points
        peak, held = self._peak_and_held(n, xs, [_weights(n + 1, n)["signed"]])
        assert peak <= self.ONE_SET_PEAK_BLOCKS, peak
        assert held <= 1 / 64, held


class TestSampleVector:
    def test_length_checked(self):
        with pytest.raises(DomainError):
            SampleVector(3, np.zeros(3))

    def test_non_finite_rejected(self):
        vals = np.ones(5)
        vals[2] = np.nan
        with pytest.raises(SampleError) as exc:
            SampleVector(4, vals)
        assert exc.value.x == pytest.approx(0.5)
        # the first bad sample is named by its lattice point k/n
        with pytest.raises(SampleError, match=re.escape(f"non-finite sample at x={1 / 3!r}")):
            SampleVector(3, [0.0, np.inf, np.nan, 1.0])

    def test_values_frozen(self):
        sv = sample_function(lambda x: x, 4)
        with pytest.raises(ValueError):
            sv.values[0] = 1.0


def allocating_sum(terms):
    """Sum2 with a new array for each operation: the reference for the
    cascade in buffers that ``basis._compensated_sum`` runs."""
    terms = iter(terms)
    total = next(terms)
    comp = np.zeros_like(total)
    for term in terms:
        s = total + term
        bp = s - total
        comp += (total - (s - bp)) + (term - bp)
        total = s
    return total + comp


class TestCompensatedSum:
    @pytest.mark.parametrize("shape, count", [((5,), 1), ((5,), 2), ((7, 400), 9),
                                              ((1000,), 17)])
    def test_buffers_keep_bits(self, shape, count):
        # also when each term comes in one buffer, refilled for the next
        rng = np.random.default_rng(count)
        terms = [rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
                 for _ in range(count)]

        def refilled():
            buf = np.empty(shape)
            for term in terms:
                buf[...] = term
                yield buf

        want = allocating_sum(terms)
        for got in (basis._compensated_sum(terms), basis._compensated_sum(refilled())):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestEvaluate:
    def test_sample_error_raised_without_scalar_retry(self):
        calls = []

        def f(x):
            calls.append(np.ndim(x))
            raise SampleError("singular", 0.5)

        with pytest.raises(SampleError):
            evaluate(f, np.linspace(0.0, 1.0, 5))
        assert calls == [1]

    def test_non_finite_value_named(self):
        xs = np.array([0.1, 0.2, 0.3])
        with pytest.raises(SampleError, match="non-finite") as exc:
            evaluate(lambda x: np.where(x > 0.15, np.inf, x), xs)
        assert exc.value.x == 0.2

    def test_constant_broadcast(self):
        np.testing.assert_array_equal(evaluate(lambda x: 7.0, np.zeros(3)), [7.0] * 3)


class TestOperatorApply:
    def test_constant(self):
        sv = SampleVector(16, np.ones(17))
        vals = bernstein_apply_grid(sv, [0.0, 0.3, 0.5, 1.0])
        np.testing.assert_allclose(vals, 1.0, rtol=0, atol=1e-14)

    @given(x=st.floats(0.0, 1.0))
    def test_linear_precision(self, x):
        sv = sample_function(lambda t: t, 50)
        assert bernstein_apply_grid(sv, [x])[0] == pytest.approx(x, abs=1e-12)

    def test_square_identity(self):
        # B_n(t^2, x) = x^2 + x(1-x)/n
        sv = sample_function(lambda t: t * t, 2)
        assert bernstein_apply_grid(sv, [0.5])[0] == pytest.approx(0.375, abs=1e-15)
        sv = sample_function(lambda t: t * t, 10)
        xs = np.array([0.1, 0.37, 0.9])
        want = xs * xs + xs * (1 - xs) / 10
        np.testing.assert_allclose(bernstein_apply_grid(sv, xs), want, rtol=1e-13)

    def test_grid_matches_scalar(self):
        sv = sample_function(lambda t: np.sin(3 * t), 80)
        xs = np.linspace(0.0, 1.0, 23)
        grid_vals = bernstein_apply_grid(sv, xs)
        for x, v in zip(xs, grid_vals):
            assert v == pytest.approx(fsum_apply(sv, float(x)), rel=1e-12)

    def test_several_vectors_match_single_applies(self):
        # one banded reduction serves several weight vectors with the bits
        # of one apply each: compare's plain and modified applies share one
        n = 4095
        xs = np.linspace(0.0, 1.0, 600)
        rng = np.random.default_rng(7)
        vectors = [sample_function(np.sin, n), SampleVector(n, rng.standard_normal(n + 1)),
                   sample_function(lambda t: np.exp(-5.0 * t), n)]
        for some in (vectors[:2], vectors):
            got = basis._row_sums(n, xs, [sv.values for sv in some])
            assert len(got) == len(some)
            for sv, vals in zip(some, got):
                assert np.array_equal(vals, bernstein_apply_grid(sv, xs))

    def test_grid_deterministic(self):
        sv = sample_function(lambda t: np.cos(t), 64)
        xs = np.linspace(0.0, 1.0, 101)
        a = bernstein_apply_grid(sv, xs)
        b = bernstein_apply_grid(sv, xs)
        assert np.array_equal(a, b)


def stencil(kind: str, xs: np.ndarray, h: float, r: int) -> list:
    """The offsets of the weighted modulus's order-r stencils at step h."""
    if kind == "forward_difference":
        return [(r - k) * h for k in range(r + 1)]
    if kind == "backward_difference":
        return [-k * h for k in range(r + 1)]
    phi = np.sqrt(xs * (1.0 - xs))
    return [(r / 2.0 - k) * h * phi for k in range(r + 1)]


def difference(f, xs: np.ndarray, offsets: list, r: int) -> np.ndarray:
    """The order-r differences at ``xs`` that the weighted modulus takes: f
    on each stencil offset, summed as its scan sums them."""
    return _compensated_sum((-1) ** k * math.comb(r, k) * evaluate(f, xs + off)
                            for k, off in enumerate(offsets))


def diff_at(f, kind: str, x: float, h: float, r: int) -> float:
    xs = np.array([x])
    return float(difference(f, xs, stencil(kind, xs, h, r), r)[0])


KINDS = ["forward_difference", "backward_difference", "symmetric_difference"]


class TestFiniteDifferences:
    def test_forward_examples(self):
        kind = "forward_difference"
        assert diff_at(lambda x: 7.0, kind, 0.2, 0.05, 3) == pytest.approx(0.0, abs=1e-14)
        assert diff_at(lambda x: x, kind, 0.2, 0.1, 1) == pytest.approx(0.1, rel=1e-13)
        # r-th difference of x^r is r! h^r
        assert diff_at(lambda x: x * x, kind, 0.2, 0.1, 2) == pytest.approx(0.02, rel=1e-11)
        assert diff_at(lambda x: x**3, kind, 0.1, 0.2, 3) == pytest.approx(0.048, rel=1e-11)

    def test_backward_examples(self):
        kind = "backward_difference"
        assert diff_at(lambda x: 7.0, kind, 0.8, 0.05, 3) == pytest.approx(0.0, abs=1e-14)
        assert diff_at(lambda x: x, kind, 0.2, 0.1, 1) == pytest.approx(0.1, rel=1e-13)
        assert diff_at(lambda x: x * x, kind, 0.9, 0.1, 2) == pytest.approx(0.02, rel=1e-11)

    def test_symmetric_examples(self):
        kind = "symmetric_difference"
        assert diff_at(lambda x: 3.0, kind, 0.5, 0.1, 2) == pytest.approx(0.0, abs=1e-14)
        assert diff_at(lambda x: 2 * x + 1, kind, 0.4, 0.1, 2) == pytest.approx(0.0, abs=1e-13)
        # 2! (h phi(x))^2 with phi(0.5) = 0.5
        assert diff_at(lambda x: x * x, kind, 0.5, 0.2, 2) == pytest.approx(0.02, rel=1e-11)

    @pytest.mark.parametrize("diff", KINDS)
    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_array_matches_scalar(self, diff, r):
        # one array call gives, bit for bit, what each point gives alone;
        # arithmetic-only f, so values cannot depend on the array length
        f = lambda x: x * x * x - 0.3 * x + 0.1
        h = 0.01
        # the extremes put a stencil end within roundoff of 0 or 1
        xs = np.concatenate(([r * h, 0.0, 1.0 - r * h, 1.0],
                             np.linspace(0.2, 0.8, 37)))
        if diff == "forward_difference":
            xs = xs[xs + r * h <= 1.0]
        elif diff == "backward_difference":
            xs = xs[xs - r * h >= 0.0]
        else:
            xs = xs[(xs > 0.1) & (xs < 0.9)]
        got = difference(f, xs, stencil(diff, xs, h, r), r)
        assert got.shape == xs.shape
        np.testing.assert_array_equal(got, [diff_at(f, diff, x, h, r) for x in xs])

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_regions_match_step_sup(self, order, monkeypatch):
        # the scan of one step h (a ladder of one step) differences, region
        # by region, exactly the x whose whole stencil lies in [0, 1], and
        # its modulus is the max of |w * difference|
        weight = Weight(0.513, 1.0)
        grid = make_grid(weight, 401)
        pts = grid.points
        f = lambda x: np.sin(3.0 * x) * np.exp(x)
        calls, seen = [], []

        def called(x):
            calls.append(x.copy())
            return f(x)

        def spy(terms):
            seen.append(_compensated_sum(terms))
            return seen[-1]

        monkeypatch.setattr(smoothness, "_compensated_sum", spy)
        monkeypatch.setattr(smoothness, "_H_COUNT", 1)
        phi = np.sqrt(pts * (1.0 - pts))
        for h in (0.125, 2.0**-5, 2.0**-9):
            cut = 16.0 * h * h
            want, stencils, diffs = 0.0, [], []
            # the middle, the strip at 0 and the strip at 1, in that order
            for kind, near in (("symmetric_difference",
                                (pts >= cut) & (pts <= 1.0 - cut) & (phi > 0.0)),
                               ("forward_difference", pts <= cut),
                               ("backward_difference", pts >= 1.0 - cut)):
                xs = pts[near]
                inside = np.all([(xs + off >= 0.0) & (xs + off <= 1.0)
                                 for off in stencil(kind, xs, h, order)], axis=0)
                xs = xs[inside]
                if xs.size:
                    stencils.append([xs + off for off in stencil(kind, xs, h, order)])
                    diffs.append(difference(f, xs, stencil(kind, xs, h, order), order))
                    want = max(want, float(np.max(np.abs(weight(xs) * diffs[-1]))))
            calls.clear()
            seen.clear()
            assert weighted_modulus(called, order, [h], grid) == (want,)
            # one call of f and one cascade hold every region of the step,
            # its stencil points offset by offset, region by region within
            assert len(calls) == len(seen) == 1
            assert np.array_equal(calls[0], np.concatenate(
                [x for row in zip(*stencils) for x in row]))
            assert np.array_equal(seen[0], np.concatenate(diffs))

    @given(
        r=st.integers(1, 4),
        coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=4),
        x=st.floats(0.3, 0.7),
        h=st.floats(0.01, 0.05),
    )
    def test_differences_annihilate_low_degree(self, r, coeffs, x, h):
        # order-r differences kill polynomials of degree < r
        coeffs = coeffs[:r]
        poly = np.polynomial.Polynomial(coeffs)
        scale = 1.0 + max(abs(c) for c in coeffs)
        for kind in KINDS:
            assert abs(diff_at(poly, kind, x, h, r)) <= 1e-11 * scale
