"""Bernstein basis values, operator application, and finite differences."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernblend import (DomainError, SampleError, SampleVector,
                       backward_difference, basis_matrix, basis_row,
                       bernstein_apply_grid, evaluate, forward_difference,
                       log_binomial, sample_function, symmetric_difference)


def exact_basis(n: int, k: int, num: int, den: int) -> float:
    """p_{nk}(num/den) in exact rational arithmetic."""
    x = Fraction(num, den)
    return float(math.comb(n, k) * x**k * (1 - x) ** (n - k))


def basis_value(n, k, x):
    """Single basis value p_{nk}(x), through a one-index row."""
    return basis_row(n, x, [k])[0]


def fsum_apply(samples, x):
    """B_n(f, x) summed exactly (math.fsum) over one full basis row."""
    return math.fsum((basis_row(samples.n, x) * samples.values).tolist())


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
            basis_value(5, 6, 0.5)
        with pytest.raises(DomainError):
            basis_value(5, -1, 0.5)
        with pytest.raises(DomainError):
            basis_value(0, 0, 0.5)
        with pytest.raises(DomainError):
            basis_value(5, 2, 1.5)
        # a float index is rejected, never truncated to an integer
        for k in (2.0, 2.7):
            with pytest.raises(DomainError):
                basis_value(5, k, 0.5)
            with pytest.raises(DomainError):
                basis_matrix(5, np.array([0.5]), [k])

    def test_log_binomial_matches_exact(self):
        for n, k in [(10, 3), (100, 50), (4096, 2000)]:
            want = math.log(math.comb(n, k))
            assert log_binomial(n, k) == pytest.approx(want, rel=1e-13)
        with pytest.raises(DomainError):
            log_binomial(10, 11)


class TestRowsAndMatrices:
    def test_row_matches_scalar(self):
        row = basis_row(37, 0.3)
        for k in (0, 5, 18, 37):
            assert row[k] == basis_value(37, k, 0.3)
            assert row[k] == pytest.approx(exact_basis(37, k, 3, 10), rel=1e-13)

    def test_restricted_indices(self):
        ks = np.array([2, 5, 9])
        full = basis_row(12, 0.41)
        np.testing.assert_allclose(basis_row(12, 0.41, ks), full[ks], rtol=1e-14)
        with pytest.raises(DomainError):
            basis_row(12, 0.41, np.array([13]))

    def test_matrix_matches_rows(self):
        xs = np.array([0.0, 0.2, 0.5, 0.77, 1.0])
        mat = basis_matrix(20, xs)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(mat[i], basis_row(20, float(x)), rtol=1e-13)

    def test_matrix_rejects_bad_points(self):
        with pytest.raises(DomainError):
            basis_matrix(10, np.array([0.5, 1.2]))
        with pytest.raises(DomainError):
            basis_matrix(10, np.array([[0.5]]))

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

    def test_values_frozen(self):
        sv = sample_function(lambda x: x, 4)
        with pytest.raises(ValueError):
            sv.values[0] = 1.0


class TestEvaluate:
    def test_sample_error_raised_without_scalar_retry(self):
        calls = []

        def f(x):
            calls.append(np.ndim(x))
            raise SampleError("singular", 0.5)

        with pytest.raises(SampleError):
            evaluate(f, np.linspace(0.0, 1.0, 5))
        assert calls == [1]

    def test_scalar_only_function_falls_back(self):
        calls = []

        def f(x):
            calls.append(np.ndim(x))
            return math.cos(x)

        xs = np.linspace(0.0, 1.0, 5)
        np.testing.assert_array_equal(evaluate(f, xs), [math.cos(x) for x in xs])
        assert calls == [1, 0, 0, 0, 0, 0]

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

    def test_grid_deterministic(self):
        sv = sample_function(lambda t: np.cos(t), 64)
        xs = np.linspace(0.0, 1.0, 101)
        a = bernstein_apply_grid(sv, xs)
        b = bernstein_apply_grid(sv, xs)
        assert np.array_equal(a, b)


class TestFiniteDifferences:
    def test_forward_examples(self):
        assert forward_difference(lambda x: 7.0, 0.2, 0.05, 3) == pytest.approx(0.0, abs=1e-14)
        assert forward_difference(lambda x: x, 0.2, 0.1, 1) == pytest.approx(0.1, rel=1e-13)
        # r-th difference of x^r is r! h^r
        assert forward_difference(lambda x: x * x, 0.2, 0.1, 2) == pytest.approx(0.02, rel=1e-11)

    def test_backward_examples(self):
        assert backward_difference(lambda x: 7.0, 0.8, 0.05, 3) == pytest.approx(0.0, abs=1e-14)
        assert backward_difference(lambda x: x, 0.2, 0.1, 1) == pytest.approx(0.1, rel=1e-13)
        assert backward_difference(lambda x: x * x, 0.9, 0.1, 2) == pytest.approx(0.02, rel=1e-11)

    def test_symmetric_examples(self):
        assert symmetric_difference(lambda x: 3.0, 0.5, 0.1, 2) == pytest.approx(0.0, abs=1e-14)
        assert symmetric_difference(lambda x: 2 * x + 1, 0.4, 0.1, 2) == pytest.approx(0.0, abs=1e-13)
        # 2! (h phi(x))^2 with phi(0.5) = 0.5
        assert symmetric_difference(lambda x: x * x, 0.5, 0.2, 2) == pytest.approx(0.02, rel=1e-11)

    def test_stencils_must_stay_inside(self):
        with pytest.raises(DomainError):
            forward_difference(lambda x: x, 0.95, 0.1, 1)
        with pytest.raises(DomainError):
            backward_difference(lambda x: x, 0.05, 0.1, 1)
        with pytest.raises(DomainError):
            symmetric_difference(lambda x: x, 0.02, 0.5, 2)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            forward_difference(lambda x: x, 0.2, -0.1, 1)
        with pytest.raises(DomainError):
            forward_difference(lambda x: x, 0.2, 0.1, 0)
        with pytest.raises(DomainError):
            forward_difference(lambda x: x, 1.5, 0.1, 1)

    @pytest.mark.parametrize("diff", [forward_difference, backward_difference,
                                      symmetric_difference])
    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_array_matches_scalar(self, diff, r):
        # arithmetic-only f, so values cannot depend on the array length
        f = lambda x: x * x * x - 0.3 * x + 0.1
        h = 0.01
        # the extremes put a stencil end within roundoff of 0 or 1
        xs = np.concatenate(([r * h, 0.0, 1.0 - r * h, 1.0],
                             np.linspace(0.2, 0.8, 37)))
        if diff is forward_difference:
            xs = xs[xs + r * h <= 1.0]
        elif diff is backward_difference:
            xs = xs[xs - r * h >= 0.0]
        else:
            xs = xs[(xs > 0.1) & (xs < 0.9)]
        got = diff(f, xs, h, r)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        want = [diff(f, float(x), h, r) for x in xs]
        assert all(isinstance(w, float) for w in want)
        np.testing.assert_array_equal(got, want)

    def test_array_stencil_leaving_raises(self):
        xs = np.array([0.2, 0.5, 0.95])
        with pytest.raises(DomainError):
            forward_difference(lambda x: x, xs, 0.1, 1)
        with pytest.raises(DomainError):
            forward_difference(lambda x: x, np.array([[0.2]]), 0.1, 1)
        with pytest.raises(DomainError):
            backward_difference(lambda x: x, np.array([0.5, np.nan]), 0.1, 1)

    def test_array_stencil_clamps_roundoff(self):
        # x + 3*0.1 overshoots 1 by one ulp; the point is clamped to 1
        seen = []

        def f(x):
            seen.append(np.max(x))
            return np.asarray(x)

        x = 0.7000000000000002
        assert x + 3 * 0.1 > 1.0
        got = forward_difference(f, np.array([x]), 0.1, 3)
        assert max(seen) == 1.0
        assert got[0] == pytest.approx(0.0, abs=1e-15)

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
        assert abs(forward_difference(poly, x, h, r)) <= 1e-11 * scale
        assert abs(backward_difference(poly, x, h, r)) <= 1e-11 * scale
        assert abs(symmetric_difference(poly, x, h, r)) <= 1e-11 * scale
