"""Smoothstep polynomial construction, evaluation, and seam smoothness."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from bernblend import (DomainError, psi_eval, smoothstep,
                       solve_psi_coefficients)
from smoothstep_system import (determinant_check, determinant_reference,
                               system_matrix)


def psi_derivative(r, x, m):
    """m-th derivative of the order-r step: 0 outside (0, 1), and for x > 1/2
    that of 1 - psi(1 - x), the form psi_eval evaluates there."""
    der = npoly.polyder(smoothstep._ascending(r), m)
    xs = np.asarray(x, dtype=float)
    vals = np.where(xs <= 0.5, npoly.polyval(xs, der),
                    (-1.0) ** (m + 1) * npoly.polyval(1.0 - xs, der))
    return np.where((xs > 0.0) & (xs < 1.0), vals, 0.0)


class TestCoefficients:
    def test_order_one_exact(self):
        assert solve_psi_coefficients(1).tolist() == [10.0, -15.0, 6.0]

    @pytest.mark.parametrize("r", range(1, 7))
    def test_residual_small(self, r):
        a = system_matrix(r)
        coeffs = solve_psi_coefficients(r)
        rhs = np.zeros(2 * r + 1)
        rhs[0] = 1.0
        resid = a @ coeffs - rhs
        scale = np.abs(a) @ np.abs(coeffs)
        assert np.max(np.abs(resid) / np.maximum(scale, 1.0)) <= 1e-11

    @pytest.mark.parametrize("r,rtol", [(1, 1e-12), (2, 1e-12), (3, 1e-7)])
    def test_against_linear_solver(self, r, rtol):
        # the double solve is trustworthy at these sizes; its forward error
        # tracks the condition number (about 6e10 at r = 3), hence the
        # looser tolerance for the last case
        a = system_matrix(r)
        rhs = np.zeros(2 * r + 1)
        rhs[0] = 1.0
        want = np.linalg.solve(a, rhs)
        np.testing.assert_allclose(solve_psi_coefficients(r), want, rtol=rtol)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_closed_form_solves_system_exactly(self, r):
        # every a_j is an integer below 2^53, so its float is exact, and in
        # integer arithmetic the a_j satisfy each row of the defining system
        coeffs = solve_psi_coefficients(r).tolist()
        ints = [int(a) for a in coeffs]
        assert ints == coeffs and max(map(abs, ints)) < 2**53
        for m in range(2 * r + 1):
            row = sum(math.perm(2 * r + 1 + j, m) * a for j, a in enumerate(ints))
            assert row == (1 if m == 0 else 0)

    def test_order_validation(self):
        for bad in (0, -1, 9, 1.5):
            with pytest.raises(DomainError):
                solve_psi_coefficients(bad)


class TestDeterminant:
    def test_reference_values(self):
        assert determinant_reference(1) == 2.0
        assert determinant_reference(2) == 288.0
        assert determinant_reference(3) == 24883200.0

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_lu_matches_closed_form(self, r):
        assert determinant_check(r) == pytest.approx(determinant_reference(r), rel=1e-9)

    def test_order_four(self):
        assert determinant_check(4) == pytest.approx(determinant_reference(4), rel=1e-7)


class TestValidation:
    def test_coeffs_frozen(self):
        # psi_eval reads one cached array per order; nothing may write to it
        with pytest.raises(ValueError):
            smoothstep._ascending(2)[-1] = 0.0

    def test_eval_order_validation(self):
        for bad in (0, 9, 1.5, True):
            with pytest.raises(DomainError):
                psi_eval(bad, np.array([0.5]))


class TestEvaluation:
    def test_step_values(self):
        vals = psi_eval(1, np.array([0.0, 1.0, -0.5, 2.0, 0.5]))
        assert vals[:4].tolist() == [0.0, 1.0, 0.0, 1.0]
        assert vals[4] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_midpoint_is_half(self, r):
        assert psi_eval(r, np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_range_and_monotonicity(self, r):
        xs = np.linspace(-0.5, 1.5, 2001)
        vals = psi_eval(r, xs)
        assert vals.min() >= -1e-12
        assert vals.max() <= 1.0 + 1e-12
        vals = psi_eval(r, np.linspace(0.0, 1.0, 10_000))
        assert vals.min() >= -1e-10 and vals.max() <= 1.0 + 1e-10
        inner = np.linspace(0.0, 1.0, 1001)
        assert psi_derivative(r, inner, 1).min() >= -1e-12

    def test_scalar_and_array_agree(self):
        xs = np.linspace(-0.2, 1.2, 29)
        arr = psi_eval(2, xs)
        # each point alone, as a one-element array, gives its array value
        for x, v in zip(xs, arr):
            assert psi_eval(2, np.array([x]))[0] == v

    @pytest.mark.parametrize("r", range(1, 9))
    def test_matches_polyval_bits(self, r):
        # the polynomial pieces are numpy.polynomial's polyval, bit for bit
        xs = np.concatenate((np.linspace(-0.5, 1.5, 2001),
                             [-0.0, 0.0, 5e-324, 1e-300, np.nextafter(0.5, 1.0),
                              1.0 - 2.0**-53, np.nextafter(1.0, 2.0)]))
        mid = (xs > 0.0) & (xs < 1.0)
        left, right = mid & (xs <= 0.5), mid & (xs > 0.5)
        want = np.where(xs >= 1.0, 1.0, 0.0)
        want[left] = npoly.polyval(xs[left], smoothstep._ascending(r))
        want[right] = 1.0 - npoly.polyval(1.0 - xs[right], smoothstep._ascending(r))
        got = psi_eval(r, xs)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("coeffs", [[0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0, -0.0],
                                        [1.0, -2.0, 3.0], [0.2, -1.0, 0.5, 0.3],
                                        [1e308, 1e308]])
    def test_horner_is_polyval(self, coeffs):
        xs = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.25, 1.0, 3.0, 1e-300, -1e300])
        c = np.array(coeffs)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = smoothstep._horner(xs, c), npoly.polyval(xs, c)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @given(r=st.integers(1, 4), x=st.floats(0.0, 1.0))
    def test_mirror_identity(self, r, x):
        vals = psi_eval(r, np.array([x, 1.0 - x]))
        assert vals[0] + vals[1] == pytest.approx(1.0, abs=1e-13)


class TestDerivatives:
    def test_first_derivative_values(self):
        # psi'(x) = 30 x^2 (1-x)^2 for r = 1
        assert psi_derivative(1, 0.5, 1) == pytest.approx(1.875, rel=1e-13)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_seam_smoothness(self, r):
        # derivatives through order 2r vanish at both seams, and the
        # one-sided polynomial limit decays like h^(2r+1-i), so halving h
        # must shrink the inside/outside gap by at least a factor ~2
        for i in range(1, 2 * r + 1):
            assert psi_derivative(r, 0.0, i) == 0.0
            assert psi_derivative(r, 1.0, i) == 0.0
            for seam, into in ((0.0, 1.0), (1.0, -1.0)):
                gaps = []
                for h in (1e-3, 5e-4, 2.5e-4):
                    inside = psi_derivative(r, seam + into * h, i)
                    outside = psi_derivative(r, seam - into * h, i)
                    gaps.append(abs(inside - outside))
                assert gaps[1] <= 0.75 * gaps[0] + 1e-12
                assert gaps[2] <= 0.75 * gaps[1] + 1e-12

    def test_mirror_antisymmetry(self):
        # psi'(x) = c x^(2r) (1-x)^(2r), so psi'(x) = psi'(1-x) and
        # psi''(x) = -psi''(1-x): the identity psi_eval mirrors through
        for r in range(1, 5):
            der = npoly.polyder(smoothstep._ascending(r), 1)
            shape = npoly.polymul(npoly.polypow([0, 1], 2 * r), npoly.polypow([1, -1], 2 * r))
            np.testing.assert_allclose(der, der[2 * r] * shape, rtol=1e-12, atol=0)
