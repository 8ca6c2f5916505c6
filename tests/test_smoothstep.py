"""Smoothstep polynomial construction, evaluation, and seam smoothness."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from bernblend import (DomainError, build_smoothstep, determinant_check,
                       determinant_reference, psi_eval, solve_psi_coefficients,
                       system_matrix)


def psi_derivative(poly, x, m):
    """m-th derivative of the step: 0 outside (0, 1), and for x > 1/2 that of
    1 - psi(1 - x), the form psi_eval evaluates there."""
    der = npoly.polyder(poly._ascending, m)
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
        poly = build_smoothstep(2)
        with pytest.raises(ValueError):
            poly.coeffs[0] = 0.0


class TestEvaluation:
    def test_step_values(self):
        poly = build_smoothstep(1)
        vals = psi_eval(poly, np.array([0.0, 1.0, -0.5, 2.0, 0.5]))
        assert vals[:4].tolist() == [0.0, 1.0, 0.0, 1.0]
        assert vals[4] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_midpoint_is_half(self, r):
        assert psi_eval(build_smoothstep(r), np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_range_and_monotonicity(self, r):
        poly = build_smoothstep(r)
        xs = np.linspace(-0.5, 1.5, 2001)
        vals = psi_eval(poly, xs)
        assert vals.min() >= -1e-12
        assert vals.max() <= 1.0 + 1e-12
        vals = psi_eval(poly, np.linspace(0.0, 1.0, 10_000))
        assert vals.min() >= -1e-10 and vals.max() <= 1.0 + 1e-10
        inner = np.linspace(0.0, 1.0, 1001)
        assert psi_derivative(poly, inner, 1).min() >= -1e-12

    def test_scalar_and_array_agree(self):
        poly = build_smoothstep(2)
        xs = np.linspace(-0.2, 1.2, 29)
        arr = psi_eval(poly, xs)
        # each point alone, as a one-element array, gives its array value
        for x, v in zip(xs, arr):
            assert psi_eval(poly, np.array([x]))[0] == v

    @given(r=st.integers(1, 4), x=st.floats(0.0, 1.0))
    def test_mirror_identity(self, r, x):
        poly = build_smoothstep(r)
        vals = psi_eval(poly, np.array([x, 1.0 - x]))
        assert vals[0] + vals[1] == pytest.approx(1.0, abs=1e-13)


class TestDerivatives:
    def test_first_derivative_values(self):
        # psi'(x) = 30 x^2 (1-x)^2 for r = 1
        assert psi_derivative(build_smoothstep(1), 0.5, 1) == pytest.approx(1.875, rel=1e-13)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_seam_smoothness(self, r):
        # derivatives through order 2r vanish at both seams, and the
        # one-sided polynomial limit decays like h^(2r+1-i), so halving h
        # must shrink the inside/outside gap by at least a factor ~2
        poly = build_smoothstep(r)
        for i in range(1, 2 * r + 1):
            assert psi_derivative(poly, 0.0, i) == 0.0
            assert psi_derivative(poly, 1.0, i) == 0.0
            for seam, into in ((0.0, 1.0), (1.0, -1.0)):
                gaps = []
                for h in (1e-3, 5e-4, 2.5e-4):
                    inside = psi_derivative(poly, seam + into * h, i)
                    outside = psi_derivative(poly, seam - into * h, i)
                    gaps.append(abs(inside - outside))
                assert gaps[1] <= 0.75 * gaps[0] + 1e-12
                assert gaps[2] <= 0.75 * gaps[1] + 1e-12

    def test_mirror_antisymmetry(self):
        # psi'(x) = c x^(2r) (1-x)^(2r), so psi'(x) = psi'(1-x) and
        # psi''(x) = -psi''(1-x): the identity psi_eval mirrors through
        for r in range(1, 5):
            der = npoly.polyder(build_smoothstep(r)._ascending, 1)
            shape = npoly.polymul(npoly.polypow([0, 1], 2 * r), npoly.polypow([1, -1], 2 * r))
            np.testing.assert_allclose(der, der[2 * r] * shape, rtol=1e-12, atol=0)
