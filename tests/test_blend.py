"""Patch geometry, Lagrange interpolation, and the blended extension."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernblend import (BlendSpec, DomainError, MinNTooSmall, SampleError,
                       Weight, barycentric_weights, blend_eval, breakpoints,
                       build_blend_spec, build_smoothstep, interpolation_nodes,
                       lagrange_interpolant, lebesgue_function, psi_eval)


class TestWeight:
    def test_values(self):
        w = Weight(0.5, 1.0)
        assert w(0.75) == 0.25
        assert w(0.5) == 0.0
        np.testing.assert_allclose(w(np.array([0.0, 1.0])), [0.5, 0.5], atol=0)
        w2 = Weight(0.5, 2.0)
        assert w2(0.3) == pytest.approx(0.04, rel=1e-14)

    def test_validation(self):
        for xi, alpha in ((0.0, 1.0), (1.0, 1.0), (-0.2, 1.0), (0.5, 0.0), (0.5, -1.0),
                          (0.5, math.inf), (0.5, math.nan), (math.nan, 1.0)):
            with pytest.raises(DomainError):
                Weight(xi, alpha)


class TestNodes:
    def test_r1_nodes_are_left_breakpoints(self):
        w = Weight(0.5, 1.0)
        nodes = interpolation_nodes(100, 1, w)
        b = breakpoints(100, w)
        assert nodes.tolist() == [0.40, 0.30]
        assert nodes.tolist() == [b[1], b[0]]

    def test_r2_nodes(self):
        nodes = interpolation_nodes(100, 2, Weight(0.5, 1.0))
        assert nodes.tolist() == [0.40, 0.35, 0.30]

    def test_too_small_degree(self):
        with pytest.raises(MinNTooSmall) as exc:
            interpolation_nodes(10, 3, Weight(0.05, 1.0))
        n_min = exc.value.n_min
        assert n_min > 10
        nodes = interpolation_nodes(n_min, 3, Weight(0.05, 1.0))
        assert nodes.shape == (4,)
        with pytest.raises(MinNTooSmall):
            interpolation_nodes(n_min - 1, 3, Weight(0.05, 1.0))

    @pytest.mark.parametrize("n,r,xi", [
        (100, 1, 0.5), (400, 2, 0.5), (1024, 3, 0.513), (4096, 2, 0.2),
    ])
    def test_distance_band(self, n, r, xi):
        # every node sits between 1/sqrt(n) and (2 sqrt(n)+1)/n left of xi
        nodes = interpolation_nodes(n, r, Weight(xi, 1.0))
        assert np.all(np.diff(nodes) < 0.0)
        dist = xi - nodes
        root = math.sqrt(n)
        assert dist.min() >= 1.0 / root - 1e-12
        assert dist.max() <= (2.0 * root + 1.0) / n + 1e-12

    def test_order_validation(self):
        with pytest.raises(DomainError):
            interpolation_nodes(100, 0, Weight(0.5, 1.0))


class TestBreakpoints:
    def test_known_values(self):
        assert breakpoints(100, Weight(0.5, 1.0)) == (0.30, 0.40, 0.60, 0.70)
        assert breakpoints(400, Weight(0.5, 1.0)) == (0.40, 0.45, 0.55, 0.60)

    def test_too_small_degree(self):
        with pytest.raises(MinNTooSmall) as exc:
            breakpoints(16, Weight(0.1, 1.0))
        n_min = exc.value.n_min
        b = breakpoints(n_min, Weight(0.1, 1.0))
        assert 0.0 < b[0] < b[1] < 0.1 < b[2] < b[3] < 1.0

    def test_off_center_minimum(self, weight513):
        with pytest.raises(MinNTooSmall) as exc:
            breakpoints(20, weight513)
        assert exc.value.n_min == 21
        b = breakpoints(21, weight513)
        assert b[1] < 0.513 < b[2]



def _first_success(build) -> int:
    """Smallest degree m >= 4 for which build(m) succeeds, by linear scan."""
    for m in itertools.count(4):
        try:
            build(m)
        except MinNTooSmall:
            continue
        return m


class TestMinimalDegree:
    @pytest.mark.parametrize("xi", [0.05, 0.1, 0.3, 0.513, 0.9, 0.97])
    def test_n_min_matches_linear_scan(self, xi):
        w = Weight(xi, 1.0)
        with pytest.raises(MinNTooSmall) as exc:
            breakpoints(4, w)
        assert exc.value.n_min == _first_success(lambda m: breakpoints(m, w))
        for r in (1, 2, 3):
            with pytest.raises(MinNTooSmall) as exc:
                interpolation_nodes(4, r, w)
            assert exc.value.n_min == _first_success(
                lambda m: interpolation_nodes(m, r, w))

    @pytest.mark.parametrize("xi", [1e-5, 1.0 - 1e-5])
    def test_extreme_center_fails_fast(self, xi):
        # the admissible degree lies far beyond the 1e7 search limit
        w = Weight(xi, 1.0)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="no admissible degree"):
            breakpoints(32, w)
        if xi < 0.5:
            with pytest.raises(DomainError, match="no admissible degree"):
                interpolation_nodes(32, 2, w)
        assert time.perf_counter() - start < 0.5


class TestLagrange:
    def test_barycentric_weights(self):
        np.testing.assert_allclose(
            barycentric_weights(np.array([0.0, 1.0])), [-1.0, 1.0], atol=0
        )
        with pytest.raises(DomainError):
            barycentric_weights(np.array([0.3, 0.3]))

    def test_constant(self):
        nodes = np.array([0.4, 0.3, 0.2])
        xs = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(
            lagrange_interpolant(lambda x: 3.0, nodes, xs), 3.0, atol=1e-12
        )

    def test_two_point_example(self):
        # secant of x^2 through 0.48 and 0.49, extrapolated to 0.5
        nodes = np.array([0.48, 0.49])
        got = lagrange_interpolant(lambda x: x * x, nodes, 0.5)
        assert got == pytest.approx(0.2498, rel=1e-12)

    def test_node_hit_is_exact(self):
        nodes = np.array([0.48, 0.49])
        f = lambda x: np.sin(x)
        assert lagrange_interpolant(f, nodes, 0.48) == float(np.sin(0.48))

    @given(a=st.floats(-10, 10), b=st.floats(-10, 10), x=st.floats(0.0, 1.0))
    def test_affine_exact_even_extrapolating(self, a, b, x):
        nodes = np.array([0.3, 0.2, 0.1])
        got = lagrange_interpolant(lambda t: a + b * t, nodes, x)
        assert got == pytest.approx(a + b * x, abs=1e-9 * (1 + abs(a) + abs(b)))

    @given(
        r=st.integers(1, 3),
        coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=4),
        x=st.floats(0.0, 1.0),
    )
    def test_low_degree_reproduction(self, r, coeffs, x, weight_center):
        coeffs = coeffs[: r + 1]
        poly = np.polynomial.Polynomial(coeffs)
        nodes = interpolation_nodes(400, r, weight_center)
        got = lagrange_interpolant(poly, nodes, x)
        scale = 1.0 + sum(abs(c) for c in coeffs)
        assert got == pytest.approx(float(poly(x)), abs=1e-9 * scale)

    def test_non_finite_node_value(self):
        nodes = np.array([0.3, 0.2])
        f = lambda x: np.where(x == 0.2, np.nan, x)
        with pytest.raises(SampleError) as exc:
            lagrange_interpolant(f, nodes, 0.5)
        assert exc.value.x == 0.2

    def test_lebesgue_function(self):
        nodes = np.array([0.45, 0.40])
        xs = np.linspace(0.0, 1.0, 201)
        lam = lebesgue_function(nodes, xs)
        assert lam.min() >= 1.0 - 1e-12
        np.testing.assert_allclose(lebesgue_function(nodes, nodes), 1.0, atol=0)
        # between the two nodes both cardinals are positive and sum to 1
        assert lebesgue_function(nodes, np.array([0.42]))[0] == pytest.approx(
            1.0, abs=1e-12
        )


class TestBlendSpec:
    def test_build(self, weight_center):
        spec = build_blend_spec(400, 1, weight_center)
        assert spec.n == 400
        assert spec.breaks == (0.40, 0.45, 0.55, 0.60)
        assert spec.nodes.tolist() == [0.45, 0.40]

    def test_validation(self, weight_center):
        good_nodes = np.array([0.45, 0.40])
        good_breaks = (0.40, 0.45, 0.55, 0.60)
        with pytest.raises(DomainError):
            BlendSpec(400, 1, weight_center, good_nodes, (0.45, 0.40, 0.55, 0.60))
        with pytest.raises(DomainError):
            BlendSpec(400, 1, weight_center, np.array([0.40, 0.45]), good_breaks)
        with pytest.raises(DomainError):
            BlendSpec(400, 1, weight_center, np.array([0.55, 0.40]), good_breaks)
        with pytest.raises(DomainError):
            BlendSpec(400, 1, weight_center, np.array([0.45, 0.40, 0.35]), good_breaks)
        with pytest.raises(DomainError):
            BlendSpec(400, 1, Weight(0.7, 1.0), good_nodes, good_breaks)


@pytest.fixture(scope="module")
def setup(weight_center):
    spec = build_blend_spec(400, 1, weight_center)
    step = build_smoothstep(1)
    return spec, step


class TestBlendEval:
    def test_step_order_checked(self, setup, weight_center):
        spec, _ = setup
        with pytest.raises(DomainError):
            blend_eval(np.sin, spec, build_smoothstep(2), 0.5)

    def test_outside_window_is_f_bitwise(self, setup):
        spec, step = setup
        for x in (0.0, 0.2, spec.breaks[0], spec.breaks[3], 0.9, 1.0):
            assert blend_eval(np.sin, spec, step, x) == float(np.sin(x))

    def test_inner_window_is_patch(self, setup):
        spec, step = setup
        for x in (spec.breaks[1], 0.5, 0.52, spec.breaks[2]):
            want = lagrange_interpolant(np.sin, spec.nodes, x)
            assert blend_eval(np.sin, spec, step, x) == want

    def test_transition_band_mixture(self, setup):
        spec, step = setup
        b1, b2, b3, b4 = spec.breaks
        for x in (0.42, 0.44):
            t1 = psi_eval(step, (x - b1) / (b2 - b1))
            want = (1 - t1) * np.sin(x) + t1 * lagrange_interpolant(
                np.sin, spec.nodes, x
            )
            assert blend_eval(np.sin, spec, step, x) == pytest.approx(want, rel=1e-14)
        for x in (0.56, 0.58):
            t2 = psi_eval(step, (x - b3) / (b4 - b3))
            want = (1 - t2) * lagrange_interpolant(np.sin, spec.nodes, x) + t2 * np.sin(x)
            assert blend_eval(np.sin, spec, step, x) == pytest.approx(want, rel=1e-14)

    def test_f_never_sampled_in_inner_window(self, setup):
        spec, step = setup
        b2, b3 = spec.breaks[1], spec.breaks[2]

        def guarded(x):
            xs = np.atleast_1d(np.asarray(x, dtype=float))
            assert not np.any((xs > b2) & (xs < b3)), "f sampled inside the patch core"
            return np.cos(xs)

        xs = np.linspace(0.0, 1.0, 801)
        vals = blend_eval(guarded, spec, step, xs)
        assert np.all(np.isfinite(vals))

    def test_handles_singular_center(self, setup, weight_center):
        spec, step = setup

        def singular(x):
            return 1.0 / np.abs(np.asarray(x) - weight_center.xi)

        v = blend_eval(singular, spec, step, weight_center.xi)
        assert np.isfinite(v)
        # the patch replaces the blow-up by the bounded interpolant
        assert abs(v) < 100.0

    def test_nan_at_node_rejected(self, setup):
        spec, step = setup

        def bad(x):
            xs = np.asarray(x, dtype=float)
            return np.where(xs == spec.nodes[0], np.nan, xs)

        with pytest.raises(SampleError):
            blend_eval(bad, spec, step, 0.5)

    def test_scalar_and_array_agree(self, setup):
        spec, step = setup
        xs = np.linspace(0.0, 1.0, 101)
        arr = blend_eval(np.sin, spec, step, xs)
        for x, v in zip(xs, arr):
            assert blend_eval(np.sin, spec, step, float(x)) == v

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_polynomial_reproduction(self, r, weight_center):
        spec = build_blend_spec(400, r, weight_center)
        step = build_smoothstep(r)
        poly = np.polynomial.Polynomial([0.3, -1.2] + [0.7] * (r - 1))
        xs = np.linspace(0.0, 1.0, 401)
        np.testing.assert_allclose(
            blend_eval(poly, spec, step, xs), poly(xs), atol=1e-10
        )

    def test_linearity(self, setup):
        spec, step = setup
        xs = np.linspace(0.0, 1.0, 101)
        f, g = np.sin, np.cos
        combo = blend_eval(lambda x: 2.0 * f(x) - 0.5 * g(x), spec, step, xs)
        want = 2.0 * blend_eval(f, spec, step, xs) - 0.5 * blend_eval(g, spec, step, xs)
        np.testing.assert_allclose(combo, want, rtol=1e-10, atol=1e-13)

    def test_continuous_at_breakpoints(self, setup):
        spec, step = setup
        delta = 1e-7
        for b in spec.breaks:
            lo = blend_eval(np.sin, spec, step, b - delta)
            hi = blend_eval(np.sin, spec, step, b + delta)
            assert abs(hi - lo) <= 1e-5
