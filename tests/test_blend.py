"""Patch geometry, Lagrange interpolation, and the blended extension."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernblend import (BlendSpec, DomainError, MinNTooSmall, SampleError,
                       Weight, barycentric_weights, blend_eval,
                       lagrange_interpolant, psi_eval)


def one(x: float) -> np.ndarray:
    """The single point x as a 1-d array."""
    return np.array([x], dtype=float)


def lebesgue_function(nodes, xs):
    """sum_i |l_i(x)|, with the cardinals l_i(x) = w_i prod_{j != i} (x - x_j)."""
    w = barycentric_weights(nodes)
    d = xs[:, None] - nodes[None, :]
    ell = [w[i] * np.delete(d, i, axis=1).prod(axis=1) for i in range(nodes.size)]
    return np.abs(ell).sum(axis=0)


class TestWeight:
    def test_values(self):
        w = Weight(0.5, 1.0)
        assert w(np.array([0.75, 0.5, 0.0, 1.0])).tolist() == [0.25, 0.0, 0.5, 0.5]
        w2 = Weight(0.5, 2.0)
        assert w2(one(0.3))[0] == pytest.approx(0.04, rel=1e-14)

    def test_validation(self):
        for xi, alpha in ((0.0, 1.0), (1.0, 1.0), (-0.2, 1.0), (0.5, 0.0), (0.5, -1.0),
                          (0.5, math.inf), (0.5, math.nan), (math.nan, 1.0)):
            with pytest.raises(DomainError):
                Weight(xi, alpha)

    def test_underflow_everywhere_refused(self):
        # a weight that is 0.0 on all of [0, 1] would zero every weighted
        # value; one that underflows only near xi is kept
        for xi, alpha in ((0.513, 1e308), (0.5, 1075.0), (0.2, 3400.0)):
            with pytest.raises(DomainError) as exc:
                Weight(xi, alpha)
            assert f"|x - {xi!r}|^{alpha!r}" in str(exc.value)
        assert Weight(0.5, 1074.0)(np.array([0.0, 1.0])).tolist() == [5e-324] * 2
        w = Weight(0.513, 1100.0)
        assert 0.0 < w(one(0.0))[0] < 2.2e-308


class TestNodes:
    def test_r1_nodes_are_left_breakpoints(self):
        spec = BlendSpec(100, 1, Weight(0.5, 1.0))
        assert spec.nodes.tolist() == [0.40, 0.30]
        assert spec.nodes.tolist() == [spec.breaks[1], spec.breaks[0]]

    def test_r2_nodes(self):
        assert BlendSpec(100, 2, Weight(0.5, 1.0)).nodes.tolist() == [0.40, 0.35, 0.30]

    def test_too_small_degree(self):
        w = Weight(0.05, 1.0)
        with pytest.raises(MinNTooSmall) as exc:
            BlendSpec(10, 3, w)
        n_min = exc.value.n_min
        assert n_min > 10
        assert BlendSpec(n_min, 3, w).nodes.shape == (4,)
        with pytest.raises(MinNTooSmall):
            BlendSpec(n_min - 1, 3, w)

    @pytest.mark.parametrize("n,r,xi", [
        (100, 1, 0.5), (400, 2, 0.5), (1024, 3, 0.513), (4096, 2, 0.2),
    ])
    def test_distance_band(self, n, r, xi):
        # every node sits between 1/sqrt(n) and (2 sqrt(n)+1)/n left of xi
        nodes = BlendSpec(n, r, Weight(xi, 1.0)).nodes
        assert np.all(np.diff(nodes) < 0.0)
        dist = xi - nodes
        root = math.sqrt(n)
        assert dist.min() >= 1.0 / root - 1e-12
        assert dist.max() <= (2.0 * root + 1.0) / n + 1e-12

    def test_order_validation(self):
        # r and n are integers, never truncated, and r is at most 8
        for n, r in ((100, 0), (400, 2.5), (400, True), (10**6, 9), (400.5, 2)):
            with pytest.raises(DomainError):
                BlendSpec(n, r, Weight(0.5, 1.0))


class TestBreakpoints:
    def test_known_values(self):
        assert BlendSpec(100, 1, Weight(0.5, 1.0)).breaks == (0.30, 0.40, 0.60, 0.70)
        assert BlendSpec(400, 1, Weight(0.5, 1.0)).breaks == (0.40, 0.45, 0.55, 0.60)

    def test_too_small_degree(self):
        with pytest.raises(MinNTooSmall) as exc:
            BlendSpec(16, 1, Weight(0.1, 1.0))
        b = BlendSpec(exc.value.n_min, 1, Weight(0.1, 1.0)).breaks
        assert 0.0 < b[0] < b[1] < 0.1 < b[2] < b[3] < 1.0

    def test_off_center_minimum(self, weight513):
        # at r = 1 the nodes fit from n = 19 on, the window from 21
        with pytest.raises(MinNTooSmall) as exc:
            BlendSpec(20, 1, weight513)
        assert exc.value.n_min == 21
        b = BlendSpec(21, 1, weight513).breaks
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
        for r in range(1, 9):
            with pytest.raises(MinNTooSmall) as exc:
                BlendSpec(4, r, w)
            assert exc.value.n_min == _first_success(lambda m: BlendSpec(m, r, w))

    @pytest.mark.parametrize("xi", [0.05, 0.3, 0.5, 0.513, 0.9, 0.97])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_n_min_admits_window_and_nodes(self, r, xi):
        # the named degree puts the window and r + 1 distinct nodes inside
        # [1/n, 1 - 1/n], whichever of the two is the tighter; one less
        # builds nothing
        w = Weight(xi, 1.0)
        with pytest.raises(MinNTooSmall) as exc:
            BlendSpec(4, r, w)
        n_min = exc.value.n_min
        assert f"need n >= {n_min}" in str(exc.value)
        spec = BlendSpec(n_min, r, w)
        lattice = np.rint(np.concatenate((spec.breaks, spec.nodes)) * n_min)
        assert 1.0 <= lattice.min() and lattice.max() <= n_min - 1.0
        assert np.unique(spec.nodes).size == r + 1
        with pytest.raises(MinNTooSmall):
            BlendSpec(n_min - 1, r, w)

    @pytest.mark.parametrize("xi", [1e-5, 1.0 - 1e-5, 1e-160])
    def test_extreme_center_fails_fast(self, xi):
        # the admissible degree lies far beyond the 1e7 search limit
        w = Weight(xi, 1.0)
        start = time.perf_counter()
        for r in (1, 2):
            with pytest.raises(DomainError, match="no admissible degree"):
                BlendSpec(32, r, w)
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
        got, = lagrange_interpolant(lambda x: x * x, nodes, one(0.5))
        assert got == pytest.approx(0.2498, rel=1e-12)

    def test_node_hit_is_exact(self):
        nodes = np.array([0.48, 0.49])
        f = lambda x: np.sin(x)
        assert lagrange_interpolant(f, nodes, one(0.48))[0] == float(np.sin(0.48))

    @given(a=st.floats(-10, 10), b=st.floats(-10, 10), x=st.floats(0.0, 1.0))
    def test_affine_exact_even_extrapolating(self, a, b, x):
        nodes = np.array([0.3, 0.2, 0.1])
        got, = lagrange_interpolant(lambda t: a + b * t, nodes, one(x))
        assert got == pytest.approx(a + b * x, abs=1e-9 * (1 + abs(a) + abs(b)))

    @given(
        r=st.integers(1, 3),
        coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=4),
        x=st.floats(0.0, 1.0),
    )
    def test_low_degree_reproduction(self, r, coeffs, x, weight_center):
        coeffs = coeffs[: r + 1]
        poly = np.polynomial.Polynomial(coeffs)
        nodes = BlendSpec(400, r, weight_center).nodes
        got, = lagrange_interpolant(poly, nodes, one(x))
        scale = 1.0 + sum(abs(c) for c in coeffs)
        assert got == pytest.approx(float(poly(x)), abs=1e-9 * scale)

    def test_non_finite_node_value(self):
        nodes = np.array([0.3, 0.2])
        f = lambda x: np.where(x == 0.2, np.nan, x)
        with pytest.raises(SampleError) as exc:
            lagrange_interpolant(f, nodes, one(0.5))
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

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_lebesgue_function_on_patch_window(self, r, weight513):
        # the patch nodes and window [b1, b4] scale together with sqrt(n), so
        # the growth factor over the window does not grow with n
        tops = []
        for n in (400, 4096, 65536):
            spec = BlendSpec(n, r, weight513)
            lam = lebesgue_function(spec.nodes, np.linspace(spec.breaks[0], spec.breaks[3], 2001))
            assert lam.min() >= 1.0 - 1e-12
            np.testing.assert_allclose(lebesgue_function(spec.nodes, spec.nodes), 1.0, rtol=1e-15)
            tops.append(lam.max())
        assert max(tops) <= 1.05 * min(tops)
        assert max(tops) <= (7.0, 97.0, 1540.0)[r - 1] + 1e-9


class TestBlendSpec:
    def test_build(self, weight_center):
        spec = BlendSpec(400, 1, weight_center)
        assert spec.n == 400
        assert spec.breaks == (0.40, 0.45, 0.55, 0.60)
        assert spec.nodes.tolist() == [0.45, 0.40]
        # blend_eval reads the smoothstep of the spec's own order
        assert spec.r == 1 and BlendSpec(400, 3, weight_center).r == 3

    def test_validation(self, weight_center):
        # n and r are integers, never truncated (400.9 used to build n=400)
        for n, r in ((400.9, 1), (400, 1.5), (400, True)):
            with pytest.raises(DomainError):
                BlendSpec(n, r, weight_center)

    @settings(max_examples=300)
    @given(n=st.integers(4, 10**6), r=st.integers(1, 8),
           xi=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_geometry(self, n, r, xi):
        # whatever the floor formulas build is ordered around xi, and every
        # node lies between 1/sqrt(n) and (2 sqrt(n) + 1)/n left of it
        try:
            spec = BlendSpec(n, r, Weight(xi, 1.0))
        except (MinNTooSmall, DomainError):
            return
        b1, b2, b3, b4 = spec.breaks
        assert 0.0 < b1 < b2 < b3 < b4 < 1.0 and b2 < xi < b3
        nodes = spec.nodes
        assert np.all(np.diff(nodes) < 0.0)
        assert 0.0 < nodes.min() and nodes.max() < xi
        dist = xi - nodes
        root = math.sqrt(n)
        assert dist.min() >= 1.0 / root - 1e-12
        assert dist.max() <= (2.0 * root + 1.0) / n + 1e-12


@pytest.fixture(scope="module")
def spec(weight_center):
    return BlendSpec(400, 1, weight_center)


class TestBlendEval:
    def test_outside_window_is_f_bitwise(self, spec):
        xs = np.array([0.0, 0.2, spec.breaks[0], spec.breaks[3], 0.9, 1.0])
        assert np.array_equal(blend_eval(np.sin, spec, xs), np.sin(xs))

    def test_inner_window_is_patch(self, spec):
        xs = np.array([spec.breaks[1], 0.5, 0.52, spec.breaks[2]])
        want = lagrange_interpolant(np.sin, spec.nodes, xs)
        assert np.array_equal(blend_eval(np.sin, spec, xs), want)

    def test_transition_band_mixture(self, spec):
        b1, b2, b3, b4 = spec.breaks
        xs = np.array([0.42, 0.44])
        t1 = psi_eval(spec.r, (xs - b1) / (b2 - b1))
        want = (1 - t1) * np.sin(xs) + t1 * lagrange_interpolant(np.sin, spec.nodes, xs)
        np.testing.assert_allclose(blend_eval(np.sin, spec, xs), want, rtol=1e-14)
        xs = np.array([0.56, 0.58])
        t2 = psi_eval(spec.r, (xs - b3) / (b4 - b3))
        want = (1 - t2) * lagrange_interpolant(np.sin, spec.nodes, xs) + t2 * np.sin(xs)
        np.testing.assert_allclose(blend_eval(np.sin, spec, xs), want, rtol=1e-14)

    def test_f_never_sampled_in_inner_window(self, spec):
        b2, b3 = spec.breaks[1], spec.breaks[2]

        def guarded(xs):
            assert not np.any((xs > b2) & (xs < b3)), "f sampled inside the patch core"
            return np.cos(xs)

        xs = np.linspace(0.0, 1.0, 801)
        vals = blend_eval(guarded, spec, xs)
        assert np.all(np.isfinite(vals))

    def test_handles_singular_center(self, spec, weight_center):

        def singular(x):
            return 1.0 / np.abs(x - weight_center.xi)

        v, = blend_eval(singular, spec, one(weight_center.xi))
        assert np.isfinite(v)
        # the patch replaces the blow-up by the bounded interpolant
        assert abs(v) < 100.0

    def test_nan_at_node_rejected(self, spec):

        def bad(xs):
            return np.where(xs == spec.nodes[0], np.nan, xs)

        with pytest.raises(SampleError):
            blend_eval(bad, spec, one(0.5))

    @pytest.mark.parametrize("r", [1, 2, 3, 8])
    def test_equals_formula_on_all_points(self, r):
        # the coefficients, computed on the window (b1, b4) alone, give the
        # values of the blend formula evaluated on every point, bit for bit
        weight = Weight(0.513, 1.0)
        spec = BlendSpec(4096, r, weight)
        xs = np.arange(4097) / 4096
        f = lambda x: np.abs(x - weight.xi) ** -0.5
        b1, b2, b3, b4 = spec.breaks
        t1 = psi_eval(r, (xs - b1) / (b2 - b1))
        t2 = psi_eval(r, (xs - b3) / (b4 - b3))
        fcoef, hcoef = 1.0 - t1 + t2, t1 * (1.0 - t2)
        want = np.zeros(xs.shape)
        fmask, hmask = fcoef != 0.0, hcoef != 0.0
        want[fmask] = fcoef[fmask] * f(xs[fmask])
        want[hmask] += hcoef[hmask] * lagrange_interpolant(f, spec.nodes, xs[hmask])
        got = blend_eval(f, spec, xs)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_f_calls_in_order(self, spec):
        # with breaks (0.40, 0.45, 0.55, 0.60), f is called exactly twice:
        # first on the points whose f-coefficient is nonzero, in their
        # order, and then on the patch nodes
        calls = []

        def recorded(xs):
            calls.append(xs.tolist())
            return np.sin(xs)

        blend_eval(recorded, spec, np.array([0.1, 0.42, 0.47, 0.5, 0.58, 0.9]))
        assert calls == [[0.1, 0.42, 0.58, 0.9], spec.nodes.tolist()]

    def test_first_call_failure_wins(self, spec):
        # an f that fails in both calls raises the first call's SampleError
        with pytest.raises(SampleError) as exc:
            blend_eval(lambda xs: np.full(xs.shape, np.nan), spec, np.array([0.5, 0.42]))
        assert exc.value.x == 0.42

    def test_scalar_and_array_agree(self, spec):
        # each point alone, as a one-element array, gives its value in the
        # whole array bit for bit
        xs = np.linspace(0.0, 1.0, 101)
        arr = blend_eval(np.sin, spec, xs)
        for x, v in zip(xs, arr):
            assert blend_eval(np.sin, spec, one(x))[0] == v

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_polynomial_reproduction(self, r, weight_center):
        spec = BlendSpec(400, r, weight_center)
        poly = np.polynomial.Polynomial([0.3, -1.2] + [0.7] * (r - 1))
        xs = np.linspace(0.0, 1.0, 401)
        np.testing.assert_allclose(
            blend_eval(poly, spec, xs), poly(xs), atol=1e-10
        )

    def test_linearity(self, spec):
        xs = np.linspace(0.0, 1.0, 101)
        f, g = np.sin, np.cos
        combo = blend_eval(lambda x: 2.0 * f(x) - 0.5 * g(x), spec, xs)
        want = 2.0 * blend_eval(f, spec, xs) - 0.5 * blend_eval(g, spec, xs)
        np.testing.assert_allclose(combo, want, rtol=1e-10, atol=1e-13)

    def test_continuous_at_breakpoints(self, spec):
        delta = 1e-7
        breaks = np.array(spec.breaks)
        lo = blend_eval(np.sin, spec, breaks - delta)
        hi = blend_eval(np.sin, spec, breaks + delta)
        assert np.all(np.abs(hi - lo) <= 1e-5)
