"""The blended combination operator and its 2r-th derivative."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from operator_oracle import modified_operator_oracle

from bernblend import (DomainError, SampleVector, basis_matrix,
                       bernstein_apply_grid, blend_eval, blended_samples,
                       build_modified_operator, combine, fit_rate,
                       make_function, modified_operator,
                       operator_derivative_2r, parse_spec, sample_function,
                       weighted_norm)
from bernblend.operators import lattice_derivative


@pytest.fixture(scope="module")
def op64(weight513):
    return build_modified_operator(64, 2, weight513)


class TestConstruction:
    def test_build(self, op64):
        assert op64.scheme.nodes == (64, 128)
        assert tuple(s.n for s in op64.specs) == (64, 128)
        # every spec has the operator's order, which blend_eval's smoothstep reads, and weight
        assert all(s.r == 2 and s.weight is op64.weight for s in op64.specs)


class TestApplication:
    def test_blended_samples_shapes(self, op64):
        svs = blended_samples(op64, np.sin)
        assert [sv.n for sv in svs] == [64, 128]

    def test_samples_match_f_outside_window(self, op64):
        svs = blended_samples(op64, np.sin)
        for sv, spec in zip(svs, op64.specs):
            lattice = np.arange(sv.n + 1) / sv.n
            outside = (lattice <= spec.breaks[0]) | (lattice >= spec.breaks[3])
            np.testing.assert_array_equal(
                sv.values[outside], np.sin(lattice[outside])
            )

    def test_constant_reproduced(self, op64):
        xs = np.linspace(0.0, 1.0, 41)
        vals = modified_operator(op64, lambda x: np.ones_like(np.asarray(x)), xs)
        np.testing.assert_allclose(vals, 1.0, atol=1e-12)

    def test_affine_reproduced(self, op64):
        xs = np.linspace(0.0, 1.0, 41)
        vals = modified_operator(op64, lambda x: 2.0 - 3.0 * np.asarray(x), xs)
        np.testing.assert_allclose(vals, 2.0 - 3.0 * xs, atol=1e-10)

    def test_composition_route(self, op64):
        # rebuild the operator from its public pieces and compare
        xs = np.linspace(0.0, 1.0, 41)
        want = np.zeros_like(xs)
        for c, n_i, spec in zip(op64.scheme.coeffs, op64.scheme.nodes, op64.specs):
            sv = sample_function(
                lambda t, s=spec: blend_eval(np.sin, s, t), n_i
            )
            want = want + c * bernstein_apply_grid(sv, xs)
        got = modified_operator(op64, np.sin, xs)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_linearity(self, op64):
        xs = np.linspace(0.0, 1.0, 31)
        combo = modified_operator(op64, lambda x: 2.0 * np.sin(x) - 0.5 * np.cos(x), xs)
        want = 2.0 * modified_operator(op64, np.sin, xs) - 0.5 * modified_operator(
            op64, np.cos, xs
        )
        np.testing.assert_allclose(combo, want, rtol=1e-10, atol=1e-13)

    def test_singular_function_handled(self, op64, weight513, grid513):
        # f blows up at the weight center; the blend caps it on the lattice
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        vals = modified_operator(op64, f, grid513.points)
        assert np.all(np.isfinite(vals))

    def test_plain_combination_is_unblended(self, op64):
        # plain and blended agree bit-for-bit far from the patch window
        xs = np.array([0.0, 0.05, 0.1, 0.95, 1.0])
        plain = combine(np.sin, op64.scheme, xs)
        blended = modified_operator(op64, np.sin, xs)
        np.testing.assert_allclose(plain, blended, atol=1e-12)
        # but differ materially inside it for a function the patch replaces
        at = np.array([0.513])
        assert abs(
            combine(np.cos, op64.scheme, at) - modified_operator(op64, np.cos, at)
        )[0] < 1e-3  # cos is smooth, so even inside the window they stay close


class TestDerivative:
    def test_annihilates_low_degree(self, weight513):
        # the blend reproduces degree <= r, the ladder kills the 1/n terms,
        # so the 2r-th derivative of the result is pure roundoff
        op1 = build_modified_operator(64, 1, weight513)
        xs = np.array([0.1, 0.3, 0.7])
        vals = operator_derivative_2r(op1, lambda x: 1.0 - 0.5 * np.asarray(x), xs)
        assert np.max(np.abs(vals)) <= 1e-10 * 128**2

        op2 = build_modified_operator(64, 2, weight513)
        vals = operator_derivative_2r(op2, lambda x: np.asarray(x) ** 2, xs)
        assert np.max(np.abs(vals)) <= 1e-10 * 128**4

    def test_matches_finite_difference(self, weight513):
        op = build_modified_operator(64, 1, weight513)
        x, h = 0.3, 1e-3
        vals = modified_operator(op, np.sin, np.array([x + h, x, x - h]))
        want = (vals[0] - 2.0 * vals[1] + vals[2]) / h**2
        got, = operator_derivative_2r(op, np.sin, np.array([x]))
        assert got == pytest.approx(want, rel=1e-3)

    @pytest.mark.parametrize("order", [1, 2, 4, 6])
    def test_lattice_diffs_match_fsum(self, order, weight513):
        # each derived sample within 1 ulp of n!/(n-order)! times the per-k
        # math.fsum of the difference's terms
        rng = np.random.default_rng(order)
        lattice = np.arange(257) / 256
        op = build_modified_operator(256, 3, weight513)
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        cases = [rng.standard_normal(257), np.sin(3.0 * lattice), lattice**7,
                 1e200 * np.exp(lattice), *(sv.values for sv in blended_samples(op, f))]
        coeffs = [(-1) ** j * math.comb(order, j) for j in range(order + 1)]
        for values in cases:
            vals, n = values.tolist(), values.size - 1
            want = float(math.perm(n, order)) * np.array([
                math.fsum(c * vals[k + order - j] for j, c in enumerate(coeffs))
                for k in range(len(vals) - order)
            ])
            got = lattice_derivative(SampleVector(n, values), order)
            assert got.n == n - order
            assert np.all(np.abs(got.values - want) <= np.spacing(np.abs(want)))

    def test_lattice_derivative_needs_degree_above_order(self):
        for n in (1, 3, 4):
            with pytest.raises(DomainError):
                lattice_derivative(SampleVector(n, np.ones(n + 1)), 4)

    # the worst |got - fsum| over these cases is 2.5 eps * sum |terms|
    # (r = 3, base 128)
    FSUM_BOUND = 4.0

    def test_derivative_matches_dense_sum(self, weight513):
        # within 4 eps * sum |terms| of math.fsum over the terms
        # C_i * n_i!/(n_i - 2r)! * p_{n_i - 2r, k}(x) * dm_k of every degree,
        # with dm_k the correctly rounded lattice difference
        eps = np.finfo(float).eps
        xs = np.linspace(0.0, 1.0, 301)
        for r, base in itertools.product((1, 2, 3), (64, 128, 256)):
            order = 2 * r
            coeffs = [(-1) ** j * math.comb(order, j) for j in range(order + 1)]
            op = build_modified_operator(base, r, weight513)
            for f in (np.cos, np.sin, np.exp):
                parts = []
                for c, n_i, sv in zip(op.scheme.coeffs.tolist(), op.scheme.nodes,
                                      blended_samples(op, f)):
                    vals = sv.values.tolist()
                    diffs = np.array([
                        math.fsum(cj * vals[k + order - j] for j, cj in enumerate(coeffs))
                        for k in range(n_i + 1 - order)])
                    weight = c * float(math.perm(n_i, order))
                    parts.append(weight * basis_matrix(n_i - order, xs) * diffs)
                terms = np.concatenate(parts, axis=1)
                got = operator_derivative_2r(op, f, xs)
                for i, row in enumerate(terms):
                    bound = self.FSUM_BOUND * eps * np.abs(row).sum()
                    assert abs(got[i] - math.fsum(row.tolist())) <= bound, (r, base, f, i)

    def test_scalar_and_array_agree(self, weight513):
        op = build_modified_operator(64, 1, weight513)
        xs = np.linspace(0.05, 0.95, 7)
        arr = operator_derivative_2r(op, np.sin, xs)
        # each point alone, as a one-element array, gives its array value
        for x, v in zip(xs, arr):
            assert operator_derivative_2r(op, np.sin, np.array([x]))[0] == pytest.approx(
                v, rel=1e-12, abs=1e-10
            )


class TestWeightedStability:
    @pytest.mark.parametrize("key", [
        "smooth_sin:freq=1",
        "smooth_poly:coeffs=0.2;-1.0;0.5;0.3",
        "singular_power:beta=0.5",
        "singular_osc:beta=0.75",
    ])
    def test_bounded_uniformly_in_n(self, key, weight513, grid513):
        # the weighted sup of the operator output stays comparable to the
        # weighted sup of the input as n grows
        f = make_function(parse_spec(key), weight513)
        fnorm = weighted_norm(f(grid513.points), grid513)
        ratios = []
        for n in (64, 128, 256):
            op = build_modified_operator(n, 2, weight513)
            vals = modified_operator(op, f, grid513.points)
            ratios.append(weighted_norm(vals, grid513) / fnorm)
        slope, _, _ = fit_rate((64, 128, 256), ratios)
        # boundedness means no growth with n; the constant itself can be
        # sizable for oscillatory singular inputs (about 35 here), and a
        # decaying ratio is fine
        assert max(ratios) <= 64.0
        assert slope <= 0.2


class TestIndependentOracle:
    # the closed forms of the two kinds, in mpmath at the exact xi = 0.513
    CLOSED_FORMS = {
        "singular_power:beta=0.5": lambda x: abs(x - mpmath.mpf(0.513)) ** mpmath.mpf(-0.5),
        "smooth_sin:freq=1": lambda x: mpmath.sin(mpmath.pi * x),
    }
    POINTS = [0.1, 0.3, 0.45, 0.513, 0.58, 0.7, 0.9]

    @pytest.mark.parametrize("key", CLOSED_FORMS)
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("n", [64, 256])
    def test_agrees_to_its_conditioning(self, n, r, key, weight513):
        # |L* f - oracle| / |oracle| <= c eps cond n, with
        # cond = sum_i,k |C_i p_k g_k| / |L* f|; the measured max of
        # err / (eps cond n) is 0.70 (n = 64, r = 3, sin at x = 0.58) and at
        # most 0.29 elsewhere, so c = 2
        op = build_modified_operator(n, r, weight513)
        b1, *_, b4 = op.specs[0].breaks
        assert any(b1 < x < b4 for x in self.POINTS) and not all(b1 < x < b4 for x in self.POINTS)
        got = modified_operator(op, make_function(parse_spec(key), weight513),
                                np.array(self.POINTS))
        want = modified_operator_oracle(self.CLOSED_FORMS[key], n, r, 0.513, self.POINTS)
        eps = np.finfo(float).eps
        for x, value, (exact, size) in zip(self.POINTS, got.tolist(), want):
            err = abs((value - exact) / exact)
            assert err <= 2.0 * eps * (size / abs(exact)) * n, x
