"""The blended combination operator and its 2r-th derivative."""

import numpy as np
import pytest

from bernblend import (DomainError, ModifiedOperator, Weight,
                       bernstein_apply_grid, blend_eval, blended_samples,
                       build_modified_operator, build_smoothstep, combine,
                       fit_rate, make_function, modified_operator,
                       operator_derivative_2r, parse_spec, sample_function,
                       weighted_norm)


@pytest.fixture(scope="module")
def op64(weight513):
    return build_modified_operator(64, 2, weight513)


class TestConstruction:
    def test_build(self, op64):
        assert op64.scheme.nodes == (64, 128)
        assert tuple(s.n for s in op64.specs) == (64, 128)
        assert op64.step.r == 2

    def test_mismatched_step_order(self, op64, weight513):
        with pytest.raises(DomainError):
            ModifiedOperator(
                op64.scheme, weight513, build_smoothstep(1), op64.specs
            )

    def test_wrong_spec_count(self, op64, weight513):
        with pytest.raises(DomainError):
            ModifiedOperator(op64.scheme, weight513, op64.step, op64.specs[:1])

    def test_spec_degree_must_match_ladder(self, op64, weight513):
        wrong = (op64.specs[1], op64.specs[0])
        with pytest.raises(DomainError):
            ModifiedOperator(op64.scheme, weight513, op64.step, wrong)

    def test_weight_must_match_specs(self, op64):
        with pytest.raises(DomainError):
            ModifiedOperator(op64.scheme, Weight(0.3, 1.0), op64.step, op64.specs)


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
                lambda t, s=spec: blend_eval(np.sin, s, op64.step, t), n_i
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
        assert abs(
            combine(np.cos, op64.scheme, 0.513)
            - modified_operator(op64, np.cos, 0.513)
        ) < 1e-3  # cos is smooth, so even inside the window they stay close


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
        want = (
            modified_operator(op, np.sin, x + h)
            - 2.0 * modified_operator(op, np.sin, x)
            + modified_operator(op, np.sin, x - h)
        ) / h**2
        got = operator_derivative_2r(op, np.sin, x)
        assert got == pytest.approx(want, rel=1e-3)

    def test_scalar_and_array_agree(self, weight513):
        op = build_modified_operator(64, 1, weight513)
        xs = np.linspace(0.05, 0.95, 7)
        arr = operator_derivative_2r(op, np.sin, xs)
        for x, v in zip(xs, arr):
            assert operator_derivative_2r(op, np.sin, float(x)) == pytest.approx(
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
        fnorm = weighted_norm(f, weight513, grid513)
        ratios = []
        for n in (64, 128, 256):
            op = build_modified_operator(n, 2, weight513)
            vals = modified_operator(op, f, grid513.points)
            ratios.append(weighted_norm(vals, weight513, grid513) / fnorm)
        slope, _, _ = fit_rate((64, 128, 256), ratios)
        # boundedness means no growth with n; the constant itself can be
        # sizable for oscillatory singular inputs (about 35 here), and a
        # decaying ratio is fine
        assert max(ratios) <= 64.0
        assert slope <= 0.2
