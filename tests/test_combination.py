"""Degree ladders, combination weights, and combined moments."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernblend import (CombinationScheme, DomainError, build_scheme,
                       coefficient_l1_bound, combine, combine_samples,
                       make_schedule, moment_table, sample_function,
                       solve_coefficients)


def moment(scheme, power, x):
    """One combined moment sum_i C_i B_{n_i}((t - x)^power, x)."""
    return moment_table(scheme, [power], [x])[0, 0]


class TestSchedule:
    def test_examples(self):
        assert make_schedule(100, 3) == [100, 200, 300]
        assert make_schedule(7, 1) == [7]
        assert make_schedule(50, 5) == [50, 100, 150, 200, 250]

    def test_validation(self):
        with pytest.raises(DomainError):
            make_schedule(0, 2)
        with pytest.raises(DomainError):
            make_schedule(10, 0)
        with pytest.raises(DomainError):
            make_schedule(10, 2.5)


class TestCoefficients:
    def test_known_weights(self):
        np.testing.assert_allclose(solve_coefficients([64]), [1.0], atol=0)
        np.testing.assert_allclose(solve_coefficients([64, 128]), [-1.0, 2.0], atol=0)
        np.testing.assert_allclose(
            solve_coefficients([100, 200, 300]), [0.5, -4.0, 4.5], atol=0
        )

    def test_base_independent(self):
        # weights depend only on the ladder shape, not on base_n
        for r in range(1, 7):
            ref = solve_coefficients(make_schedule(32, r))
            for base in (100, 997):
                got = solve_coefficients(make_schedule(base, r))
                assert np.array_equal(ref, got)

    @pytest.mark.parametrize("r", range(2, 7))
    def test_against_linear_solver(self, r):
        nodes = make_schedule(32, r)
        ys = 1.0 / np.array(nodes, dtype=float)
        vander = np.vander(ys, r, increasing=True).T
        rhs = np.zeros(r)
        rhs[0] = 1.0
        want = np.linalg.solve(vander, rhs)
        np.testing.assert_allclose(solve_coefficients(nodes), want, rtol=1e-9)

    def test_l1_bound(self):
        assert coefficient_l1_bound(1) == 1.0
        assert coefficient_l1_bound(2) == 3.0
        assert coefficient_l1_bound(3) == 9.0
        for r in range(1, 7):
            cs = solve_coefficients(make_schedule(16, r))
            assert np.abs(cs).sum() == pytest.approx(coefficient_l1_bound(r), rel=1e-12)

    def test_rejects_bad_schedules(self):
        with pytest.raises(DomainError):
            solve_coefficients([128, 64])
        with pytest.raises(DomainError):
            solve_coefficients([64, 64])
        with pytest.raises(DomainError):
            solve_coefficients([0, 64])


class TestScheme:
    def test_build(self):
        scheme = build_scheme(64, 2)
        assert scheme.r == 2
        assert scheme.nodes == (64, 128)
        assert scheme.base_n == 64
        np.testing.assert_allclose(scheme.coeffs, [-1.0, 2.0], atol=0)

    def test_coeffs_frozen(self):
        scheme = build_scheme(64, 2)
        with pytest.raises(ValueError):
            scheme.coeffs[0] = 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            CombinationScheme(2, (128, 64), np.array([2.0, -1.0]))
        with pytest.raises(DomainError):
            CombinationScheme(2, (64, 128), np.array([-1.0, 2.5]))
        with pytest.raises(DomainError):
            # sums to 1 but fails the reciprocal-degree side condition
            CombinationScheme(2, (64, 128), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            # valid weights, but the top degree exceeds r * base_n
            CombinationScheme(2, (64, 256), np.array([-1.0 / 3.0, 4.0 / 3.0]))
        with pytest.raises(DomainError):
            CombinationScheme(2, (64,), np.array([1.0]))


class TestCombine:
    def test_constant_reproduced(self):
        scheme = build_scheme(32, 3)
        for x in (0.0, 0.3, 1.0):
            assert combine(lambda t: np.ones_like(t), scheme, x) == pytest.approx(
                1.0, abs=1e-12
            )

    @given(x=st.floats(0.0, 1.0))
    def test_linear_reproduced(self, x):
        scheme = build_scheme(24, 2)
        assert combine(lambda t: t, scheme, x) == pytest.approx(x, abs=1e-11)

    def test_square_exact_for_r2(self):
        # the 1/n term of B_n(t^2) cancels across the two-degree ladder
        scheme = build_scheme(40, 2)
        for x in (0.1, 0.45, 0.8):
            assert combine(lambda t: t * t, scheme, x) == pytest.approx(
                x * x, abs=1e-13
            )

    def test_array_path_matches_scalar(self):
        scheme = build_scheme(48, 2)
        xs = np.linspace(0.0, 1.0, 17)
        arr = combine(np.sin, scheme, xs)
        for x, v in zip(xs, arr):
            assert v == pytest.approx(combine(np.sin, scheme, float(x)), rel=1e-12)

    def test_combine_samples_validation(self):
        scheme = build_scheme(32, 2)
        good = [sample_function(np.cos, n) for n in scheme.nodes]
        with pytest.raises(DomainError):
            combine_samples(scheme, good[:1], 0.5)
        with pytest.raises(DomainError):
            combine_samples(scheme, [good[1], good[0]], 0.5)
        assert combine_samples(scheme, good, 0.5) == pytest.approx(
            combine(np.cos, scheme, 0.5), rel=1e-13
        )


class TestMoments:
    def test_first_moment_vanishes(self):
        for r in (1, 2, 3):
            scheme = build_scheme(32, r)
            for x in (0.2, 0.5, 0.9):
                assert abs(moment(scheme, 1, x)) <= 1e-12

    def test_single_degree_second_moment(self):
        # B_n((t-x)^2, x) = x(1-x)/n
        scheme = build_scheme(64, 1)
        assert moment(scheme, 2, 0.25) == pytest.approx(0.1875 / 64, rel=1e-10)

    def test_ladder_kills_low_moments(self):
        # central moments of power j have only n^(-k) terms with k <= j-1,
        # all of which the order-r ladder removes for j <= r
        for r in (2, 3):
            scheme = build_scheme(32, r)
            for j in range(1, r + 1):
                for x in (0.25, 0.5, 0.7):
                    assert abs(moment(scheme, j, x)) <= 1e-10

    def test_surviving_moment_decays_like_n_to_minus_r(self):
        # for power r+1 the leading surviving term is a multiple of n^(-r)
        vals = []
        for base in (32, 64, 128):
            scheme = build_scheme(base, 2)
            vals.append(abs(moment(scheme, 3, 0.3)))
        assert vals[0] == pytest.approx(0.042 / 32**2, rel=1e-6)
        assert vals[0] / vals[1] == pytest.approx(4.0, rel=1e-3)
        assert vals[1] / vals[2] == pytest.approx(4.0, rel=1e-3)

    def test_table_matches_combined_operator(self):
        # each entry equals the combination applied to (t - x)^power, and a
        # row does not depend on which other powers share the table
        scheme = build_scheme(32, 2)
        xs = np.array([0.1, 0.4, 0.6])
        table = moment_table(scheme, [0, 2, 3], xs)
        assert table.shape == (3, 3)
        np.testing.assert_allclose(table[0], np.ones(3), atol=1e-12)
        np.testing.assert_array_equal(table[1], moment_table(scheme, [2], xs)[0])
        for i, x in enumerate(xs):
            want = combine(lambda t: (t - x) ** 3, scheme, float(x))
            assert table[2, i] == pytest.approx(want, abs=1e-15)

    def test_power_validation(self):
        scheme = build_scheme(32, 1)
        with pytest.raises(DomainError):
            moment(scheme, -1, 0.5)
        with pytest.raises(DomainError):
            moment(scheme, 1.5, 0.5)
