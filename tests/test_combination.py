"""Degree ladders, combination weights, and combined moments."""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from basis_oracle import libm_row
from hypothesis import given
from hypothesis import strategies as st

from bernblend import (CombinationScheme, DomainError, SampleVector, Weight,
                       bernstein_apply_grid, build_scheme, combine, combine_samples,
                       make_function, make_grid, moment_table, parse_spec,
                       sample_function, solve_coefficients, weighted_norm)
from bernblend import combination
from bernblend.basis import _MERGE_ENTRIES, _compensated_sum
from bernblend.combination import _MOMENT_ENTRIES, _power


def exact_power(d: float, m: int) -> float:
    """float(Fraction(d) ** m): the exact power, rounded once (Python's
    int / int is correctly rounded)."""
    num, den = d.as_integer_ratio()
    return num**m / den**m


def fsum_moment_table(scheme, powers, xs):
    """moment_table summed point by point with math.fsum, each power of
    k/n - x taken exactly and rounded once."""
    out = np.zeros((len(powers), len(xs)))
    for i, x in enumerate(xs):
        for c, n in zip(scheme.coeffs.tolist(), scheme.nodes):
            row = libm_row(n, x).tolist()
            d = (np.arange(n + 1) / n - x).tolist()
            for p, power in enumerate(powers):
                out[p, i] += c * math.fsum(
                    pk * exact_power(dk, power) for pk, dk in zip(row, d))
    return out


def one_shot_moment_table(scheme, powers, xs, power=_power):
    """moment_table's sums with every term of a degree built at once."""
    out = np.zeros((len(powers), xs.size))
    for c, n in zip(scheme.coeffs.tolist(), scheme.nodes):
        rows = np.array([libm_row(n, x) for x in xs.tolist()]).reshape(xs.size, n + 1)
        d = (np.arange(n + 1) / n)[:, None] - xs
        terms = np.stack([rows.T * power(d, m) for m in powers], axis=1)
        out += c * _compensated_sum(terms)
    return out


def moment(scheme, power, x):
    """One combined moment sum_i C_i B_{n_i}((t - x)^power, x)."""
    return moment_table(scheme, [power], [x])[0, 0]


def one(x: float) -> np.ndarray:
    """The single point x as a 1-d array."""
    return np.array([x], dtype=float)


class TestSchedule:
    def test_examples(self):
        assert CombinationScheme(100, 3).nodes == (100, 200, 300)
        assert CombinationScheme(7, 1).nodes == (7,)
        assert CombinationScheme(50, 5).nodes == (50, 100, 150, 200, 250)

    def test_validation(self):
        for base_n, r in ((0, 2), (10, 0), (10, 2.5), (10, 9)):
            with pytest.raises(DomainError):
                CombinationScheme(base_n, r)


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
            ref = solve_coefficients(CombinationScheme(32, r).nodes)
            for base in (100, 997):
                got = solve_coefficients(CombinationScheme(base, r).nodes)
                assert np.array_equal(ref, got)

    @pytest.mark.parametrize("r", range(2, 7))
    def test_against_linear_solver(self, r):
        nodes = CombinationScheme(32, r).nodes
        ys = 1.0 / np.array(nodes, dtype=float)
        vander = np.vander(ys, r, increasing=True).T
        rhs = np.zeros(r)
        rhs[0] = 1.0
        want = np.linalg.solve(vander, rhs)
        np.testing.assert_allclose(solve_coefficients(nodes), want, rtol=1e-9)

    def test_l1_bound(self):
        # sum_i |C_i| of the (i+1)*base_n ladder for r = 1..8 (README lists r <= 4),
        # within 2 ulp of the exact sum; numpy's sum is exact or 1 ulp off
        totals = [1, 3, 9, Fraction(85, 3), Fraction(275, 3), Fraction(4529, 15),
                  Fraction(9065, 9), Fraction(118717, 35)]
        for base in (16, 32, 997, 1000):
            for r, total in enumerate(totals, start=1):
                got = float(np.abs(build_scheme(base, r).coeffs).sum())
                assert abs(Fraction(got) - total) <= 2 * math.ulp(float(total)), (base, r)

    @pytest.mark.parametrize("base", [1, 7, 256, 10**6])
    def test_matches_rounded_fractions(self, base):
        # the exact weights as Fraction products, rounded once by float()
        for r in range(1, 9):
            nodes = CombinationScheme(base, r).nodes
            want = [float(math.prod(Fraction(ni, ni - nj) for nj in nodes if nj != ni))
                    for ni in nodes]
            assert solve_coefficients(nodes).tolist() == want, r

    def test_rejects_bad_schedules(self):
        with pytest.raises(DomainError):
            solve_coefficients([128, 64])
        with pytest.raises(DomainError):
            solve_coefficients([64, 64])
        with pytest.raises(DomainError):
            solve_coefficients([0, 64])
        # degrees are integers, never truncated to the weights of [64, 128]
        with pytest.raises(DomainError):
            solve_coefficients([64.5, 128])


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
        # base_n and r are integers, never truncated
        for base_n, r in ((64.7, 2), (64, 2.9)):
            with pytest.raises(DomainError):
                CombinationScheme(base_n, r)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_sum_and_side_conditions(self, r):
        # sum C_i = 1 and sum C_i / n_i^k = 0 for k = 1..r-1, each within
        # 1e-10 of the sum of the absolute terms
        for base_n in (1, 32, 997, 10**6):
            scheme = build_scheme(base_n, r)
            coeffs = scheme.coeffs
            assert abs(coeffs.sum() - 1.0) <= 1e-10 * max(np.abs(coeffs).sum(), 1.0)
            for k in range(1, r):
                terms = [c * n ** (-k) for c, n in zip(coeffs.tolist(), scheme.nodes)]
                assert abs(math.fsum(terms)) <= 1e-10 * math.fsum(map(abs, terms))


class TestCombine:
    def test_constant_reproduced(self):
        scheme = build_scheme(32, 3)
        got = combine(lambda t: np.ones_like(t), scheme, np.array([0.0, 0.3, 1.0]))
        np.testing.assert_allclose(got, 1.0, rtol=0, atol=1e-12)

    @given(x=st.floats(0.0, 1.0))
    def test_linear_reproduced(self, x):
        scheme = build_scheme(24, 2)
        assert combine(lambda t: t, scheme, one(x))[0] == pytest.approx(x, abs=1e-11)

    def test_square_exact_for_r2(self):
        # the 1/n term of B_n(t^2) cancels across the two-degree ladder
        scheme = build_scheme(40, 2)
        xs = np.array([0.1, 0.45, 0.8])
        np.testing.assert_allclose(combine(lambda t: t * t, scheme, xs), xs * xs,
                                   rtol=0, atol=1e-13)

    def test_array_path_matches_scalar(self):
        scheme = build_scheme(48, 2)
        xs = np.linspace(0.0, 1.0, 17)
        arr = combine(np.sin, scheme, xs)
        # each point alone, as a one-element array, gives its array value
        for x, v in zip(xs, arr):
            assert v == combine(np.sin, scheme, one(x))[0]

    def test_combine_samples_validation(self):
        scheme = build_scheme(32, 2)
        good = [sample_function(np.cos, n) for n in scheme.nodes]
        with pytest.raises(DomainError):
            combine_samples(scheme, good[:1], one(0.5))
        with pytest.raises(DomainError):
            combine_samples(scheme, [good[1], good[0]], one(0.5))
        assert combine_samples(scheme, good, one(0.5))[0] == pytest.approx(
            combine(np.cos, scheme, one(0.5))[0], rel=1e-13
        )


    @pytest.mark.parametrize("base_n", [64, 256, 1024])
    def test_mirrored_samples_mirror_the_combination(self, base_n, weight513):
        # B_n(f(1-.))(1-x) = B_n(f)(x): the same terms summed in reverse order,
        # so the two differ by roundoff, bounded by c eps sum_i |C_i| B_{n_i}(|f|)(x);
        # the worst c measured on these cases is 1.99
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        xs = np.arange(257) / 256.0
        eps = np.finfo(float).eps
        for r in range(1, 9):
            scheme = build_scheme(base_n, r)
            samples = [sample_function(f, n) for n in scheme.nodes]
            mirrored = [SampleVector(sv.n, sv.values[::-1]) for sv in samples]
            got = combine_samples(scheme, mirrored, 1.0 - xs)
            want = combine_samples(scheme, samples, xs)
            size = sum(abs(c) * bernstein_apply_grid(SampleVector(sv.n, np.abs(sv.values)), xs)
                       for c, sv in zip(scheme.coeffs.tolist(), samples))
            assert np.all(np.abs(got - want) <= 8.0 * eps * size), r


def sin_leading_term(r: int, x: np.ndarray) -> np.ndarray:
    """lim n^r (L_n f - f)(x) for f = sin(pi x) and the (i+1)*n ladder
    (Voronovskaya): x(1-x) f''/2 at r = 1, and at r = 2 the n^-2 term of
    B_n f - f times sum_i C_i (i+1)^-2 = -1/2."""
    s, c, pi = np.sin(np.pi * x), np.cos(np.pi * x), np.pi
    if r == 1:
        return x * (1.0 - x) * -pi**2 * s / 2.0
    return -0.5 * (x * (1.0 - x) * (1.0 - 2.0 * x) * -pi**3 * c / 6.0
                   + (x * (1.0 - x))**2 * pi**4 * s / 8.0)


class TestLeadingConstant:
    """n^r (L_n f - f) over its predicted limit, on sin(pi x) at four
    points.  The largest |ratio - 1| measured is 2.30e-3 (r = 1) and 1.90e-3
    (r = 2) at base 1024, and 5.8e-4 and 4.7e-4 at base 4096: the next term
    of the expansion, O(1/n).  At base 16384, r = 2 meets the roundoff of
    the applies (9.2e-4), so larger bases are left out."""

    XS = np.array([0.1, 0.3, 0.513, 0.8])

    def gap(self, base, r):
        f = make_function(parse_spec("smooth_sin:freq=1"), Weight(0.513, 1.0))
        err = combine(f, build_scheme(base, r), self.XS) - f(self.XS)
        return np.max(np.abs(base**r * err / sin_leading_term(r, self.XS) - 1.0))

    @pytest.mark.parametrize("r", [1, 2])
    def test_ratio_tends_to_one(self, r):
        coarse, fine = self.gap(1024, r), self.gap(4096, r)
        assert coarse <= 3e-3 and fine <= 1e-3
        # four times the degree, a quarter of the O(1/n) gap
        assert 3.0 <= coarse / fine <= 5.0


class TestSmoothnessRate:
    """The plain combination's error decays at the rate the input's
    smoothness predicts: n^(-min(alpha + gamma, 2r)/2) for |x - xi|^gamma
    in the weight |x - xi|^alpha, and n^(-min(gamma, r)) for x^gamma at
    alpha = 1 (Ditzian-Totik).  Slopes are fitted on n = 256, 1024, 4096;
    the largest gap measured from the prediction is 0.0039."""

    NS = (256, 1024, 4096)

    def slope(self, f, r, alpha):
        grid = make_grid(Weight(0.513, alpha), 2001)
        errs = [weighted_norm(combine(f, CombinationScheme(n, r), grid.points) - f(grid.points),
                              grid) for n in self.NS]
        return np.polyfit(np.log(self.NS), np.log(errs), 1)[0]

    @pytest.mark.parametrize("alpha,gamma,r", [(1.0, 0.5, 2), (1.0, 1.5, 2), (1.0, 2.5, 2),
                                               (1.0, 2.5, 3), (3.0, 2.5, 1), (3.0, 2.5, 2),
                                               (2.0, 0.7, 1)])
    def test_interior_power(self, alpha, gamma, r):
        slope = self.slope(lambda x: np.abs(x - 0.513) ** gamma, r, alpha)
        assert abs(slope + min(alpha + gamma, 2 * r) / 2) <= 0.02

    @pytest.mark.parametrize("gamma,r", [(0.5, 1), (0.5, 3), (1.5, 1), (1.5, 3)])
    def test_endpoint_power(self, gamma, r):
        slope = self.slope(lambda x: x ** gamma, r, 1.0)
        assert abs(slope + min(gamma, r)) <= 0.02


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
            want, = combine(lambda t: (t - x) ** 3, scheme, one(x))
            assert table[2, i] == pytest.approx(want, abs=1e-15)

    def test_exact_power_rounds_once(self):
        for d in (0.1, -0.7, 1.0 - 2.0**-52, 3e-5, -1e-200):
            for m in (0, 1, 3, 12, 40):
                assert exact_power(d, m) == float(Fraction(d) ** m)

    @pytest.mark.parametrize("base,r", [(32, 1), (64, 2), (256, 3)])
    def test_table_matches_fsum_reference(self, base, r):
        scheme = build_scheme(base, r)
        rng = np.random.default_rng(base)
        xs = np.concatenate([[0.0, 1.0, 0.5, 1e-9, 1.0 - 1e-9], rng.random(40)])
        for powers in ([*range(7), 12, 40], [3, 0, 3, 1]):
            want = fsum_moment_table(scheme, powers, xs.tolist())
            got = moment_table(scheme, powers, xs)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("n", [62, 63, 64, 127, 2000])
    def test_blocks_match_one_shot_sum(self, n, monkeypatch):
        # blocks of 1 and 2 values of k, the default budget (910 k here, so
        # n = 2000 takes three blocks, the last of 181 k) and one block of
        # every k: the same bits, zeros' signs too
        scheme = CombinationScheme(n, 1)
        xs = np.array([0.0, 1e-9, 0.3, 0.5, 0.77, 1.0])
        powers = [0, 1, 2, 3, 5, 6]
        want = one_shot_moment_table(scheme, powers, xs).view(np.uint64)
        per_k = len(powers) * xs.size
        for budget in (per_k, 2 * per_k, _MOMENT_ENTRIES, (n + 1) * per_k):
            monkeypatch.setattr(combination, "_MOMENT_ENTRIES", budget)
            got = moment_table(scheme, powers, xs).view(np.uint64)
            np.testing.assert_array_equal(got, want, err_msg=str(budget))

    @pytest.mark.parametrize("budget", [1, _MOMENT_ENTRIES])
    def test_empty_tables(self, budget, monkeypatch):
        # no powers, no points or neither: no block size divides by zero
        monkeypatch.setattr(combination, "_MOMENT_ENTRIES", budget)
        scheme = build_scheme(32, 2)
        for powers, xs, shape in (([], [0.2, 0.4, 0.6], (0, 3)), ([0, 1], [], (2, 0)),
                                  ([], [], (0, 0))):
            assert moment_table(scheme, powers, xs).shape == shape

    def test_low_powers_keep_numpy_power_bits(self):
        # the benchmark reference stores these rows' roundoff
        scheme = build_scheme(64, 3)
        xs = np.concatenate([[0.0, 1.0, 0.5], np.random.default_rng(7).random(30)])
        want = one_shot_moment_table(scheme, [0, 1, 2], xs, lambda d, m: d**m)
        np.testing.assert_array_equal(moment_table(scheme, [0, 1, 2], xs), want)

    def test_huge_powers_bounded(self):
        # square-and-multiply takes O(log m) products per power
        xs = np.random.default_rng(2).random(400)
        start = time.perf_counter()
        table = moment_table(build_scheme(256, 3), [10**6, 2**40], xs)
        assert time.perf_counter() - start < 5.0
        assert table.shape == (2, 400) and np.isfinite(table).all()

    def test_no_terms_cube(self):
        # 13 row matrices with every term held at once.  Streamed, the peak
        # is the largest degree's rows (2.46 MB) plus the scratch of their
        # build: two band blocks of at most _MERGE_ENTRIES entries each
        # (49,216 at degree 768), 0.93 MB past the rows measured.  A block of terms
        # (2,800 per k) with its power temporaries and the cascade's buffers
        # stays under that, 0.50 MB at the default budget, against 2.37 MB
        # with blocks of 64 k
        scheme, xs = build_scheme(256, 3), np.random.default_rng(3).random(400)
        tracemalloc.start()
        try:
            moment_table(scheme, range(7), xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = xs.size * (scheme.nodes[-1] + 1) * 8
        assert peak < rows + 2 * _MERGE_ENTRIES * 8, peak - rows

    def test_points_validation(self):
        scheme = build_scheme(32, 1)
        for bad in ([[0.1, 0.2]], 0.3):
            with pytest.raises(DomainError, match="xs must be a 1-d array"):
                moment_table(scheme, [1], bad)
        with pytest.raises(DomainError, match=r"x must lie in \[0,1\], got nan"):
            moment_table(scheme, [1], [0.5, float("nan")])

    def test_power_validation(self):
        scheme = build_scheme(32, 1)
        with pytest.raises(DomainError):
            moment(scheme, -1, 0.5)
        with pytest.raises(DomainError):
            moment(scheme, 1.5, 0.5)
