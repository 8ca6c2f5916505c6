"""Weighted norms, evaluation grids, and the weighted modulus of smoothness."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernblend import (DEFAULT_KEYS, DomainError, EvaluationGrid,
                       ModulusParams, SampleError, Weight, make_function,
                       make_grid, parse_spec, smoothness, weighted_modulus,
                       weighted_norm)


class TestGrid:
    def test_structure(self, grid_center, weight_center):
        pts = grid_center.points
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert np.all(np.diff(pts) > 0.0)
        assert np.min(np.abs(pts - 0.5)) > 1e-12
        near = np.count_nonzero(np.abs(pts - 0.5) <= 0.05)
        assert near >= math.ceil(grid_center.size / 4)

    def test_points_frozen(self, grid_center):
        with pytest.raises(ValueError):
            grid_center.points[0] = 0.5

    def test_size_floor(self, weight_center):
        with pytest.raises(DomainError):
            make_grid(weight_center, 8)

    def test_size_ceiling(self, weight_center):
        with pytest.raises(DomainError, match="at most"):
            make_grid(weight_center, 10**6 + 1)

    def test_size_is_an_integer(self, weight_center):
        with pytest.raises(DomainError, match="integer"):
            make_grid(weight_center, 100.5)

    def test_validation(self):
        # a center within 1e-12 of an endpoint would push that endpoint off
        # the grid; the error names the center
        for xi in (1e-12, 1e-13, 5e-324, 1.0 - 1e-12, 1.0 - 2.0**-53):
            with pytest.raises(DomainError, match=f"xi={xi!r}"):
                EvaluationGrid(Weight(xi, 1.0), 401)

    @pytest.mark.parametrize("size", [16, 17, 401, 2001])
    @pytest.mark.parametrize("xi", [1e-11, 1e-9, 0.05, 0.5, 0.513, 1.0 - 1e-9])
    def test_properties(self, xi, size):
        grid = EvaluationGrid(Weight(xi, 1.0), size)
        pts = grid.points
        assert grid.size == size
        assert np.all(np.diff(pts) > 0.0)
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert np.min(np.abs(pts - xi)) > 1e-12
        assert not pts.flags.writeable
        assert np.array_equal(make_grid(Weight(xi, 1.0), size).points, pts)


def norm_of(f, weight, grid):
    """The weighted norm of f's values on the grid points."""
    return weighted_norm(f(grid.points), weight, grid)


class TestWeightedNorm:
    def test_zero(self, weight_center, grid_center):
        assert norm_of(lambda x: np.zeros_like(x), weight_center, grid_center) == 0.0

    def test_constant(self, weight_center, grid_center):
        got = norm_of(lambda x: np.ones_like(x), weight_center, grid_center)
        assert got == 0.5

    def test_identity(self, weight_center, grid_center):
        # max of x|x-1/2| on [0,1] sits at x=1
        got = norm_of(lambda x: np.asarray(x), weight_center, grid_center)
        assert got == 0.5

    def test_array_input(self, weight_center, grid_center):
        vals = np.ones_like(grid_center.points)
        assert weighted_norm(vals, weight_center, grid_center) == 0.5
        with pytest.raises(DomainError):
            weighted_norm(vals[:-1], weight_center, grid_center)

    def test_singular_function_is_finite(self, weight_center, grid_center):
        f = lambda x: 1.0 / np.abs(np.asarray(x) - 0.5)
        assert norm_of(f, weight_center, grid_center) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_non_finite_named(self, weight_center, grid_center):
        f = lambda x: np.where(np.asarray(x) == 0.0, np.nan, 1.0)
        with pytest.raises(SampleError) as exc:
            norm_of(f, weight_center, grid_center)
        assert exc.value.x == 0.0

    @given(c=st.floats(-1e6, 1e6))
    def test_homogeneity(self, c, weight_center, grid_center):
        base = norm_of(np.sin, weight_center, grid_center)
        scaled = norm_of(
            lambda x: c * np.sin(np.asarray(x)), weight_center, grid_center
        )
        assert scaled == pytest.approx(abs(c) * base, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("key", DEFAULT_KEYS)
    def test_grid_refinement_guard(self, key, weight513):
        # doubling the grid moves the discretized sup by well under 2%
        f = make_function(parse_spec(key), weight513)
        coarse = norm_of(f, weight513, make_grid(weight513, 401))
        fine = norm_of(f, weight513, make_grid(weight513, 802))
        assert abs(fine - coarse) <= 0.02 * coarse


class TestModulusParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            ModulusParams(r2=3, t=0.1)
        with pytest.raises(DomainError):
            ModulusParams(r2=0, t=0.1)
        with pytest.raises(DomainError):
            ModulusParams(r2=2, t=0.0)
        with pytest.raises(DomainError):
            ModulusParams(r2=2, t=0.3)
        # an integer order, at most twice the largest combination order
        for r2 in (2.0, 18):
            with pytest.raises(DomainError):
                ModulusParams(r2=r2, t=0.1)

    def test_h_ladder(self):
        params = ModulusParams(r2=2, t=0.125)
        np.testing.assert_allclose(
            params.h_ladder(), 0.125 * 0.5 ** np.arange(8), rtol=0
        )


def oracle_modulus(f, weight, r2, t, grid, h_count=8):
    """Reference modulus: a per-point loop with one math.fsum per stencil.

    f is evaluated in one array call over every stencil point, so the
    reference checks the region rules, the stencil abscissae and the
    summation, not the evaluation route.
    """
    stencils = []
    for h in (t * 0.5 ** np.arange(h_count)).tolist():
        cut = 16.0 * h * h
        for x in grid.points.tolist():
            if cut <= x <= 1.0 - cut:
                phi = math.sqrt(x * (1.0 - x))
                reach = r2 / 2.0 * h * phi
                if reach > 0.0 and x - reach >= 0.0 and x + reach <= 1.0:
                    stencils.append((x, [x + (r2 / 2.0 - k) * h * phi
                                         for k in range(r2 + 1)]))
            if x <= cut and x + r2 * h <= 1.0:
                stencils.append((x, [x + (r2 - k) * h for k in range(r2 + 1)]))
            if x >= 1.0 - cut and x - r2 * h >= 0.0:
                stencils.append((x, [x - k * h for k in range(r2 + 1)]))
    flat = np.array([p for _, pts in stencils for p in pts])
    assert np.all((flat >= 0.0) & (flat <= 1.0))
    vals = iter(np.asarray(f(flat), dtype=float).tolist())
    best = 0.0
    for x, _ in stencils:
        terms = [(-1) ** k * math.comb(r2, k) * next(vals) for k in range(r2 + 1)]
        best = max(best, abs(weight(x) * math.fsum(terms)))
    return best


class TestModulusOracle:
    @pytest.mark.parametrize("xi", [0.5, 0.513])
    @pytest.mark.parametrize("r2", [2, 4, 6])
    @pytest.mark.parametrize("key", DEFAULT_KEYS)
    def test_matches_per_point_fsum(self, key, r2, xi):
        weight = Weight(xi, 1.0)
        grid = make_grid(weight, 401)
        f = make_function(parse_spec(key), weight)
        for t in (0.125, 2.0**-5, 2.0**-8):
            params = ModulusParams(r2=r2, t=t)
            try:
                want = oracle_modulus(f, weight, r2, t, grid)
            except SampleError:
                # a stencil lands on xi: the modulus must refuse it too
                with pytest.raises(SampleError):
                    weighted_modulus(f, weight, params, grid)
                continue
            got = weighted_modulus(f, weight, params, grid)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (t, got, want)

    @pytest.mark.parametrize("r2", [2, 6])
    def test_calls_per_stencil_offset(self, r2, weight513, grid513):
        # one array call per offset, region and h; never one per grid point
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return f(x)

        params = ModulusParams(r2=r2, t=0.125)
        weighted_modulus(counted, weight513, params, grid513)
        assert len(sizes) <= 3 * (r2 + 1) * smoothness._H_COUNT
        assert sum(sizes) / len(sizes) > 50


class TestWeightedModulus:
    def test_non_finite_difference_raises(self, weight_center, grid_center):
        # a NaN difference must not drop out of the max, as in weighted_norm
        def f(x):
            x = np.asarray(x, dtype=float)
            return np.where(x > 0.9, np.nan, x * x)

        params = ModulusParams(r2=2, t=0.1)
        with pytest.raises(SampleError, match="non-finite") as exc:
            weighted_modulus(f, weight_center, params, grid_center)
        assert exc.value.x > 0.8

    def test_affine_vanishes(self, weight_center, grid_center):
        params = ModulusParams(r2=2, t=0.125)
        f = lambda x: 2.0 - 3.0 * np.asarray(x)
        assert weighted_modulus(f, weight_center, params, grid_center) <= 1e-12

    def test_square_analytic(self, weight_center, grid_center, golden):
        # the max sits at the forward difference from x=0: w(0)*2t^2 = t^2
        f = lambda x: np.asarray(x) ** 2
        v = weighted_modulus(f, weight_center, ModulusParams(r2=2, t=0.1), grid_center)
        assert v == pytest.approx(0.01, abs=1e-12)
        assert v == pytest.approx(golden["modulus_square_t01"], rel=1e-12)
        v2 = weighted_modulus(f, weight_center, ModulusParams(r2=2, t=0.05), grid_center)
        assert v2 == pytest.approx(0.0025, abs=1e-12)

    @pytest.mark.parametrize("key", ["smooth_sin:freq=1", "singular_power:beta=0.5"])
    def test_monotone_in_t(self, key, weight_center, grid_center):
        f = make_function(parse_spec(key), weight_center)
        vals = [
            weighted_modulus(f, weight_center, ModulusParams(r2=2, t=t), grid_center)
            for t in (0.125, 0.0625, 0.03125, 0.015625)
        ]
        for bigger, smaller in zip(vals, vals[1:]):
            assert smaller <= bigger + 1e-15

    def test_vanishes_for_small_t(self, weight_center, grid_center):
        f = make_function(parse_spec("singular_power:beta=0.5"), weight_center)
        big = weighted_modulus(f, weight_center, ModulusParams(r2=2, t=0.125), grid_center)
        small = weighted_modulus(
            f, weight_center, ModulusParams(r2=2, t=2.0**-10), grid_center
        )
        assert small < big / 4

    def test_stencils_stay_inside(self):
        # every region's filter matches its largest stencil offset, so no
        # point f is given leaves [0, 1], even at the edge of roundoff
        for r2, size, xi in itertools.product((2, 4, 8, 16), (16, 401, 20001),
                                              (0.01, 0.513, 0.99)):
            weight = Weight(xi, 1.0)
            seen = []

            def guarded(x):
                seen.append((x.min(), x.max()))
                return np.cos(x)

            params = [ModulusParams(r2=r2, t=t) for t in (0.125, 2.0**-7)]
            v = weighted_modulus(guarded, weight, params, make_grid(weight, size))
            case = (r2, size, xi)
            assert np.all(np.isfinite(v)), case
            assert seen and all(0.0 <= lo and hi <= 1.0 for lo, hi in seen), case

    def test_higher_order(self, weight_center, grid_center):
        # order-4 differences annihilate cubics
        f = lambda x: np.asarray(x) ** 3 - 0.2 * np.asarray(x)
        v = weighted_modulus(f, weight_center, ModulusParams(r2=4, t=0.1), grid_center)
        assert v <= 1e-11


def _per_entry(f, weight, entries, grid):
    """The moduli of one call per entry: the reference for the shared ladder."""
    return tuple(weighted_modulus(f, weight, p, grid) for p in entries)


class TestSharedLadder:
    """One call over several ModulusParams scans each distinct step once."""

    @pytest.mark.parametrize("entries", [
        # approx's defaults: r = 2, t = min(n^-1/2, 1/8) for n = 32..1024
        [ModulusParams(4, min(1.0 / math.sqrt(n), 0.125))
         for n in (32, 64, 128, 256, 512, 1024)],
        # the modulus table: t / 2^k
        [ModulusParams(4, 0.125 / 2**k) for k in range(8)],
        # ladders that share no step
        [ModulusParams(4, 0.1), ModulusParams(4, 0.07)],
        # one h under two orders is two steps
        [ModulusParams(2, 0.125), ModulusParams(4, 0.0625), ModulusParams(2, 0.03125)],
    ], ids=["approx", "table", "disjoint", "mixed-order"])
    @pytest.mark.parametrize("key", ["singular_power:beta=0.5", "smooth_sin:freq=1"])
    def test_equals_one_call_per_entry(self, entries, key, weight513, grid513):
        f = make_function(parse_spec(key), weight513)
        got = weighted_modulus(f, weight513, entries, grid513)
        assert type(got) is tuple
        assert got == _per_entry(f, weight513, entries, grid513)

    def test_single_entry_is_a_float(self, weight513, grid513):
        f = make_function(parse_spec("smooth_sin:freq=1"), weight513)
        params = ModulusParams(4, 0.125)
        got = weighted_modulus(f, weight513, params, grid513)
        assert type(got) is float
        assert weighted_modulus(f, weight513, [params], grid513) == (got,)
        assert weighted_modulus(f, weight513, [], grid513) == ()

    def test_table_scans_each_step_once(self, monkeypatch, weight513, grid513):
        # the 8-row table t/2^k has the 15 steps t/2^j, j = 0..14
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        scan = smoothness._step_sup
        steps = []

        def counted(f, weight, pts, order, h):
            steps.append((order, h))
            return scan(f, weight, pts, order, h)

        monkeypatch.setattr(smoothness, "_step_sup", counted)
        table = [ModulusParams(4, 0.125 / 2**k) for k in range(8)]
        weighted_modulus(f, weight513, table, grid513)
        distinct = len(table) - 1 + smoothness._H_COUNT
        assert steps == [(4, 0.125 / 2**j) for j in range(distinct)]

    @pytest.mark.parametrize("mode", ["raise", "nan"])
    def test_first_failure_is_the_same(self, mode, weight513, grid513):
        # only h = 2^-13, first on entry 3's ladder, reaches the bad point:
        # entries 0..2 succeed, then entry 3 fails on its one new step
        bad = 2.0**-13

        def flawed(x):
            x = np.asarray(x, dtype=float)
            hit = x == bad
            if mode == "raise" and hit.any():
                raise SampleError(f"refused x={bad!r}", bad)
            return np.where(hit, np.nan, np.sin(x))

        table = [ModulusParams(2, 0.125 / 2**k) for k in range(8)]
        weighted_modulus(flawed, weight513, table[:3], grid513)
        with pytest.raises(SampleError) as loop:
            _per_entry(flawed, weight513, table, grid513)
        with pytest.raises(SampleError) as shared:
            weighted_modulus(flawed, weight513, table, grid513)
        # f's NaN is refused where f is called, at the stencil point itself
        assert shared.value.x == loop.value.x == bad
        assert str(shared.value) == str(loop.value)
