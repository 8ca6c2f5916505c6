"""Weighted norms, evaluation grids, and the weighted modulus of smoothness."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernblend import (DEFAULT_KEYS, DomainError, EvaluationGrid, SampleError,
                       Weight, make_function, make_grid, parse_spec,
                       smoothness, weighted_modulus, weighted_norm)


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


def grid_pieces(xi, size):
    """The pieces EvaluationGrid joins: backbone, cluster sides, end strips."""
    per_side = math.ceil(size / 8)
    ratio = (smoothness._CLUSTER_FLOOR / smoothness._CLUSTER_SPAN) ** (1.0 / (per_side - 1))
    offs = smoothness._CLUSTER_SPAN * ratio ** np.arange(per_side)
    end = np.geomspace(smoothness._ENDPOINT_FLOOR, 0.04, max(16, size // 16))
    return [np.linspace(0.0, 1.0, size // 2), xi - offs, xi + offs, end, 1.0 - end]


class TestGridOracle:
    @pytest.mark.parametrize("size", [16, 401, 2001, 20001])
    @pytest.mark.parametrize("xi", [0.3, 0.513, 0.9])
    def test_points_are_unique_of_pieces(self, xi, size):
        # the sort and duplicate mask give np.unique's points, bit for bit
        pts = np.unique(np.concatenate(grid_pieces(xi, size)))
        pts = pts[(pts >= 0.0) & (pts <= 1.0)]
        want = pts[np.abs(pts - xi) > smoothness._GRID_EXCLUSION]
        got = EvaluationGrid(Weight(xi, 1.0), size).points
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def norm_of(f, grid):
    """The weighted norm of f's values on the grid points."""
    return weighted_norm(f(grid.points), grid)


def modulus(f, order, t, grid):
    """The weighted modulus of order ``order`` at the one argument ``t``."""
    value, = weighted_modulus(f, order, [t], grid)
    return value


class TestWeightedNorm:
    def test_zero(self, weight_center, grid_center):
        assert norm_of(lambda x: np.zeros_like(x), grid_center) == 0.0

    def test_constant(self, weight_center, grid_center):
        got = norm_of(lambda x: np.ones_like(x), grid_center)
        assert got == 0.5

    def test_identity(self, weight_center, grid_center):
        # max of x|x-1/2| on [0,1] sits at x=1
        got = norm_of(lambda x: np.asarray(x), grid_center)
        assert got == 0.5

    def test_array_input(self, weight_center, grid_center):
        vals = np.ones_like(grid_center.points)
        assert weighted_norm(vals, grid_center) == 0.5
        with pytest.raises(DomainError):
            weighted_norm(vals[:-1], grid_center)

    def test_singular_function_is_finite(self, weight_center, grid_center):
        f = lambda x: 1.0 / np.abs(np.asarray(x) - 0.5)
        assert norm_of(f, grid_center) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_non_finite_named(self, weight_center, grid_center):
        f = lambda x: np.where(np.asarray(x) == 0.0, np.nan, 1.0)
        with pytest.raises(SampleError) as exc:
            norm_of(f, grid_center)
        assert exc.value.x == 0.0

    @given(c=st.floats(-1e6, 1e6))
    def test_homogeneity(self, c, weight_center, grid_center):
        base = norm_of(np.sin, grid_center)
        scaled = norm_of(
            lambda x: c * np.sin(np.asarray(x)), grid_center
        )
        assert scaled == pytest.approx(abs(c) * base, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("key", DEFAULT_KEYS)
    def test_grid_refinement_guard(self, key, weight513):
        # doubling the grid moves the discretized sup by well under 2%
        f = make_function(parse_spec(key), weight513)
        coarse = norm_of(f, make_grid(weight513, 401))
        fine = norm_of(f, make_grid(weight513, 802))
        assert abs(fine - coarse) <= 0.02 * coarse


class TestModulusParams:
    """The order and the arguments t of weighted_modulus."""

    def test_validation(self, grid_center):
        # every refusal comes before f is called once
        calls = []

        def counted(x):
            calls.append(x.size)
            return x

        for order, ts, message in [
            (3, [0.1], "difference order must be even, got 3"),
            (0, [0.1], "difference order must be >= 2, got 0"),
            (2.0, [0.1], "difference order must be an integer, got 2.0"),
            # an integer order, at most twice the largest combination order
            (18, [0.1], "difference order must be at most 16, got 18"),
            (2, [0.0], "modulus argument t"),
            (2, [0.2], "modulus argument t"),
            # a bad t late in the list is refused before the first t's scan
            (2, [0.1, 0.05, math.nan], "modulus argument t"),
            (2, [math.nan, 0.1], "modulus argument t"),
        ]:
            with pytest.raises(DomainError, match=re.escape(message)):
                weighted_modulus(counted, order, ts, grid_center)
        assert calls == []

    def test_h_ladder(self, monkeypatch, grid_center):
        # one t scans t, t/2, ..., t/128, in that order
        steps = []

        def step(f, grid, order, h):
            steps.append(h)
            return 0.0

        monkeypatch.setattr(smoothness, "_step_sup", step)
        assert weighted_modulus(np.sin, 2, [0.125], grid_center) == (0.0,)
        assert np.array_equal(steps, 0.125 * 0.5 ** np.arange(8))


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
            try:
                want = oracle_modulus(f, weight, r2, t, grid)
            except SampleError:
                # a stencil lands on xi: the modulus must refuse it too
                with pytest.raises(SampleError):
                    modulus(f, r2, t, grid)
                continue
            got = modulus(f, r2, t, grid)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (t, got, want)

    @pytest.mark.parametrize("r2", [2, 6])
    def test_calls_per_stencil_offset(self, r2, weight513, grid513):
        # at most one array call per offset, region and h; never one per
        # grid point (TestModulusCalls pins one call per region)
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return f(x)

        modulus(counted, r2, 0.125, grid513)
        assert len(sizes) <= 3 * (r2 + 1) * smoothness._H_COUNT
        assert sum(sizes) / len(sizes) > 50


class TestModulusCalls:
    """One call of f per nonempty region of each distinct step."""

    @pytest.mark.parametrize("key", ["singular_power:beta=0.5", "smooth_poly:coeffs=0;1;2"])
    def test_one_call_per_region(self, key, monkeypatch, weight513, grid513):
        f = make_function(parse_spec(key), weight513)
        sizes, regions, steps = [], [], []
        difference, step_sup = smoothness._difference, smoothness._step_sup

        def counted(x):
            sizes.append(x.size)
            return f(x)

        def region(f, xs, offsets, order):
            regions.append((order + 1) * xs.size)
            return difference(f, xs, offsets, order)

        def step(f, grid, order, h):
            before = len(sizes), len(regions)
            out = step_sup(f, grid, order, h)
            steps.append((len(sizes) - before[0], len(regions) - before[1]))
            return out

        monkeypatch.setattr(smoothness, "_difference", region)
        monkeypatch.setattr(smoothness, "_step_sup", step)
        # approx's defaults: 19 distinct steps
        ts = [min(1.0 / math.sqrt(n), 0.125) for n in (32, 64, 128, 256, 512, 1024)]
        weighted_modulus(counted, 4, ts, grid513)
        assert len(steps) == 19
        assert all(1 <= calls == nonempty <= 3 for calls, nonempty in steps)
        # each call takes every stencil point of its region
        assert sizes == regions

    @pytest.mark.parametrize("cap", [1, 500, 2000])
    def test_call_cap_moves_no_bit(self, cap, monkeypatch, weight513):
        # fewer offsets per call give the same moduli; no call takes more
        # than the cap unless one offset's points alone exceed it
        grid = make_grid(weight513, 2001)
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        ts = [0.125 / 2**k for k in range(4)]
        want = [weighted_modulus(f, r2, ts, grid) for r2 in (2, 8)]
        sizes, regions = [], []
        difference = smoothness._difference

        def counted(x):
            sizes.append(x.size)
            return f(x)

        def region(f, xs, offsets, order):
            regions.append(xs.size)
            return difference(f, xs, offsets, order)

        monkeypatch.setattr(smoothness, "_CALL_POINTS", cap)
        monkeypatch.setattr(smoothness, "_difference", region)
        assert [weighted_modulus(counted, r2, ts, grid) for r2 in (2, 8)] == want
        assert max(sizes) <= max(cap, max(regions))
        assert len(sizes) > len(regions)

    def test_first_failure_among_offsets(self):
        # a NaN at offset 0 comes before a refusal at offset 1, as it does
        # for one call of f per offset
        xs = np.array([0.25, 0.5])
        offsets = [0.125, 0.0, -0.125]

        def f(x):
            if np.any(x == 0.5):
                raise SampleError("refused x=0.5", 0.5)
            return np.where(x == 0.625, np.nan, x)

        with pytest.raises(SampleError, match="non-finite value of f at x=0.625"):
            smoothness._difference(f, xs, offsets, 2)


class TestWeightedModulus:
    def test_non_finite_difference_raises(self, weight_center, grid_center):
        # a NaN difference must not drop out of the max, as in weighted_norm
        def f(x):
            x = np.asarray(x, dtype=float)
            return np.where(x > 0.9, np.nan, x * x)

        with pytest.raises(SampleError, match="non-finite") as exc:
            modulus(f, 2, 0.1, grid_center)
        assert exc.value.x > 0.8

    def test_affine_vanishes(self, weight_center, grid_center):
        f = lambda x: 2.0 - 3.0 * np.asarray(x)
        assert modulus(f, 2, 0.125, grid_center) <= 1e-12

    def test_square_analytic(self, weight_center, grid_center, golden):
        # the max sits at the forward difference from x=0: w(0)*2t^2 = t^2
        f = lambda x: np.asarray(x) ** 2
        v = modulus(f, 2, 0.1, grid_center)
        assert v == pytest.approx(0.01, abs=1e-12)
        assert v == pytest.approx(golden["modulus_square_t01"], rel=1e-12)
        v2 = modulus(f, 2, 0.05, grid_center)
        assert v2 == pytest.approx(0.0025, abs=1e-12)

    @pytest.mark.parametrize("key", ["smooth_sin:freq=1", "singular_power:beta=0.5"])
    def test_monotone_in_t(self, key, weight_center, grid_center):
        f = make_function(parse_spec(key), weight_center)
        vals = [
            modulus(f, 2, t, grid_center)
            for t in (0.125, 0.0625, 0.03125, 0.015625)
        ]
        for bigger, smaller in zip(vals, vals[1:]):
            assert smaller <= bigger + 1e-15

    def test_vanishes_for_small_t(self, weight_center, grid_center):
        f = make_function(parse_spec("singular_power:beta=0.5"), weight_center)
        big = modulus(f, 2, 0.125, grid_center)
        small = modulus(f, 2, 2.0**-10, grid_center)
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

            v = weighted_modulus(guarded, r2, [0.125, 2.0**-7], make_grid(weight, size))
            case = (r2, size, xi)
            assert np.all(np.isfinite(v)), case
            assert seen and all(0.0 <= lo and hi <= 1.0 for lo, hi in seen), case

    def test_higher_order(self, weight_center, grid_center):
        # order-4 differences annihilate cubics
        f = lambda x: np.asarray(x) ** 3 - 0.2 * np.asarray(x)
        v = modulus(f, 4, 0.1, grid_center)
        assert v <= 1e-11


def _per_t(f, order, ts, grid):
    """The moduli of one call per t: the reference for the shared ladder."""
    return tuple(modulus(f, order, t, grid) for t in ts)


class TestSharedLadder:
    """One call over several t scans each distinct step once."""

    @pytest.mark.parametrize("order, ts", [
        # approx's defaults: r = 2, t = min(n^-1/2, 1/8) for n = 32..1024
        (4, [min(1.0 / math.sqrt(n), 0.125) for n in (32, 64, 128, 256, 512, 1024)]),
        # the modulus table: t / 2^k
        (4, [0.125 / 2**k for k in range(8)]),
        # ladders that share no step
        (4, [0.1, 0.07]),
    ], ids=["approx", "table", "disjoint"])
    @pytest.mark.parametrize("key", ["singular_power:beta=0.5", "smooth_sin:freq=1"])
    def test_equals_one_call_per_entry(self, order, ts, key, weight513, grid513):
        f = make_function(parse_spec(key), weight513)
        got = weighted_modulus(f, order, ts, grid513)
        assert type(got) is tuple
        assert got == _per_t(f, order, ts, grid513)
        assert weighted_modulus(f, order, iter(ts), grid513) == got

    def test_single_entry_is_a_float(self, weight513, grid513):
        f = make_function(parse_spec("smooth_sin:freq=1"), weight513)
        got = weighted_modulus(f, 4, [0.125], grid513)
        assert type(got) is tuple and len(got) == 1 and type(got[0]) is float
        assert weighted_modulus(f, 4, [], grid513) == ()

    def test_table_scans_each_step_once(self, monkeypatch, weight513, grid513):
        # the 8-row table t/2^k has the 15 steps t/2^j, j = 0..14
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        scan = smoothness._step_sup
        steps = []

        def counted(f, grid, order, h):
            steps.append((order, h))
            return scan(f, grid, order, h)

        monkeypatch.setattr(smoothness, "_step_sup", counted)
        table = [0.125 / 2**k for k in range(8)]
        weighted_modulus(f, 4, table, grid513)
        distinct = len(table) - 1 + smoothness._H_COUNT
        assert steps == [(4, 0.125 / 2**j) for j in range(distinct)]

    @pytest.mark.parametrize("mode", ["raise", "nan"])
    def test_first_failure_is_the_same(self, mode, weight513, grid513):
        # only h = 2^-13, first on t 3's ladder, reaches the bad point:
        # t 0..2 succeed, then t 3 fails on its one new step
        bad = 2.0**-13

        def flawed(x):
            x = np.asarray(x, dtype=float)
            hit = x == bad
            if mode == "raise" and hit.any():
                raise SampleError(f"refused x={bad!r}", bad)
            return np.where(hit, np.nan, np.sin(x))

        table = [0.125 / 2**k for k in range(8)]
        weighted_modulus(flawed, 2, table[:3], grid513)
        with pytest.raises(SampleError) as loop:
            _per_t(flawed, 2, table, grid513)
        with pytest.raises(SampleError) as shared:
            weighted_modulus(flawed, 2, table, grid513)
        # f's NaN is refused where f is called, at the stencil point itself
        assert shared.value.x == loop.value.x == bad
        assert str(shared.value) == str(loop.value)
