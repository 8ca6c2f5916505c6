"""Weighted norms, evaluation grids, and the weighted modulus of smoothness."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernblend import (DEFAULT_KEYS, DomainError, EvaluationGrid, SampleError,
                       Weight, catalog, lemma3_decay, make_function, make_grid,
                       parse_spec, smoothness, weighted_modulus, weighted_norm)


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
        want = pts[np.abs(pts - xi) > catalog._SINGULAR_EXCLUSION]
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

        def regions(pts, phi, order, h):
            steps.append(h)
            return []

        monkeypatch.setattr(smoothness, "_regions", regions)
        assert weighted_modulus(np.sin, 2, [0.125], grid_center) == (0.0,)
        assert np.array_equal(steps, 0.125 * 0.5 ** np.arange(8))


def scan_pieces(order, ts, grid):
    """The stencil points of each piece (h, region, k) of a scan over ``ts``,
    in scan order: the distinct steps of the ladders in first-visit order,
    then the middle, the strip at 0 and the strip at 1, then k = 0..order.
    A region holds the x of its kind whose whole stencil lies in [0, 1]."""
    pts = grid.points
    phi = np.sqrt(pts * (1.0 - pts))
    ladders = [h for t in ts for h in (t * 0.5 ** np.arange(smoothness._H_COUNT)).tolist()]
    pieces = []
    for h in dict.fromkeys(ladders):
        cut = 16.0 * h * h
        ks = range(order + 1)
        for region, (near, offsets) in enumerate((
                ((pts >= cut) & (pts <= 1.0 - cut) & (phi > 0.0),
                 [(order / 2.0 - k) * h * phi for k in ks]),
                (pts <= cut, [(order - k) * h for k in ks]),
                (pts >= 1.0 - cut, [-k * h for k in ks]))):
            stencil = [pts + off for off in offsets]
            keep = near & np.all([(x >= 0.0) & (x <= 1.0) for x in stencil], axis=0)
            if keep.any():
                pieces += [(h, region, k, x[keep]) for k, x in enumerate(stencil)]
    return pieces


def step_calls(pieces, cap):
    """The calls of f of a scan of ``pieces``: each step's stencil points
    offset by offset, and region by region within an offset, in one call if
    they number at most ``cap``, else in one call per offset."""
    calls = []
    for h in dict.fromkeys(p[0] for p in pieces):
        step = [p for p in pieces if p[0] == h]
        rows = [np.concatenate([x for _, _, j, x in step if j == k])
                for k in sorted({p[2] for p in step})]
        calls += [np.concatenate(rows)] if sum(x.size for x in rows) <= cap else rows
    return calls


def same_calls(calls, want):
    return len(calls) == len(want) and all(map(np.array_equal, calls, want))


def first_visit(pieces, n):
    """A stencil point of piece n that no earlier piece holds."""
    seen = set(np.concatenate([x for *_, x in pieces[:n]]).tolist())
    return next(x for x in pieces[n][3].tolist() if x not in seen)


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
        # grid point (TestModulusCalls pins the calls)
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return f(x)

        modulus(counted, r2, 0.125, grid513)
        assert len(sizes) <= 3 * (r2 + 1) * smoothness._H_COUNT
        assert sum(sizes) / len(sizes) > 50


class TestModulusCalls:
    """Each distinct step's stencil points reach f once, offset by offset and
    region by region within an offset: in one call of at most _CALL_POINTS
    points, or in one call per offset."""

    @pytest.mark.parametrize("key", ["singular_power:beta=0.5", "smooth_poly:coeffs=0;1;2"])
    def test_stencil_points_reach_f_once_in_scan_order(self, key, weight513):
        grid = make_grid(weight513, 2001)
        f = make_function(parse_spec(key), weight513)
        calls = []

        def counted(x):
            calls.append(x.copy())
            return f(x)

        # approx's defaults: 19 distinct steps, 57 nonempty regions, each
        # step in one call
        ts = [min(1.0 / math.sqrt(n), 0.125) for n in (32, 64, 128, 256, 512, 1024)]
        weighted_modulus(counted, 4, ts, grid)
        pieces = scan_pieces(4, ts, grid)
        assert len({h for h, *_ in pieces}) == 19
        assert len({(h, region) for h, region, *_ in pieces}) == 57
        assert same_calls(calls, step_calls(pieces, smoothness._CALL_POINTS))
        assert len(calls) == 19 and sum(x.size for x in calls) == 166440

    @pytest.mark.parametrize("cap", [1, 500, 2000])
    def test_call_cap_moves_no_bit(self, cap, monkeypatch, weight513):
        # smaller calls give the same moduli: a step above the cap reaches
        # f in one call per offset
        grid = make_grid(weight513, 2001)
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        ts = [0.125 / 2**k for k in range(4)]
        want = [weighted_modulus(f, r2, ts, grid) for r2 in (2, 8)]
        calls = []

        def counted(x):
            calls.append(x.copy())
            return f(x)

        monkeypatch.setattr(smoothness, "_CALL_POINTS", cap)
        assert [weighted_modulus(counted, r2, ts, grid) for r2 in (2, 8)] == want
        assert same_calls(calls, [x for r2 in (2, 8)
                                  for x in step_calls(scan_pieces(r2, ts, grid), cap)])

    def test_first_failure_among_offsets(self, monkeypatch, grid_center):
        # a NaN at offset 0 comes before a refusal at offset 1 of the same
        # call: the step's rerun, one call per offset, meets it first
        xs = np.array([0.25, 0.5])
        # offsets 0.125, 0 and -0.125
        region = smoothness._Region(np.arange(2), xs, np.array([[0.125], [0.0], [-0.125]]), 1.0)
        calls = []

        def f(x):
            calls.append(x.tolist())
            if np.any(x == 0.5):
                raise SampleError("refused x=0.5", 0.5)
            return np.where(x == 0.625, np.nan, x)

        monkeypatch.setattr(smoothness, "_regions", lambda *args: [region])
        monkeypatch.setattr(smoothness, "_H_COUNT", 1)
        with pytest.raises(SampleError, match="non-finite value of f at x=0.625"):
            weighted_modulus(f, 2, [0.125], grid_center)
        assert calls == [[0.375, 0.625, 0.25, 0.5, 0.125, 0.375], [0.375, 0.625]]

    @pytest.mark.parametrize("cap", [smoothness._CALL_POINTS, 1])
    def test_reused_output_buffer(self, cap, monkeypatch, weight513):
        # an f that hands back a view of one buffer it reuses gets what an f
        # of fresh arrays gets, in either call branch and in lemma 3
        grid = make_grid(weight513, 2001)
        fresh = lambda x: np.sin(3.0 * x)
        buffer = np.empty(2**16)

        def reused(x):
            return np.sin(3.0 * x, out=buffer[:x.size])

        monkeypatch.setattr(smoothness, "_CALL_POINTS", cap)
        for order in (4, 16):
            assert (weighted_modulus(reused, order, [0.125], grid)
                    == weighted_modulus(fresh, order, [0.125], grid))
        assert (lemma3_decay(2, reused, [64, 256], grid).values
                == lemma3_decay(2, fresh, [64, 256], grid).values)


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
        # the 8-row table t/2^k has the 15 steps t/2^j, j = 0..14: each
        # step's regions are built once and its points reach f once
        f = make_function(parse_spec("singular_power:beta=0.5"), weight513)
        regions = smoothness._regions
        steps, calls = [], []

        def counted(pts, phi, order, h):
            steps.append((order, h))
            return regions(pts, phi, order, h)

        def seen(x):
            calls.append(x.copy())
            return f(x)

        monkeypatch.setattr(smoothness, "_regions", counted)
        table = [0.125 / 2**k for k in range(8)]
        weighted_modulus(seen, 4, table, grid513)
        distinct = len(table) - 1 + smoothness._H_COUNT
        assert steps == [(4, 0.125 / 2**j) for j in range(distinct)]
        want = step_calls(scan_pieces(4, table, grid513), smoothness._CALL_POINTS)
        assert same_calls(calls, want)

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

    @pytest.mark.parametrize("first, later, one_call", [(*case, one_call) for one_call in (
        True, False) for case in [
            # a NaN at an earlier step's last offset; f refuses a later step's x
            (("nan", 0, 4), ("raise", -1, 0, 0)),
            # the same, f refusing it with an exception of its own
            (("nan", 0, 4), ("ValueError", -1, 0, 0)),
            # a non-finite weighted value in an earlier step, a NaN in a later one
            (("huge", 0, 1), ("nan", -1, 0, 0)),
            # a non-finite weighted value in the second of two regions of a step
            (("huge", 1, 1), ("raise", -1, 0, 0)),
            # a NaN at the middle's last offset; f refuses an x of the same
            # step's next region at offset 1, which reaches f first
            (("nan", 0, 4), ("raise", -2, 1, 1)),
        ]], ids=[name + branch for branch in ("", "-per-offset") for name in [
            "nan-then-raise", "nan-then-valueerror", "weighted-then-nan", "second-region",
            "same-step"]])
    def test_first_failure_in_scan_order(self, first, later, one_call, monkeypatch,
                                         weight513, grid513):
        # the first failure is that of scan order, as for a call per t,
        # whether a step reaches f in one call or in one call per offset
        mode, region, k = first
        later, *where = later
        ts = [0.125, 0.0625]
        pieces = scan_pieces(4, ts, grid513)
        cap = sum(x.size for *_, x in pieces) if one_call else 1
        monkeypatch.setattr(smoothness, "_CALL_POINTS", cap)
        steps = list(dict.fromkeys(h for h, *_ in pieces))

        def piece(step, region, k):
            # piece (region, k) of steps[step], region counted among those present
            found = [n for n, p in enumerate(pieces) if p[0] == steps[step]]
            region = sorted({pieces[n][1] for n in found})[region]
            return next(n for n in found if pieces[n][1:3] == (region, k))

        # the earlier point is first met in t 0's last step, the later one
        # in t 1's one new step or in a later region of the same step
        bad_first = first_visit(pieces, piece(-2, region, k))
        bad_later = first_visit(pieces, piece(*where))

        def flawed(x):
            x = np.asarray(x, dtype=float)
            if later == "raise" and np.any(x == bad_later):
                raise SampleError(f"refused x={bad_later!r}", bad_later)
            if later == "ValueError" and np.any(x == bad_later):
                raise ValueError(f"refused x={bad_later!r}")
            out = np.sin(x)
            # finite, but -4 times it overflows in the difference
            out[x == bad_first] = np.nan if mode == "nan" else 1.7e308
            if later == "nan":
                out[x == bad_later] = np.nan
            return out

        with pytest.raises(SampleError) as loop:
            _per_t(flawed, 4, ts, grid513)
        with pytest.raises(SampleError) as shared:
            weighted_modulus(flawed, 4, ts, grid513)
        assert shared.value.x == loop.value.x
        assert str(shared.value) == str(loop.value)
        if mode == "nan":
            assert str(shared.value) == f"non-finite value of f at x={bad_first!r}"
        else:
            assert str(shared.value).startswith("non-finite weighted value at x=")
