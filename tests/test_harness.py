"""Experiment engine: sweeps, lemma scans, rate fits, report emission."""

import collections
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bernblend import (DEFAULT_KEYS, BlendSpec, CombinationScheme,
                       DomainError, EvaluationGrid, MinNTooSmall,
                       ModifiedOperator, NumericalError, RateReport,
                       SampleError, SweepConfig, Weight, basis_matrix,
                       build_modified_operator, build_report,
                       check_bernstein_inequality, combine,
                       compare_plain_vs_modified, emit_report, fit_rate,
                       lemma1_scan, lemma3_decay, lemma5_scan, lemma6_scan,
                       make_function, make_grid, modified_operator,
                       operator_derivative_2r, parse_spec, render_report,
                       run_convergence, weighted_norm)
import bernblend
from bernblend import basis, harness, operators
from bernblend.basis import _check_order
from bernblend.harness import check_n_list
from bernblend.smoothness import _check_grid_size

_STARTUP_PROBE = """
import sys
from bernblend import SweepConfig, Weight, run_convergence
for key in ("singular_power:beta=0.5", "smooth_poly:coeffs=0;1;2"):
    run_convergence(SweepConfig(2, Weight(0.513, 1.0), key, (32, 64), 401))
print(*[m for m in ("numpy.ma", "numpy.polynomial", "fractions") if m in sys.modules])
"""


class TestFitRate:
    def test_clean_power_law(self):
        ns = (32, 64, 128, 256)
        vals = [n**-2.0 for n in ns]
        slope, r2, gamma = fit_rate(ns, vals)
        assert slope == pytest.approx(-2.0, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert gamma == pytest.approx(4.0, rel=1e-12)

    def test_all_tiny_is_exact(self):
        assert fit_rate((32, 64), (1e-12, 1e-13)) == (None, None, None)

    def test_exactness_scales_with_input(self):
        # the same values are a real decay when the input itself is tiny
        slope, _, _ = fit_rate((32, 64), (1e-12, 1e-13), scale=1e-6)
        assert slope == pytest.approx(-math.log2(10.0), rel=1e-12)
        assert fit_rate((32, 64), (1e-3, 1e-4), scale=1e7) == (None, None, None)

    def test_too_few_positive_rows(self):
        assert fit_rate((32, 64, 128), (0.0, 0.0, 5.0)) == (None, None, None)

    def test_zero_rows_dropped(self):
        slope, r2, _ = fit_rate((32, 64, 128), (0.0, 64.0**-2, 128.0**-2))
        assert slope == pytest.approx(-2.0, rel=1e-12)
        assert r2 is None

    def test_two_rows_have_no_r_squared(self):
        slope, r2, _ = fit_rate((32, 64), (1.0, 0.5))
        assert slope == pytest.approx(-1.0, rel=1e-12)
        assert r2 is None

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError):
            fit_rate((32, 64), (1.0, float("nan")))


class TestReports:
    def test_build_report(self):
        rep = build_report((32, 64), (0.5, 0.25), {"tag": 7})
        assert rep.rows == ((32, 0.5), (64, 0.25))
        assert rep.values == (0.5, 0.25)
        assert rep.extras == {"tag": 7}
        assert rep.slope == pytest.approx(-1.0, rel=1e-12)

    def test_rows_must_ascend(self):
        with pytest.raises(DomainError):
            RateReport(rows=((64, 1.0), (32, 2.0)), slope=None,
                       r_squared=None, gamma_hat=None)
        # the degrees are integers, never truncated
        with pytest.raises(DomainError):
            RateReport(rows=((64.5, 1.0),), slope=None, r_squared=None,
                       gamma_hat=None)
        with pytest.raises(DomainError):
            build_report((64.5, 128), (0.5, 0.25))


def distinct_degree_checks(r, weight, n_list, grid_size):
    """The checks SweepConfig made before it held its operators: the n list,
    r and the grid size, then one BlendSpec per distinct ladder degree in
    order of first appearance, then the grid."""
    ns = check_n_list(n_list)
    r = _check_order(r)
    _check_grid_size(grid_size)
    for degree in dict.fromkeys(d for n in ns for d in CombinationScheme(n, r).nodes):
        BlendSpec(degree, r, weight)
    make_grid(weight, grid_size)


def raised(build, *args):
    try:
        build(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


class TestSweepConfig:
    def test_validation(self, weight513):
        with pytest.raises(DomainError):
            SweepConfig(2, weight513, "smooth_sin:freq=1", (128, 64), 401)
        with pytest.raises(DomainError):
            SweepConfig(2, weight513, "smooth_sin:freq=1", (64, 64), 401)
        with pytest.raises(DomainError):
            SweepConfig(0, weight513, "smooth_sin:freq=1", (64,), 401)
        with pytest.raises(DomainError):
            SweepConfig(2, weight513, "smooth_sin:freq=1", (64,), 8)
        with pytest.raises(DomainError):
            SweepConfig(2.5, weight513, "smooth_sin:freq=1", (64,), 401)
        with pytest.raises(DomainError):
            SweepConfig(2, weight513, "smooth_sin:freq=1", (64,), 401.5)
        with pytest.raises(DomainError, match="at most 1000000"):
            SweepConfig(2, weight513, "smooth_sin:freq=1", (64, 10**6 + 1), 401)
        # the grid size has make_grid's upper bound too, and r is at most 8
        with pytest.raises(DomainError, match="at most 1000000"):
            SweepConfig(2, weight513, "smooth_sin:freq=1", (64,), 10**7)
        with pytest.raises(DomainError, match="at most 8"):
            SweepConfig(9, weight513, "smooth_sin:freq=1", (1024,), 401)

    def test_geometry_checked_up_front(self, weight513):
        with pytest.raises(MinNTooSmall):
            SweepConfig(2, weight513, "smooth_sin:freq=1", (8,), 401)
        # n = 49 admits the blend window but not nine distinct patch nodes
        with pytest.raises(MinNTooSmall, match="need n >= 51"):
            SweepConfig(8, weight513, "smooth_sin:freq=1", (49,), 401)

    def test_operators_and_grid_built_once(self, weight513, monkeypatch):
        built = collections.Counter()
        for cls in (BlendSpec, CombinationScheme, ModifiedOperator, EvaluationGrid):
            def counting(self, original=cls.__post_init__):
                built[type(self).__name__] += 1
                original(self)
            monkeypatch.setattr(cls, "__post_init__", counting)
        ns = (256, 512, 1024)
        cfg = SweepConfig(3, weight513, "singular_power:beta=0.5", ns, 2001)
        assert built == {"ModifiedOperator": 3, "CombinationScheme": 3,
                         "BlendSpec": 9, "EvaluationGrid": 1}
        assert [op.scheme.base_n for op in cfg.ops] == list(ns)
        assert cfg.grid.size == 2001 and cfg.grid.weight is weight513
        built.clear()
        run_convergence(cfg)
        compare_plain_vs_modified(cfg)
        check_bernstein_inequality(cfg, 0.5)
        assert not built

    def test_operators_and_grid_not_settable(self, weight513):
        for name in ("ops", "grid"):
            with pytest.raises(TypeError, match=name):
                SweepConfig(1, weight513, "smooth_sin:freq=1", (64,), 401, **{name: None})

    @pytest.mark.parametrize("r", range(1, 9))
    def test_errors_match_distinct_degree_checks(self, r):
        n_lists = [(8,), (49,), (32, 64, 128), (64, 128, 256, 512, 1024), (96, 4096),
                   (64, 32)]
        seen = set()
        for xi in (1e-13, 0.001, 0.5, 0.513, 0.999):
            weight = Weight(xi, 1.0)
            for ns, grid_size in itertools.product(n_lists, (401, 8)):
                want = raised(distinct_degree_checks, r, weight, ns, grid_size)
                got = raised(SweepConfig, r, weight, "smooth_sin:freq=1", ns, grid_size)
                assert got == want, (r, xi, ns, grid_size)
                seen.add(want and want[0])
        # every stage is reached: the n list or grid size, the geometry, none
        assert {DomainError, MinNTooSmall, None} <= seen



class TestRunConvergence:
    def test_polynomial_is_exact(self, weight513):
        cfg = SweepConfig(2, weight513, "smooth_poly:coeffs=0;0;1", (64, 128), 401)
        rep = run_convergence(cfg)
        assert all(v <= 1e-9 for v in rep.values)
        assert rep.extras["exact"] is True
        assert rep.slope is None

    def test_extras_recorded(self, weight513):
        cfg = SweepConfig(1, weight513, "smooth_sin:freq=1", (36, 100), 401)
        rep = run_convergence(cfg)
        assert rep.extras["t"] == (0.125, 0.1)
        assert len(rep.extras["omega"]) == 2
        assert rep.extras["weighted_f_norm"] > 0.0
        assert rep.extras["exact"] is False

    def test_golden_regression(self, golden):
        cfg = SweepConfig(2, Weight(0.513, 1.0), "smooth_sin:freq=1", (256,), 2001)
        rep = run_convergence(cfg)
        assert rep.rows[0][1] == pytest.approx(
            golden["smooth_sin_r2_n256_error"], rel=1e-9
        )

    def test_singular_center_never_sampled(self):
        # at xi=0.5 even lattices contain the singularity, but the blend
        # keeps f unevaluated there, so the modified sweep runs clean
        cfg = SweepConfig(1, Weight(0.5, 1.0), "singular_power:beta=0.5", (64,), 401)
        rep = run_convergence(cfg)
        assert np.isfinite(rep.values[0])

    def test_direct_estimate_coherence(self, weight513):
        # error vs C*(modulus + n^-r * norm): the inequality holds with a
        # bounded constant for every catalog entry; for smooth entries the
        # constant fitted at the smallest n is never exceeded by more than
        # 25% later.  Singular entries keep a bounded (even tiny) ratio but
        # their modulus denominator is grid-resonant, so only boundedness
        # is asserted for them.
        for key in DEFAULT_KEYS:
            cfg = SweepConfig(2, weight513, key, (128, 256, 512), 401)
            rep = run_convergence(cfg)
            if rep.extras["exact"]:
                continue
            norms = rep.extras["weighted_f_norm"]
            ratios = [
                e / (om + n**-2.0 * norms)
                for (n, e), om in zip(rep.rows, rep.extras["omega"])
            ]
            assert max(ratios) <= 2.0, key
            if not parse_spec(key).is_singular:
                assert all(v <= 1.25 * ratios[0] for v in ratios[1:]), key


    def test_saturation_constant(self):
        # r = 1 saturates: n * err tends to the weighted Voronovskaya
        # constant max_x w(x) x(1-x) |f''(x)| / 2, which for
        # f = |x - xi|^(-1/2) and w = |x - xi|^4 is the closed form below
        xi = 0.513
        cfg = SweepConfig(1, Weight(xi, 4.0), "singular_power:beta=0.5",
                          (4096, 16384, 65536), 2001)
        x = np.linspace(0.0, 1.0, 2_000_001)
        limit = np.max(3.0 / 8.0 * x * (1.0 - x) * np.abs(x - xi) ** 1.5)
        for n, err in run_convergence(cfg).rows:
            assert n * err == pytest.approx(limit, rel=0.005), n


class TestComparePlainVsModified:
    def test_smooth_function_both_converge(self, weight513):
        cfg = SweepConfig(2, weight513, "smooth_sin:freq=1", (64, 128, 256), 401)
        plain, modified = compare_plain_vs_modified(cfg)
        assert plain.slope <= -1.5
        assert modified.slope <= -1.5
        assert all(b < a for a, b in zip(plain.values, plain.values[1:]))
        assert all(b < a for a, b in zip(modified.values, modified.values[1:]))
        # the blend's replacement error keeps the modified operator well
        # behind the plain one on smooth inputs at desk scale, though the
        # gap narrows as n grows
        gaps = [m / p for p, m in zip(plain.values, modified.values)]
        assert all(g > 1.0 for g in gaps)
        assert gaps[-1] < gaps[0]

    def test_weak_singularity_both_small(self, weight513):
        cfg = SweepConfig(2, weight513, "singular_power:beta=0.05", (64, 256), 401)
        plain, modified = compare_plain_vs_modified(cfg)
        assert all(v <= 0.02 for v in plain.values)
        assert all(v <= 0.02 for v in modified.values)
        assert plain.values[1] < plain.values[0]
        assert modified.values[1] < modified.values[0]

    def test_centered_singularity_breaks_plain_sampling(self):
        cfg = SweepConfig(1, Weight(0.5, 1.0), "singular_power:beta=0.5", (64,), 401)
        with pytest.raises(SampleError):
            compare_plain_vs_modified(cfg)


class TestBernsteinInequality:
    def test_lambda_validated(self, weight513):
        cfg = SweepConfig(1, weight513, "smooth_sin:freq=1", (64,), 401)
        for bad in (-0.1, 1.1):
            with pytest.raises(DomainError):
                check_bernstein_inequality(cfg, bad)

    def test_constant_has_zero_derivative(self, weight513):
        cfg = SweepConfig(1, weight513, "smooth_poly:coeffs=1", (64, 128), 401)
        rep = check_bernstein_inequality(cfg, 0.0)
        assert all(v <= 1e-9 * n**2 for (n, v) in rep.rows)

    def test_growth_capped_for_singular_input(self, weight513):
        cfg = SweepConfig(1, weight513, "singular_power:beta=0.5", (64, 128, 256), 401)
        rep = check_bernstein_inequality(cfg, 0.0)
        assert rep.extras["lambda"] == 0.0
        assert all(v > 0 for v in rep.values)
        assert rep.slope <= 2.0 + 0.35


def per_n_reference(cfg):
    """(plain, modified, derivative) sweep values, built n by n through the
    operator entry points, each ladder applying its own degrees."""
    grid = make_grid(cfg.weight, cfg.grid_size)
    f = make_function(parse_spec(cfg.function_key), cfg.weight)
    xs = grid.points
    f_vals = f(xs)
    plain, modified, deriv = [], [], []
    for n in cfg.n_list:
        op = build_modified_operator(n, cfg.r, cfg.weight)
        plain.append(weighted_norm(combine(f, op.scheme, xs) - f_vals, grid))
        modified.append(weighted_norm(modified_operator(op, f, xs) - f_vals, grid))
        deriv.append(weighted_norm(operator_derivative_2r(op, f, xs), grid))
    return tuple(plain), tuple(modified), tuple(deriv)


class TestSharedDegrees:
    # a sweep applies each distinct ladder degree once; (96, 160) shares none
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("ns", [(64, 128, 256), (96, 160)])
    def test_sweeps_equal_per_n_reference(self, weight513, r, ns):
        cfg = SweepConfig(r, weight513, "singular_power:beta=0.5", ns, 401)
        plain, modified, deriv = per_n_reference(cfg)
        assert run_convergence(cfg).values == modified
        got_plain, got_modified = compare_plain_vs_modified(cfg)
        assert got_plain.values == plain
        assert got_modified.values == modified
        assert check_bernstein_inequality(cfg, 0.0).values == deriv

    def test_each_degree_built_once(self, weight513, monkeypatch):
        built = []
        original = basis._band_blocks

        def counting(n, xs, lo, hi):
            built.append(n)
            return original(n, xs, lo, hi)

        monkeypatch.setattr(basis, "_band_blocks", counting)
        cfg = SweepConfig(3, weight513, "singular_power:beta=0.5", (256, 512, 1024), 2001)
        degrees = {d for n in cfg.n_list for d in (n, 2 * n, 3 * n)}
        assert len(degrees) == 7

        # one basis evaluation per distinct degree, serving every vector
        for sweep, shift in ((run_convergence, 0), (compare_plain_vs_modified, 0),
                             (lambda c: check_bernstein_inequality(c, 0.0), 6)):
            built.clear()
            sweep(cfg)
            assert collections.Counter(built) == {d - shift: 1 for d in degrees}

    def test_first_failure_is_the_per_n_one(self, weight513, monkeypatch):
        # NaN planted on the lattices of both ladders (64, 128) and (128,
        # 256), off the grid.  Degree 64's first blended point among them is
        # 50/64, since 30/64 lies in its window; its direct samples meet
        # 30/64 first.  A sweep that visited degree 128 first would name 3/128.
        planted = (30 / 64, 50 / 64, 3 / 128)
        smooth = make_function(parse_spec("smooth_sin:freq=1"), weight513)

        def f(x):
            return np.where(np.isin(x, planted), np.nan, smooth(x))

        monkeypatch.setattr(harness, "make_function", lambda spec, weight: f)
        cfg = SweepConfig(2, weight513, "smooth_sin:freq=1", (64, 128), 401)
        xs = cfg.grid.points
        assert not np.isin(xs, planted).any()

        def first_failure(sweep):
            with pytest.raises(SampleError) as err:
                sweep()
            return err.value.x

        def per_n(*applies):
            # the per-n entry points, n by n in n-list order
            return first_failure(lambda: [apply(op) for op in cfg.ops for apply in applies])

        modified = per_n(lambda op: modified_operator(op, f, xs))
        plain = per_n(lambda op: combine(f, op.scheme, xs),
                      lambda op: modified_operator(op, f, xs))
        deriv = per_n(lambda op: operator_derivative_2r(op, f, xs))
        assert (modified, plain, deriv) == (50 / 64, 30 / 64, 50 / 64)
        assert first_failure(lambda: run_convergence(cfg)) == modified
        assert first_failure(lambda: compare_plain_vs_modified(cfg)) == plain
        assert first_failure(lambda: check_bernstein_inequality(cfg, 0.0)) == deriv

    def test_every_ladder_sampled_through_blended_samples(self, weight513,
                                                          monkeypatch):
        # a wrapper on operators.blended_samples (the benchmark's blend-gap
        # trace) must see each ladder's blended samples, shared degrees too
        seen = []
        original = operators.blended_samples

        def recording(op, f):
            seen.append(op.scheme.nodes)
            return original(op, f)

        monkeypatch.setattr(operators, "blended_samples", recording)
        cfg = SweepConfig(2, weight513, "singular_power:beta=0.5", (64, 128), 401)
        ladders = [(64, 128), (128, 256)]
        for sweep in (run_convergence, compare_plain_vs_modified,
                      lambda c: check_bernstein_inequality(c, 0.0)):
            seen.clear()
            sweep(cfg)
            assert [tuple(nodes) for nodes in seen] == ladders

    def test_each_ladder_applied_before_the_next_is_sampled(self, weight513,
                                                            monkeypatch):
        # r = 3 ladders share degrees: (256, 512, 768), (512, 1024, 1536), ...
        events = []
        sample, apply = operators.blended_samples, harness._row_sums

        def sampling(op, f):
            events.append(("sample", op.scheme.nodes))
            return sample(op, f)

        def applying(n, xs, weights, lo=0):
            events.append(("apply", n, len(weights)))
            return apply(n, xs, weights, lo)

        monkeypatch.setattr(operators, "blended_samples", sampling)
        monkeypatch.setattr(harness, "_row_sums", applying)
        cfg = SweepConfig(3, weight513, "singular_power:beta=0.5",
                          (256, 512, 1024, 2048), 401)
        compare_plain_vs_modified(cfg)
        want, done = [], set()
        for n in cfg.n_list:
            nodes = (n, 2 * n, 3 * n)
            want.append(("sample", nodes))
            # the plain and the blended samples of each new degree, in one call
            want += [("apply", d, 2) for d in nodes if d not in done]
            done.update(nodes)
        assert events == want

    def test_holds_one_ladder_of_samples(self, weight513):
        # the multi-n sweep's tracemalloc peak against its last ladder swept
        # alone, which holds that ladder's samples (all three of its degrees
        # new there) and one apply's scratch; a sweep that kept every
        # degree's samples until the end held 1.6 MB more
        def peak(ns):
            cfg = SweepConfig(3, weight513, "singular_power:beta=0.5", ns, 101)
            tracemalloc.start()
            try:
                check_bernstein_inequality(cfg, 0.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ns = (16384, 32768, 65536)
        alone, multi = peak(ns[-1:]), peak(ns)
        # the grid applies every degree keeps for the combination
        applies = 8 * 101 * len({d for n in ns for d in (n, 2 * n, 3 * n)})
        assert multi <= alone + applies, (multi, alone)


class TestLemmaScans:
    # the worst relative distance of a scanned value from its fsum
    # reference below is 1.2 eps (lemma 6, n = 65536, beta = 0.5)
    FSUM_BOUND = 4.0

    def test_lemma1_within_fsum_bound(self, weight513):
        # the banded sums against math.fsum of the dense terms, all positive
        grid = make_grid(weight513, 1001)
        n = 4096
        xs = grid.points[(grid.points >= 1.0 / n) & (grid.points <= 1.0 - 1.0 / n)]
        kn = np.arange(1, n) / n
        terms = basis_matrix(n, xs)[:, 1:n] * (kn ** -1.5 * (1.0 - kn) ** -0.5)
        lhs = np.array([math.fsum(row) for row in terms.tolist()])
        want = float(np.max(lhs / (xs ** -1.5 * (1.0 - xs) ** -0.5)))
        got, = lemma1_scan(1.5, 0.5, (n,), grid).values
        assert abs(got - want) <= self.FSUM_BOUND * np.finfo(float).eps * want

    @pytest.mark.parametrize("n", [64, 4096, 65536])
    def test_lemma6_within_fsum_bound(self, n, weight513, grid513):
        # the banded scan against a dense reference: the moment terms of the
        # whole center window, each row summed by math.fsum
        pts = grid513.points
        xs = pts[(pts >= 1.0 / n) & (pts <= 1.0 - 1.0 / n)]
        half = math.sqrt(n)
        ks = np.arange(math.ceil(n * 0.513 - half), math.floor(n * 0.513 + half) + 1)
        # full-width rows, 16 at a time, cut to the window's columns
        window = np.vstack([basis_matrix(n, xs[i:i + 16])[:, ks[0]:ks[-1] + 1]
                            for i in range(0, xs.size, 16)])
        for beta in (0.5, 2.0, 7.5):
            terms = window * np.abs(ks - n * xs[:, None]) ** beta
            lhs = np.array([math.fsum(row) for row in terms.tolist()])
            scale = np.float64(n) ** (beta - 0.5) * (xs * (1.0 - xs)) ** (beta / 2.0)
            want = float(np.max(weight513(xs) * lhs / scale))
            got, = lemma6_scan(beta, weight513, (n,), grid513).values
            assert abs(got - want) <= self.FSUM_BOUND * np.finfo(float).eps * want, beta

    @pytest.mark.parametrize("n", [64, 4096, 65536])
    def test_lemma6_refuses_exactly_past_double_range(self, n, grid513):
        # the scan refuses beta exactly when some |k - n x|^beta of the dense
        # window overflows; alpha = 2 beta keeps n^(beta - alpha/2) at 1
        pts = grid513.points
        xs = pts[(pts >= 1.0 / n) & (pts <= 1.0 - 1.0 / n)]
        half = math.sqrt(n)
        ks = np.arange(math.ceil(n * 0.513 - half), math.floor(n * 0.513 + half) + 1)
        dist = np.abs(ks - n * xs[:, None])
        edge = math.log(np.finfo(float).max) / math.log(dist.max())
        outcomes = set()
        for rel in (-1e-3, -1e-12, -4e-16, -2e-16, 0.0, 2e-16, 4e-16, 1e-12, 1e-3):
            beta = edge * (1.0 + rel)
            with np.errstate(over="ignore"):
                overflows = bool(np.isinf(dist ** beta).any())
            try:
                lemma6_scan(beta, Weight(0.513, 2.0 * beta), (n,), grid513)
                refused = False
            except DomainError:
                refused = True
            assert refused == overflows, beta
            outcomes.add(refused)
        assert outcomes == {False, True}

    def test_scan_front(self):
        # the n list is checked before any value(n), and a non-finite
        # weighted value is refused with its x, as weighted_norm refuses it
        calls = []
        with pytest.raises(DomainError):
            harness._scan((128, 64), calls.append)
        assert calls == []
        xs = np.array([0.25, 0.5, 0.75])

        def value(n):
            return xs, np.array([1.0, np.inf if n == 128 else 2.0, 0.5])
        assert harness._scan((64,), value).values == (2.0,)
        with pytest.raises(SampleError, match=r"x=0\.5\b"):
            harness._scan((64, 128), value)

    def test_lemma1_trivial_case(self, grid513):
        rep = lemma1_scan(0.0, 0.0, (64, 256), grid513)
        assert max(rep.values) <= 1.0 + 1e-12

    def test_lemma1_golden(self, golden, full_grid_center):
        rep = lemma1_scan(1.0, 0.0, (100,), full_grid_center)
        assert rep.values[0] == pytest.approx(
            golden["lemma1_u1_v0_n100_ratio"], rel=1e-9
        )

    def test_lemma1_bounded_in_n(self, grid513):
        rep = lemma1_scan(2.0, 2.0, (64, 256, 1024), grid513)
        assert abs(rep.slope) <= 0.2

    def test_lemma1_validation(self, grid513):
        with pytest.raises(DomainError):
            lemma1_scan(-1.0, 0.0, (64,), grid513)

    def test_lemma3_validation(self, weight513, grid513):
        # a degree is an integer: 400.5 used to print row 400, computed at 400.5
        f = make_function(parse_spec("smooth_sin:freq=1"), weight513)
        for r, ns in ((2, (400.5,)), (2.5, (400,)), (9, (10**6,)), (2, (2 * 10**6,))):
            with pytest.raises(DomainError):
                lemma3_decay(r, f, ns, grid513)

    def test_lemma3_polynomial_exact(self, weight513, grid513):
        f = make_function(parse_spec("smooth_poly:coeffs=0;1"), weight513)
        rep = lemma3_decay(1, f, (64, 128), grid513)
        assert all(v <= 1e-11 for v in rep.values)

    @pytest.mark.parametrize("r,cap", [(1, -0.8), (2, -1.6)])
    def test_lemma3_sin_decay(self, r, cap, weight513, grid513):
        f = make_function(parse_spec("smooth_sin:freq=1"), weight513)
        rep = lemma3_decay(r, f, (64, 128, 256, 512), grid513)
        assert rep.slope <= cap

    @pytest.mark.parametrize("alpha,target", [(1.0, -0.5), (2.0, -1.0)])
    def test_lemma5_decay_rate(self, alpha, target):
        w = Weight(0.5, alpha)
        grid = make_grid(w, 401)
        rep = lemma5_scan(w, (64, 128, 256, 512, 1024), grid)
        assert rep.slope == pytest.approx(target, abs=0.25)

    def test_lemma5_validation(self, weight513, grid513):
        # one degree cap for every n list; it used to run unbounded here
        with pytest.raises(DomainError, match="at most 1000000"):
            lemma5_scan(weight513, (10**6 + 1,), grid513)

    def test_lemma5_pointwise_cap(self, weight_center, grid_center):
        # A_n(x) <= w(x) because the windowed basis sum is at most 1
        rep = lemma5_scan(weight_center, (64, 256), grid_center)
        assert max(rep.values) <= 0.5 * (1.0 + 1e-12)

    def test_lemma6_golden(self, golden, weight_center, full_grid_center):
        rep = lemma6_scan(2.0, weight_center, (256,), full_grid_center)
        assert rep.values[0] == pytest.approx(
            golden["lemma6_beta2_n256_ratio"], rel=1e-9
        )

    def test_lemma6_validation(self, weight513, grid513):
        with pytest.raises(DomainError):
            lemma6_scan(0.0, weight513, (64,), grid513)
        # n = 0 used to raise ZeroDivisionError
        with pytest.raises(DomainError):
            lemma6_scan(2.0, weight513, [0], grid513)

    @pytest.mark.parametrize("beta,slope,tol", [(1.0, -0.5, 0.15), (2.0, -1.0, 0.2)])
    def test_lemma6_ratio_decays(self, beta, slope, tol, weight513, grid513):
        # the scanned ratio sits under its n^(beta - alpha/2) envelope with
        # room to spare: restricting the moment sum to the center window
        # leaves an extra factor ~n^(-beta/2), so the measured ratio decays
        # instead of holding level
        rep = lemma6_scan(beta, weight513, (64, 256, 1024), grid513)
        assert all(b < a for a, b in zip(rep.values, rep.values[1:]))
        assert rep.slope == pytest.approx(slope, abs=tol)


class TestEmission:
    @pytest.fixture()
    def report(self):
        return build_report((32, 64, 128), (0.5, 0.25, 0.125))

    def test_csv_shape(self, report):
        text = render_report(report, "csv")
        lines = text.split("\r\n")
        assert lines[-1] == ""
        lines = lines[:-1]
        assert len(lines) == 4
        assert lines[0] == "n,value,slope,r_squared,gamma_hat"
        first = lines[1].split(",")
        assert first[0] == "32" and first[1] == "0.5"
        assert float(first[2]) == pytest.approx(-1.0, rel=1e-12)

    def test_empty_report_is_header_only(self):
        rep = build_report((), ())
        assert render_report(rep, "csv") == "n,value,slope,r_squared,gamma_hat\r\n"

    def test_none_fields_render_blank(self):
        rep = build_report((32, 64), (1e-12, 1e-13))
        line = render_report(rep, "csv").split("\r\n")[1]
        assert line == "32,1e-12,,,"

    def test_json_round_trip(self, report):
        payload = json.loads(render_report(report, "json"))
        assert payload["rows"] == [[32, 0.5], [64, 0.25], [128, 0.125]]
        assert payload["slope"] == pytest.approx(-1.0, rel=1e-12)
        assert payload["r_squared"] == pytest.approx(1.0, abs=1e-12)
        assert payload["gamma_hat"] == pytest.approx(2.0, rel=1e-12)

    def test_unknown_format(self, report):
        with pytest.raises(DomainError):
            render_report(report, "yaml")

    def test_emit_byte_deterministic(self, report, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        emit_report(report, "csv", p1)
        emit_report(report, "csv", p2)
        raw = p1.read_bytes()
        assert raw == p2.read_bytes()
        assert b"\r\n" in raw

    def test_emit_unwritable_path(self, report, tmp_path):
        with pytest.raises(OSError):
            emit_report(report, "csv", tmp_path / "missing_dir" / "x.csv")


def test_startup_imports():
    # np.unique's numpy.ma (about 10 ms), numpy.polynomial (2 ms) and
    # fractions with decimal (2 ms) are start-up no command needs; checked
    # in a fresh interpreter, since this one has imported them
    src = pathlib.Path(bernblend.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
