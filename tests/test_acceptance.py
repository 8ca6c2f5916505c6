"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Each test prints a [PASS]/[FAIL] line per clause and then asserts that every
clause held, so a red test shows exactly which guarantee broke and by how
much.  Tolerances and parameter ranges are part of the contract; two known
desk-scale shortfalls are asserted as written and left red on purpose (see
the clause comments in test_06 and test_09).
"""

import math

import numpy as np

from bernblend import (DEFAULT_KEYS, BlendSpec, ModulusParams, SweepConfig,
                       Weight, blend_eval, build_modified_operator,
                       build_scheme, check_bernstein_inequality,
                       compare_plain_vs_modified, lemma1_scan, lemma5_scan,
                       lemma6_scan, make_function, make_grid, modified_operator,
                       moment_table, parse_spec, run_convergence,
                       solve_psi_coefficients, weighted_modulus, weighted_norm)
from smoothstep_system import determinant_check, determinant_reference

WEIGHT = Weight(0.513, 1.0)


def check(clauses, label, ok, detail):
    clauses.append(bool(ok))
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def test_01_smoothstep_coefficients_and_determinants():
    clauses = []
    coeffs = solve_psi_coefficients(1)
    gap = float(np.max(np.abs(coeffs - np.array([10.0, -15.0, 6.0]))))
    check(clauses, "order-1 smoothstep coefficients (10,-15,6)", gap <= 1e-12,
          f"max deviation {gap:.3e}")
    for r in (1, 2, 3):
        want = 1.0
        for j in range(2, 2 * r + 1):
            want *= math.factorial(j)
        got = determinant_check(r)
        rel = abs(got - want) / want
        ok = rel <= 1e-9 and determinant_reference(r) == want
        check(clauses, f"system determinant r={r} equals {want:.0f}", ok,
              f"relative error {rel:.3e}")
    assert all(clauses)


def test_02_combination_weights_and_conditions():
    clauses = []
    bases = (32, 64, 128, 256, 512, 1024, 2048)
    for r in (1, 2, 3, 4, 5):
        worst = 0.0
        for base in bases:
            scheme = build_scheme(base, r)
            c = np.asarray(scheme.coeffs)
            n = np.asarray(scheme.nodes, dtype=float)
            worst = max(worst, abs(float(c.sum()) - 1.0))
            for k in range(1, r):
                terms = c * n ** -float(k)
                worst = max(worst, abs(float(terms.sum())) / float(np.abs(terms).sum()))
        check(clauses, f"normalization and annihilation residuals r={r}",
              worst <= 1e-10, f"worst relative residual {worst:.3e}")
    two = np.asarray(build_scheme(100, 2).coeffs)
    three = np.asarray(build_scheme(100, 3).coeffs)
    gap2 = float(np.max(np.abs(two - np.array([-1.0, 2.0]))))
    gap3 = float(np.max(np.abs(three - np.array([0.5, -4.0, 4.5]))))
    check(clauses, "ladder (n,2n) weights (-1,2)", gap2 <= 1e-12, f"gap {gap2:.3e}")
    check(clauses, "ladder (n,2n,3n) weights (1/2,-4,9/2)", gap3 <= 1e-12,
          f"gap {gap3:.3e}")
    assert all(clauses)


def test_03_central_moment_annihilation():
    clauses = []
    xs = np.linspace(0.0, 1.0, 201)
    for r in (1, 2, 3, 4):
        worst = 0.0
        for base in (32, 64, 128, 256, 512):
            scheme = build_scheme(base, r)
            table = moment_table(scheme, list(range(1, r + 1)), xs)
            worst = max(worst, float(np.max(np.abs(table))))
        check(clauses, f"moments of orders 1..{r} vanish for the order-{r} ladder",
              worst <= 1e-8, f"worst |moment| {worst:.3e}")
    assert all(clauses)


def test_04_polynomial_reproduction():
    clauses = []
    xs = np.linspace(0.0, 1.0, 401)
    grid = make_grid(WEIGHT, 401)
    for r in (1, 2, 3):
        coeffs = (0.3, -0.7, 0.41, 0.13)[: r + 1]
        poly = np.polynomial.Polynomial(coeffs)
        spec = BlendSpec(64, r, WEIGHT)
        gap_blend = float(np.max(np.abs(blend_eval(poly, spec, xs) - poly(xs))))
        check(clauses, f"blended function keeps degree-{r} polynomials",
              gap_blend <= 1e-10, f"max pointwise gap {gap_blend:.3e}")
        op = build_modified_operator(64, r, WEIGHT)
        pts = grid.points
        err = weighted_norm(modified_operator(op, poly, pts) - poly(pts), grid)
        check(clauses, f"modified operator keeps degree-{r} polynomials",
              err <= 1e-9, f"weighted sup error {err:.3e}")
    assert all(clauses)


def test_05_smooth_function_convergence_rate():
    clauses = []
    cfg = SweepConfig(2, WEIGHT, "smooth_sin:freq=1", (32, 64, 128, 256, 512), 2001)
    rep = run_convergence(cfg)
    check(clauses, "fitted weighted-error slope at or below -1.7",
          rep.slope <= -1.7, f"slope {rep.slope:.4f}")
    check(clauses, "log-log fit quality r^2 >= 0.98",
          rep.r_squared >= 0.98, f"r^2 {rep.r_squared:.5f}")
    assert all(clauses)


def test_06_singular_function_improvement(golden):
    clauses = []
    cfg = SweepConfig(2, WEIGHT, "singular_power:beta=0.5",
                      (64, 128, 256, 512, 1024), 2001)
    plain, modified = compare_plain_vs_modified(cfg)
    for label, rep, key in (
        ("modified", modified, "singular_power_modified_errors"),
        ("plain", plain, "singular_power_plain_errors"),
    ):
        gap = max(abs(a - b) / b for a, b in zip(rep.values, golden[key]))
        check(clauses, f"{label} errors match frozen baseline", gap <= 1e-9,
              f"max relative drift {gap:.3e}")
    dec = all(b < a for a, b in zip(modified.values, modified.values[1:]))
    check(clauses, "modified errors strictly decreasing", dec,
          f"values {[f'{v:.4f}' for v in modified.values]}")
    # measured E_1024/E_64 = 0.509: the error halves only just past this
    # degree range, so the halving clause is red at desk scale
    ratio = modified.values[-1] / modified.values[0]
    check(clauses, "error at n=1024 below half the error at n=64", ratio < 0.5,
          f"ratio {ratio:.4f}")
    # measured modified/plain = 5.2 at n=1024: the plain combination is
    # still ahead on this input at desk scale, so this clause is red too
    vs_plain = modified.values[-1] / plain.values[-1]
    check(clauses, "modified error at most a third of plain at n=1024",
          vs_plain <= 1.0 / 3.0, f"modified/plain {vs_plain:.4f}")
    assert all(clauses)


def test_07_derivative_growth_exponent():
    clauses = []
    for r in (1, 2):
        cfg = SweepConfig(r, WEIGHT, "singular_power:beta=0.5",
                          (64, 128, 256, 512), 401)
        for lam, cap in ((0.0, 2 * r + 0.35), (1.0, r + 0.35)):
            rep = check_bernstein_inequality(cfg, lam)
            check(clauses,
                  f"2r-th derivative norm growth r={r} lambda={lam:g} within {cap}",
                  rep.slope <= cap, f"fitted exponent {rep.slope:.4f}")
    assert all(clauses)


def test_08_weighted_kernel_sum_decay():
    clauses = []
    ns = (64, 128, 256, 512, 1024, 2048, 4096)
    for alpha in (0.5, 1.0, 2.0):
        weight = Weight(0.5, alpha)
        rep = lemma5_scan(weight, ns, make_grid(weight, 401))
        ok = abs(rep.slope - (-alpha / 2.0)) <= 0.25
        check(clauses, f"peak weighted kernel sum decays like n^(-{alpha / 2:g})",
              ok, f"slope {rep.slope:.4f}")
    assert all(clauses)


def test_09_moment_ratio_flatness(grid513):
    clauses = []
    ns = (64, 128, 256, 512, 1024)
    for u, v in ((1.0, 0.0), (2.0, 2.0)):
        rep = lemma1_scan(u, v, ns, grid513)
        check(clauses, f"endpoint moment ratio flat in n for powers ({u:g},{v:g})",
              abs(rep.slope) <= 0.3, f"slope {rep.slope:.4f}")
    for beta in (1.0, 2.0):
        # measured slope is about -beta/2, not 0: the scanned ratio decays
        # below its envelope because the moment sum is restricted to the
        # center window, so the flatness clause is red as stated
        rep = lemma6_scan(beta, WEIGHT, ns, grid513)
        check(clauses, f"center moment ratio flat in n for beta={beta:g}",
              abs(rep.slope) <= 0.3, f"slope {rep.slope:.4f}")
    assert all(clauses)


def test_10_modulus_sanity():
    clauses = []
    grid = make_grid(WEIGHT, 401)
    affine = make_function(parse_spec("smooth_poly:coeffs=0;1"), WEIGHT)
    flat, = weighted_modulus(affine, [ModulusParams(r2=4, t=0.125)], grid)
    check(clauses, "order-4 modulus of an affine function vanishes",
          flat <= 1e-12, f"value {flat:.3e}")
    ts = [2.0 ** -k for k in range(3, 11)]
    for key in DEFAULT_KEYS:
        f = make_function(parse_spec(key), WEIGHT)
        vals = weighted_modulus(f, [ModulusParams(r2=4, t=t) for t in ts], grid)
        mono = all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        check(clauses, f"modulus nondecreasing in t for {key}", mono,
              f"values {[f'{v:.3e}' for v in vals]}")
        shrinks = vals[0] <= 1e-12 or vals[-1] <= vals[0] / 4.0
        check(clauses, f"modulus heads to zero along halving t for {key}",
              shrinks, f"first {vals[0]:.3e} last {vals[-1]:.3e}")
    assert all(clauses)
