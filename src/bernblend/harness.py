"""Experiment engine: convergence sweeps, operator-norm scans, rate reports.

Every experiment reduces to a table of (n, value) pairs plus a log-log least
squares fit.  All sweeps are deterministic: no randomness, fixed grids, and
ufunc reductions whose summation order does not depend on thread count.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import operators
from .basis import (_MAX_DEGREE, _band_blocks, _check_degrees, _check_order,
                    _row_sums, evaluate, sample_function)
from .blend import BlendSpec, Weight, lagrange_interpolant
from .catalog import make_function, parse_spec
from .combination import combine_applied
# not called through these names (the sweeps apply per degree, lemma 6 sums its
# band, operators build the schemes); kept because perfbench/sweeps.py wraps them
from .basis import basis_matrix  # noqa: F401
from .combination import build_scheme, combine  # noqa: F401
from .errors import DomainError, NumericalError
from .operators import (ModifiedOperator, build_modified_operator,
                        lattice_derivative)
from .operators import operator_derivative_2r  # noqa: F401
from .smoothness import (_T_CAP, EvaluationGrid, _check_grid_size,
                         _weighted_max, make_grid, weighted_modulus,
                         weighted_norm)

_EXACT_THRESHOLD = 1e-9


def check_n_list(n_list) -> tuple[int, ...]:
    """The degrees as ints: nonempty, strictly ascending, each in 1..10^6."""
    ns = _check_degrees(n_list, _MAX_DEGREE)
    if not ns:
        raise DomainError("n_list must not be empty")
    return ns


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """Deterministic description of one experiment sweep, with each n's
    operator (``ops``, in n-list order) and the ``grid`` built once, here.
    Building the operators n by n checks every ladder degree's patch before
    any work: MinNTooSmall names the first degree that fails."""

    r: int
    weight: Weight
    function_key: str
    n_list: tuple[int, ...]
    grid_size: int = 2001
    ops: tuple[ModifiedOperator, ...] = field(init=False, repr=False)
    grid: EvaluationGrid = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ns = check_n_list(self.n_list)
        r = _check_order(self.r)
        grid_size = _check_grid_size(self.grid_size)
        ops = tuple(build_modified_operator(n, r, self.weight) for n in ns)
        for name, value in (("n_list", ns), ("r", r), ("grid_size", grid_size),
                            ("ops", ops), ("grid", make_grid(self.weight, grid_size))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class RateReport:
    """(n, value) rows with a fitted log-log slope.

    slope is None when the sweep is exact (all values at rounding level) or
    has too few usable rows; r_squared is None below 3 usable rows;
    gamma_hat = -2 * slope translates the slope in n to an exponent in
    1/sqrt(n).  extras carries sweep-specific side channels, which the
    JSON report prints and the CSV leaves out.
    """

    rows: tuple[tuple[int, float], ...]
    slope: float | None
    r_squared: float | None
    gamma_hat: float | None
    extras: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ns = _check_degrees([n for n, _ in self.rows])
        values = (float(v) for _, v in self.rows)
        object.__setattr__(self, "rows", tuple(zip(ns, values)))

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.rows)


def _is_exact(values, scale: float) -> bool:
    """Every value at most 1e-9 times ``scale`` (the size of the input)."""
    return bool(np.all(np.abs(np.asarray(values, dtype=float))
                       <= _EXACT_THRESHOLD * scale))


def fit_rate(ns, values, scale: float = 1.0
             ) -> tuple[float | None, float | None, float | None]:
    """OLS slope of ln(value) against ln(n), with r^2 and gamma = -2*slope.

    All-tiny sweeps (every value <= 1e-9 * scale, where scale is the size of
    the input, e.g. the weighted norm of f) mean the method is exact for
    this input; no slope is fitted.  Zero values cannot enter the log fit
    and are dropped row-wise.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("non-finite sweep value")
    if _is_exact(vals, scale):
        return None, None, None
    mask = vals > 0.0
    if int(mask.sum()) < 2:
        return None, None, None
    ln_n = np.log(ns[mask])
    ln_v = np.log(vals[mask])
    slope, intercept = np.polyfit(ln_n, ln_v, 1)
    r_squared = None
    if ln_n.size >= 3:
        resid = ln_v - (slope * ln_n + intercept)
        total = ln_v - ln_v.mean()
        ss_tot = float(total @ total)
        r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return float(slope), r_squared, -2.0 * float(slope)


def build_report(ns, values, extras: Mapping[str, object] | None = None,
                 scale: float = 1.0) -> RateReport:
    slope, r_squared, gamma = fit_rate(ns, values, scale)
    return RateReport(rows=tuple(zip(ns, values)), slope=slope, r_squared=r_squared,
                      gamma_hat=gamma, extras=dict(extras or {}))


def _apply_ladder(op: ModifiedOperator, f: Callable, applied: list[dict], xs: np.ndarray,
                  plain: bool, order: int) -> None:
    """Add to ``applied`` the grid applies of ``op``'s new degrees, each degree's
    sample sets in one ``_row_sums`` call; the samples go when it returns."""
    sets = {d: [sample_function(f, d)] if plain else []
            for d in op.scheme.nodes if d not in applied[0]}
    for sv in operators.blended_samples(op, f):
        if sv.n in sets:
            sets[sv.n].append(sv)
    for d, svs in sets.items():
        weights = [lattice_derivative(sv, order).values if order else sv.values for sv in svs]
        for out, row in zip(applied, _row_sums(d - order, xs, weights)):
            out[d] = row


def _sweep(config: SweepConfig, f: Callable, value: Callable[[np.ndarray], float],
           plain: bool = False, order: int = 0) -> list[list[float]]:
    """``value`` of each n's combination on the grid, one list per sample set.

    The sample sets of a ladder degree are f's own lattice samples (with
    ``plain``) and its blended samples, in that order; with ``order``, each
    goes through ``lattice_derivative`` first.  A blend spec depends only on
    (degree, r, weight), so a degree that several ladders share is applied
    once, for its first ladder.  Ladder by ladder, n by n: the new degrees'
    direct samples, the ladder's blended ones through
    ``operators.blended_samples`` (looked up on the module, so that a wrapper
    there, the benchmark's blend-gap trace, sees every ladder), then the new
    degrees' applies.  So one ladder's samples are held at a time, and the
    first failure is the one a per-n sweep would meet first.
    """
    applied = [{} for _ in range(1 + plain)]
    for op in config.ops:
        _apply_ladder(op, f, applied, config.grid.points, plain, order)
    return [[value(combine_applied(op.scheme, a)) for op in config.ops] for a in applied]


def run_convergence(config: SweepConfig) -> RateReport:
    """Weighted sup error of the modified combination along the n ladder.

    Besides the error rows, records per-n the order-2r weighted modulus at
    t = min(n^{-1/2}, 1/8) and the weighted norm of f itself, so the direct
    estimate error <= C*(modulus + n^{-r}*norm) can be audited as ratios.
    Each distinct ladder degree is applied once, and each distinct modulus
    step h scanned once, for all n.
    """
    grid = config.grid
    f = make_function(parse_spec(config.function_key), config.weight)
    f_vals = evaluate(f, grid.points)
    errors, = _sweep(config, f, lambda g: weighted_norm(g - f_vals, grid))
    t_used = [min(1.0 / math.sqrt(n), _T_CAP) for n in config.n_list]
    moduli = weighted_modulus(f, 2 * config.r, t_used, grid)
    f_norm = weighted_norm(f_vals, grid)
    extras = {
        "omega": moduli,
        "t": tuple(t_used),
        "weighted_f_norm": f_norm,
        "exact": _is_exact(errors, f_norm),
    }
    return build_report(config.n_list, errors, extras, f_norm)


def compare_plain_vs_modified(config: SweepConfig) -> tuple[RateReport, RateReport]:
    """(plain, modified) error reports on the same ladder and grid.

    Plain means the unblended combination, sampling f directly at the
    lattice; for singular f this is exactly the construction the blend is
    meant to repair.  Both sample vectors of a degree share one basis build.
    """
    grid = config.grid
    f = make_function(parse_spec(config.function_key), config.weight)
    f_vals = evaluate(f, grid.points)
    errors = _sweep(config, f, lambda g: weighted_norm(g - f_vals, grid), plain=True)
    f_norm = weighted_norm(f_vals, grid)
    return tuple(build_report(config.n_list, errs, scale=f_norm) for errs in errors)


def check_bernstein_inequality(config: SweepConfig, lam: float) -> RateReport:
    """Growth of ||w * phi^(2 r lam) * d^(2r) modified(f)|| along the ladder.

    The fitted exponent is compared by callers against 2r (lam=0) or r
    (lam=1).  Each distinct ladder degree's lattice differences are applied
    once and shared by every n.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError("lambda must lie in [0, 1]")
    grid, xs = config.grid, config.grid.points
    f = make_function(parse_spec(config.function_key), config.weight)
    phi_pow = (xs * (1.0 - xs)) ** (config.r * lam)  # phi^(2 r lam)
    values, = _sweep(config, f, lambda g: weighted_norm(phi_pow * g, grid),
                     order=2 * config.r)
    return build_report(config.n_list, values, {"lambda": lam})


def _interior_points(grid: EvaluationGrid, n: int) -> np.ndarray:
    """The grid points in [1/n, 1 - 1/n]; DomainError if there are none."""
    xs = grid.points[(grid.points >= 1.0 / n) & (grid.points <= 1.0 - 1.0 / n)]
    if not xs.size:
        raise DomainError(f"no grid point lies in the window [1/n, 1 - 1/n] = "
                          f"[{1.0 / n!r}, {1.0 - 1.0 / n!r}] for n = {n}")
    return xs


def lemma1_scan(u: float, v: float, n_list, grid: EvaluationGrid) -> RateReport:
    """Max over the grid of the interior moment sum over its claimed bound.

    value(n) = max_x sum_{k=1}^{n-1} (k/n)^-u (1-k/n)^-v p_nk(x)
               / (x^-u (1-x)^-v), x restricted to [1/n, 1-1/n].
    """
    if not (0.0 <= u < math.inf and 0.0 <= v < math.inf):
        raise DomainError(f"u and v must be finite and nonnegative, got {u!r}, {v!r}")
    n_list = check_n_list(n_list)
    values = []
    for n in n_list:
        xs = _interior_points(grid, n)
        kn = np.arange(1, n) / n
        with np.errstate(over="ignore"):
            coef = kn ** -u * (1.0 - kn) ** -v
            bound = xs ** -u * (1.0 - xs) ** -v
        if not (np.all(np.isfinite(coef)) and np.all(np.isfinite(bound))):
            raise DomainError(f"u={u!r}, v={v!r}: the weights x^-u (1-x)^-v "
                              f"overflow at n={n}")
        lhs, = _row_sums(n, xs, [coef], 1)
        values.append(float(np.max(lhs / bound)))
    return build_report(n_list, values, {"u": u, "v": v})


def lemma3_decay(r: int, f: Callable, n_list, grid: EvaluationGrid) -> RateReport:
    """Sup over the patch window, weighted by the grid's weight, of f minus
    its node interpolant."""
    n_list = check_n_list(n_list)
    values = []
    for n in n_list:
        spec = BlendSpec(n, r, grid.weight)
        b = spec.breaks
        xs = grid.points[(grid.points >= b[0]) & (grid.points <= b[3])]
        # a copy: f may hand back a buffer that its next call refills
        gap = evaluate(f, xs).copy() - lagrange_interpolant(f, spec.nodes, xs)
        values.append(_weighted_max(xs, grid.weight(xs) * gap))
    return build_report(n_list, values)


def _center_window(n: int, xi: float) -> tuple[int, int]:
    """The columns [lo, hi) of the k in 0..n with |k - n xi| <= sqrt(n)."""
    half = math.sqrt(n)
    return max(0, math.ceil(n * xi - half)), min(n, math.floor(n * xi + half)) + 1


def lemma5_scan(weight: Weight, n_list, grid: EvaluationGrid) -> RateReport:
    """Max over the grid of w(x) * sum of the basis over |k - n xi| <= sqrt(n)."""
    n_list = check_n_list(n_list)
    values = []
    for n in n_list:
        lo, hi = _center_window(n, weight.xi)
        # unit weights: the window's basis sum, band by band
        sums, = _row_sums(n, grid.points, [np.ones(hi - lo)], lo)
        a_n = weight(grid.points) * sums
        values.append(float(np.max(a_n)))
    return build_report(n_list, values)


def lemma6_scan(beta: float, weight: Weight, n_list,
                grid: EvaluationGrid) -> RateReport:
    """Center-window moment sum against its n^(beta - alpha/2) phi^beta bound.

    value(n) = max_x w(x) sum_{|k-n xi| <= sqrt n} |k - n x|^beta p_nk(x)
               / (n^(beta - alpha/2) phi(x)^beta), x in [1/n, 1-1/n].
    """
    if not 0.0 < beta < math.inf:
        raise DomainError(f"beta must be positive and finite, got {beta!r}")
    n_list = check_n_list(n_list)
    values = []
    for n in n_list:
        xs = _interior_points(grid, n)
        lo, hi = _center_window(n, weight.xi)
        ks = np.arange(lo, hi)
        with np.errstate(over="ignore"):
            # the largest |k - n x|: the window's ends against the points' ends
            peak = np.abs(ks[[0, -1], None] - n * xs[[0, -1]]) ** beta
            scale = np.float64(n) ** (beta - weight.alpha / 2.0)
        if not (0.0 < scale < math.inf and np.all(np.isfinite(peak))):
            raise DomainError(f"beta={beta!r}, alpha={weight.alpha!r}: |k - n x|^beta "
                              f"or n^(beta - alpha/2) leaves double range at n={n}")
        lhs = np.zeros(xs.size)
        for rows, a, b, vals in _band_blocks(n, xs, lo, hi):
            d = np.abs(ks[a:b] - n * xs[rows, None]) ** beta
            lhs[rows] = np.multiply(vals, d, out=vals).sum(axis=-1)
        phi_b = (xs * (1.0 - xs)) ** (beta / 2.0)
        values.append(float(np.max(weight(xs) * lhs / (scale * phi_b))))
    return build_report(n_list, values, {"beta": beta})


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_report(report: RateReport, fmt: str) -> str:
    """Report text as CSV (RFC 4180 line endings) or JSON.

    Output is a pure function of the report contents, so emitted files are
    byte-identical across runs.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["n", "value", "slope", "r_squared", "gamma_hat"])
        for n, value in report.rows:
            writer.writerow([n, _cell(float(value)), _cell(report.slope),
                             _cell(report.r_squared), _cell(report.gamma_hat)])
        return buf.getvalue()
    if fmt == "json":
        return json.dumps(_payload(report), indent=2, sort_keys=True) + "\n"
    raise DomainError(f"unknown report format {fmt!r}")


def _payload(report: RateReport) -> dict:
    """The JSON report's object; ``compare`` prints two under one."""
    return {"rows": [[n, value] for n, value in report.rows], "slope": report.slope,
            "r_squared": report.r_squared, "gamma_hat": report.gamma_hat,
            "extras": dict(report.extras)}


def emit_report(report: RateReport, fmt: str, path) -> None:
    """Write a report file; see render_report for the wire format."""
    text = render_report(report, fmt)
    # newline="" so the CSV's CRLF survives on every platform
    with open(path, "w", newline="") as fh:
        fh.write(text)
