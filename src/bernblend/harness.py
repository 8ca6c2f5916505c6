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

from .basis import basis_matrix
from .blend import (Weight, breakpoints, interpolation_nodes,
                    lagrange_interpolant)
from .catalog import make_function, parse_spec
from .combination import build_scheme, combine
from .errors import DomainError, NumericalError
from .operators import (build_modified_operator, modified_operator,
                        operator_derivative_2r)
from .smoothness import (EvaluationGrid, ModulusParams, make_grid,
                         weighted_norm)
from .smoothness import weighted_modulus

_EXACT_THRESHOLD = 1e-9
_T_CAP = 0.125


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """Deterministic description of one experiment sweep."""

    r: int
    weight: Weight
    function_key: str
    n_list: tuple[int, ...]
    grid_size: int = 2001

    def __post_init__(self) -> None:
        ns = tuple(int(n) for n in self.n_list)
        if not ns or any(n <= 0 for n in ns):
            raise DomainError("n_list must contain positive integers")
        if list(ns) != sorted(set(ns)):
            raise DomainError("n_list must be strictly ascending")
        if self.r < 1:
            raise DomainError("r must be a positive integer")
        if self.grid_size < 16:
            raise DomainError("grid_size too small")
        # every ladder node (i+1)n must admit the patch geometry; raises
        # MinNTooSmall naming the first node that does not
        for n in ns:
            for i in range(self.r):
                breakpoints((i + 1) * n, self.weight)
        object.__setattr__(self, "n_list", ns)


@dataclass(frozen=True, eq=False)
class RateReport:
    """(n, value) rows with a fitted log-log slope.

    slope is None when the sweep is exact (all values at rounding level) or
    has too few usable rows; r_squared is None below 3 usable rows;
    gamma_hat = -2 * slope translates the slope in n to an exponent in
    1/sqrt(n).  extras carries sweep-specific side channels (not emitted).
    """

    rows: tuple[tuple[int, float], ...]
    slope: float | None
    r_squared: float | None
    gamma_hat: float | None
    extras: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ns = [n for n, _ in self.rows]
        if ns != sorted(set(ns)):
            raise DomainError("report rows must be ascending in n")

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.rows)


def fit_rate(ns, values) -> tuple[float | None, float | None, float | None]:
    """OLS slope of ln(value) against ln(n), with r^2 and gamma = -2*slope.

    All-tiny sweeps (every value <= 1e-9) mean the method is exact for this
    input; no slope is fitted.  Zero values cannot enter the log fit and are
    dropped row-wise.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("non-finite sweep value")
    if np.all(np.abs(vals) <= _EXACT_THRESHOLD):
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


def build_report(ns, values, extras: Mapping[str, object] | None = None) -> RateReport:
    slope, r_squared, gamma = fit_rate(ns, values)
    rows = tuple((int(n), float(v)) for n, v in zip(ns, values))
    return RateReport(rows=rows, slope=slope, r_squared=r_squared,
                      gamma_hat=gamma, extras=dict(extras or {}))


def _sweep_pieces(config: SweepConfig):
    grid = make_grid(config.weight, config.grid_size)
    f = make_function(parse_spec(config.function_key), config.weight)
    return grid, f


def run_convergence(config: SweepConfig) -> RateReport:
    """Weighted sup error of the modified combination along the n ladder.

    Besides the error rows, records per-n the order-2r weighted modulus at
    t = min(n^{-1/2}, 1/8) and the weighted norm of f itself, so the direct
    estimate error <= C*(modulus + n^{-r}*norm) can be audited as ratios.
    """
    grid, f = _sweep_pieces(config)
    xs = grid.points
    f_vals = f(xs)
    errors = []
    moduli = []
    t_used = []
    for n in config.n_list:
        op = build_modified_operator(n, config.r, config.weight)
        approx = modified_operator(op, f, xs)
        errors.append(weighted_norm(approx - f_vals, config.weight, grid))
        t = min(1.0 / math.sqrt(n), _T_CAP)
        params = ModulusParams(r2=2 * config.r, t=t)
        moduli.append(weighted_modulus(f, config.weight, params, grid))
        t_used.append(t)
    extras = {
        "omega": tuple(moduli),
        "t": tuple(t_used),
        "weighted_f_norm": weighted_norm(f_vals, config.weight, grid),
        "exact": all(e <= _EXACT_THRESHOLD for e in errors),
    }
    return build_report(config.n_list, errors, extras)


def compare_plain_vs_modified(config: SweepConfig) -> tuple[RateReport, RateReport]:
    """(plain, modified) error reports on the same ladder and grid.

    Plain means the unblended combination, sampling f directly at the
    lattice; for singular f this is exactly the construction the blend is
    meant to repair.
    """
    grid, f = _sweep_pieces(config)
    xs = grid.points
    f_vals = f(xs)
    plain_errs = []
    mod_errs = []
    for n in config.n_list:
        scheme = build_scheme(n, config.r)
        plain_vals = combine(f, scheme, xs)
        plain_errs.append(weighted_norm(plain_vals - f_vals, config.weight, grid))
        op = build_modified_operator(n, config.r, config.weight)
        mod_vals = modified_operator(op, f, xs)
        mod_errs.append(weighted_norm(mod_vals - f_vals, config.weight, grid))
    return (build_report(config.n_list, plain_errs),
            build_report(config.n_list, mod_errs))


def check_bernstein_inequality(config: SweepConfig, lam: float) -> RateReport:
    """Growth of ||w * phi^(2 r lam) * d^(2r) modified(f)|| along the ladder.

    The fitted exponent is compared by callers against 2r (lam=0) or r
    (lam=1).
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError("lambda must lie in [0, 1]")
    grid, f = _sweep_pieces(config)
    xs = grid.points
    phi_pow = (xs * (1.0 - xs)) ** (config.r * lam)  # phi^(2 r lam)
    values = []
    for n in config.n_list:
        op = build_modified_operator(n, config.r, config.weight)
        deriv = operator_derivative_2r(op, f, xs)
        values.append(weighted_norm(phi_pow * deriv, config.weight, grid))
    return build_report(config.n_list, values, {"lambda": lam})


def lemma1_scan(u: float, v: float, n_list, grid: EvaluationGrid) -> RateReport:
    """Max over the grid of the interior moment sum over its claimed bound.

    value(n) = max_x sum_{k=1}^{n-1} (k/n)^-u (1-k/n)^-v p_nk(x)
               / (x^-u (1-x)^-v), x restricted to [1/n, 1-1/n].
    """
    if not (0.0 <= u < math.inf and 0.0 <= v < math.inf):
        raise DomainError(f"u and v must be finite and nonnegative, got {u!r}, {v!r}")
    values = []
    for n in n_list:
        xs = grid.points[(grid.points >= 1.0 / n) & (grid.points <= 1.0 - 1.0 / n)]
        ks = np.arange(1, n)
        kn = ks / n
        coef = kn ** -u * (1.0 - kn) ** -v
        rows = basis_matrix(n, xs, ks)
        lhs = (rows * coef).sum(axis=1)
        bound = xs ** -u * (1.0 - xs) ** -v
        values.append(float(np.max(lhs / bound)))
    return build_report(n_list, values, {"u": u, "v": v})


def lemma3_decay(r: int, weight: Weight, f: Callable, n_list,
                 grid: EvaluationGrid) -> RateReport:
    """Weighted sup of f minus its node interpolant over the patch window."""
    values = []
    for n in n_list:
        nodes = interpolation_nodes(n, r, weight)
        b = breakpoints(n, weight)
        xs = grid.points[(grid.points >= b[0]) & (grid.points <= b[3])]
        gap = np.abs(np.asarray(f(xs), dtype=float)
                     - lagrange_interpolant(f, nodes, xs))
        values.append(float(np.max(weight(xs) * gap)))
    return build_report(n_list, values)


def _center_window(n: int, xi: float) -> np.ndarray:
    half = math.sqrt(n)
    lo = max(0, math.ceil(n * xi - half))
    hi = min(n, math.floor(n * xi + half))
    return np.arange(lo, hi + 1)


def lemma5_scan(weight: Weight, n_list, grid: EvaluationGrid) -> RateReport:
    """Max over the grid of w(x) * sum of the basis over |k - n xi| <= sqrt(n)."""
    values = []
    for n in n_list:
        ks = _center_window(n, weight.xi)
        rows = basis_matrix(n, grid.points, ks)
        a_n = weight(grid.points) * rows.sum(axis=1)
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
    values = []
    for n in n_list:
        xs = grid.points[(grid.points >= 1.0 / n) & (grid.points <= 1.0 - 1.0 / n)]
        ks = _center_window(n, weight.xi)
        rows = basis_matrix(n, xs, ks)
        moment = np.abs(ks[None, :] - n * xs[:, None]) ** beta
        lhs = weight(xs) * (rows * moment).sum(axis=1)
        phi_b = (xs * (1.0 - xs)) ** (beta / 2.0)
        scale = n ** (beta - weight.alpha / 2.0)
        values.append(float(np.max(lhs / (scale * phi_b))))
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
        payload = {
            "rows": [[n, value] for n, value in report.rows],
            "slope": report.slope,
            "r_squared": report.r_squared,
            "gamma_hat": report.gamma_hat,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise DomainError(f"unknown report format {fmt!r}")


def emit_report(report: RateReport, fmt: str, path) -> None:
    """Write a report file; see render_report for the wire format."""
    text = render_report(report, fmt)
    # newline="" so the CSV's CRLF survives on every platform
    with open(path, "w", newline="") as fh:
        fh.write(text)
