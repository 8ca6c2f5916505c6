"""One sweep of each workload, plain and traced.

The plain sweep calls the harness's public entry points exactly as the CLI
does.  The traced sweep runs the same code with the functions in _SPANS
replaced, in their modules' namespaces, by wrappers that record a span
around each call; its rendered output must equal the plain sweep's byte for
byte, which guards against the wrappers changing what they wrap.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from bernblend import (SweepConfig, Weight, build_modified_operator,
                       build_scheme, check_bernstein_inequality,
                       compare_plain_vs_modified, lemma1_scan, lemma5_scan,
                       lemma6_scan, make_function, make_grid, moment_table,
                       parse_spec, render_report, run_convergence)
from bernblend import basis, combination, harness, operators

import inputs


class State:
    """Inputs built once per run; the set-up that ``setup_s`` times."""

    def __init__(self, inp: inputs.Inputs):
        self.weight = Weight(inp.xi, inputs.ALPHA)
        self.grid = make_grid(self.weight, inputs.GRID)
        self.function = make_function(parse_spec(inputs.FUNCTION), self.weight)
        if inp.workload == "singular-sweep":
            r, ns = inputs.SINGULAR_R, inputs.SINGULAR_NS
        else:
            r, ns = inputs.LARGE_R, inputs.LARGE_NS
        self.config = SweepConfig(r=r, weight=self.weight, function_key=inputs.FUNCTION,
                                  n_list=ns, grid_size=inputs.GRID)
        # the harness rebuilds these inside every sweep; building them here
        # too makes setup_s cover the construction for every ladder degree
        self.operators = [build_modified_operator(n, r, self.weight) for n in ns]
        if inp.workload == "basis-layer":
            self.schemes = [build_scheme(n, r) for n in ns]
            self.scheme = build_scheme(inputs.MOMENT_BASE_N, inputs.MOMENT_R)
            self.points = np.array(inp.moment_points)

    @property
    def grid_points(self) -> int:
        return int(self.grid.points.size)


def run(inp: inputs.Inputs, state: State) -> list[tuple[str, str]]:
    """One plain sweep; returns its rendered (name, text) pieces."""
    if inp.workload == "singular-sweep":
        report = run_convergence(state.config)
        return [("approx", render_report(report, "csv")),
                ("approx extras", _render_extras(report.extras))]
    plain, modified = compare_plain_vs_modified(state.config)
    ineq = check_bernstein_inequality(state.config, 0.0)
    grid, weight = state.grid, state.weight
    r1 = lemma1_scan(1.0, 0.0, inputs.LEMMA1_NS, grid)
    r5 = lemma5_scan(weight, inputs.CENTRE_NS, grid)
    r6 = lemma6_scan(2.0, weight, inputs.CENTRE_NS, grid)
    table = moment_table(state.scheme, inputs.MOMENT_POWERS, state.points)
    return [("compare", _render_compare(plain, modified)),
            ("bernstein-ineq", render_report(ineq, "csv")),
            ("lemma 1", render_report(r1, "csv")),
            ("lemma 5", render_report(r5, "csv")),
            ("lemma 6", render_report(r6, "csv")),
            ("moment_table", _render_table(table))]


def _render_extras(extras) -> str:
    return "".join(f"{key}={value!r}\n" for key, value in sorted(extras.items()))


def _render_compare(plain, modified) -> str:
    # the bytes `bernblend compare` writes to stdout
    return ("# plain\n" + render_report(plain, "csv")
            + "# modified\n" + render_report(modified, "csv"))


def _render_table(table: np.ndarray) -> str:
    return "".join(f"{p}," + ",".join(repr(v) for v in row.tolist()) + "\n"
                   for p, row in zip(inputs.MOMENT_POWERS, table))


def _dense(n, xs, ks=None) -> dict:
    """Basis values a dense basis_matrix(n, xs, ks) call produces."""
    return {"entries": np.size(xs) * (n + 1 if ks is None else np.size(ks))}


def _row(n, x, ks=None) -> dict:
    return {"entries": n + 1 if ks is None else np.size(ks)}


def _blend_gap(op, f) -> dict:
    # blend_eval samples f only outside (b2, b3) and at the patch nodes,
    # all at least 1/sqrt(n) from xi for each spec's degree n
    return {"gap": min(1.0 / math.sqrt(spec.n) for spec in op.specs)}


_THIS = sys.modules[__name__]

# (module, function, span name, span keyword arguments from the call's
# arguments).  Each function is replaced in the namespace its callers look
# it up in: this module's for the entry points, bernblend's for the rest.
_SPANS = (
    (_THIS, "run_convergence", "harness.convergence", None),
    (_THIS, "compare_plain_vs_modified", "harness.compare", None),
    (_THIS, "check_bernstein_inequality", "harness.bernstein", None),
    (_THIS, "lemma1_scan", "harness.scan", None),
    (_THIS, "lemma5_scan", "harness.scan", None),
    (_THIS, "lemma6_scan", "harness.scan", None),
    (_THIS, "moment_table", "combination.moment_table", None),
    (_THIS, "render_report", "harness.report", None),
    (harness, "make_grid", "smoothness.grid", None),
    (harness, "build_modified_operator", "operators.build", None),
    (harness, "build_scheme", "combination.scheme", None),
    (harness, "combine", "combination.combine", None),
    (harness, "weighted_norm", "smoothness.norm", None),
    (harness, "weighted_modulus", "smoothness.modulus", None),
    (harness, "operator_derivative_2r", "operators.derivative", None),
    (harness, "build_report", "harness.report", None),
    (harness, "basis_matrix", "basis.matrix", _dense),
    (operators, "blended_samples", "blend.samples", _blend_gap),
    (operators, "combine_samples", "combination.combine", None),
    (operators, "basis_matrix", "basis.matrix", _dense),
    (basis, "basis_matrix", "basis.matrix", _dense),
    (combination, "basis_row", "basis.row", _row),
)


def run_traced(inp: inputs.Inputs, state: State, tr) -> list[tuple[str, str]]:
    """One plain sweep with the calls in _SPANS recorded as spans by ``tr``."""
    replacements = [(module, name, tr.spanned(getattr(module, name), span, attrs))
                    for module, name, span, attrs in _SPANS]
    # the f the harness builds is wrapped, so each call of it is counted
    make = tr.spanned(harness.make_function, "catalog.make")
    replacements.append((harness, "make_function",
                         lambda *args, **kwargs: tr.wrap(make(*args, **kwargs))))
    with tr.patched(replacements):
        return run(inp, state)
