"""Command line front end for the experiment harness.

Every subcommand builds a deterministic report table; ``--out`` writes it as
CSV or JSON, otherwise the same bytes go to stdout.  A JSON config file can
stand in for flags (``--config``); explicit flags win over file values, and
each file value is parsed as the text of its flag would be.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure
(including running out of memory).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from types import SimpleNamespace

from .blend import Weight
from .catalog import make_function, parse_spec
from .combination import build_scheme
from .errors import DomainError, NumericalError, SampleError
from .harness import (SweepConfig, build_report, check_bernstein_inequality,
                      check_n_list, compare_plain_vs_modified, emit_report,
                      lemma1_scan, lemma3_decay, lemma5_scan, lemma6_scan,
                      render_report, run_convergence)
from .smoothness import ModulusParams, make_grid, weighted_modulus
from .smoothstep import build_smoothstep

_APPROX_NS = "32,64,128,256,512,1024"
_LEMMA_NS = "64,128,256,512,1024,2048,4096"
_MODULUS_HALVINGS = 8

_COMMON = {
    "xi": 0.513,
    "alpha": 1.0,
    "grid": 2001,
    "format": "csv",
    "out": None,
}
_SWEEP = {
    **_COMMON,
    "r": 2,
    "function": "singular_power:beta=0.5",
    "n_list": _APPROX_NS,
}
_DEFAULTS = {
    "coeffs": {"r": 2, "n": 32},
    "psi": {"r": 2},
    "approx": dict(_SWEEP),
    "compare": dict(_SWEEP),
    "bernstein-ineq": {**_SWEEP, "lam": 0.0},
    "modulus": {**_COMMON, "r": 2,
                "function": "singular_power:beta=0.5", "t": 0.125},
    "lemma": {**_COMMON, "n_list": _LEMMA_NS, "u": 1.0, "v": 0.0,
              "beta": 2.0, "r": 2, "function": "smooth_sin:freq=1"},
}


def _parse_n_list(value) -> tuple[int, ...]:
    """Degrees from flag text like "64,128" or a config file's list of integers."""
    if isinstance(value, str):
        try:
            value = [int(p) for p in value.split(",") if p.strip()]
        except ValueError:
            raise DomainError(f"bad n list {value!r}: want comma-separated integers")
    elif not isinstance(value, list):
        raise DomainError(f"bad n list {value!r}: want a string or a list of integers")
    return check_n_list(value)


def _config_value(flag: argparse.Action, key: str, value):
    """A config file's ``value`` parsed as the text of its ``flag`` would be."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise DomainError(f"config key {key!r} takes a string or a number, got {value!r}")
    text = value if isinstance(value, str) else repr(value)
    try:
        value = flag.type(text) if flag.type else text
    except ValueError:
        raise DomainError(f"config key {key!r}: invalid {flag.type.__name__} value {text!r}")
    if flag.choices is not None and value not in flag.choices:
        raise DomainError(f"config key {key!r}: {value!r} is not in {flag.choices}")
    return value


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise DomainError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise DomainError(f"config {path!r} must hold a JSON object")
    # the flag is spelled --lambda; the attribute cannot be
    return {("lam" if key == "lambda" else key): val
            for key, val in data.items()}


def _resolve(args: argparse.Namespace, command: str) -> SimpleNamespace:
    """Merge flag values over config-file values over built-in defaults, each
    parsed: file values by their flag's parser, ``n_list`` by _parse_n_list."""
    defaults = _DEFAULTS[command]
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(cfg) - set(defaults))
    if unknown:
        raise DomainError(f"config keys not used by {command!r}: {unknown}")
    merged = {}
    for key, fallback in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = cfg.get(key, fallback)
            if key in cfg and key != "n_list":
                value = _config_value(args.flags[key], key, value)
        merged[key] = _parse_n_list(value) if key == "n_list" else value
    return SimpleNamespace(**merged)


def _sweep_config(ns: SimpleNamespace) -> SweepConfig:
    return SweepConfig(r=ns.r, weight=Weight(ns.xi, ns.alpha), function_key=ns.function,
                       n_list=ns.n_list, grid_size=ns.grid)


def _deliver(report, ns: SimpleNamespace, path=None) -> None:
    if path is None:
        path = ns.out
    if path is None:
        sys.stdout.write(render_report(report, ns.format))
    else:
        emit_report(report, ns.format, path)


def _plain_sibling(path: str) -> str:
    stem, dot, suffix = path.rpartition(".")
    if dot and "/" not in suffix:
        return f"{stem}.plain.{suffix}"
    return f"{path}.plain"


def _cmd_coeffs(args) -> int:
    ns = _resolve(args, "coeffs")
    scheme = build_scheme(ns.n, ns.r)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["i", "degree", "coefficient"])
    for i, (degree, coeff) in enumerate(zip(scheme.nodes, scheme.coeffs)):
        writer.writerow([i, degree, repr(float(coeff))])
    return 0


def _cmd_psi(args) -> int:
    ns = _resolve(args, "psi")
    poly = build_smoothstep(ns.r)
    lowest = 2 * poly.r + 1
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["power", "coefficient"])
    for j, coeff in enumerate(poly.coeffs):
        writer.writerow([lowest + j, repr(float(coeff))])
    return 0


def _cmd_approx(args) -> int:
    ns = _resolve(args, "approx")
    _deliver(run_convergence(_sweep_config(ns)), ns)
    return 0


def _cmd_compare(args) -> int:
    ns = _resolve(args, "compare")
    plain, modified = compare_plain_vs_modified(_sweep_config(ns))
    if ns.out is None:
        sys.stdout.write("# plain\n")
        sys.stdout.write(render_report(plain, ns.format))
        sys.stdout.write("# modified\n")
        sys.stdout.write(render_report(modified, ns.format))
    else:
        _deliver(modified, ns)
        _deliver(plain, ns, path=_plain_sibling(ns.out))
    return 0


def _cmd_bernstein_ineq(args) -> int:
    ns = _resolve(args, "bernstein-ineq")
    report = check_bernstein_inequality(_sweep_config(ns), ns.lam)
    _deliver(report, ns)
    return 0


def _cmd_modulus(args) -> int:
    # table of the order-2r weighted modulus at t, t/2, ..., keyed by the
    # divisor; the fitted slope is minus the observed decay order in t
    ns = _resolve(args, "modulus")
    weight = Weight(ns.xi, ns.alpha)
    grid = make_grid(weight, ns.grid)
    f = make_function(parse_spec(ns.function), weight)
    divisors = [2 ** k for k in range(_MODULUS_HALVINGS)]
    values = weighted_modulus(
        f, weight, [ModulusParams(r2=2 * ns.r, t=ns.t / d) for d in divisors], grid)
    _deliver(build_report(divisors, values, {"t": ns.t}), ns)
    return 0


def _cmd_lemma(args) -> int:
    ns = _resolve(args, "lemma")
    weight = Weight(ns.xi, ns.alpha)
    grid = make_grid(weight, ns.grid)
    which = args.which
    if which == "1":
        report = lemma1_scan(ns.u, ns.v, ns.n_list, grid)
    elif which == "3":
        f = make_function(parse_spec(ns.function), weight)
        report = lemma3_decay(ns.r, weight, f, ns.n_list, grid)
    elif which == "5":
        report = lemma5_scan(weight, ns.n_list, grid)
    else:
        report = lemma6_scan(ns.beta, weight, ns.n_list, grid)
    _deliver(report, ns)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file supplying flag values")
    sub.add_argument("--xi", type=float, help="singularity location in (0,1)")
    sub.add_argument("--alpha", type=float, help="weight exponent (> 0)")
    sub.add_argument("--grid", type=int, help="evaluation grid size")
    sub.add_argument("--out", help="report file path (default: stdout)")
    sub.add_argument("--format", choices=["csv", "json"],
                     help="report format (default csv)")


def _add_sweep(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--r", type=int, help="combination order")
    sub.add_argument("--function", help="catalog key, e.g. singular_power:beta=0.5")
    sub.add_argument("--n-list", dest="n_list",
                     help="comma-separated ascending degrees")


def _negative_number(text: str) -> bool:
    """Whether ``text`` is "-" and then any spelling float() reads."""
    try:
        float(text)
    except ValueError:
        return False
    return text.startswith("-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernblend",
        description="Weighted Bernstein combination experiments around an "
                    "interior algebraic singularity.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("coeffs", help="print the combination coefficients")
    sub.add_argument("--config", help="JSON file supplying flag values")
    sub.add_argument("--r", type=int, help="combination order")
    sub.add_argument("--n", type=int, help="base degree")
    sub.set_defaults(handler=_cmd_coeffs)

    sub = subs.add_parser("psi", help="print the smoothstep coefficients")
    sub.add_argument("--config", help="JSON file supplying flag values")
    sub.add_argument("--r", type=int, help="transition smoothness order")
    sub.set_defaults(handler=_cmd_psi)

    sub = subs.add_parser("approx", help="convergence sweep of the modified combination")
    _add_sweep(sub)
    sub.set_defaults(handler=_cmd_approx)

    sub = subs.add_parser("compare", help="plain versus modified error sweep")
    _add_sweep(sub)
    sub.set_defaults(handler=_cmd_compare)

    sub = subs.add_parser("bernstein-ineq",
                          help="growth of the weighted 2r-th derivative norm")
    _add_sweep(sub)
    sub.add_argument("--lambda", dest="lam", type=float,
                     help="step-weight power in [0,1]")
    sub.set_defaults(handler=_cmd_bernstein_ineq)

    sub = subs.add_parser("modulus", help="weighted modulus along a halving t ladder")
    _add_common(sub)
    sub.add_argument("--r", type=int, help="half the difference order")
    sub.add_argument("--function", help="catalog key")
    sub.add_argument("--t", type=float, help="largest step parameter (<= 0.125)")
    sub.set_defaults(handler=_cmd_modulus)

    sub = subs.add_parser("lemma", help="bound scans for the supporting estimates")
    sub.add_argument("which", choices=["1", "3", "5", "6"],
                     help="which estimate to scan")
    _add_sweep(sub)
    sub.add_argument("--u", type=float, help="left endpoint moment power (scan 1)")
    sub.add_argument("--v", type=float, help="right endpoint moment power (scan 1)")
    sub.add_argument("--beta", type=float, help="moment power (scan 6)")
    sub.set_defaults(handler=_cmd_lemma)

    for sub in subs.choices.values():
        # a config file value is parsed by the flag with its key as dest
        sub.set_defaults(flags={a.dest: a for a in sub._actions})
        # argparse takes only -N and -N.N for negative numbers and reads
        # "--u -1e3" or "--u -inf" as a flag without its value
        sub._negative_number_matcher = SimpleNamespace(match=_negative_number)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (SampleError, NumericalError, OverflowError, MemoryError) as exc:
        # numerical failures; these two messages do not name their kind
        kind = ("overflow: " if isinstance(exc, OverflowError)
                else "out of memory: " if isinstance(exc, MemoryError) else "")
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # bad configuration: DomainError, MinNTooSmall, MembershipError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
