"""Command line front end for the experiment harness.

Each subcommand, and each scan of ``lemma``, is one ``_COMMANDS`` entry: its
help, the keys it reads with their defaults and its handler, which returns a
report (``coeffs``, ``psi`` and ``compare`` write their own).  Each entry has
one parser, holding exactly the flags of the keys it reads (``_FLAGS`` gives
each key's flag); the config file check and the dispatch read the same
table.  ``--out`` writes the report as CSV or JSON, otherwise the same bytes
go to stdout.  ``--config`` names a JSON file of flag values: explicit flags
win, and a flag or file key that the entry does not read is bad
configuration.  ``_parse_value`` parses flag text and file values alike; its
errors name the flag or the key.

Exit codes: 0 success, 1 an ``--out`` file that cannot be written, 2 invalid
configuration, 3 numerical failure (including running out of memory).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .blend import Weight
from .catalog import make_function, parse_spec
from .combination import build_scheme
from .errors import DomainError, NumericalError, SampleError
from .harness import (SweepConfig, _payload, build_report, check_bernstein_inequality,
                      check_n_list, compare_plain_vs_modified, emit_report,
                      lemma1_scan, lemma3_decay, lemma5_scan, lemma6_scan,
                      render_report, run_convergence)
from .smoothness import make_grid, weighted_modulus
from .smoothstep import solve_psi_coefficients


class _Flag(NamedTuple):
    spelling: str
    type: Callable | None  # None keeps the text
    help: str
    choices: list | None = None


_FLAGS = {
    "xi": _Flag("--xi", float, "singularity location in (0,1)"),
    "alpha": _Flag("--alpha", float, "weight exponent (> 0)"),
    "grid": _Flag("--grid", int, "evaluation grid size"),
    "out": _Flag("--out", None, "report file path (default: stdout)"),
    "format": _Flag("--format", None, "csv or json (default csv)", choices=["csv", "json"]),
    "r": _Flag("--r", int, "order r in 1..8 (the modulus takes differences of order 2r)"),
    "n": _Flag("--n", int, "base degree"),
    "function": _Flag("--function", None, "catalog key, e.g. singular_power:beta=0.5"),
    # parsed by _parse_n_list, which also takes a JSON list
    "n_list": _Flag("--n-list", None, "comma-separated ascending degrees"),
    "t": _Flag("--t", float, "largest step parameter (<= 0.125)"),
    "lam": _Flag("--lambda", float, "step-weight power in [0,1]"),
    "u": _Flag("--u", float, "left endpoint moment power"),
    "v": _Flag("--v", float, "right endpoint moment power"),
    "beta": _Flag("--beta", float, "moment power"),
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


def _parse_value(key: str, value, label: str):
    """Flag text or a config file's ``value`` for ``key``, parsed as the
    flag's text; errors name ``label``, the flag or the key."""
    if key == "n_list":
        return _parse_n_list(value)
    flag = _FLAGS[key]
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise DomainError(f"{label} takes a string or a number, got {value!r}")
    text = value if isinstance(value, str) else repr(value)
    try:
        value = flag.type(text) if flag.type else text
    except ValueError:
        raise DomainError(f"{label}: invalid {flag.type.__name__} value {text!r}")
    if flag.choices is not None and value not in flag.choices:
        raise DomainError(f"{label}: {value!r} is not in {flag.choices}")
    return value


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DomainError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise DomainError(f"config {path!r} must hold a JSON object")
    if "lambda" in data and "lam" in data:
        raise DomainError(f"config {path!r} gives --lambda twice, as 'lambda' and as 'lam'")
    # the flag is spelled --lambda; the attribute cannot be
    return {("lam" if key == "lambda" else key): val
            for key, val in data.items()}


def _resolve(args: argparse.Namespace, name: str, extra: list[str]) -> SimpleNamespace:
    """Merge flag values over config-file values over entry ``name``'s
    defaults, each given value parsed by ``_parse_value``.  Each argument
    the entry's parser left over (``extra``), a flag it does not read
    among them, is refused, and so is each file key it does not read."""
    if extra:
        raise DomainError(f"arguments not used by {name!r}: {extra}")
    reads = _COMMANDS[name].reads
    cfg = _load_config(args.config) if args.config else {}
    unknown = sorted(set(cfg) - set(reads))
    if unknown:
        raise DomainError(f"config keys not used by {name!r}: {unknown}")
    merged = {}
    for key, value in reads.items():
        if getattr(args, key) is not None:
            value = _parse_value(key, getattr(args, key), f"flag {_FLAGS[key].spelling}")
        elif key in cfg:
            value = _parse_value(key, cfg[key], f"config key {key!r}")
        merged[key] = value
    return SimpleNamespace(**merged)


def _sweep_config(ns: SimpleNamespace) -> SweepConfig:
    return SweepConfig(r=ns.r, weight=Weight(ns.xi, ns.alpha), function_key=ns.function,
                       n_list=ns.n_list, grid_size=ns.grid)


def _on_grid(scan: Callable) -> Callable:
    """The handler that builds the weight, then its grid, and then calls
    ``scan(ns, grid)``."""
    return lambda ns: scan(ns, make_grid(Weight(ns.xi, ns.alpha), ns.grid))


def _coeffs(ns) -> None:
    scheme = build_scheme(ns.n, ns.r)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["i", "degree", "coefficient"])
    for i, (degree, coeff) in enumerate(zip(scheme.nodes, scheme.coeffs)):
        writer.writerow([i, degree, repr(float(coeff))])


def _psi(ns) -> None:
    coeffs = solve_psi_coefficients(ns.r)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["power", "coefficient"])
    for j, coeff in enumerate(coeffs):
        writer.writerow([2 * ns.r + 1 + j, repr(float(coeff))])


def _compare(ns) -> None:
    plain, modified = compare_plain_vs_modified(_sweep_config(ns))
    if ns.out is None and ns.format == "json":  # one document: both files' payloads
        both = {"modified": _payload(modified), "plain": _payload(plain)}
        sys.stdout.write(json.dumps(both, indent=2, sort_keys=True) + "\n")
        return
    if ns.out is None:
        for label, report in (("plain", plain), ("modified", modified)):
            sys.stdout.write(f"# {label}\n" + render_report(report, ns.format))
        return
    # the plain table goes to a sibling: x.csv -> x.plain.csv, x -> x.plain
    stem, dot, suffix = ns.out.rpartition(".")
    plain_path = f"{stem}.plain.{suffix}" if dot and "/" not in suffix else f"{ns.out}.plain"
    emit_report(modified, ns.format, ns.out)
    emit_report(plain, ns.format, plain_path)


def _modulus(ns, grid):
    # table of the order-2r weighted modulus at t, t/2, ..., t/128, keyed by
    # the divisor; the fitted slope is minus the observed decay order in t
    f = make_function(parse_spec(ns.function), grid.weight)
    divisors = [2 ** k for k in range(8)]
    values = weighted_modulus(f, 2 * ns.r, [ns.t / d for d in divisors], grid)
    return build_report(divisors, values, {"t": ns.t})


def _lemma3(ns, grid):
    f = make_function(parse_spec(ns.function), grid.weight)
    return lemma3_decay(ns.r, f, ns.n_list, grid)


class _Command(NamedTuple):
    help: str
    reads: dict  # key -> default
    handler: Callable  # resolved values -> report, or None once it wrote


_COMMON = {"xi": 0.513, "alpha": 1.0, "grid": 2001, "format": "csv", "out": None}
_SWEEP = {**_COMMON, "r": 2, "function": "singular_power:beta=0.5",
          "n_list": (32, 64, 128, 256, 512, 1024)}
_LEMMA = {**_COMMON, "n_list": (64, 128, 256, 512, 1024, 2048, 4096)}

_COMMANDS = {
    "coeffs": _Command("print the combination coefficients", {"r": 2, "n": 32}, _coeffs),
    "psi": _Command("print the smoothstep coefficients", {"r": 2}, _psi),
    "approx": _Command("convergence sweep of the modified combination", _SWEEP,
                       lambda ns: run_convergence(_sweep_config(ns))),
    "compare": _Command("plain versus modified error sweep", _SWEEP, _compare),
    "bernstein-ineq": _Command(
        "growth of the weighted 2r-th derivative norm", {**_SWEEP, "lam": 0.0},
        lambda ns: check_bernstein_inequality(_sweep_config(ns), ns.lam)),
    "modulus": _Command(
        "weighted modulus along a halving t ladder",
        {**_COMMON, "r": 2, "function": "singular_power:beta=0.5", "t": 0.125},
        _on_grid(_modulus)),
    "lemma 1": _Command("endpoint moment sum over its bound", {**_LEMMA, "u": 1.0, "v": 0.0},
                        _on_grid(lambda ns, grid: lemma1_scan(ns.u, ns.v, ns.n_list, grid))),
    "lemma 3": _Command("weighted error of the patch interpolant",
                        {**_LEMMA, "r": 2, "function": "smooth_sin:freq=1"}, _on_grid(_lemma3)),
    "lemma 5": _Command("weighted basis sum over the centre window", _LEMMA, _on_grid(
        lambda ns, grid: lemma5_scan(grid.weight, ns.n_list, grid))),
    "lemma 6": _Command(
        "centre-window moment sum over its bound", {**_LEMMA, "beta": 2.0},
        _on_grid(lambda ns, grid: lemma6_scan(ns.beta, grid.weight, ns.n_list, grid))),
}


def _negative_number(text: str) -> bool:
    """Whether ``text`` is "-" and then any spelling float() reads."""
    try:
        float(text)
    except ValueError:
        return False
    return text.startswith("-")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error: one ``error:`` line, exit 2
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bernblend",
        description="Weighted Bernstein combination experiments around an "
                    "interior algebraic singularity.")
    subs = parser.add_subparsers(dest="command", required=True)
    scans = {}  # command -> the sub-parsers of its scans
    for name, entry in _COMMANDS.items():
        command, _, which = name.partition(" ")
        if which and command not in scans:
            scans[command] = subs.add_parser(
                command, help="bound scans for the supporting estimates").add_subparsers(
                dest="which", required=True, help="which estimate to scan")
        # no prefixes: "approx --n 32" would read as --n-list
        sub = (scans[command] if which else subs).add_parser(
            which or command, help=entry.help, allow_abbrev=False)
        sub.add_argument("--config", help="JSON file supplying flag values")
        # argparse takes only -N and -N.N for negative numbers and reads
        # "--u -1e3" or "--u -inf" as a flag without its value
        sub._negative_number_matcher = SimpleNamespace(match=_negative_number)
        for key in entry.reads:
            sub.add_argument(_FLAGS[key].spelling, dest=key, help=_FLAGS[key].help)
    return parser


def main(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        name = f"{args.command} {args.which}" if "which" in args else args.command
        ns = _resolve(args, name, extra)
        report = _COMMANDS[name].handler(ns)
        if report is not None and ns.out is None:
            sys.stdout.write(render_report(report, ns.format))
        elif report is not None:
            emit_report(report, ns.format, ns.out)
        return 0
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
