"""Regenerate tests/golden.json.

Regression baselines are values of this package recorded from a verified
run; rerun this script only after re-validating the numerics, then review
the diff like any other code change.  Before it overwrites the file, the
script prints one line for each entry whose value changes: key, index,
old value, new value and relative change.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from bernblend import (SweepConfig, Weight, compare_plain_vs_modified,  # noqa: E402
                       lemma1_scan, lemma6_scan, make_grid, run_convergence,
                       weighted_modulus)

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden.json"


def _flat(golden: dict) -> dict:
    """Each number of ``golden`` keyed by (key, index); index None for a scalar."""
    return {(key, i): v for key, value in golden.items()
            for i, v in (enumerate(value) if isinstance(value, list) else [(None, value)])}


def _moved_entries(old: dict, new: dict) -> list[str]:
    """One line per entry whose value differs between ``old`` and ``new``."""
    before, after = _flat(old), _flat(new)
    lines = []
    for key, i in sorted(before.keys() | after.keys(), key=lambda e: (e[0], e[1] or 0)):
        was, now = before.get((key, i)), after.get((key, i))
        if was == now:
            continue
        rel = f"{(now - was) / abs(was):+.2e}" if was and now is not None else "n/a"
        label = key if i is None else f"{key}[{i}]"
        lines.append(f"  {label}: {was!r} -> {now!r} (relative change {rel})")
    return lines


def main() -> None:
    golden = {}

    # weighted error of the modified combination for a smooth function,
    # single degree, default experiment geometry
    weight = Weight(0.513, 1.0)
    config = SweepConfig(r=2, weight=weight, function_key="smooth_sin:freq=1",
                         n_list=(256,), grid_size=2001)
    golden["smooth_sin_r2_n256_error"] = run_convergence(config).values[0]

    # plain versus modified error tables for the power singularity
    config = SweepConfig(r=2, weight=weight,
                         function_key="singular_power:beta=0.5",
                         n_list=(64, 128, 256, 512, 1024), grid_size=2001)
    plain, modified = compare_plain_vs_modified(config)
    golden["singular_power_plain_errors"] = list(plain.values)
    golden["singular_power_modified_errors"] = list(modified.values)

    # kernel bound scans at a single degree
    center = Weight(0.5, 1.0)
    grid = make_grid(center, 2001)
    golden["lemma1_u1_v0_n100_ratio"] = lemma1_scan(
        1.0, 0.0, (100,), grid).values[0]
    golden["lemma6_beta2_n256_ratio"] = lemma6_scan(
        2.0, center, (256,), grid).values[0]

    # order-2 weighted modulus of x^2 on the default grid; the analytic
    # value for this geometry is exactly t^2
    golden["modulus_square_t01"], = weighted_modulus(lambda x: x ** 2, 2, [0.1], grid)

    old = json.loads(OUT.read_text()) if OUT.exists() else {}
    moved = _moved_entries(old, golden)
    print(f"{len(moved)} entries moved" + (":" if moved else ""))
    for line in moved:
        print(line)
    OUT.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    for key, value in sorted(golden.items()):
        print(f"  {key} = {value!r}")


if __name__ == "__main__":
    main()
