"""Print a sha256 digest of the output of every bernblend subcommand.

    python scripts/cli_digest.py [--repo PATH] [--against FILE]

Runs ``python -m bernblend`` from PATH/src (default: this checkout) for
every subcommand at its defaults, plus ``psi`` at r=8, ``lemma 1`` at
degrees up to 65536 (basis blocks wider than 2730 columns, from column
1), ``compare`` and ``bernstein-ineq`` at r=3 on a large-degree ladder,
``compare`` at degrees up to 65536 (ladder degrees up to 196608),
``approx`` at r=3 on a ladder whose degrees the n share, ``lemma 5`` and
``lemma 6`` at degrees up to 262144 (``lemma 6`` also at beta=0.5, a
non-integer power of |k - n x|), ``lemma 5`` at
degrees 1..8, whose centre windows reach column 0 or n while the grid's
rows at x = 0 and 1 lie in them, the blend at r=1 (``approx``) and r=8
(``approx`` and ``lemma 3``), ``compare`` on the oscillating singular
function, ``modulus`` at order 8 and a non-dyadic t on that function,
``modulus`` on a 4001-point grid (every step in one call of f per offset,
each holding all three regions), ``modulus`` at order 16 on a 20001-point
grid, and ``approx`` on a cubic and on sin(3 pi x),
so that every catalog kind is pinned.  It prints one ``sha256  argv`` line
per run of its stdout.  The runs in FAILING must exit nonzero: each prints
``exit=N:sha256  argv``, the digest taken over its stdout and then its
stderr, so their error messages and exit codes are pinned too, among them
the first failure of a modulus scan and both exits of the smallest-degree
search.  Diff the output of two checkouts to see whether
a change moved any printed byte, or save one checkout's output and pass
it as ``--against``: every line that differs from the saved list is then
marked ``MOVED``, and the script exits 1 unless all 37 digests match.  A
run of RUNS that exits nonzero prints ``exit=N`` in place of a digest,
and a run of FAILING that exits 0 prints ``exit=0:sha256``; either makes
the script exit 1.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

LARGE = ["--r", "3", "--n-list", "256,512,1024,2048,4096"]

RUNS = (
    ["coeffs"],
    ["psi"],
    ["psi", "--r", "8"],
    ["approx"],
    ["compare"],
    ["bernstein-ineq"],
    ["modulus"],
    ["lemma", "1"],
    ["lemma", "1", "--n-list", "4096,16384,65536"],
    ["lemma", "3"],
    ["lemma", "5"],
    ["lemma", "6"],
    ["compare", *LARGE],
    ["bernstein-ineq", *LARGE],
    ["compare", "--n-list", "16384,32768,65536"],
    ["lemma", "5", "--n-list", "1024,4096,16384,65536,262144"],
    ["lemma", "5", "--n-list", "1,2,3,4,8"],
    ["lemma", "6", "--n-list", "1024,4096,16384,65536,262144"],
    ["lemma", "6", "--beta", "0.5", "--n-list", "1024,4096,16384,65536,262144"],
    ["approx", "--r", "1"],
    ["approx", "--r", "8", "--n-list", "64,128"],
    ["approx", "--r", "3", "--n-list", "4096,8192,16384"],
    ["lemma", "3", "--r", "8", "--n-list", "64,128"],
    ["compare", "--function", "singular_osc:beta=0.5,freq=1", "--r", "3",
     "--n-list", "256,512,1024"],
    ["modulus", "--r", "4", "--t", "0.1", "--function", "singular_osc:beta=0.5,freq=1"],
    ["modulus", "--grid", "4001"],
    ["modulus", "--r", "8", "--grid", "20001"],
    ["approx", "--function", "smooth_poly:coeffs=0.5;-1;0;2", "--n-list", "64,128,256"],
    ["approx", "--function", "smooth_sin:freq=3"],
)

# runs that must fail: the first point a sweep or a modulus scan meets where
# f is singular or overflows, a singular input outside the weighted class,
# and both exits of the smallest-degree search (a degree below it, the
# right-hand window test binding, and no admissible degree up to the cap);
# the message and exit code each prints
FAILING = (
    ["compare", "--xi", "0.5"],
    ["approx", "--xi", "0.5"],
    ["modulus", "--xi", "0.5"],
    ["bernstein-ineq", "--function", "smooth_poly:coeffs=0;1e308;1e308",
     "--n-list", "48,96"],
    ["approx", "--function", "singular_power:beta=1.5"],
    ["approx", "--r", "8", "--n-list", "49"],
    ["lemma", "3", "--r", "3", "--xi", "0.9", "--n-list", "400"],
    ["approx", "--xi", "1e-160"],
)


def digest(src: Path, argv: list[str], stderr: bool) -> tuple[str, int]:
    """sha256 of the run's stdout (then its stderr, with ``stderr``), and
    its exit code."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "bernblend", *argv],
                          capture_output=True, env=env, check=False)
    out = proc.stdout + proc.stderr if stderr else proc.stdout
    return hashlib.sha256(out).hexdigest(), proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is run (default: this one)")
    parser.add_argument("--against", type=Path,
                        help="saved output of this script to compare with")
    args = parser.parse_args()
    src = args.repo.resolve() / "src"
    saved = None
    if args.against is not None:
        lines = args.against.read_text().splitlines()
        saved = {cmd: sha for sha, _, cmd in (ln.partition("  ") for ln in lines)}
    status = 0
    for argv, failing in [(a, False) for a in RUNS] + [(a, True) for a in FAILING]:
        sha, code = digest(src, argv, failing)
        if failing:
            sha = f"exit={code}:{sha}"
            if not code:
                status = 1
        elif code:
            sha, status = f"exit={code}", 1
        line = f"{sha}  {' '.join(argv)}"
        if saved is not None and saved.get(" ".join(argv)) != sha:
            line, status = f"{line}  MOVED", 1
        print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
