"""Print a sha256 digest of the stdout of every bernblend subcommand.

    python scripts/cli_digest.py [--repo PATH] [--against FILE]

Runs ``python -m bernblend`` from PATH/src (default: this checkout) for
every subcommand at its defaults, plus ``compare`` and ``bernstein-ineq``
at r=3 on a large-degree ladder, ``compare`` at degrees up to 65536
(ladder degrees up to 196608), ``lemma 6`` at degrees up to 262144, and
the blend at r=1 (``approx``) and r=8 (``approx`` and ``lemma 3``), and
prints one ``sha256  argv`` line per run.  Diff the output of two
checkouts to see whether a change moved any printed byte, or save one
checkout's output and pass it as ``--against``: every line that differs
from the saved list is then marked ``MOVED``, and the script exits 1
unless all 17 digests match.  A run that exits nonzero
prints ``exit=N`` in place of a digest and makes the script exit 1.
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
    ["approx"],
    ["compare"],
    ["bernstein-ineq"],
    ["modulus"],
    ["lemma", "1"],
    ["lemma", "3"],
    ["lemma", "5"],
    ["lemma", "6"],
    ["compare", *LARGE],
    ["bernstein-ineq", *LARGE],
    ["compare", "--n-list", "16384,32768,65536"],
    ["lemma", "6", "--n-list", "1024,4096,16384,65536,262144"],
    ["approx", "--r", "1"],
    ["approx", "--r", "8", "--n-list", "64,128"],
    ["lemma", "3", "--r", "8", "--n-list", "64,128"],
)


def digest(src: Path, argv: list[str]) -> tuple[str, int]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "bernblend", *argv],
                          capture_output=True, env=env, check=False)
    return hashlib.sha256(proc.stdout).hexdigest(), proc.returncode


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
    for argv in RUNS:
        sha, code = digest(src, argv)
        if code:
            sha, status = f"exit={code}", 1
        line = f"{sha}  {' '.join(argv)}"
        if saved is not None and saved.get(" ".join(argv)) != sha:
            line, status = f"{line}  MOVED", 1
        print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
