"""Output checks against values recorded from an earlier commit.

Standard library only.  The reference file holds, for each workload and
recorded seed, every number the sweep renders, in order; ``make_reference.py``
writes it.
"""

from __future__ import annotations

import gzip
import json
import math
import re
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json.gz"
# the seeds the reference records, for every workload
REFERENCE_SEEDS = range(20)
REL_TOL = 1e-9
# moment_table entries for the annihilated powers are cancellation roundoff
# (|value| ~ 1e-17 and below) of sums whose terms are O(1); below this floor
# a value carries no digits worth comparing
ABS_FLOOR = 1e-15

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf")


def numbers(pieces) -> list[float]:
    """Every number in the rendered (name, text) pieces, in order."""
    return [float(tok) for _, text in pieces for tok in _NUMBER.findall(text)]


def load_reference(workload: str, seed: int):
    """(recorded numbers or None, commit they were recorded at)."""
    with gzip.open(REFERENCE, "rt") as fh:
        data = json.load(fh)
    return data["values"].get(workload, {}).get(str(seed)), data["commit"]


def compare(actual, expected) -> str | None:
    """None when the two lists agree within REL_TOL; else the first mismatch."""
    if len(actual) != len(expected):
        return f"{len(actual)} numbers rendered, {len(expected)} recorded"
    for i, (a, e) in enumerate(zip(actual, expected)):
        if not math.isclose(a, e, rel_tol=REL_TOL, abs_tol=ABS_FLOOR):
            return f"number {i}: {a!r} != recorded {e!r}"
    return None


def golden_rows(csv_text: str, golden_path: Path, ns) -> str | None:
    """None when the CSV rows for ``ns`` equal the golden modified errors."""
    golden = json.loads(golden_path.read_text())["singular_power_modified_errors"]
    rows = {}
    for line in csv_text.split("\r\n")[1:]:
        if line:
            n, value = line.split(",")[:2]
            rows[int(n)] = float(value)
    got = [rows.get(n) for n in ns]
    if got != golden:
        return f"rows n={list(ns)} are {got}, golden {golden}"
    return None


def git_commit(root: Path) -> str | None:
    """HEAD of the repository at ``root``, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
