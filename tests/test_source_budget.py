"""The standing line budget of the package source."""

import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bernblend"
# lines as `wc -l src/bernblend/*.py` counts them (newline characters)
LINE_BUDGET = 2000


def test_source_within_line_budget():
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted(SRC.glob("*.py"))}
    assert sum(counts.values()) <= LINE_BUDGET, counts
