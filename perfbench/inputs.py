"""Workload definitions and their seeded inputs.

Standard library only, so the orchestrating process can describe a workload
without importing numpy or bernblend.  The reason each workload exists is
recorded in ``BENCHMARK.json`` (its ``why`` field).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("singular-sweep", "basis-layer")

# seed 0 reproduces the CLI defaults; other seeds draw xi from a range where
# r=2 at n=32 and r=3 at n=256 both admit the blend geometry
DEFAULT_XI = 0.513
XI_RANGE = (0.40, 0.60)
ALPHA = 1.0
GRID = 2001
FUNCTION = "singular_power:beta=0.5"

SINGULAR_R = 2
SINGULAR_NS = (32, 64, 128, 256, 512, 1024)
LARGE_R = 3
LARGE_NS = (256, 512, 1024, 2048, 4096)
LEMMA1_NS = tuple(2 ** k for k in range(6, 13))    # 64 .. 4096
CENTRE_NS = tuple(2 ** k for k in range(6, 17))    # 64 .. 65536
MOMENT_R = 3
MOMENT_BASE_N = 256
MOMENT_POWERS = tuple(range(7))
MOMENT_POINTS = 400


@dataclass(frozen=True)
class Inputs:
    """Everything a workload's sweep depends on, derived from the seed."""

    workload: str
    seed: int
    xi: float
    moment_points: tuple[float, ...]


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    xi = rng.uniform(*XI_RANGE)
    points = tuple(rng.random() for _ in range(MOMENT_POINTS))
    if seed == 0:
        xi = DEFAULT_XI
    return Inputs(workload, seed, xi, points)


def _ns(values) -> str:
    return ",".join(str(n) for n in values)


def cli_commands(inp: Inputs) -> dict[str, list[str]]:
    """``python -m bernblend`` argument vectors whose stdout must equal the
    in-process render piece of the same name."""
    xi = repr(inp.xi)
    if inp.workload == "singular-sweep":
        return {"approx": ["approx", "--xi", xi]}
    sweep = ["--xi", xi, "--r", str(LARGE_R), "--n-list", _ns(LARGE_NS)]
    return {
        "compare": ["compare", *sweep],
        "bernstein-ineq": ["bernstein-ineq", *sweep, "--lambda", "0"],
        "lemma 1": ["lemma", "1", "--xi", xi, "--u", "1", "--v", "0",
                    "--n-list", _ns(LEMMA1_NS)],
        "lemma 5": ["lemma", "5", "--xi", xi, "--n-list", _ns(CENTRE_NS)],
        "lemma 6": ["lemma", "6", "--xi", xi, "--beta", "2",
                    "--n-list", _ns(CENTRE_NS)],
    }
