"""Record the reference numbers the benchmark checks its sweeps against.

    python3 perfbench/make_reference.py

Run from the repository root at the commit whose outputs are to be the
reference.  For each workload and each seed in checks.REFERENCE_SEEDS it
runs one plain sweep and stores every number the sweep renders in
perfbench/reference.json.gz.  Values whose magnitude is below
checks.ABS_FLOOR are stored as 0.0: the check cannot tell them apart from
0.0, and storing the roundoff digits would multiply the file size.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import sweeps  # noqa: E402


def main() -> int:
    values = {}
    for workload in inputs.WORKLOADS:
        values[workload] = {}
        for seed in checks.REFERENCE_SEEDS:
            inp = inputs.make_inputs(workload, seed)
            pieces = sweeps.run(inp, sweeps.State(inp))
            values[workload][str(seed)] = [
                0.0 if abs(v) < checks.ABS_FLOOR else v for v in checks.numbers(pieces)]
            print(f"{workload} seed {seed}: {len(values[workload][str(seed)])} numbers",
                  flush=True)
    data = {"commit": checks.git_commit(Path.cwd()), "values": values}
    raw = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    checks.REFERENCE.write_bytes(gzip.compress(raw, mtime=0))
    print(f"wrote {checks.REFERENCE} ({checks.REFERENCE.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
