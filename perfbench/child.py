"""Fresh-interpreter worker for run.py; prints one JSON object on stdout.

    child.py setup  --workload W --seed S
        import bernblend and build the workload's inputs, timed, then
        run the speed probe that rescales that time
    child.py sweeps --workload W --seed S --seconds T --trace 0|1 --spans FILE
        set up, run one warm-up sweep, then sweeps back to back for T
        seconds, starting none that would likely end after T once three
        are measured; with --trace 1, plain and traced sweeps alternate
        and the spans go to FILE

Only the standard library is imported before the set-up timer starts, so
the timed import of bernblend includes its numpy import and every cache
in the package starts cold.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import resource
import signal
import statistics
import sys
import time

import inputs

MIN_MEASURED = 3
# The speed probe.  This machine's speed drifts by up to +-25% over tens of
# seconds to minutes (a shared host, no steal time seen), which a run of the
# allowed length cannot average out.  So while a sweep runs, a timer signal
# every PROBE_PERIOD_S times a fixed loop of scalar numpy and math calls, and
# a sweep's time is rescaled by PROBE_REF_S over the mean of those samples:
# to a machine on which one probe loop takes PROBE_REF_S, about the mean on
# the 2-vCPU Xeon VM the benchmark was tuned on when that machine runs fast.
# Each sample runs the loop once untimed, so its code is in cache, then reads
# a buffer twice the size of a core's L2 cache, so its data is not, and then
# times the loop: it waits on the shared L3 and memory, where the drift
# shows, from the same start whatever the sweep was doing.  A loop timed warm
# missed much of the drift; one timed in whatever state the sweep left the
# caches tracked it, but read 1.5x slower under basis-layer than under
# singular-sweep, so a change to the program's memory traffic would have
# moved the probe too.  This one reads within about 10% alike under both.
# The samples cost about 1% of a sweep.
PROBE_PERIOD_S = 0.05
PROBE_LOOP = 40
PROBE_FLUSH_BYTES = 8 << 20
PROBE_REF_S = 30e-6
# set-up is too short to sample on a timer; its time is rescaled by the
# mean of this many samples taken back to back just after it (about 10 ms)
PROBE_BURST = 20


class SpeedProbe:
    """Samples the probe loop on SIGALRM while used as a context manager;
    ``scale`` is then PROBE_REF_S over the mean sample of the last use."""

    def __init__(self):
        import numpy
        self._x = numpy.float64(0.3)
        self._flush = numpy.ones(PROBE_FLUSH_BYTES // 8)
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)

    def _loop(self) -> float:
        x = self._x
        best = 0.0
        for _ in range(PROBE_LOOP):
            best = max(best, abs(x - 0.5) ** 0.5 * math.sqrt(0.21))
        return best

    def _sample(self, signum=None, frame=None):
        self._loop()
        self._flush.sum()
        t0 = time.perf_counter()
        self._loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples.clear()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()

    def burst(self) -> float:
        """``scale`` from PROBE_BURST samples taken back to back now."""
        self.samples.clear()
        for _ in range(PROBE_BURST):
            self._sample()
        return self.scale

    @property
    def scale(self) -> float:
        return PROBE_REF_S / statistics.fmean(self.samples)


def _setup(inp):
    t0 = time.perf_counter()
    import bernblend  # noqa: F401  (the import is part of the timed set-up)
    import sweeps
    state = sweeps.State(inp)
    return time.perf_counter() - t0, state


def _sweeps(inp, state, probe, seconds: float, trace: bool, spans_path):
    import numpy
    import sweeps
    from spans import Tracer

    tracer = Tracer(inp.workload, inp.seed, inp.xi) if trace else None
    records = []
    expected = None

    def one(traced: bool, warmup: bool = False):
        gc.collect()
        sweep_id = len(records)
        error = None
        pieces = None
        with probe:
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                if traced:
                    with tracer.sweep(sweep_id):
                        pieces = sweeps.run_traced(inp, state, tracer)
                else:
                    pieces = sweeps.run(inp, state)
            except Exception as exc:  # a failed sweep is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if error is None and not warmup and pieces != expected:
            error = ("traced render differs from the plain warm-up render" if traced
                     else "render differs from the warm-up sweep's")
        if error is None and traced:
            error = tracer.check(sweep_id)
        records.append({"id": sweep_id, "traced": traced, "warmup": warmup,
                        "wall_s": wall, "cpu_s": cpu, "scale": probe.scale,
                        "error": error})
        return pieces

    # the warm-up sweep's output is what every later sweep must reproduce
    expected = one(traced=False, warmup=True)
    start = time.perf_counter()
    while True:
        measured = [r for r in records if not r["warmup"]]
        kinds = {r["traced"] for r in measured}
        # start no sweep that would likely end after the measuring window,
        # unless the median would otherwise rest on fewer than MIN_MEASURED
        typical = statistics.median(r["wall_s"] for r in records)
        done = (time.perf_counter() - start + typical > seconds
                and len(measured) >= MIN_MEASURED)
        if done and len(kinds) == (2 if trace else 1):
            break
        # traced sweeps alternate with plain ones so drift hits both alike
        one(traced=trace and len(measured) % 2 == 0)

    out = {"pieces": expected, "sweeps": records, "numpy": numpy.__version__,
           "grid_points": state.grid_points}
    if trace:
        traced_ids = [r["id"] for r in records if r["traced"]]
        out["layers"] = tracer.layer_metrics(traced_ids)
        tracer.write(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "sweeps"])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    inp = inputs.make_inputs(args.workload, args.seed)
    setup_s, state = _setup(inp)
    probe = SpeedProbe()
    out = {"setup_s": setup_s, "setup_scale": probe.burst()}
    if args.mode == "sweeps":
        out.update(_sweeps(inp, state, probe, args.seconds, bool(args.trace), args.spans))
        out["python"] = platform.python_version()
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
