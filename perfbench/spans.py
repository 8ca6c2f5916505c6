"""In-memory spans recorded around calls into bernblend.

``Tracer.patched`` swaps functions in bernblend's module namespaces for
wrappers that open a span (name ``<layer>.<what>``) around each call, so the
real harness entry points run unchanged but traced.  The f that the harness
builds is wrapped so that each call adds its count, points and time to the
innermost open span instead of recording a span of its own (a sweep makes
~4e5 such calls).  Spans stay in memory and are written out once, when the
run ends.
"""

from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT = "sweep"
# a traced sweep fails when its top-level spans cover less of it than this
MIN_COVERAGE = 0.9
# rounding slack on the blend's distance guarantee (interpolation_nodes
# asserts its node bounds with the same slack)
GAP_SLACK = 1e-12

# span names whose summed duration per sweep is reported as <name>_busy_s
BUSY_LAYERS = (
    "smoothness.modulus",
    "smoothness.norm",
    "combination.combine",
    "operators.derivative",
    "combination.moment_table",
    "harness.scan",
    "blend.samples",
    "operators.build",
    "harness.report",
)


UNITS = {
    "catalog.f_calls": "count",
    "catalog.f_points": "count",
    "catalog.points_per_call": "ratio",
    "basis.entries": "count",
    "basis.entries_per_s": "1/s",
    "blend.min_sample_dist": "x",
    "trace.top_span_coverage": "ratio",
}


class Span:
    __slots__ = ("id", "parent", "name", "sweep", "start", "end", "entries",
                 "gap", "f_calls", "f_points", "f_busy", "min_dist")

    def __init__(self, id_, parent, name, sweep, entries, gap):
        self.id = id_
        self.parent = parent
        self.name = name
        self.sweep = sweep
        self.start = self.end = 0.0
        self.entries = entries
        self.gap = gap
        self.f_calls = 0
        self.f_points = 0
        self.f_busy = 0.0
        self.min_dist = math.inf

    @property
    def busy(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one run of one workload."""

    def __init__(self, workload: str, seed: int, xi: float):
        self.workload = workload
        self.seed = seed
        self.xi = xi
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._sweep = -1

    @contextmanager
    def span(self, name: str, entries: int = 0, gap: float | None = None):
        """Time the enclosed call.  ``entries`` is the dense-equivalent count
        of Bernstein basis values the call asks for; ``gap``, set on spans
        whose f samples come from ``blended_samples``, is the least distance
        from xi the blend geometry promises for those samples."""
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, self._sweep, entries, gap)
        self.spans.append(s)
        self._stack.append(s)
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    @contextmanager
    def sweep(self, sweep_id: int):
        self._sweep = sweep_id
        with self.span(ROOT) as root:
            yield root

    def spanned(self, fn, name: str, attrs=None):
        """``fn`` with each call inside a span called ``name``; ``attrs``,
        given the call's arguments, returns the span's keyword arguments."""
        def call(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return fn(*args, **kwargs)
        return call

    @contextmanager
    def patched(self, replacements):
        """Set each (module, name, replacement) for the enclosed block."""
        saved = [(module, name, getattr(module, name))
                 for module, name, _ in replacements]
        try:
            for module, name, replacement in replacements:
                setattr(module, name, replacement)
            yield
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def wrap(self, f):
        """f with its calls counted and timed against the innermost span."""
        stack = self._stack
        xi = self.xi

        def traced_f(x):
            t0 = perf_counter()
            out = f(x)
            busy = perf_counter() - t0
            s = stack[-1]
            s.f_busy += busy
            s.f_calls += 1
            if isinstance(x, np.ndarray):
                s.f_points += x.size
                if s.gap is not None and x.size:
                    s.min_dist = min(s.min_dist, float(np.min(np.abs(x - xi))))
            else:
                s.f_points += 1
                if s.gap is not None:
                    s.min_dist = min(s.min_dist, abs(float(x) - xi))
            return out

        return traced_f

    def layer_metrics(self, sweep_ids) -> dict[str, dict]:
        """Per-layer figures: the median over the given sweeps of each
        sweep's totals.  Counts repeat exactly from sweep to sweep."""
        per_sweep = [self._sweep_totals(i) for i in sweep_ids]
        return {key: {"value": statistics.median(t[key] for t in per_sweep),
                      "unit": UNITS.get(key, "s")}
                for key in per_sweep[0]}

    def check(self, sweep_id: int) -> str | None:
        """None when the sweep's spans pass the trace's own checks: the
        top-level spans cover at least MIN_COVERAGE of the sweep, and no
        blended sample lies nearer xi than its blend geometry allows."""
        spans, root = self._sweep_spans(sweep_id)
        coverage = self._coverage(spans, root)
        if coverage < MIN_COVERAGE:
            return f"top-level spans cover {coverage:.3f} of the sweep"
        for s in spans:
            if s.gap is not None and s.min_dist < s.gap - GAP_SLACK:
                return (f"{s.name} sampled f at {s.min_dist!r} from xi, "
                        f"inside the blend's gap {s.gap!r}")
        return None

    def _sweep_spans(self, sweep_id: int):
        spans = [s for s in self.spans if s.sweep == sweep_id]
        return spans, next(s for s in spans if s.name == ROOT)

    @staticmethod
    def _coverage(spans, root) -> float:
        return sum(s.busy for s in spans if s.parent == root.id) / root.busy

    def _sweep_totals(self, sweep_id: int) -> dict[str, float]:
        spans, root = self._sweep_spans(sweep_id)
        busy = dict.fromkeys(BUSY_LAYERS, 0.0)
        for s in spans:
            if s.name in busy:
                busy[s.name] += s.busy
        calls = sum(s.f_calls for s in spans)
        points = sum(s.f_points for s in spans)
        f_busy = sum(s.f_busy for s in spans)
        modulus_f = sum(s.f_busy for s in spans if s.name == "smoothness.modulus")
        basis = [s for s in spans if s.entries]
        entries = sum(s.entries for s in basis)
        basis_s = sum(s.busy for s in basis)
        # the least |x - xi| over the blended samples, taken within [0, 1]:
        # with no sample taken it is the largest distance any x in [0, 1]
        # can have from xi, not infinity
        dist = min([s.min_dist for s in spans if s.gap is not None]
                   + [max(self.xi, 1.0 - self.xi)])
        return {
            "catalog.f_calls": calls,
            "catalog.f_points": points,
            "catalog.points_per_call": points / calls if calls else 0.0,
            "catalog.f_busy_s": f_busy,
            "smoothness.modulus_busy_s": busy["smoothness.modulus"],
            "smoothness.modulus_self_s": busy["smoothness.modulus"] - modulus_f,
            "smoothness.norm_busy_s": busy["smoothness.norm"],
            "basis.entries": entries,
            "basis.entries_per_s": entries / basis_s if basis_s > 0 else 0.0,
            "combination.combine_busy_s": busy["combination.combine"],
            "operators.derivative_busy_s": busy["operators.derivative"],
            "combination.moment_table_busy_s": busy["combination.moment_table"],
            "harness.scan_busy_s": busy["harness.scan"],
            "blend.samples_busy_s": busy["blend.samples"],
            "blend.min_sample_dist": dist,
            "operators.build_busy_s": busy["operators.build"],
            "harness.report_busy_s": busy["harness.report"],
            "trace.top_span_coverage": self._coverage(spans, root),
        }

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end,
                    "workload": self.workload, "seed": self.seed,
                    "sweep": s.sweep, "entries": s.entries,
                    "f_calls": s.f_calls, "f_points": s.f_points,
                    "f_busy_s": s.f_busy, "gap": s.gap,
                    "min_sample_dist": (None if math.isinf(s.min_dist)
                                        else s.min_dist),
                }) + "\n")
