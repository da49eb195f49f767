"""Spans around the calls into nlftl's layers, recorded from outside.

``Tracer`` replaces the module attributes that callers look up (for example
``particles._velocities`` or ``scenarios.entropy_residual``) with wrappers
that record a span per call: name, start, end and the enclosing span.  Spans
stay in memory; the caller writes them out when the run ends.  Leaving the
``with`` block restores every replaced attribute.  A target whose attribute
no longer exists is skipped and its metrics read ``None`` with a reason.
"""

from __future__ import annotations

import contextlib
import importlib
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """Wrap ``module.attr`` (the name its callers look up) as span ``span``."""

    module: str
    attr: str
    span: str
    after: Callable | None = None  # after(tracer, args, result), run outside the span


def _pair_evals(tr, args, result):
    tr.counts["particles.pair_evals"] += args[0].size ** 2
    if tr.rhs_args is None or args[0].size > tr.rhs_args[0].size:
        tr.rhs_args = args


def _conv_work(tr, args, result):
    values = args[1].values
    charged = int((values[1:] != values[:-1]).sum()) + int(values[0] != 0.0) + int(values[-1] != 0.0)
    tr.counts["entropy.conv_work"] += args[2].size * charged


def _fields_cells(tr, args, result):
    tr.counts["godunov.fields_cells"] += args[0].size


def _flag(tr, args, result):
    tr.counts["entropy.flags"] += int(result.violation)


def _keep(key):
    def after(tr, args, result):
        tr.results[key] = result

    return after


TARGETS = (
    Target("nlftl.particles", "_velocities", "particles.rhs", _pair_evals),
    Target("nlftl.scenarios", "integrate", "particles.integrate", _keep("trajectory")),
    Target("nlftl.particles", "reconstruct_density", "scenarios.reconstruct"),
    Target("nlftl.godunov", "compute_fields", "godunov.fields", _fields_cells),
    Target("nlftl.godunov", "gd_step", "godunov.step"),
    Target("nlftl.scenarios", "gd_run", "godunov.run", _keep("fv")),
    Target("nlftl.godunov", "state_profile", "scenarios.reconstruct"),
    Target("nlftl.scenarios", "entropy_residual", "entropy.residual", _flag),
    Target("nlftl.entropy", "_convolutions", "entropy.conv", _conv_work),
    Target("nlftl.scenarios", "total_variation", "metrics"),
    Target("nlftl.scenarios", "wasserstein1", "metrics"),
    Target("nlftl.scenarios", "l1_distance", "metrics"),
    Target("nlftl.scenarios", "build_profile", "profiles.init"),
    Target("nlftl.scenarios", "init_particles", "profiles.init"),
    Target("nlftl.godunov", "cell_averages", "profiles.init"),
    Target("nlftl.scenarios", "emit_method_run", "scenarios.emit"),
    Target("nlftl.scenarios", "emit_entropy", "scenarios.emit"),
)


# Per-layer metrics a traced run reports, with their units.  Counts are
# exact and repeat run to run; times are seconds of wall clock inside spans.
LAYER_UNITS = {
    "particles.rhs_calls": "count",
    "particles.rhs_s": "s",
    "particles.rhs_ms_per_call": "ms",
    "particles.integrate_self_s": "s",
    "particles.pair_evals": "count",
    "particles.rhs_temp_mb": "MB",
    "particles.settle_t": "t",
    "particles.min_gap_ratio": "ratio",
    "godunov.steps": "count",
    "godunov.fields_calls": "count",
    "godunov.fields_s": "s",
    "godunov.fields_us_per_cell": "us",
    "godunov.step_self_s": "s",
    "godunov.clamped_mass": "mass",
    "entropy.residual_calls": "count",
    "entropy.residual_s": "s",
    "entropy.conv_calls": "count",
    "entropy.conv_s": "s",
    "entropy.conv_work": "count",
    "entropy.flags": "count",
    "metrics.calls": "count",
    "metrics.s": "s",
    "profiles.init_s": "s",
    "scenarios.reconstruct_s": "s",
    "scenarios.emit_s": "s",
    "scenarios.emit_bytes": "bytes",
    "l1_to_block": "mass",
    "mass_drift_rel": "ratio",
    "trace_overhead": "ratio",
}
TIME_UNITS = {"s", "ms", "us"}


class Tracer:
    """Install wrappers on ``targets`` for the span of a ``with`` block."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.results: dict[str, object] = {}
        self.missing: dict[str, str] = {}  # span name -> reason
        self.rhs_args = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for t in self.targets:
            module = importlib.import_module(t.module)
            fn = getattr(module, t.attr, None)
            if not callable(fn):
                self.missing.setdefault(t.span, f"{t.module}.{t.attr} does not exist")
                continue
            self._saved.append((module, t.attr, fn))
            setattr(module, t.attr, self._wrap(t, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, target: Target, fn):
        def traced(*args, **kwargs):
            idx = self._open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if target.after is not None:
                target.after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def phase(self, name: str):
        """Root span for a phase of the iteration, e.g. 'setup' or 'run'."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds (total minus
        the time covered by direct child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["s"] += end - start
            s["self_s"] += end - start - child[i]
        return out

    def seconds_under(self, name: str, root: str) -> float:
        """Total seconds of span ``name`` inside the root span ``root``."""
        total = 0.0
        for name_i, start, end, parent in self.spans:
            if name_i != name:
                continue
            while parent >= 0 and self.spans[parent][3] >= 0:
                parent = self.spans[parent][3]
            if parent >= 0 and self.spans[parent][0] == root:
                total += end - start
        return total


def rhs_peak_mb(fn, args) -> float:
    """Peak memory allocated by one call ``fn(*args)``, from tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6
