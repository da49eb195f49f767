"""Builtin scenarios, comparison/convergence harnesses, and file emission.

A scenario is a single JSON-compatible document; a builtin name supplies the
initial profile, explicit keys override it, and the ``ScenarioConfig`` field
defaults fill in the rest.  All emitted files are deterministic: floats are
written with shortest round-trip repr, rows follow fixed orders, and nothing
records wall-clock time.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import N_SPACE, EntropyReport, TestFunction, bump_pair, check_audit_inputs, entropy_residual, entropy_residuals, single_bump
from .errors import ConfigError, number
from .godunov import GodunovRun, Grid, gd_run
from .metrics import _MASS_MATCH, l1_distance, total_variation, wasserstein1
from .model import GAUSSIAN_AMPLITUDE, Kernel, Mobility
from .particles import Trajectory, init_particles, integrate, reconstruct_density
from .profiles import DensityProfile, snapshot_schedule, sorted_union, step_profile, uniform_profile

# name -> (description, initial profile spec)
_BUILTINS: dict[str, tuple[str, dict]] = {
    "single-step": (
        "uniform 0.3 on [-1, 1], mass 0.6",
        {"kind": "uniform-step", "left": -1.0, "right": 1.0, "height": 0.3},
    ),
    "parabola": (
        "0.75*(1 - x^2) on [-1, 1], mass 1",
        {"kind": "parabola", "scale": 0.75, "left": -1.0, "right": 1.0, "cells": 10_000},
    ),
    "two-step-0206": (
        "0.2 on [-0.5, 0] and 0.6 on [0.5, 1], mass 0.4",
        {"kind": "two-step", "segments": [[-0.5, 0.0, 0.2], [0.5, 1.0, 0.6]]},
    ),
    "two-step-11": (
        "unit density on [-0.5, 0] and [0.5, 1], mass 1",
        {"kind": "two-step", "segments": [[-0.5, 0.0, 1.0], [0.5, 1.0, 1.0]]},
    ),
    "stationary-weak": (
        "unit density on [-1, -0.5] and [0.5, 1], mass 1 (weak steady state)",
        {"kind": "two-step", "segments": [[-1.0, -0.5, 1.0], [0.5, 1.0, 1.0]]},
    ),
}


# Most cells of any count a config or a sweep asks for: particle cells
# (``n_cells``, and a convergence sweep's reference run at 4*max(n)),
# finite-volume cells (``fv_cells``) and the cells of a "parabola" profile
# spec.  Memory grows about linearly in each: under tracemalloc a single-step
# run of 11 snapshots to t = 0.01 at 10^5 cells peaks at 95 MB in the particle
# solver and 26 MB in the finite-volume one, so about 1 and 0.3 GB at the
# bound; its emission peaks at 3.4 MB (particle metrics rows) and 1.8 MB
# (finite-volume CSV pieces).  Larger counts are a ConfigError rather than
# an out-of-memory kill.
MAX_CELLS = 1_000_000

# Most snapshot cells a config asks for: the snapshots a run holds (t = 0 and
# one per time of its snapshot_schedule) times max(n_cells, fv_cells).  Every
# snapshot holds its positions or cell values and its profile, so memory grows
# as their product: a particle run at 10^4 cells to t = 0.2 held 4 MB with 11
# snapshots and 482 MB with 2,001 (tracemalloc), about 24 bytes per snapshot
# cell, so about 0.4 GB at the bound.  The default 11 snapshots pass at
# MAX_CELLS, an entropy audit's 81 up to 197,530 cells.  More is a ConfigError.
MAX_SNAPSHOT_CELLS = 16_000_000


def _profile_from_spec(spec) -> DensityProfile:
    """Initial profile from its JSON spec: explicit cells or an analytic family.

    Every scalar of the spec goes through :func:`errors.number`, as the
    config's own scalars do.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("profile spec must be a mapping with a 'kind' key")
    kind = spec["kind"]
    try:
        if kind == "uniform-step":
            return uniform_profile(*(number(f"profile {key}", spec[key]) for key in ("left", "right", "height")))
        if kind in ("two-step", "segments"):
            segs = [tuple(number("profile segment", v) for v in (a, b, h)) for a, b, h in spec["segments"]]
            if kind == "two-step" and len(segs) != 2:
                raise ConfigError("two-step profile needs exactly two segments")
            return step_profile(segs)
        if kind == "parabola":
            scale = number("profile scale", spec.get("scale", 0.75))
            left = number("profile left", spec.get("left", -1.0))
            right = number("profile right", spec.get("right", 1.0))
            cells = number("profile cells", spec.get("cells", 10_000), integer=True)
            if not 1 <= cells <= MAX_CELLS:
                raise ConfigError(f"profile cells must be in [1, {MAX_CELLS}], got {cells}")
            edges = np.linspace(left, right, cells + 1)
            a, b = edges[:-1], edges[1:]
            # exact cell average of scale*(1 - x^2); mass matches the integral to rounding
            vals = np.maximum(scale * (1.0 - (a * a + a * b + b * b) / 3.0), 0.0)
            return DensityProfile(edges, vals)
        if kind == "cells":
            return DensityProfile(
                np.array([number("profile breakpoint", v) for v in spec["breakpoints"]], dtype=float),
                np.array([number("profile value", v) for v in spec["values"]], dtype=float),
            )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind!r} profile spec: {exc}") from exc
    raise ConfigError(f"unknown profile kind {kind!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved run configuration; every field is JSON-representable."""

    scenario: str
    profile: dict
    amplitude: float = GAUSSIAN_AMPLITUDE
    inv_width: float = Kernel.inv_width
    cap: float = Mobility.cap
    v_max: float = Mobility.v_max
    n_cells: int = 300
    fv_cells: int = 1200
    domain: tuple = (-2.5, 2.5)
    t_end: float = 1.0
    output_times: tuple | None = None
    out_dir: str = "out"

    def __post_init__(self) -> None:
        err = ConfigError
        scenario = self.scenario  # names one directory of the output tree
        if not isinstance(scenario, str) or scenario in ("", ".", "..") or any(ch in scenario for ch in "/\\\0"):
            raise err(f"scenario must be a single path component, got {scenario!r}")
        for name in ("amplitude", "inv_width", "cap", "v_max", "t_end"):
            value = number(name, getattr(self, name))
            if not value > 0.0:
                raise err(f"{name} must be positive")
            object.__setattr__(self, name, value)
        for name in ("n_cells", "fv_cells"):
            value = number(name, getattr(self, name), integer=True)
            if not 1 <= value <= MAX_CELLS:
                raise err(f"{name} must be an integer in [1, {MAX_CELLS}], got {value}")
            object.__setattr__(self, name, value)
        if self.fv_cells < 2:
            raise err("fv_cells must be at least 2")
        try:
            lo, hi = self.domain
        except (TypeError, ValueError) as exc:
            raise err(f"domain must be a pair of numbers: {exc}") from exc
        lo, hi = number("domain", lo), number("domain", hi)
        if not lo < hi:
            raise err("domain must satisfy left < right")
        object.__setattr__(self, "domain", (lo, hi))
        if self.output_times is None:
            times = tuple(float(t) for t in np.linspace(0.0, self.t_end, 11))
        else:
            try:
                times = tuple(number("output time", t) for t in self.output_times)
            except TypeError as exc:
                raise err(f"output_times must be a list of times: {exc}") from exc
            if not times:
                raise err("output_times must not be empty")
            for t in times:
                if not 0.0 <= t <= self.t_end:
                    raise err(f"output time {t!r} outside [0, t_end]")
        snapshots = 1 + len(snapshot_schedule(0.0, self.t_end, times))
        cells = max(self.n_cells, self.fv_cells)
        if snapshots * cells > MAX_SNAPSHOT_CELLS:
            raise err(f"{snapshots} snapshots x {cells} cells = {snapshots * cells} snapshot cells, above {MAX_SNAPSHOT_CELLS}")
        object.__setattr__(self, "output_times", times)
        initial = _profile_from_spec(self.profile)
        if float(np.max(initial.values)) > self.cap + 1e-12:
            raise err("initial density exceeds the mobility cap")
        if not initial.mass > 0.0:
            raise err("initial profile must carry positive mass")
        blo, bhi = initial.breakpoints[0], initial.breakpoints[-1]
        if blo < lo or bhi > hi:
            raise err(f"initial support [{blo:g}, {bhi:g}] is not contained in the domain [{lo:g}, {hi:g}]")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        merged = copy.deepcopy(data)
        name = merged.setdefault("scenario", "custom")
        if name in _BUILTINS and merged.get("profile") is None:
            merged["profile"] = copy.deepcopy(_BUILTINS[name][1])
        if merged.get("profile") is None:
            raise ConfigError(f"scenario {name!r} is not builtin and no profile was given; known: {', '.join(sorted(_BUILTINS))}")
        return cls(**merged)

    def to_dict(self) -> dict:
        return asdict(self)


def builtin_scenario(name: str) -> ScenarioConfig:
    if name not in _BUILTINS:
        raise ConfigError(f"unknown scenario {name!r}; known: {', '.join(sorted(_BUILTINS))}")
    return ScenarioConfig.from_dict({"scenario": name})


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin_description(name: str) -> str:
    return _BUILTINS[name][0]


def build_profile(config: ScenarioConfig) -> DensityProfile:
    return _profile_from_spec(config.profile)


def build_kernel(config: ScenarioConfig) -> Kernel:
    return Kernel(amplitude=config.amplitude, inv_width=config.inv_width)


def build_mobility(config: ScenarioConfig) -> Mobility:
    return Mobility(cap=config.cap, v_max=config.v_max)


def _w1_renormalized(p: DensityProfile, ref: DensityProfile) -> float:
    """d1 after scaling p to the reference mass, as for the centered particle
    reconstruction; nan when a mass is not positive or the scaled values overflow."""
    if not p.mass > 0.0 or not ref.mass > 0.0:
        return math.nan
    if abs(p.mass - ref.mass) > _MASS_MATCH:
        ratio = ref.mass / p.mass
        if not math.isfinite(float(p.values.max()) * ratio):
            return math.nan
        p = DensityProfile(p.breakpoints, p.values * ratio)
    return wasserstein1(p, ref)


def _metric_rows(times, profiles, min_gaps=None):
    ref = profiles[0]
    rows = []
    for k, (t, p) in enumerate(zip(times, profiles)):
        gap = math.nan if min_gaps is None else float(min_gaps[k])
        rows.append((float(t), p.mass, total_variation(p), gap, _w1_renormalized(p, ref)))
    return rows


@dataclass(frozen=True)
class MethodRun:
    """Snapshots plus the metrics time series of one solver run."""

    config: ScenarioConfig
    method: str
    times: np.ndarray
    profiles: list
    trajectory: Trajectory | None = None
    fv: GodunovRun | None = None

    @functools.cached_property
    def metric_rows(self) -> list:
        """(t, mass, TV, min gap, W1 to the initial profile) per snapshot, computed on first access:
        an entropy audit never reads them."""
        gaps = None if self.trajectory is None else [s.min_gap for s in self.trajectory.states]
        return _metric_rows(self.times, self.profiles, gaps)


def run_particles(config: ScenarioConfig, settle_tol: float | None = None) -> MethodRun:
    """Integrate the particle system and reconstruct forward densities."""
    kernel, mobility = build_kernel(config), build_mobility(config)
    state = init_particles(build_profile(config), config.n_cells, mobility)
    traj = integrate(state, kernel, mobility, config.t_end, output_times=config.output_times, settle_tol=settle_tol)
    return MethodRun(config, "particles", traj.times, traj.profiles(), trajectory=traj)


def run_godunov(config: ScenarioConfig) -> MethodRun:
    """March the finite-volume scheme on the configured grid."""
    kernel, mobility = build_kernel(config), build_mobility(config)
    grid = Grid(config.domain[0], config.domain[1], config.fv_cells)
    run = gd_run(grid, build_profile(config), kernel, mobility, config.t_end, output_times=config.output_times)
    return MethodRun(config, "godunov", run.times, run.profiles(), fv=run)


@dataclass(frozen=True)
class CompareResult:
    """Both solvers on identical physics plus per-snapshot distances."""

    particles: MethodRun
    godunov: MethodRun
    rows: list  # (t, l1, w1) between centered particle density and FV profile


def run_compare(config: ScenarioConfig) -> CompareResult:
    part = run_particles(config)
    godu = run_godunov(config)
    if part.times.size != godu.times.size or not np.allclose(part.times, godu.times, rtol=0.0, atol=1e-12):
        raise RuntimeError("snapshot times of the two methods disagree")
    rows = []
    for k, t in enumerate(part.times):
        centered = reconstruct_density(part.trajectory.states[k], "centered")
        fv = godu.profiles[k]
        rows.append((float(t), l1_distance(centered, fv), _w1_renormalized(centered, fv)))
    return CompareResult(part, godu, rows)


@dataclass(frozen=True)
class ConvergenceResult:
    """Particle L1 errors against a finer particle run over a count sweep."""

    config: ScenarioConfig
    n_list: tuple
    n_ref: int
    errors: tuple
    ratios: tuple  # errors[i] / errors[i+1]


def run_convergence(config: ScenarioConfig, n_list) -> ConvergenceResult:
    """L1 error at t_end of particle runs against one at n_ref = 4*max(n).

    The reference is a particle run, not the finite-volume scheme: that
    scheme is first order, and at J = 4*max(n) its own error at the shock
    edges (about 1.5e-3 on single-step at t=1, J=2400) exceeds the errors it
    would grade, so the ratios would measure the reference.
    """
    ns = [number("n_list entry", n, integer=True) for n in n_list]
    if not ns or any(n < 1 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("n_list must be a strictly increasing list of positive counts")
    n_ref = 4 * max(ns)
    if n_ref > MAX_CELLS:
        raise ConfigError(f"n_list's reference run takes 4*max(n) = {n_ref} cells, above {MAX_CELLS}")

    def final_profile(n: int) -> DensityProfile:
        return run_particles(replace(config, n_cells=n, output_times=(config.t_end,))).profiles[-1]

    reference = final_profile(n_ref)
    errors = [l1_distance(final_profile(n), reference) for n in ns]
    ratios = tuple(errors[i] / errors[i + 1] for i in range(len(errors) - 1))
    return ConvergenceResult(config, tuple(ns), n_ref, tuple(errors), ratios)


def default_test_function(config: ScenarioConfig, frozen: bool = False, horizon: float | None = None) -> TestFunction:
    """Audit test function: the split-jam bump pair for the frozen weak steady
    state, otherwise a wide cosine-squared bump over the reachable support."""
    if horizon is None:
        horizon = 10.0 if frozen else config.t_end - 1.0
    horizon = float(horizon)
    if not math.isfinite(horizon):
        raise ConfigError(f"the plateau horizon must be finite, got {horizon!r}")
    if horizon < 0.0:
        raise ConfigError("entropy audit needs t_end >= 1 (temporal plateau horizon = t_end - 1)")
    if frozen and config.scenario == "stationary-weak":
        return bump_pair(horizon)
    lo, hi = build_profile(config).support()
    reach = 0.0 if frozen else config.v_max * (horizon + 1.0)
    return single_bump(horizon, center=0.5 * (lo + hi), width=2.0 * (hi - lo) + 4.0 * reach)


def frozen_snapshots(profile: DensityProfile, test_fn: TestFunction):
    """Time-constant trajectory covering the test function, dense on the ramp."""
    T = test_fn.horizon
    plateau = np.linspace(0.0, T, max(2, int(math.ceil(T)) + 1)) if T > 0.0 else np.array([0.0])
    ramp = np.linspace(T, T + 1.0, 33)
    times = sorted_union(plateau, ramp)
    return [(float(t), profile) for t in times]


def run_entropy_audit(
    config: ScenarioConfig,
    c_list=None,
    method: str = "particles",
    frozen: bool = False,
    n_space: int = N_SPACE,
    horizon: float | None = None,
) -> list[EntropyReport]:
    """Residuals of the default test function, one per constant, on one trajectory.

    frozen=True evaluates on the time-constant initial profile (the analytic
    steady-state argument); otherwise the configured solver provides the
    trajectory on 81 snapshots over [0, t_end], dense enough for the time
    quadrature, whatever the config's own ``output_times``.
    """
    kernel, mobility = build_kernel(config), build_mobility(config)
    if c_list is None:
        c_list = tuple(float(c) for c in np.linspace(0.0, config.cap, 11))
    check_audit_inputs(c_list, n_space)
    runners = {"particles": run_particles, "godunov": run_godunov}
    if method not in runners:
        raise ConfigError(f"unknown audit method {method!r}")
    tf = default_test_function(config, frozen=frozen, horizon=horizon)
    if frozen:
        snaps = frozen_snapshots(build_profile(config), tf)
    else:
        if config.t_end < tf.t_support_end - 1e-12:
            raise ConfigError(f"t_end={config.t_end:g} too short: the test function runs to t={tf.t_support_end:g}")
        run = runners[method](replace(config, output_times=np.linspace(0.0, config.t_end, 81)))
        snaps = list(zip(run.times, run.profiles))
    return entropy_residuals(snaps, kernel, mobility, tf, c_list, n_space=n_space)


def first_violation_horizon(config: ScenarioConfig, horizons, c: float = 0.5, n_space: int = N_SPACE):
    """Sweep the plateau horizon on the frozen profile; first flagged T wins.

    Returns (horizon, report) of the first flagged residual, or (None, None).
    """
    kernel, mobility = build_kernel(config), build_mobility(config)
    profile0 = build_profile(config)
    for T in horizons:
        tf = bump_pair(float(T))
        report = entropy_residual(frozen_snapshots(profile0, tf), kernel, mobility, tf, c, n_space=n_space)
        if report.violation:
            return float(T), report
    return None, None


# --- file emission ---------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_all(a: np.ndarray) -> list[str]:
    """``_fmt`` of every entry of a float array: ``tolist`` hands ``repr`` Python floats."""
    return list(map(repr, a.tolist()))


def _rows(prefix: str, *columns) -> str:
    """Lines ``prefix,a,b,...`` over the zipped string ``columns``, joined by newlines."""
    head = prefix + ","
    return head + ("\n" + head).join(map(",".join, zip(*columns)))


# Most rows in one piece of a per-snapshot file.  Emission holds about one
# piece's strings at a time, so its memory stays flat in the cell count.
_CHUNK = 512


def _fmt_chunks(a: np.ndarray):
    """``_fmt_all`` of ``a``, ``_CHUNK`` entries at a time."""
    for lo in range(0, a.size, _CHUNK):
        yield _fmt_all(a[lo:lo + _CHUNK])


def _density_rows(t: str, breakpoint_chunks, values: np.ndarray):
    """density.csv rows ``t,x_left,x_right,rho`` of one snapshot, one piece per chunk
    of breakpoint strings, each yielded with its chunk.  A row whose two edges lie
    in consecutive chunks takes its left edge from the earlier one."""
    left: list[str] = []
    lo = 0
    for xs in breakpoint_chunks:
        edges = left + xs
        hi = lo + len(edges) - 1
        yield xs, _rows(t, edges, itertools.islice(edges, 1, None), _fmt_all(values[lo:hi]))
        left, lo = edges[-1:], hi


def _write_blocks(paths, pieces) -> None:
    """Write each ``(i, text)`` piece to ``paths[i]``, the text followed by a newline.

    The per-snapshot files come in pieces of at most ``_CHUNK`` rows, so only
    one piece's text is held in memory at a time.
    """
    with contextlib.ExitStack() as stack:
        files = []
        for path in paths:
            path.parent.mkdir(parents=True, exist_ok=True)
            files.append(stack.enter_context(path.open("w")))
        for i, text in pieces:
            files[i].write(text)
            files[i].write("\n")
            del text  # the next piece replaces this one instead of joining it


def _write_lines(path: Path, lines) -> None:
    _write_blocks((path,), [(0, "\n".join(lines))])


def _snapshot_blocks(run: MethodRun):
    """``(file index, text)`` pieces of density.csv (0) and, for particle runs,
    trajectory.csv (1), at most ``_CHUNK`` rows each.

    Every float is formatted once.  A forward reconstruction's breakpoints are
    its snapshot's positions (the same array), so one chunk of strings serves
    both files.  Other breakpoints, such as the finite-volume grid edges that
    consecutive snapshots share, and the particle indices are formatted once
    per run and held as comma-joined text per chunk, about 15 B an edge where
    a ``str`` each would take about 80 B; a piece splits its chunk.
    """
    yield 0, "t,x_left,x_right,rho"
    if run.trajectory is None:
        states = [None] * len(run.profiles)
    else:
        yield 1, "t,i,x"
        states = run.trajectory.states
        n = max(s.positions.size for s in states)
        index = [",".join(map(str, range(lo, min(lo + _CHUNK, n)))) for lo in range(0, n, _CHUNK)]
    breakpoints = held = None  # the last breakpoint array that is not the positions, and its text
    for t, p, s in zip(run.times, run.profiles, states, strict=True):
        t = _fmt(t)
        if s is not None and p.breakpoints is s.positions:
            ts = _fmt(s.time)
            for c, (xs, density) in enumerate(_density_rows(t, _fmt_chunks(s.positions), p.values)):
                yield 0, density
                yield 1, _rows(ts, index[c].split(","), xs)
            continue
        if p.breakpoints is not breakpoints:
            breakpoints = p.breakpoints
            held = [",".join(xs) for xs in _fmt_chunks(breakpoints)]
        for _, density in _density_rows(t, (text.split(",") for text in held), p.values):
            yield 0, density
        if s is not None:
            ts = _fmt(s.time)
            for c, xs in enumerate(_fmt_chunks(s.positions)):
                yield 1, _rows(ts, index[c].split(","), xs)


def write_metrics_csv(path: Path, rows) -> None:
    _write_lines(path, ["t,mass,tv,min_gap,w1_to_reference"] + [",".join(_fmt(v) for v in row) for row in rows])


def write_entropy_jsonl(path: Path, reports) -> None:
    _write_lines(path, [json.dumps(r.json_record()) for r in reports])


def write_meta(path: Path, config: ScenarioConfig, extra: dict | None = None) -> None:
    versions = {"nlftl": __version__, "numpy": np.__version__, "python": ".".join(map(str, sys.version_info[:3]))}
    meta = {"config": config.to_dict(), "versions": versions}
    if extra:
        meta.update(extra)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _out_dir(config: ScenarioConfig, label: str, out_root) -> Path:
    """``<out>/<scenario>/<label>``, ``<out>`` being ``out_root`` or else the config's ``out_dir``."""
    return Path(out_root if out_root is not None else config.out_dir) / config.scenario / label


_OUT_FILES = ("density.csv", "trajectory.csv", "metrics.csv", "distances.csv", "convergence.csv", "entropy.jsonl", "meta.json")  # what the emitters write


def check_out_dirs(config: ScenarioConfig, *labels: str) -> None:
    """ConfigError unless every ``<out>/<scenario>/<label>`` can be created and
    written, the config's ``out_dir`` being ``<out>``.  Creates nothing: the
    nearest existing ancestor of each (or the directory itself) must be a
    writable directory, and what stands at an output file's name in it a
    writable file."""
    for label in labels:
        path = _out_dir(config, label, None)
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"cannot write output under {path}: {existing} is not a directory")
        if not os.access(existing, os.W_OK | os.X_OK):
            raise ConfigError(f"cannot write output under {path}: {existing} is not writable")
        for target in (path / name for name in _OUT_FILES):
            if target.exists() and not (target.is_file() and os.access(target, os.W_OK)):
                raise ConfigError(f"cannot write output under {path}: {target} is not a writable file")


def emit_method_run(run: MethodRun, out_root=None) -> Path:
    """Write density/metrics/meta (and particle trajectory) for one run."""
    d = _out_dir(run.config, run.method, out_root)
    per_snapshot = [d / "density.csv"] if run.trajectory is None else [d / "density.csv", d / "trajectory.csv"]
    _write_blocks(per_snapshot, _snapshot_blocks(run))
    write_metrics_csv(d / "metrics.csv", run.metric_rows)
    result = run.trajectory if run.trajectory is not None else run.fv
    write_meta(d / "meta.json", run.config, {"method": run.method, **result.diagnostics()})
    return d


def emit_compare(result: CompareResult, out_root=None) -> Path:
    emit_method_run(result.particles, out_root)
    emit_method_run(result.godunov, out_root)
    d = _out_dir(result.particles.config, "compare", out_root)
    _write_lines(d / "distances.csv", ["t,l1,w1"] + [",".join(_fmt(v) for v in row) for row in result.rows])
    write_meta(d / "meta.json", result.particles.config, {"method": "compare"})
    return d


def emit_convergence(result: ConvergenceResult, out_root=None) -> Path:
    d = _out_dir(result.config, "convergence", out_root)
    lines = ["n,l1_error,ratio_to_next"]
    for k, n in enumerate(result.n_list):
        ratio = result.ratios[k] if k < len(result.ratios) else math.nan
        lines.append(f"{n},{_fmt(result.errors[k])},{_fmt(ratio)}")
    _write_lines(d / "convergence.csv", lines)
    write_meta(d / "meta.json", result.config, {"method": "convergence", "n_ref": result.n_ref, "n_list": list(result.n_list)})
    return d


def min_margins(reports) -> dict:
    """Per test function, the smallest margin residual + guard and its constant.

    A report is flagged when its margin is negative.  Maps each ``phi`` label
    to ``{"c": ..., "margin": ...}``; ties keep the first report.
    """
    margins: dict = {}
    for r in reports:
        margin = r.residual + r.guard
        if r.phi not in margins or margin < margins[r.phi]["margin"]:
            margins[r.phi] = {"c": r.c, "margin": margin}
    return margins


def jump_sum_terms(reports) -> dict:
    """Per test function, the largest expansion order of its jump sums (0 where all lay past ``MAX_REACH``)."""
    terms: dict = {}
    for r in reports:
        terms[r.phi] = max(terms.get(r.phi, 0), r.jump_sum_terms)
    return terms


def emit_entropy(config: ScenarioConfig, reports, method_label: str, out_root=None) -> Path:
    d = _out_dir(config, method_label, out_root)
    write_entropy_jsonl(d / "entropy.jsonl", reports)
    extra = {
        "method": method_label,
        "flags": sum(1 for r in reports if r.violation),
        "min_margin": min_margins(reports),
        "jump_sum_terms": jump_sum_terms(reports),
    }
    write_meta(d / "meta.json", config, extra)
    return d
