"""Builtin scenarios, comparison/convergence harnesses, and file emission.

A scenario is a single JSON-compatible document; builtin names are overlays
on a defaults block, explicit keys override both.  All emitted files are
deterministic: floats are written with shortest round-trip repr, rows follow
fixed orders, and nothing records wall-clock time.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass, fields
from importlib import metadata as _metadata
from pathlib import Path

import numpy as np
import scipy

from .entropy import EntropyReport, TestFunction, bump_pair, entropy_residual, entropy_residuals, single_bump
from .errors import ConfigError
from .godunov import GodunovRun, Grid, gd_run
from .metrics import l1_distance, total_variation, wasserstein1
from .model import GAUSSIAN_AMPLITUDE, Kernel, Mobility
from .particles import Trajectory, init_particles, integrate, reconstruct_density
from .profiles import DensityProfile, step_profile, uniform_profile

_DEFAULTS: dict = {
    "scenario": "custom",
    "profile": None,
    "amplitude": GAUSSIAN_AMPLITUDE,
    "inv_width": 0.5,
    "cap": 1.0,
    "v_max": 1.0,
    "n_cells": 300,
    "fv_cells": 1200,
    "domain": [-2.5, 2.5],
    "t_end": 1.0,
    "output_times": None,
    "rtol": 1e-8,
    "cfl": 0.45,
    "out_dir": "out",
}

_BUILTINS: dict[str, dict] = {
    "single-step": {
        "profile": {"kind": "uniform-step", "left": -1.0, "right": 1.0, "height": 0.3},
    },
    "parabola": {
        "profile": {"kind": "parabola", "scale": 0.75, "left": -1.0, "right": 1.0, "cells": 10_000},
    },
    "two-step-0206": {
        "profile": {"kind": "two-step", "segments": [[-0.5, 0.0, 0.2], [0.5, 1.0, 0.6]]},
    },
    "two-step-11": {
        "profile": {"kind": "two-step", "segments": [[-0.5, 0.0, 1.0], [0.5, 1.0, 1.0]]},
    },
    "stationary-weak": {
        "profile": {"kind": "two-step", "segments": [[-1.0, -0.5, 1.0], [0.5, 1.0, 1.0]]},
    },
}

_BUILTIN_DOC = {
    "single-step": "uniform 0.3 on [-1, 1], mass 0.6",
    "parabola": "0.75*(1 - x^2) on [-1, 1], mass 1",
    "two-step-0206": "0.2 on [-0.5, 0] and 0.6 on [0.5, 1], mass 0.4",
    "two-step-11": "unit density on [-0.5, 0] and [0.5, 1], mass 1",
    "stationary-weak": "unit density on [-1, -0.5] and [0.5, 1], mass 1 (weak steady state)",
}


def _profile_from_spec(spec) -> DensityProfile:
    """Initial profile from its JSON spec: explicit cells or an analytic family."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("profile spec must be a mapping with a 'kind' key")
    kind = spec["kind"]
    try:
        if kind == "uniform-step":
            return uniform_profile(float(spec["left"]), float(spec["right"]), float(spec["height"]))
        if kind in ("two-step", "segments"):
            segs = [(float(a), float(b), float(v)) for a, b, v in spec["segments"]]
            if kind == "two-step" and len(segs) != 2:
                raise ConfigError("two-step profile needs exactly two segments")
            return step_profile(segs)
        if kind == "parabola":
            scale = float(spec.get("scale", 0.75))
            left = float(spec.get("left", -1.0))
            right = float(spec.get("right", 1.0))
            cells = int(spec.get("cells", 10_000))
            edges = np.linspace(left, right, cells + 1)
            a, b = edges[:-1], edges[1:]
            # exact cell average of scale*(1 - x^2); mass matches the integral to rounding
            vals = np.maximum(scale * (1.0 - (a * a + a * b + b * b) / 3.0), 0.0)
            return DensityProfile(edges, vals)
        if kind == "cells":
            return DensityProfile(
                np.asarray(spec["breakpoints"], dtype=float),
                np.asarray(spec["values"], dtype=float),
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
    inv_width: float = 0.5
    cap: float = 1.0
    v_max: float = 1.0
    n_cells: int = 300
    fv_cells: int = 1200
    domain: tuple = (-2.5, 2.5)
    t_end: float = 1.0
    output_times: tuple | None = None
    rtol: float = 1e-8
    cfl: float = 0.45
    out_dir: str = "out"

    def __post_init__(self) -> None:
        err = ConfigError
        if not isinstance(self.scenario, str) or not self.scenario:
            raise err("scenario must be a non-empty name")
        for name in ("amplitude", "inv_width", "cap", "v_max", "t_end", "rtol", "cfl"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > 0.0):
                raise err(f"{name} must be a positive finite number")
            object.__setattr__(self, name, value)
        if self.cfl > 1.0:
            raise err("cfl must lie in (0, 1]")
        for name in ("n_cells", "fv_cells"):
            value = getattr(self, name)
            if int(value) != value or int(value) < 1:
                raise err(f"{name} must be a positive integer")
            object.__setattr__(self, name, int(value))
        if self.fv_cells < 2:
            raise err("fv_cells must be at least 2")
        try:
            lo, hi = (float(v) for v in self.domain)
        except (TypeError, ValueError) as exc:
            raise err(f"domain must be a pair of numbers: {exc}") from exc
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise err("domain must satisfy left < right")
        object.__setattr__(self, "domain", (lo, hi))
        if self.output_times is None:
            times = tuple(float(t) for t in np.linspace(0.0, self.t_end, 11))
        else:
            times = tuple(float(t) for t in self.output_times)
            if not times:
                raise err("output_times must not be empty")
            for t in times:
                if not (math.isfinite(t) and 0.0 <= t <= self.t_end):
                    raise err(f"output time {t!r} outside [0, t_end]")
        object.__setattr__(self, "output_times", times)
        initial = _profile_from_spec(self.profile)
        if float(np.max(initial.values)) > self.cap + 1e-12:
            raise err("initial density exceeds the mobility cap")
        blo, bhi = initial.breakpoints[0], initial.breakpoints[-1]
        if blo < lo or bhi > hi:
            raise err(f"initial support [{blo:g}, {bhi:g}] is not contained in the domain [{lo:g}, {hi:g}]")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        merged = copy.deepcopy(_DEFAULTS)
        name = data.get("scenario", merged["scenario"])
        if name in _BUILTINS:
            merged.update(copy.deepcopy(_BUILTINS[name]))
        merged.update(copy.deepcopy(data))
        if merged["profile"] is None:
            raise ConfigError(f"scenario {name!r} is not builtin and no profile was given; known: {', '.join(sorted(_BUILTINS))}")
        return cls(**merged)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "profile": copy.deepcopy(self.profile),
            "amplitude": self.amplitude,
            "inv_width": self.inv_width,
            "cap": self.cap,
            "v_max": self.v_max,
            "n_cells": self.n_cells,
            "fv_cells": self.fv_cells,
            "domain": list(self.domain),
            "t_end": self.t_end,
            "output_times": list(self.output_times),
            "rtol": self.rtol,
            "cfl": self.cfl,
            "out_dir": self.out_dir,
        }


def builtin_scenario(name: str) -> ScenarioConfig:
    if name not in _BUILTINS:
        raise ConfigError(f"unknown scenario {name!r}; known: {', '.join(sorted(_BUILTINS))}")
    return ScenarioConfig.from_dict({"scenario": name})


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin_description(name: str) -> str:
    return _BUILTIN_DOC[name]


def build_profile(config: ScenarioConfig) -> DensityProfile:
    return _profile_from_spec(config.profile)


def build_kernel(config: ScenarioConfig) -> Kernel:
    return Kernel(amplitude=config.amplitude, inv_width=config.inv_width)


def build_mobility(config: ScenarioConfig) -> Mobility:
    return Mobility(cap=config.cap, v_max=config.v_max)


def _w1_renormalized(p: DensityProfile, ref: DensityProfile) -> float:
    """d1 after scaling p to the reference mass (covers small FV mass drift)."""
    if not p.mass > 0.0 or not ref.mass > 0.0:
        return math.nan
    if abs(p.mass - ref.mass) > 1e-12:
        p = DensityProfile(p.breakpoints, p.values * (ref.mass / p.mass))
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
    metric_rows: list
    trajectory: Trajectory | None = None
    fv: GodunovRun | None = None


def run_particles(
    config: ScenarioConfig,
    t_end: float | None = None,
    settle_tol: float | None = None,
    output_times=None,
) -> MethodRun:
    """Integrate the particle system and reconstruct forward densities."""
    kernel, mobility = build_kernel(config), build_mobility(config)
    state = init_particles(build_profile(config), config.n_cells, mobility)
    traj = integrate(
        state,
        kernel,
        mobility,
        t_end if t_end is not None else config.t_end,
        output_times=config.output_times if output_times is None else output_times,
        rtol=config.rtol,
        settle_tol=settle_tol,
    )
    profiles = traj.profiles("forward")
    rows = _metric_rows(traj.times, profiles, [s.min_gap for s in traj.states])
    return MethodRun(config, "particles", traj.times, profiles, rows, trajectory=traj)


def run_godunov(config: ScenarioConfig, t_end: float | None = None, output_times=None) -> MethodRun:
    """March the finite-volume scheme on the configured grid."""
    kernel, mobility = build_kernel(config), build_mobility(config)
    grid = Grid(config.domain[0], config.domain[1], config.fv_cells)
    run = gd_run(
        grid,
        build_profile(config),
        kernel,
        mobility,
        t_end if t_end is not None else config.t_end,
        output_times=config.output_times if output_times is None else output_times,
        cfl=config.cfl,
    )
    profiles = run.profiles()
    rows = _metric_rows(run.times, profiles)
    return MethodRun(config, "godunov", run.times, profiles, rows, fv=run)


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
    """Particle-to-fine-Godunov L1 errors over a particle-count sweep."""

    config: ScenarioConfig
    n_list: tuple
    j_ref: int
    errors: tuple
    ratios: tuple  # errors[i] / errors[i+1]


def run_convergence(config: ScenarioConfig, n_list, j_ref: int | None = None) -> ConvergenceResult:
    """L1 error of particle runs against a fine Godunov reference at t_end."""
    ns = [int(n) for n in n_list]
    if not ns or any(n < 1 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("n_list must be a strictly increasing list of positive counts")
    if j_ref is None:
        j_ref = 4 * max(ns)
    j_ref = int(j_ref)
    if j_ref < 4 * max(ns):
        raise ConfigError(f"j_ref must be at least 4*max(n_list) = {4 * max(ns)}")
    kernel, mobility = build_kernel(config), build_mobility(config)
    profile0 = build_profile(config)
    grid = Grid(config.domain[0], config.domain[1], j_ref)
    reference = gd_run(grid, profile0, kernel, mobility, config.t_end, output_times=[config.t_end], cfl=config.cfl)
    ref_profile = reference.profiles()[-1]
    errors = []
    for n in ns:
        state = init_particles(profile0, n, mobility)
        traj = integrate(state, kernel, mobility, config.t_end, output_times=[config.t_end], rtol=config.rtol)
        errors.append(l1_distance(reconstruct_density(traj.final, "forward"), ref_profile))
    ratios = tuple(errors[i] / errors[i + 1] for i in range(len(errors) - 1))
    return ConvergenceResult(config, tuple(ns), j_ref, tuple(errors), ratios)


def default_test_function(config: ScenarioConfig, frozen: bool = False, horizon: float | None = None) -> TestFunction:
    """Audit test function: the split-jam bump pair for the frozen weak steady
    state, otherwise a wide cosine-squared bump over the reachable support."""
    if horizon is None:
        horizon = 10.0 if frozen else config.t_end - 1.0
    horizon = float(horizon)
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
    times = np.unique(np.concatenate([plateau, ramp]))
    return [(float(t), profile) for t in times]


def run_entropy_audit(
    config: ScenarioConfig,
    c_list=None,
    phi_specs=None,
    method: str = "particles",
    frozen: bool = False,
    n_space: int = 256,
    horizon: float | None = None,
) -> list[EntropyReport]:
    """Residuals over a (c, test function) grid on one trajectory.

    frozen=True evaluates on the time-constant initial profile (the analytic
    steady-state argument); otherwise the configured solver provides the
    trajectory on a snapshot grid dense enough for the time quadrature.
    """
    kernel, mobility = build_kernel(config), build_mobility(config)
    if c_list is None:
        c_list = tuple(float(c) for c in np.linspace(0.0, config.cap, 11))
    if phi_specs is None:
        phi_specs = (default_test_function(config, frozen=frozen, horizon=horizon),)
    profile0 = build_profile(config)
    reports: list[EntropyReport] = []
    if frozen:
        for tf in phi_specs:
            snaps = frozen_snapshots(profile0, tf)
            reports.extend(entropy_residuals(snaps, kernel, mobility, tf, c_list, n_space=n_space))
        return reports
    t_need = max(tf.t_support_end for tf in phi_specs)
    if config.t_end < t_need - 1e-12:
        raise ConfigError(f"t_end={config.t_end:g} too short: test functions are supported up to t={t_need:g}")
    audit_times = np.linspace(0.0, config.t_end, 81)
    if method == "particles":
        run = run_particles(config, output_times=audit_times)
        snaps = list(zip(run.times, run.profiles))
    elif method == "godunov":
        run = run_godunov(config, output_times=audit_times)
        snaps = list(zip(run.times, run.profiles))
    else:
        raise ConfigError(f"unknown audit method {method!r}")
    for tf in phi_specs:
        reports.extend(entropy_residuals(snaps, kernel, mobility, tf, c_list, n_space=n_space))
    return reports


def first_violation_horizon(config: ScenarioConfig, horizons, c: float = 0.5, n_space: int = 256):
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


def _write_lines(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    lines = ["t,i,x"]
    for s in traj.states:
        t = _fmt(s.time)
        lines.extend(f"{t},{i},{_fmt(x)}" for i, x in enumerate(s.positions))
    _write_lines(path, lines)


def write_density_csv(path: Path, times, profiles) -> None:
    lines = ["t,x_left,x_right,rho"]
    for t, p in zip(times, profiles):
        ts = _fmt(t)
        bp, vals = p.breakpoints, p.values
        lines.extend(f"{ts},{_fmt(bp[k])},{_fmt(bp[k + 1])},{_fmt(v)}" for k, v in enumerate(vals))
    _write_lines(path, lines)


def write_metrics_csv(path: Path, rows) -> None:
    lines = ["t,mass,tv,min_gap,w1_to_reference"]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_lines(path, lines)


def write_entropy_jsonl(path: Path, reports) -> None:
    _write_lines(path, [json.dumps(r.json_record()) for r in reports])


def _versions() -> dict:
    try:
        own = _metadata.version("nlftl")
    except _metadata.PackageNotFoundError:
        own = "unpackaged"
    return {
        "nlftl": own,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


def write_meta(path: Path, config: ScenarioConfig, extra: dict | None = None) -> None:
    meta = {"config": config.to_dict(), "versions": _versions()}
    if extra:
        meta.update(extra)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def emit_method_run(run: MethodRun, out_root=None) -> Path:
    """Write density/metrics/meta (and particle trajectory) for one run."""
    root = Path(out_root if out_root is not None else run.config.out_dir)
    d = root / run.config.scenario / run.method
    write_density_csv(d / "density.csv", run.times, run.profiles)
    write_metrics_csv(d / "metrics.csv", run.metric_rows)
    extra: dict = {"method": run.method}
    if run.trajectory is not None:
        write_trajectory_csv(d / "trajectory.csv", run.trajectory)
        extra["settled"] = run.trajectory.settled
        extra["min_gap_seen"] = float(run.trajectory.min_gap_seen)
    if run.fv is not None:
        extra["steps"] = run.fv.steps
        extra["clamped_mass"] = float(run.fv.clamped_mass)
        extra["clamp_warnings"] = run.fv.clamp_warnings
        extra["mass_drift"] = float(run.fv.masses[-1] - run.fv.masses[0])
    write_meta(d / "meta.json", run.config, extra)
    return d


def emit_compare(result: CompareResult, out_root=None) -> Path:
    emit_method_run(result.particles, out_root)
    emit_method_run(result.godunov, out_root)
    root = Path(out_root if out_root is not None else result.particles.config.out_dir)
    d = root / result.particles.config.scenario / "compare"
    _write_lines(d / "distances.csv", ["t,l1,w1"] + [",".join(_fmt(v) for v in row) for row in result.rows])
    write_meta(d / "meta.json", result.particles.config, {"method": "compare"})
    return d


def emit_convergence(result: ConvergenceResult, out_root=None) -> Path:
    root = Path(out_root if out_root is not None else result.config.out_dir)
    d = root / result.config.scenario / "convergence"
    lines = ["n,l1_error,ratio_to_next"]
    for k, n in enumerate(result.n_list):
        ratio = result.ratios[k] if k < len(result.ratios) else math.nan
        lines.append(f"{n},{_fmt(result.errors[k])},{_fmt(ratio)}")
    _write_lines(d / "convergence.csv", lines)
    write_meta(d / "meta.json", result.config, {"method": "convergence", "j_ref": result.j_ref, "n_list": list(result.n_list)})
    return d


def emit_entropy(config: ScenarioConfig, reports, method_label: str, out_root=None) -> Path:
    root = Path(out_root if out_root is not None else config.out_dir)
    d = root / config.scenario / method_label
    write_entropy_jsonl(d / "entropy.jsonl", reports)
    write_meta(d / "meta.json", config, {"method": method_label, "flags": sum(1 for r in reports if r.violation)})
    return d
