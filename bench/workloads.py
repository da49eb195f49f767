"""Workloads of the nlftl benchmark: seeded inputs, one iteration through the
public API (``ScenarioConfig.from_dict`` -> ``run_*`` -> ``emit_*``, as
``nlftl.cli`` does), and the checks of its outputs.

Seed 0 passes the builtin scenario unchanged.  Any other seed perturbs the
builtin profile's step heights and endpoints by a few percent within the same
profile family and passes the result as an explicit ``profile`` spec.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import nlftl as nl
from nlftl import godunov, scenarios

# Perturbation of a non-zero seed: heights scale by up to HEIGHT_JITTER,
# endpoints shift by up to ENDPOINT_JITTER of the support length.
HEIGHT_JITTER = 0.03
ENDPOINT_JITTER = 0.02

SETTLE_TOL = 1e-6
SETTLE_L1_GATE = 0.05  # the bound of tests/test_acceptance.py::test_09
MASS_TOL = 1e-12
SNAPSHOTS = 11  # default output_times: linspace(0, t_end, 11)
# Three of the eleven default constants linspace(0, cap, 11): 11 would take
# about 50 s an iteration on a 2-core machine, longer than one benchmark run.
AUDIT_CONSTANTS = (0.0, 0.5, 1.0)

WORKLOADS: dict[str, dict] = {
    "settle": {"scenario": "single-step", "n_cells": 300, "t_end": 200.0},
    "wide": {"scenario": "single-step", "n_cells": 2400, "t_end": 1.0},
    "fv-march": {"scenario": "two-step-0206", "fv_cells": 4800, "t_end": 2.0},
    "audit": {"scenario": "single-step", "t_end": 2.0},
}
FINITE_VOLUME = {"fv-march"}


def perturb_profile(spec: dict, rng: random.Random) -> dict:
    """Same profile family as ``spec`` with jittered endpoints and heights."""

    def height(v: float) -> float:
        return v * (1.0 + rng.uniform(-HEIGHT_JITTER, HEIGHT_JITTER))

    if spec["kind"] == "uniform-step":
        shift = ENDPOINT_JITTER * (spec["right"] - spec["left"])
        return {
            "kind": "uniform-step",
            "left": spec["left"] + rng.uniform(-shift, shift),
            "right": spec["right"] + rng.uniform(-shift, shift),
            "height": height(spec["height"]),
        }
    if spec["kind"] == "two-step":
        segs = spec["segments"]
        shift = ENDPOINT_JITTER * (segs[-1][1] - segs[0][0])
        return {
            "kind": "two-step",
            "segments": [
                [a + rng.uniform(-shift, shift), b + rng.uniform(-shift, shift), height(v)] for a, b, v in segs
            ],
        }
    raise ValueError(f"no perturbation for profile kind {spec['kind']!r}")


def config_dict(workload: str, seed: int) -> dict:
    """The config document the program receives for (workload, seed)."""
    doc = dict(WORKLOADS[workload])
    if seed != 0:
        base = nl.builtin_scenario(doc["scenario"]).profile
        doc["profile"] = perturb_profile(base, random.Random(f"{workload}:{seed}"))
    return doc


def setup(workload: str, seed: int) -> nl.ScenarioConfig:
    """Config resolution, profile build and initial state: what setup_s times.

    Calls go through module attributes so the traced run sees them.
    """
    cfg = scenarios.ScenarioConfig.from_dict(config_dict(workload, seed))
    profile = scenarios.build_profile(cfg)
    if workload in FINITE_VOLUME:
        godunov.cell_averages(profile, godunov.Grid(cfg.domain[0], cfg.domain[1], cfg.fv_cells))
    else:
        scenarios.init_particles(profile, cfg.n_cells, scenarios.build_mobility(cfg))
    return cfg


def execute(workload: str, cfg: nl.ScenarioConfig, out_root: Path):
    """One timed iteration: solver run plus emission. Returns (result, emitted dir)."""
    if workload == "settle":
        run = scenarios.run_particles(cfg, settle_tol=SETTLE_TOL)
    elif workload == "wide":
        run = scenarios.run_particles(cfg)
    elif workload == "fv-march":
        run = scenarios.run_godunov(cfg)
    else:
        reports = scenarios.run_entropy_audit(cfg, c_list=AUDIT_CONSTANTS, method="particles", n_space=256)
        return reports, scenarios.emit_entropy(cfg, reports, "particles", out_root)
    return run, scenarios.emit_method_run(run, out_root)


def l1_to_block(profile: nl.DensityProfile, cap: float) -> float:
    """L1 distance to the saturated block of length mass/cap centred on the
    midpoint of the profile's support."""
    lo, hi = profile.support()
    half = 0.5 * profile.mass / cap
    mid = 0.5 * (lo + hi)
    return nl.l1_distance(profile, nl.uniform_profile(mid - half, mid + half, cap))


def emitted_times(out_dir: Path) -> set[str]:
    """Distinct snapshot times in an emitted density.csv."""
    lines = (Path(out_dir) / "density.csv").read_text().splitlines()[1:]
    return {line.split(",", 1)[0] for line in lines}


def check(workload: str, cfg: nl.ScenarioConfig, result, out_dir: Path) -> list[str]:
    """Failed output checks of one iteration; an empty list means correct."""
    if workload == "settle":
        failures = [] if result.trajectory.settled else ["run did not settle"]
        l1 = l1_to_block(result.profiles[-1], cfg.cap)
        if not l1 <= SETTLE_L1_GATE:
            failures.append(f"l1_to_block {l1:.4g} > {SETTLE_L1_GATE}")
        return failures
    if workload == "wide":
        failures = []
        m0 = scenarios.build_profile(cfg).mass
        drift = max(abs(p.mass - m0) for p in result.profiles)
        if not drift <= MASS_TOL:
            failures.append(f"reconstructed mass off the initial mass by {drift:.3g} > {MASS_TOL}")
        emitted = len(emitted_times(out_dir))
        if len(result.profiles) != SNAPSHOTS or emitted != SNAPSHOTS:
            failures.append(f"expected {SNAPSHOTS} snapshots; run has {len(result.profiles)}, density.csv {emitted}")
        return failures
    if workload == "fv-march":
        failures = []
        lo = min(float(s.values.min()) for s in result.fv.states)
        hi = max(float(s.values.max()) for s in result.fv.states)
        if lo < 0.0 or hi > cfg.cap:
            failures.append(f"values span [{lo:.6g}, {hi:.6g}], outside [0, {cfg.cap:g}]")
        if result.fv.clamp_warnings != 0:
            failures.append(f"{result.fv.clamp_warnings} clamp warnings")
        return failures
    failures = []
    records = (Path(out_dir) / "entropy.jsonl").read_text().splitlines()
    if sorted(r.c for r in result) != sorted(AUDIT_CONSTANTS) or len(records) != len(AUDIT_CONSTANTS):
        failures.append(f"{len(result)} reports and {len(records)} records for {len(AUDIT_CONSTANTS)} constants")
    if not all(math.isfinite(json.loads(line)["residual"]) for line in records):
        failures.append("a residual is not finite")
    flags = sum(1 for r in result if r.violation)
    if flags:
        failures.append(f"{flags} entropy flags")
    return failures
