"""Headline behavior gate: one test per end-to-end property of the solvers.

Each test prints a single tagged PASS/FAIL line with the measured numbers
before asserting, so a verbose run reads as a checklist.  Every check is a
property the model and its solvers can meet: mass budgets that a
conservative scheme satisfies to rounding, gap filling at the times finite
propagation speed allows, and convergence graded against a reference more
accurate than the runs it grades.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import nlftl as nl
from nlftl.godunov import cfl_dt, compute_fields

MOB = nl.Mobility()
KER = nl.Kernel()

# dense-output evaluation tolerance declared for snapshot interpolation
INTERP_TOL = 1e-6


def report(tag: str, ok: bool, detail: str) -> bool:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def doubled_support_bound(profile: nl.DensityProfile) -> float:
    lo, hi = profile.support()
    half = hi - lo
    mid = 0.5 * (lo + hi)
    return KER.lipschitz_bound((mid - half, mid + half))


@pytest.fixture(scope="module")
def builtin_runs():
    out = {}
    for name in nl.builtin_names():
        cfg = nl.builtin_scenario(name)
        t0 = time.perf_counter()
        out[name] = (nl.run_particles(cfg), time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def godunov_runs():
    return {name: nl.run_godunov(nl.builtin_scenario(name)) for name in nl.builtin_names()}


@pytest.fixture(scope="module")
def settled_single_step():
    cfg = nl.ScenarioConfig.from_dict({"scenario": "single-step", "t_end": 200.0})
    t0 = time.perf_counter()
    run = nl.run_particles(cfg, settle_tol=1e-6)
    return run, time.perf_counter() - t0


@pytest.fixture(scope="module")
def settled_gap_fill():
    cfg = nl.ScenarioConfig.from_dict(
        {"scenario": "two-step-11", "t_end": 600.0, "output_times": [float(t) for t in range(601)]}
    )
    return nl.run_particles(cfg, settle_tol=1e-6)


@pytest.fixture(scope="module")
def settled_merge():
    cfg = nl.ScenarioConfig.from_dict({"scenario": "two-step-0206", "t_end": 600.0})
    return nl.run_particles(cfg, settle_tol=1e-6)


def test_01_gap_floor_and_runtime_all_builtins(builtin_runs):
    worst = []
    for name, (run, elapsed) in builtin_runs.items():
        floor = run.trajectory.states[0].gap_floor
        margin = run.trajectory.min_gap_seen - (floor - 1e-6)
        worst.append((margin, elapsed, name))
    margin, elapsed, name = min(worst)
    ok = margin >= 0.0 and all(e <= 60.0 for _, e, _ in worst)
    assert report(
        "01 gap-floor",
        ok,
        f"min gap clears m/(M N) - 1e-6 by {margin:.3e} (worst: {name}), slowest run {max(e for _, e, _ in worst):.2f} s",
    )


def test_02_saturated_block_stationary():
    jam = nl.jam_state(0.0, 0.6, MOB, 300)
    speed = float(np.max(np.abs(nl.rhs(jam, KER, MOB))))
    traj = nl.integrate(jam, KER, MOB, 1.0, output_times=[1.0])
    drift = float(np.max(np.abs(traj.final.positions - jam.positions)))
    ok = speed <= 1e-14 and drift <= 1e-10
    assert report("02 jam-stationary", ok, f"max|dx/dt|={speed:.2e} (<=1e-14), drift at t=1 {drift:.2e} (<=1e-10)")


def test_03_velocity_law_matches_direct_sums():
    def direct(x, pm):
        n = len(x) - 1
        dens = pm / np.diff(x)
        out = np.zeros(n + 1)
        for i in range(n + 1):
            fwd = sum(KER.d1(x[i] - x[j]) for j in range(i + 1, n + 1))
            bwd = sum(KER.d1(x[i] - x[j]) for j in range(i))
            v_fwd = MOB(dens[i]) if i < n else 0.0
            v_bwd = MOB(dens[i - 1]) if i > 0 else 0.0
            out[i] = -v_fwd * pm * fwd - v_bwd * pm * bwd
        return out

    rng = np.random.default_rng(123)
    worst = 0.0
    spent = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        gaps = rng.uniform(1.0 / n, 2.0, size=n)
        x = rng.uniform(-1.0, 1.0) + np.concatenate(([0.0], np.cumsum(gaps)))
        state = nl.ParticleState(time=0.0, positions=x, particle_mass=1.0 / n, cap=MOB.cap)
        t0 = time.perf_counter()
        got = nl.rhs(state, KER, MOB)
        spent += time.perf_counter() - t0
        want = direct(x, state.particle_mass)
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    ok = worst <= 1e-14 and spent <= 1.0
    assert report("03 rhs-oracle", ok, f"100 random states: rel err {worst:.2e} (<=1e-14) in {spent:.3f} s (<=1 s)")


def test_04_total_variation_exponential_bound(builtin_runs):
    worst_ratio = 0.0
    worst = ""
    for name, (run, _) in builtin_runs.items():
        lip = doubled_support_bound(run.profiles[0])
        tv0 = nl.total_variation(run.profiles[0])
        for t, p in zip(run.times, run.profiles):
            tv = nl.total_variation(p)
            budget = tv0 * math.exp(4.0 * lip * MOB.v_max * float(t))
            if not math.isfinite(tv):
                worst_ratio = math.inf
            elif tv / budget > worst_ratio:
                worst_ratio, worst = tv / budget, f"{name} t={t:g}"
    ok = worst_ratio <= 1.0
    assert report("04 tv-bound", ok, f"max TV(t)/budget = {worst_ratio:.3f} at {worst} (<=1)")


def test_05_wasserstein_time_lipschitz(builtin_runs):
    worst_ratio = 0.0
    worst = ""
    for name, (run, _) in builtin_runs.items():
        lip = doubled_support_bound(run.profiles[0])
        m = run.profiles[0].mass
        for i in range(len(run.profiles)):
            for j in range(i + 1, len(run.profiles)):
                d = nl.wasserstein1(run.profiles[i], run.profiles[j])
                bound = 12.0 * lip * MOB.v_max * m * float(run.times[j] - run.times[i]) + 2.0 * INTERP_TOL
                if d / bound > worst_ratio:
                    worst_ratio, worst = d / bound, f"{name} [{run.times[i]:g},{run.times[j]:g}]"
    ok = worst_ratio <= 1.0
    assert report("05 w1-lipschitz", ok, f"max d1/bound over snapshot pairs = {worst_ratio:.3f} at {worst} (<=1)")


def test_06_forward_profile_near_empirical_measure(builtin_runs):
    worst = -math.inf
    where = ""
    for name, (run, _) in builtin_runs.items():
        for state, profile in zip(run.trajectory.states, run.profiles):
            x = state.positions
            allowance = state.particle_mass * state.n_cells * (x[-1] - x[0]) / (2 * state.n_cells)
            excess = nl.wasserstein1(profile, nl.empirical_measure(state)) - (allowance + 1e-12)
            if excess > worst:
                worst, where = excess, f"{name} t={state.time:g}"
    ok = worst <= 0.0
    assert report("06 empirical-gap", ok, f"max d1 - m*support/(2N) = {worst:.2e} at {where} (<=0 with 1e-12 slack)")


def test_07_saturated_block_bit_exact_godunov():
    # the unique congested steady state: a single unit block on [-1/2, 1/2]
    grid = nl.Grid(-2.5, 2.5, 1200)
    vals = np.where(np.abs(grid.centers) < 0.5, 1.0, 0.0)
    state = nl.FVState(0.0, vals, MOB.cap)
    dt = cfl_dt(grid, compute_fields(vals, grid, KER), MOB, cap_dt=math.inf)
    clamped = 0.0
    t0 = time.perf_counter()
    for _ in range(10_000):
        state, step_clamp = nl.gd_step(grid, state, KER, MOB, dt)
        clamped += step_clamp
    elapsed = time.perf_counter() - t0
    ok = np.array_equal(state.values, vals) and clamped == 0.0
    assert report(
        "07 steady-bit-exact",
        ok,
        f"unit block after 10^4 steps (dt={dt:.3e}): bitwise equal={np.array_equal(state.values, vals)}, "
        f"clamped={clamped:g}, {elapsed:.1f} s",
    )


def test_08_mass_budgets_particles_and_godunov(builtin_runs, godunov_runs):
    worst_particle = 0.0
    for name, (run, _) in builtin_runs.items():
        m = run.trajectory.states[0].total_mass
        worst_particle = max(worst_particle, float(np.max(np.abs(run.trajectory.masses - m))))
    drifts = {}
    for name, run in godunov_runs.items():
        m = run.fv.masses[0]
        drifts[name] = (abs(float(run.fv.masses[-1] - run.fv.masses[0])), 1e-6 * m)
    ok_particle = worst_particle <= 1e-12
    ok_godunov = all(d <= budget for d, budget in drifts.values())
    bad = {k: f"{d:.2e}>{b:.1e}" for k, (d, b) in drifts.items() if d > b}
    assert report(
        "08 mass-budgets",
        ok_particle and ok_godunov,
        f"particles max|dm|={worst_particle:.2e} (<=1e-12); godunov drift at J=1200, t=1 over budget: {bad or 'none'}",
    )


def test_09_single_step_settles_to_saturated_block(settled_single_step):
    run, elapsed = settled_single_step
    target = nl.uniform_profile(-0.3, 0.3, 1.0)
    dist = nl.l1_distance(run.profiles[-1], target)
    ok = run.trajectory.settled and dist <= 0.05 and elapsed <= 300.0
    assert report(
        "09 congestion-limit",
        ok,
        f"settled={run.trajectory.settled} at t={run.times[-1]:.2f}, L1 to unit block on [-0.3,0.3] = {dist:.4f} "
        f"(<=0.05), {elapsed:.1f} s (<=300 s)",
    )


def test_10_separated_bumps_merge_to_unit_block(settled_merge):
    run = settled_merge
    final = run.trajectory.final
    length = float(final.positions[-1] - final.positions[0])
    interior = run.profiles[-1].values[1:-1]
    peak = float(np.max(interior))
    ok = run.trajectory.settled and abs(length - 0.4) <= 0.02 and abs(peak - 1.0) <= 0.02
    assert report(
        "10 merge-to-block",
        ok,
        f"settled={run.trajectory.settled} at t={run.times[-1]:.2f}, support length {length:.4f} (0.4+-0.02), "
        f"interior peak {peak:.4f} (1+-0.02)",
    )


def test_11_split_block_flagged_by_entropy_audit():
    cfg = nl.builtin_scenario("stationary-weak")
    horizon, rep = nl.first_violation_horizon(cfg, (1, 2, 4, 8, 16, 32, 64, 128, 200), c=0.5, n_space=256)
    ok = horizon is not None and horizon <= 200 and rep.violation
    detail = f"no violation up to T=200"
    if ok:
        plateau = np.linspace(0.0, horizon, 2 * max(2, math.ceil(horizon) + 1) - 1)
        times = np.unique(np.concatenate([plateau, np.linspace(horizon, horizon + 1.0, 65)]))
        profile = nl.build_profile(cfg)
        fine = nl.entropy_residual(
            [(float(t), profile) for t in times], KER, MOB, nl.bump_pair(float(horizon)), 0.5, n_space=512
        )
        shift = abs(fine.residual - rep.residual) / abs(rep.residual)
        ok = fine.violation and fine.residual < 0.0 and shift <= 0.05
        detail = (
            f"first flagged horizon T={horizon:g} (<=200), residual {rep.residual:.4f}; "
            f"doubled quadrature {fine.residual:.4f}, shift {100 * shift:.2f}% (<=5%)"
        )
    assert report("11 entropy-flag", ok, detail)


def test_12_left_bump_escapes_and_gap_fills(builtin_runs, settled_gap_fill):
    cfg = nl.builtin_scenario("two-step-11")
    state = nl.init_particles(nl.build_profile(cfg), cfg.n_cells, MOB)
    x = state.positions
    i_lead = int(np.searchsorted(x, 0.25)) - 1
    speed = float(nl.rhs(state, KER, MOB)[i_lead])
    gap_fwd = float(x[i_lead + 1] - x[i_lead])
    mass_right = state.particle_mass * (state.n_cells - 1 - i_lead)
    floor_speed = 0.9 * MOB(state.particle_mass / gap_fwd) * KER.d1(0.5) * mass_right
    ok_speed = speed > 0.0 and speed >= floor_speed

    # finite propagation speed: no particle moves faster than v_max sup|K'| m,
    # so at t=1 the two leading particles have closed in on the gap by at
    # most that much each and x=0.25 is still vacuum in the exact solution
    run, _ = builtin_runs["two-step-11"]
    t_end = float(run.times[-1])
    reach = MOB.v_max * KER.d1(1.0 / math.sqrt(2.0 * KER.inv_width)) * state.total_mass * t_end
    final = run.trajectory.final.positions
    moved = (float(final[i_lead] - x[i_lead]), float(x[i_lead + 1] - final[i_lead + 1]))
    ok_reach = all(0.0 < d <= reach for d in moved)

    # the gap fills where the model places it: monotonically, run to rest
    settled = settled_gap_fill
    dens = np.array([p.value_at(0.25) for p in settled.profiles])
    ok_fill = settled.trajectory.settled and bool(np.all(np.diff(dens) >= 0.0)) and dens[-1] >= 0.1
    assert report(
        "12 escape-and-fill",
        ok_speed and ok_reach and ok_fill,
        f"leading-particle speed {speed:.6f} >= {floor_speed:.6f}: {ok_speed}; "
        f"leading particles moved {moved[0]:.4f}, {moved[1]:.4f} toward the gap by t={t_end:g} "
        f"(in (0, {reach:.4f}]): {ok_reach}; "
        f"density at x=0.25 non-decreasing over {dens.size} snapshots and {dens[-1]:.4f} (>=0.1) "
        f"once settled at t={settled.times[-1]:.2f}: {ok_fill}",
    )


def test_13_particle_error_against_fine_reference_decays():
    # graded against a particle run at 4 * max(n): the finite-volume scheme is
    # first order, and at J = 4 * max(n) its own error exceeds the particle
    # errors, so it cannot grade them; it certifies the reference instead
    n_list = (75, 150, 300, 600)
    n_ref = 4 * max(n_list)

    def final_profile(method, **keys):
        cfg = nl.ScenarioConfig.from_dict({"scenario": "single-step", "output_times": [1.0], **keys})
        run = nl.run_particles(cfg) if method == "particles" else nl.run_godunov(cfg)
        return run.profiles[-1]

    t0 = time.perf_counter()
    reference = final_profile("particles", n_cells=n_ref)
    errors = [nl.l1_distance(final_profile("particles", n_cells=n), reference) for n in n_list]
    fv_dist = [nl.l1_distance(final_profile("godunov", fv_cells=j), reference) for j in (2400, 4800)]
    elapsed = time.perf_counter() - t0
    ok_ref = fv_dist[0] / fv_dist[1] >= 1.3
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    ok = decreasing and all(r >= 1.2 for r in ratios) and elapsed <= 900.0 and ok_ref
    assert report(
        "13 convergence",
        ok,
        f"errors against particles at N={n_ref} {[f'{e:.3e}' for e in errors]} strictly decreasing={decreasing}; "
        f"ratios [{', '.join(f'{r:.3f}' for r in ratios)}] (each >=1.2), {elapsed:.0f} s (<=900 s); "
        f"godunov J=2400, 4800 to the reference {fv_dist[0]:.3e}, {fv_dist[1]:.3e}, "
        f"contraction {fv_dist[0] / fv_dist[1]:.2f} (>=1.3)",
    )


def test_14_reruns_are_byte_identical(tmp_path):
    from nlftl.scenarios import emit_compare

    cfg = nl.ScenarioConfig.from_dict(
        {"scenario": "single-step", "n_cells": 40, "fv_cells": 240, "t_end": 0.5}
    )
    trees = []
    for sub in ("a", "b"):
        root = tmp_path / sub
        emit_compare(nl.run_compare(cfg), root)
        trees.append({p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()})
    ok = trees[0].keys() == trees[1].keys() and trees[0] == trees[1]
    assert report("14 determinism", ok, f"{len(trees[0])} files byte-identical across independent reruns")
