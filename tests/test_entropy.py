"""Test functions and the Kruzkov-style residual evaluator."""

import json
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nlftl as nl
from nlftl import entropy, gauss_sums
from nlftl.scenarios import frozen_snapshots

MOB = nl.Mobility()
KER = nl.Kernel()

SPLIT_JAM = nl.step_profile([(-1.0, -0.5, 1.0), (0.5, 1.0, 1.0)])


def central_diff(fn, x, h=1e-5):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


# ------------------------------------------------------------ test function

@pytest.mark.parametrize("kind", ["mollifier", "cos2"])
def test_bump_derivative_matches_finite_difference(kind):
    bump = nl.SpatialBump(kind, center=0.2, width=0.7)
    xs = np.concatenate([
        np.linspace(-0.2, 0.6, 41),          # interior
        [0.2 - 0.349, 0.2 + 0.349],          # near the support edge
        [-5.0, 5.0],                         # far outside
    ])
    for x in xs:
        fd = central_diff(bump.value, float(x))
        assert abs(bump.deriv(float(x)) - fd) < 1e-6


def test_bump_nonnegative_and_compact():
    for kind in ("mollifier", "cos2"):
        bump = nl.SpatialBump(kind, center=-0.5, width=0.5)
        xs = np.linspace(-2.0, 1.0, 1001)
        vals = bump.value(xs)
        assert np.all(vals >= 0.0)
        lo, hi = bump.support
        outside = (xs < lo) | (xs > hi)
        assert np.all(vals[outside] == 0.0)
        assert np.all(bump.deriv(xs)[outside] == 0.0)
        assert bump.value(bump.center) > 0.0


def test_time_ramp_profile_and_derivative():
    tf = nl.single_bump(horizon=2.0)
    assert tf.xi(0.0) == 1.0
    assert tf.xi(2.0) == 1.0
    assert tf.xi(3.0) == 0.0
    assert tf.xi(7.0) == 0.0
    assert tf.xi(2.5) == pytest.approx(0.5)
    # keep the FD stencil clear of the C^1 junctions at t=2 and t=3, where
    # the second derivative jumps and the central difference is only O(h)
    ts = np.concatenate([np.linspace(0.1, 1.95, 20), np.linspace(2.05, 2.95, 19), [3.2, 3.4]])
    for t in ts:
        fd = central_diff(tf.xi, float(t))
        assert abs(tf.dxi(float(t)) - fd) < 1e-6
    # non-increasing everywhere
    samples = tf.xi(np.array(0.0)) if False else [tf.xi(t) for t in np.linspace(0, 4, 200)]
    assert np.all(np.diff(samples) <= 1e-15)


def test_bump_rejects_bad_parameters():
    with pytest.raises(ValueError):
        nl.SpatialBump("triangle", 0.0, 1.0)
    with pytest.raises(ValueError):
        nl.SpatialBump("cos2", 0.0, -1.0)
    with pytest.raises(ValueError):
        nl.SpatialBump("cos2", 0.0, 1.0, amplitude=0.0)
    with pytest.raises(ValueError):
        nl.TestFunction((), 1.0, "empty")


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_horizon_is_a_config_error(horizon):
    with pytest.raises(nl.ConfigError, match="horizon"):
        nl.TestFunction((nl.SpatialBump("cos2", 0.0, 1.0),), horizon, "bad")
    for name, frozen in (("single-step", False), ("stationary-weak", True)):
        with pytest.raises(nl.ConfigError):
            nl.default_test_function(nl.builtin_scenario(name), frozen=frozen, horizon=horizon)


@pytest.mark.parametrize("horizon", [1e300, 1e9, np.nextafter(entropy.MAX_HORIZON, np.inf)])
def test_horizon_above_the_bound_is_a_config_error(horizon):
    # a frozen audit takes a snapshot per unit of horizon: 1e9 of them would
    # exhaust memory, 1e300 overflow the snapshot grid; no grid is built here
    with pytest.raises(nl.ConfigError, match="horizon"):
        nl.TestFunction((nl.SpatialBump("cos2", 0.0, 1.0),), horizon, "long")
    for name, frozen in (("single-step", False), ("single-step", True), ("stationary-weak", True)):
        with pytest.raises(nl.ConfigError, match="horizon"):
            nl.default_test_function(nl.builtin_scenario(name), frozen=frozen, horizon=horizon)
    assert nl.bump_pair(entropy.MAX_HORIZON).horizon == entropy.MAX_HORIZON


# ---------------------------------------------------------------- residual

def test_vacuum_residual_is_exactly_zero_for_c_zero():
    vac = nl.DensityProfile(np.array([-1.0, 1.0]), np.array([0.0]))
    tf = nl.single_bump(horizon=1.0, center=0.0, width=2.0)
    snaps = [(t, vac) for t in np.linspace(0.0, 2.0, 21)]
    rep = nl.entropy_residual(snaps, KER, MOB, tf, 0.0)
    assert rep.residual == 0.0
    assert not rep.violation


def test_vacuum_residual_cancels_within_guard_for_positive_c():
    vac = nl.DensityProfile(np.array([-1.0, 1.0]), np.array([0.0]))
    tf = nl.single_bump(horizon=1.0, center=0.0, width=2.0)
    snaps = [(t, vac) for t in np.linspace(0.0, 2.0, 21)]
    rep = nl.entropy_residual(snaps, KER, MOB, tf, 0.7)
    # the constant-c terms cancel up to the trapezoidal error of the ramp
    assert abs(rep.residual) < 1e-2
    assert abs(rep.residual) <= rep.est_error + 1e-12
    assert not rep.violation


def test_residual_scales_linearly_with_bump_amplitude():
    tf1 = nl.bump_pair(horizon=2.0)
    scaled = tuple(
        nl.SpatialBump(b.kind, b.center, b.width, amplitude=3.0) for b in tf1.bumps
    )
    tf3 = nl.TestFunction(scaled, 2.0, "scaled-pair")
    r1 = nl.entropy_residual(frozen_snapshots(SPLIT_JAM, tf1), KER, MOB, tf1, 0.5)
    r3 = nl.entropy_residual(frozen_snapshots(SPLIT_JAM, tf3), KER, MOB, tf3, 0.5)
    assert r3.residual == pytest.approx(3.0 * r1.residual, rel=1e-10)


def test_split_jam_residual_negative_and_stable():
    tf = nl.bump_pair(horizon=2.0)
    rep = nl.entropy_residual(frozen_snapshots(SPLIT_JAM, tf), KER, MOB, tf, 0.5)
    assert rep.violation
    assert -0.17 < rep.residual < -0.155
    # doubled quadrature: twice the snapshots, twice the space points
    dense_t = np.unique(np.concatenate([np.linspace(0.0, 2.0, 9), np.linspace(2.0, 3.0, 65)]))
    dense = [(t, SPLIT_JAM) for t in dense_t]
    rep2 = nl.entropy_residual(dense, KER, MOB, tf, 0.5, n_space=512)
    assert rep2.violation
    assert abs(rep2.residual - rep.residual) <= 0.05 * abs(rep.residual)


def test_residual_grows_linearly_with_plateau_horizon():
    # frozen non-entropic state: the flux defect accrues at a constant rate
    vals = {}
    for horizon in (2.0, 5.0):
        tf = nl.bump_pair(horizon=horizon)
        rep = nl.entropy_residual(frozen_snapshots(SPLIT_JAM, tf), KER, MOB, tf, 0.5)
        vals[horizon] = rep.residual
    rate = (vals[5.0] - vals[2.0]) / 3.0
    assert rate < -0.05


def test_residual_validates_inputs():
    tf = nl.single_bump(horizon=1.0)
    snaps = [(t, SPLIT_JAM) for t in np.linspace(0.0, 2.0, 5)]
    with pytest.raises(ValueError):
        nl.entropy_residual(snaps, KER, MOB, tf, -0.5)
    short = [(t, SPLIT_JAM) for t in np.linspace(0.0, 1.5, 4)]
    with pytest.raises(ValueError):
        nl.entropy_residual(short, KER, MOB, tf, 0.5)  # stops before the ramp ends
    unordered = [(0.0, SPLIT_JAM), (0.5, SPLIT_JAM), (0.5, SPLIT_JAM), (2.0, SPLIT_JAM)]
    with pytest.raises(ValueError):
        nl.entropy_residual(unordered, KER, MOB, tf, 0.5)


def test_report_serialization_keys():
    tf = nl.bump_pair(horizon=2.0)
    rep = nl.entropy_residual(frozen_snapshots(SPLIT_JAM, tf), KER, MOB, tf, 0.5)
    record = rep.json_record()
    assert set(record) == {"c", "phi", "residual", "resolution", "residual_coarse", "est_error", "guard", "violation"}
    parsed = json.loads(json.dumps(record))
    assert parsed["c"] == 0.5
    assert parsed["residual"] == rep.residual
    assert parsed["guard"] == rep.guard == max(1e-6, 10.0 * rep.est_error)
    assert parsed["violation"] is rep.violation is (rep.residual < -rep.guard)


def test_converged_solution_not_flagged_at_c_zero():
    # a coarse but converged finite-volume solution: weak-form defect within
    # the guard band
    cfg = nl.ScenarioConfig.from_dict({"scenario": "single-step", "fv_cells": 300})
    reports = nl.run_entropy_audit(cfg, c_list=[0.0, 0.3, 1.0], method="godunov")
    assert len(reports) == 3
    assert not any(r.violation for r in reports)


def test_particle_run_not_flagged_on_single_step():
    cfg = nl.ScenarioConfig.from_dict({"scenario": "single-step", "n_cells": 100})
    reports = nl.run_entropy_audit(cfg, c_list=[0.0, 0.3, 1.0], method="particles")
    assert not any(r.violation for r in reports)


# ------------------------------------------------- one pass over constants

@pytest.fixture(scope="module")
def particle_audit():
    """(snapshots, test function, kernel, mobility) of the single-step particle audit at N=100."""
    cfg = nl.ScenarioConfig.from_dict({"scenario": "single-step", "n_cells": 100, "t_end": 2.0})
    run = nl.run_particles(replace(cfg, output_times=np.linspace(0.0, cfg.t_end, 81)))
    snaps = list(zip(run.times, run.profiles))
    return snaps, nl.default_test_function(cfg), nl.build_kernel(cfg), nl.build_mobility(cfg)


def frozen_split_jam_audit():
    tf = nl.bump_pair(horizon=2.0)
    return frozen_snapshots(SPLIT_JAM, tf), tf, KER, MOB


def _reference_residual(snaps, kernel, mobility, test_fn, c, n_space):
    """Direct per-constant evaluation: kernel sums through Kernel.value/d1,
    every spatial integral recomputed for each snapshot pass."""

    def once(snaps, n):
        lo, hi = test_fn.x_support
        acc, g_prev, initial = 0.0, None, None
        for k, (t, profile) in enumerate(snaps):
            x, w = entropy._quad_grid(profile, lo, hi, n)
            jumps = np.diff(profile.values, prepend=0.0, append=0.0)
            keep = jumps != 0.0
            d = x[:, None] - profile.breakpoints[keep][None, :]
            w1 = np.sum(jumps[keep][None, :] * kernel.value(d), axis=1)
            w2 = np.sum(jumps[keep][None, :] * kernel.d1(d), axis=1)
            rho = profile.value_at(x)
            phi, dphi, fc = test_fn.phi(x), test_fn.dphi(x), mobility.flux(c)
            s_abs = float(np.sum(w * np.abs(rho - c) * phi))
            s_flux = float(np.sum(w * np.sign(rho - c) * ((mobility.flux(rho) - fc) * w1 * dphi - fc * w2 * phi)))
            if initial is None:
                initial = s_abs * test_fn.xi(t)
            g = s_abs * test_fn.dxi(t) - s_flux * test_fn.xi(t)
            if k:
                acc += 0.5 * (t - snaps[k - 1][0]) * (g + g_prev)
            g_prev = g
        return initial + acc

    coarse, fine = once(snaps, n_space), once(snaps, 2 * n_space)
    thin = snaps[::2] if (len(snaps) - 1) % 2 == 0 else snaps[::2] + [snaps[-1]]
    return coarse, fine, abs(fine - coarse) + abs(once(thin, 2 * n_space) - fine)


@pytest.mark.parametrize("case", ["particles", "frozen-split-jam"])
def test_one_pass_over_constants_equals_one_constant_at_a_time(case, particle_audit):
    snaps, tf, kernel, mobility = particle_audit if case == "particles" else frozen_split_jam_audit()
    cs = (0.0, 0.5, 1.0)
    multi = nl.entropy_residuals(snaps, kernel, mobility, tf, cs)
    assert multi == [nl.entropy_residual(snaps, kernel, mobility, tf, c) for c in cs]
    assert [r.c for r in multi] == list(cs)


def test_spatial_integrals_are_taken_twice_per_distinct_profile(monkeypatch):
    # a frozen trajectory holds one profile object at every snapshot, so its
    # spatial integrals are taken once on each grid; equal but distinct
    # profile objects are each evaluated, and give the same reports
    calls = []
    terms = entropy._snapshot_terms
    monkeypatch.setattr(entropy, "_snapshot_terms", lambda profile, *args: calls.append(profile) or terms(profile, *args))
    snaps, tf, kernel, mobility = frozen_split_jam_audit()
    cs = (0.0, 0.5, 1.0)
    frozen = nl.entropy_residuals(snaps, kernel, mobility, tf, cs)
    assert len(snaps) == 35 and len(calls) == 2 and all(p is SPLIT_JAM for p in calls)
    calls.clear()
    copies = [(t, replace(p)) for t, p in snaps]
    assert nl.entropy_residuals(copies, kernel, mobility, tf, cs) == frozen
    assert len(calls) == 2 * len(snaps) and len({id(p) for p in calls}) == len(snaps)
    # two profiles in turns: each is evaluated on its first snapshot only
    calls.clear()
    other = nl.step_profile([(-1.0, 0.5, 0.8)])
    turns = [(t, SPLIT_JAM if k % 3 else other) for k, (t, _) in enumerate(snaps)]
    nl.entropy_residuals(turns, kernel, mobility, tf, cs)
    assert [p is other for p in calls] == [True, True, False, False] and calls[2] is calls[3] is SPLIT_JAM


@pytest.mark.parametrize("case", ["particles", "frozen-split-jam"])
def test_one_pass_residuals_equal_the_direct_evaluation(case, particle_audit):
    # the particle profiles have about 100 charged breakpoints, so their jump
    # sums take the expansion and agree to rounding (3.2e-13 relative at
    # most, against guard bands of 1.1e-2 and more); the split jam's 4
    # breakpoints take the direct blocks, bit for bit
    snaps, tf, kernel, mobility = particle_audit if case == "particles" else frozen_split_jam_audit()
    cs = (0.0, 0.3, 1.0)
    for rep, c in zip(nl.entropy_residuals(snaps, kernel, mobility, tf, cs, n_space=64), cs):
        want = _reference_residual(snaps, kernel, mobility, tf, c, 64)
        got = (rep.residual_coarse, rep.residual, rep.est_error)
        if case == "particles":
            assert rep.jump_sum_terms > 0
            assert got == pytest.approx(want, rel=1e-12)
        else:
            assert rep.jump_sum_terms == 0
            assert got == want


def perturbed_single_step(n_cells, seed=0):
    """Particle profile of single-step at n_cells with every gap jittered by up
    to +-20%, so each breakpoint carries a distinct jump; and its test function."""
    cfg = nl.ScenarioConfig.from_dict({"scenario": "single-step", "n_cells": n_cells, "t_end": 2.0})
    state = nl.init_particles(nl.build_profile(cfg), n_cells, MOB)
    gaps = np.diff(state.positions) * np.random.default_rng(seed).uniform(0.8, 1.2, n_cells)
    x = state.positions[0] + np.concatenate(([0.0], np.cumsum(gaps)))
    return nl.DensityProfile(x, state.particle_mass / gaps), nl.default_test_function(cfg)


def charged_breakpoints(profile):
    """The breakpoints with a non-zero jump and their jumps, as _convolutions takes them."""
    jumps = np.diff(profile.values, prepend=0.0, append=0.0)
    return profile.breakpoints[jumps != 0.0], jumps[jumps != 0.0]


def direct_kernel_sums(kernel, profile, x, extended=False):
    """The dense points x breakpoints jump sums through Kernel.value/d1.

    With ``extended`` the same sums are written out in np.longdouble (80-bit
    on x86-64) and rounded once at the end: a reference with little rounding
    of its own.  On the perturbed profiles every double evaluation drifts
    with N; at N = 4e4 the plain row sums lie up to 1.0e-14 (max-norm
    relative) from the extended ones.
    """
    bp, coef = charged_breakpoints(profile)
    if extended:
        ld = np.longdouble
        d = x.astype(ld)[:, None] - bp.astype(ld)[None, :]
        g = coef.astype(ld) * np.exp(-ld(kernel.inv_width) * d * d)
        w1 = -ld(kernel.amplitude) * np.sum(g, axis=1)
        w2 = 2 * ld(kernel.amplitude) * ld(kernel.inv_width) * np.sum(d * g, axis=1)
        return w1.astype(float), w2.astype(float)
    d = x[:, None] - bp[None, :]
    return np.sum(coef * kernel.value(d), axis=1), np.sum(coef * kernel.d1(d), axis=1)


def max_rel_error(got, want):
    """Max-norm relative error of the pair (W1, W2) against a reference pair."""
    return max(float(np.max(np.abs(g - w)) / np.max(np.abs(w))) for g, w in zip(got, want))


SECOND_KERNEL = nl.Kernel(amplitude=0.7, inv_width=2.0)


@pytest.mark.parametrize("kernel", [KER, SECOND_KERNEL])
def test_convolutions_equal_direct_kernel_sums(kernel, particle_audit):
    snaps, tf, _, _ = particle_audit
    profile = snaps[-1][1]
    x, _ = entropy._quad_grid(profile, *tf.x_support, 64)
    *got, _ = entropy._convolutions(kernel, profile, x)
    assert max_rel_error(got, direct_kernel_sums(kernel, profile, x)) <= 1e-14
    # the direct blocks: many of them, the last one partial, bit for bit
    many, _ = perturbed_single_step(1000)
    bp, coef = charged_breakpoints(many)
    rows = gauss_sums.BLOCK // bp.size
    x = np.linspace(-3.0, 3.0, 9 * rows + 5)
    want = direct_kernel_sums(kernel, many, x)
    assert all(np.array_equal(g, w) for g, w in zip(entropy._direct_jump_sums(kernel, bp, coef, x), want))
    *got, terms = entropy._convolutions(kernel, many, x)
    assert terms > 0
    assert max_rel_error(got, want) <= 1e-14
    vac = nl.DensityProfile(np.array([-1.0, 1.0]), np.array([0.0]))
    z1, z2, terms = entropy._convolutions(kernel, vac, x)
    assert z1.shape == z2.shape == x.shape
    assert not z1.any() and not z2.any() and terms == 0


@pytest.mark.parametrize("kernel", [KER, SECOND_KERNEL])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_jump_sums_across_the_crossover(kernel, offset):
    # n cells give n + 1 charged breakpoints; points on [-3, 3] keep the
    # second kernel's order under the cap (R = 2B h_b h_x = 12)
    n_bp = entropy._EXPANSION_MIN_BREAKPOINTS + offset
    profile, _ = perturbed_single_step(n_bp - 1)
    assert charged_breakpoints(profile)[0].size == n_bp
    x, _ = entropy._quad_grid(profile, -3.0, 3.0, 256)
    w1, w2, terms = entropy._convolutions(kernel, profile, x)
    want = direct_kernel_sums(kernel, profile, x)
    if offset < 0:
        assert terms == 0
        assert np.array_equal(w1, want[0]) and np.array_equal(w2, want[1])
    else:
        assert 0 < terms <= entropy._EXPANSION_MAX_TERMS
        assert max_rel_error((w1, w2), want) <= 1e-14


def strided_direct_sums(kernel, profile, x, rows=16):
    """Extended-precision direct_kernel_sums a few rows at a time, so the reference stays small at any N."""
    parts = [direct_kernel_sums(kernel, profile, x[lo : lo + rows], extended=True) for lo in range(0, x.size, rows)]
    return tuple(np.concatenate(part) for part in zip(*parts))


@pytest.mark.parametrize("kernel, window", [(KER, None), (SECOND_KERNEL, (-3.0, 3.0))], ids=["kernel0", "kernel1"])
@pytest.mark.parametrize("n_cells", [300, 2400, 10_000, 40_000])
def test_expanded_jump_sums_match_direct_sums_up_to_forty_thousand_cells(kernel, window, n_cells):
    # the expansion runs on the whole grid; about 100 points, both ends
    # included, are checked against the dense reference in extended precision
    profile, tf = perturbed_single_step(n_cells)
    x, _ = entropy._quad_grid(profile, *(window or tf.x_support), 512)
    w1, w2, terms = entropy._convolutions(kernel, profile, x)
    assert 0 < terms <= entropy._EXPANSION_MAX_TERMS
    rows = np.unique(np.r_[np.linspace(0, x.size - 1, 100).astype(int), x.size - 1])
    want = strided_direct_sums(kernel, profile, x[rows])
    assert max_rel_error((w1[rows], w2[rows]), want) <= 1e-14


def test_expanded_jump_sums_repeat_bitwise():
    profile, tf = perturbed_single_step(10_000, seed=3)
    x, _ = entropy._quad_grid(profile, *tf.x_support, 512)
    first = entropy._convolutions(KER, profile, x)
    assert first[2] > 0
    for again in (entropy._convolutions(KER, profile, x), entropy._convolutions(KER, profile, x.copy())):
        assert all(np.array_equal(a, b) for a, b in zip(first, again))


def test_jump_sums_above_the_term_cap_take_the_direct_blocks_bitwise():
    # the t_end = 10 test function spans [-22, 22]: R = 2B h_b h_x is about 22
    cfg = nl.ScenarioConfig.from_dict({"scenario": "single-step", "t_end": 10.0})
    profile, _ = perturbed_single_step(300)
    x, _ = entropy._quad_grid(profile, *nl.default_test_function(cfg).x_support, 64)
    bp, coef = charged_breakpoints(profile)
    assert bp.size >= entropy._EXPANSION_MIN_BREAKPOINTS
    w1, w2, terms = entropy._convolutions(KER, profile, x)
    assert terms == 0
    want = entropy._direct_jump_sums(KER, bp, coef, x)
    assert np.array_equal(w1, want[0]) and np.array_equal(w2, want[1])
    assert all(np.array_equal(g, w) for g, w in zip(want, direct_kernel_sums(KER, profile, x)))


def traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_convolutions_memory_stays_bounded_at_two_thousand_cells():
    # the dense points x breakpoints matrices took 241 MB here
    profile, tf = perturbed_single_step(2000)
    x, _ = entropy._quad_grid(profile, *tf.x_support, 512)
    (w1, w2, terms), peak = traced_peak(entropy._convolutions, KER, profile, x)
    assert terms > 0
    assert np.all(np.isfinite(w1)) and np.all(np.isfinite(w2))
    assert peak < 8e6


def test_direct_jump_sums_memory_stays_bounded_at_two_thousand_cells():
    profile, tf = perturbed_single_step(2000)
    x, _ = entropy._quad_grid(profile, *tf.x_support, 512)
    (w1, w2), peak = traced_peak(entropy._direct_jump_sums, KER, *charged_breakpoints(profile), x)
    assert np.all(np.isfinite(w1)) and np.all(np.isfinite(w2))
    assert peak < 8e6


DIRECT_FAULTS_PER_CALL = """
import resource
import numpy as np
import nlftl as nl
from nlftl import entropy
bp = np.linspace(-1.0, 1.0, 15)
coef = np.where(np.arange(15) % 2 == 0, 0.25, -0.25)
x = np.linspace(-3.0, 3.0, 2439)
kernel = nl.Kernel()
entropy._direct_jump_sums(kernel, bp, coef, x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    entropy._direct_jump_sums(kernel, bp, coef, x)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
def test_direct_jump_sums_take_no_page_faults_per_call():
    # 15 breakpoints take blocks of 2,184 rows, 256 KB per array: above the
    # mmap threshold, three arrays allocated per call were mapped and faulted
    # in anew on every call (about 130 faults); the held work area takes
    # none.  Both malloc thresholds are pinned, as for the finite-volume
    # fields in test_godunov.py, and the count taken at several sizes of a
    # dummy variable.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072", MALLOC_TRIM_THRESHOLD_=str(64 << 20))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    for padding in (0, 500, 2_000, 20_000):
        env["ENV_PADDING"] = "x" * padding
        proc = subprocess.run(
            [sys.executable, "-c", DIRECT_FAULTS_PER_CALL], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 5.0, f"environment padded by {padding} bytes"


@pytest.mark.parametrize(
    "c_list, n_space",
    [((), 256), ((0.5, -0.1), 256), ((0.5, float("nan")), 256), ((0.0, float("inf")), 256),
     ((0.5,), 0), ((0.5,), -5), ((0.5,), 2.5)],
    ids=["c_list0", "c_list1", "c_list2", "c_list3", "n_space0", "n_space-5", "n_space2.5"],
)
def test_residuals_reject_bad_constants_before_spatial_work(c_list, n_space, monkeypatch):
    def no_spatial_work(*args):
        raise AssertionError("spatial work before the constants were checked")

    monkeypatch.setattr(entropy, "_snapshot_terms", no_spatial_work)
    snaps, tf, kernel, mobility = frozen_split_jam_audit()
    with pytest.raises(ValueError):
        nl.entropy_residuals(snaps, kernel, mobility, tf, c_list, n_space=n_space)
