"""Test functions and the Kruzkov-style residual evaluator."""

import json

import numpy as np
import pytest

import nlftl as nl
from nlftl import entropy
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
    run = nl.run_particles(cfg, output_times=np.linspace(0.0, cfg.t_end, 81))
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


@pytest.mark.parametrize("case", ["particles", "frozen-split-jam"])
def test_one_pass_residuals_equal_the_direct_evaluation(case, particle_audit):
    snaps, tf, kernel, mobility = particle_audit if case == "particles" else frozen_split_jam_audit()
    cs = (0.0, 0.3, 1.0)
    for rep, c in zip(nl.entropy_residuals(snaps, kernel, mobility, tf, cs, n_space=64), cs):
        coarse, fine, est = _reference_residual(snaps, kernel, mobility, tf, c, 64)
        assert (rep.residual_coarse, rep.residual, rep.est_error) == (coarse, fine, est)


@pytest.mark.parametrize("kernel", [KER, nl.Kernel(amplitude=0.7, inv_width=2.0)])
def test_convolutions_equal_direct_kernel_sums(kernel, particle_audit):
    snaps, tf, _, _ = particle_audit
    profile = snaps[-1][1]
    x, _ = entropy._quad_grid(profile, *tf.x_support, 64)
    jumps = np.diff(profile.values, prepend=0.0, append=0.0)
    keep = jumps != 0.0
    coef = jumps[keep][None, :]
    d = x[:, None] - profile.breakpoints[keep][None, :]
    w1, w2 = entropy._convolutions(kernel, profile, x)
    assert np.array_equal(w1, np.sum(coef * kernel.value(d), axis=1))
    assert np.array_equal(w2, np.sum(coef * kernel.d1(d), axis=1))
    vac = nl.DensityProfile(np.array([-1.0, 1.0]), np.array([0.0]))
    z1, z2 = entropy._convolutions(kernel, vac, x)
    assert z1.shape == z2.shape == x.shape
    assert not z1.any() and not z2.any()


@pytest.mark.parametrize("c_list", [(), (0.5, -0.1), (0.5, float("nan")), (0.0, float("inf"))])
def test_residuals_reject_bad_constants_before_spatial_work(c_list, monkeypatch):
    def no_spatial_work(*args):
        raise AssertionError("spatial work before the constants were checked")

    monkeypatch.setattr(entropy, "_snapshot_terms", no_spatial_work)
    snaps, tf, kernel, mobility = frozen_split_jam_audit()
    with pytest.raises(ValueError):
        nl.entropy_residuals(snaps, kernel, mobility, tf, c_list)
