"""Particle scheme: quantile init, velocity law, integration invariants."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlftl as nl
from nlftl.particles import _TILE, _velocities

MOB = nl.Mobility()
KER = nl.Kernel()


def oracle_rhs(x, pm, kernel, mobility):
    """Direct double-loop transcription of the velocity law.

    dx_i/dt = -v(R_i) * pm * sum_{j>i} K'(x_i - x_j)
              -v(R_{i-1}) * pm * sum_{j<i} K'(x_i - x_j)
    written independently of the vectorised production code.
    """
    n = len(x) - 1
    dens = pm / np.diff(x)
    out = np.zeros(n + 1)
    for i in range(n + 1):
        fwd = sum(kernel.d1(x[i] - x[j]) for j in range(i + 1, n + 1))
        bwd = sum(kernel.d1(x[i] - x[j]) for j in range(i))
        v_fwd = mobility(dens[i]) if i < n else 0.0
        v_bwd = mobility(dens[i - 1]) if i > 0 else 0.0
        out[i] = -v_fwd * pm * fwd - v_bwd * pm * bwd
    return out


def dense_rhs(x, pm, kernel, mobility):
    """The velocity law on the full (N+1)x(N+1) matrix of K'(x_i - x_j).

    Reference for the tiled production path: every pair is evaluated in
    both orders and each side is a row-wise reduction of a triangle.
    """
    gaps = np.diff(x)
    with np.errstate(divide="ignore"):
        dens = np.where(gaps > 0.0, pm / np.where(gaps > 0.0, gaps, 1.0), np.inf)
    speed = mobility(dens)
    kp = kernel.d1(x[:, None] - x[None, :])
    s_above = np.sum(np.triu(kp, 1), axis=1)
    s_below = np.sum(np.tril(kp, -1), axis=1)
    return -pm * (np.append(speed, 0.0) * s_above + np.concatenate(([0.0], speed)) * s_below)


def compact_state(rng, n, mass=1.0):
    """n cells with gaps between the floor and 4x the mean, support O(mass/cap)."""
    gaps = rng.uniform(mass / (MOB.cap * n), 4.0 * mass / n, size=n)
    x = rng.uniform(-1.0, 1.0) + np.concatenate(([0.0], np.cumsum(gaps)))
    return nl.ParticleState(time=0.0, positions=x, particle_mass=mass / n, cap=MOB.cap)


def random_state(rng, n_max=20, mass=1.0):
    n = int(rng.integers(1, n_max + 1))
    gaps = rng.uniform(mass / (MOB.cap * n), 2.0, size=n)
    x = rng.uniform(-1.0, 1.0) + np.concatenate(([0.0], np.cumsum(gaps)))
    return nl.ParticleState(time=0.0, positions=x, particle_mass=mass / n, cap=MOB.cap)


# -------------------------------------------------------------------- init

def test_init_uniform_equal_spacing():
    prof = nl.uniform_profile(-1.0, 1.0, 0.3)
    s = nl.init_particles(prof, 3, MOB)
    assert s.positions == pytest.approx([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0], abs=1e-12)


def test_init_unit_uniform_quarters():
    s = nl.init_particles(nl.uniform_profile(0.0, 1.0, 1.0), 4, MOB)
    assert s.positions == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-12)


def test_init_two_bump_middle_point_skips_gap():
    prof = nl.step_profile([(-0.5, 0.0, 1.0), (0.5, 1.0, 1.0)])
    s = nl.init_particles(prof, 2, MOB)
    assert s.positions == pytest.approx([-0.5, 0.5, 1.0], abs=1e-12)


def test_init_cells_carry_equal_mass():
    prof = nl.build_profile(nl.builtin_scenario("two-step-0206"))
    s = nl.init_particles(prof, 37, MOB)
    pm = prof.mass / 37
    cell_masses = np.diff(prof.cdf(s.positions))
    assert np.max(np.abs(cell_masses - pm)) < 1e-12
    assert s.positions[0] == prof.support()[0]
    assert s.positions[-1] == prof.support()[1]


def test_init_rejects_degenerate_inputs():
    prof = nl.uniform_profile(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        nl.init_particles(prof, 0, MOB)
    vac = nl.DensityProfile(np.array([0.0, 1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        nl.init_particles(vac, 3, MOB)


# --------------------------------------------------------------------- rhs

def test_rhs_matches_oracle_on_fixed_state():
    x = np.array([0.0, 0.2, 0.5, 0.9])
    s = nl.ParticleState(time=0.0, positions=x, particle_mass=1.0 / 3.0, cap=1.0)
    got = nl.rhs(s, KER, MOB)
    want = oracle_rhs(x, 1.0 / 3.0, KER, MOB)
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) / scale < 1e-14


def test_rhs_matches_oracle_on_randomized_states():
    rng = np.random.default_rng(7)
    t0 = time.monotonic()
    for _ in range(100):
        s = random_state(rng)
        want = oracle_rhs(s.positions, s.particle_mass, KER, MOB)
        got = nl.rhs(s, KER, MOB)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) / scale < 1e-14
    assert time.monotonic() - t0 < 1.0


def test_rhs_pair_attraction_antisymmetric():
    s = nl.ParticleState(time=0.0, positions=np.array([0.0, 1.3]), particle_mass=1.0, cap=1.0)
    v = nl.rhs(s, KER, MOB)
    assert v[0] > 0.0
    assert v[1] == pytest.approx(-v[0], abs=1e-16)


def test_rhs_jam_state_is_stationary():
    jam = nl.jam_state(0.0, 0.6, MOB, 50)
    assert np.max(np.abs(nl.rhs(jam, KER, MOB))) < 1e-14


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rhs_endpoint_velocities_shrink_support(seed):
    rng = np.random.default_rng(seed)
    s = random_state(rng, n_max=12)
    v = nl.rhs(s, KER, MOB)
    assert v[0] >= 0.0
    assert v[-1] <= 0.0


# cell counts putting N+1 particles on both sides of one and two strip edges
TILE_COUNTS = (1, 2, _TILE - 2, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE, 2 * _TILE + 1, 1000)


@pytest.mark.parametrize("n", TILE_COUNTS)
def test_rhs_matches_dense_reference_across_tiles(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        s = compact_state(rng, n)
        got = nl.rhs(s, KER, MOB)
        want = dense_rhs(s.positions, s.particle_mass, KER, MOB)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-14


def test_dense_reference_matches_oracle_across_a_tile_edge():
    s = compact_state(np.random.default_rng(1), _TILE + 1)
    want = oracle_rhs(s.positions, s.particle_mass, KER, MOB)
    for got in (dense_rhs(s.positions, s.particle_mass, KER, MOB), nl.rhs(s, KER, MOB)):
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-14


def test_rhs_repeats_bitwise_over_several_tiles():
    s = compact_state(np.random.default_rng(3), 4 * _TILE + 3)
    first = nl.rhs(s, KER, MOB)
    assert np.array_equal(first, nl.rhs(s, KER, MOB))


def test_rhs_jam_state_is_stationary_over_several_tiles():
    jam = nl.jam_state(0.1, 0.6, MOB, 5 * _TILE + 7)
    assert np.max(np.abs(nl.rhs(jam, KER, MOB))) < 1e-14


def test_rhs_endpoint_signs_over_several_tiles():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = compact_state(rng, int(rng.integers(2 * _TILE, 6 * _TILE)))
        v = nl.rhs(s, KER, MOB)
        assert v[0] >= 0.0
        assert v[-1] <= 0.0


def test_rhs_memory_stays_bounded_at_ten_thousand_cells():
    # one dense (N+1)x(N+1) float matrix would take 800 MB
    s = compact_state(np.random.default_rng(5), 10_000)
    tracemalloc.start()
    try:
        v = _velocities(s.positions, s.particle_mass, KER, MOB)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(v))
    assert peak < 32e6


def test_state_rejects_coincident_particles():
    with pytest.raises(ValueError):
        nl.ParticleState(time=0.0, positions=np.array([0.0, 0.0, 1.0]), particle_mass=0.5, cap=1.0)


# --------------------------------------------------------------- integrate

def test_integrate_jam_returns_to_initial_positions():
    jam = nl.jam_state(0.2, 1.0, MOB, 40)
    traj = nl.integrate(jam, KER, MOB, 2.0, output_times=[1.0, 2.0], rtol=1e-8)
    assert np.max(np.abs(traj.final.positions - jam.positions)) < 1e-12


def test_integrate_reports_gap_floor_breach():
    # initial gap far below m/(M N): the monitor must refuse to run
    bad = nl.ParticleState(time=0.0, positions=np.array([0.0, 1e-9, 2.0]), particle_mass=0.5, cap=1.0)
    with pytest.raises(nl.InvariantViolation):
        nl.integrate(bad, KER, MOB, 0.1, output_times=[0.1], rtol=1e-8)


def _single_step_traj(n=60, t_end=0.4):
    prof = nl.uniform_profile(-1.0, 1.0, 0.3)
    s = nl.init_particles(prof, n, MOB)
    return s, nl.integrate(s, KER, MOB, t_end, output_times=np.linspace(0.0, t_end, 5)[1:], rtol=1e-8)


def test_trajectory_shape_and_time_axis():
    s, traj = _single_step_traj()
    times = traj.times
    assert times[0] == 0.0
    assert np.all(np.diff(times) > 0.0)
    assert traj.states[0] is s


def test_integrate_preserves_mass_exactly():
    _, traj = _single_step_traj()
    for state in traj.states:
        prof = nl.reconstruct_density(state, "forward")
        assert prof.mass == pytest.approx(0.6, abs=1e-12)


def test_integrate_min_gap_above_floor():
    s, traj = _single_step_traj()
    floor = s.particle_mass / MOB.cap
    assert traj.min_gap_seen >= floor - 1e-6
    for state in traj.states:
        assert state.min_gap >= floor - 1e-6


def test_integrate_support_shrinks_monotonically():
    _, traj = _single_step_traj()
    left = np.array([st.positions[0] for st in traj.states])
    right = np.array([st.positions[-1] for st in traj.states])
    assert np.all(np.diff(left) >= 0.0)
    assert np.all(np.diff(right) <= 0.0)


def test_integrate_preserves_even_symmetry():
    prof = nl.uniform_profile(-1.0, 1.0, 0.3)
    s = nl.init_particles(prof, 40, MOB)
    traj = nl.integrate(s, KER, MOB, 0.5, output_times=[0.25, 0.5], rtol=1e-8)
    for state in traj.states:
        x = state.positions
        assert np.max(np.abs(x + x[::-1])) < 1e-6


# ----------------------------------------------------------- reconstruction

def test_forward_reconstruction_uniform():
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    s = nl.ParticleState(time=0.0, positions=x, particle_mass=0.25, cap=1.0)
    prof = nl.reconstruct_density(s, "forward")
    assert prof.breakpoints == pytest.approx(x)
    assert prof.values == pytest.approx(np.ones(4))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_forward_reconstruction_mass_exact(seed):
    rng = np.random.default_rng(seed)
    s = random_state(rng)
    prof = nl.reconstruct_density(s, "forward")
    assert prof.mass == pytest.approx(s.total_mass, abs=1e-12)


def test_jam_forward_reconstruction_is_cap_density():
    jam = nl.jam_state(0.0, 0.6, MOB, 30)
    prof = nl.reconstruct_density(jam, "forward")
    assert prof.values == pytest.approx(np.full(30, MOB.cap), abs=1e-12)


def test_centered_reconstruction_formula_and_zero_ends():
    x = np.array([0.0, 0.3, 0.5, 1.1, 1.2])
    pm = 0.25
    s = nl.ParticleState(time=0.0, positions=x, particle_mass=pm, cap=10.0)
    prof = nl.reconstruct_density(s, "centered")
    # cells bounded by particle midpoints, outermost values zeroed
    mids = 0.5 * (x[:-1] + x[1:])
    assert prof.breakpoints == pytest.approx(np.concatenate(([x[0]], mids, [x[-1]])))
    assert prof.values[0] == 0.0
    assert prof.values[-1] == 0.0
    for i in (1, 2, 3):
        assert prof.values[i] == pytest.approx(2.0 * pm / (x[i + 1] - x[i - 1]))


# ---------------------------------------------------------------- empirical

def test_empirical_measure_single_pair():
    s = nl.ParticleState(time=0.0, positions=np.array([0.3, 0.9]), particle_mass=0.7, cap=2.0)
    mu = nl.empirical_measure(s)
    assert mu.atoms == pytest.approx([0.3])
    assert mu.weights == pytest.approx([0.7])


def test_empirical_distance_uniform_quarter_grid():
    s = nl.init_particles(nl.uniform_profile(0.0, 1.0, 1.0), 4, MOB)
    fwd = nl.reconstruct_density(s, "forward")
    mu = nl.empirical_measure(s)
    d = nl.wasserstein1(fwd, mu)
    assert d == pytest.approx(0.125, abs=1e-12)
    # independent check: Riemann sum of |F_profile - F_atoms| on a fine grid
    xs = np.linspace(-0.1, 1.1, 100_001)
    dx = xs[1] - xs[0]
    riemann = float(np.sum(np.abs(fwd.cdf(xs) - mu.cdf(xs))) * dx)
    assert abs(d - riemann) < 1e-4


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_empirical_distance_bound(seed):
    rng = np.random.default_rng(seed)
    s = random_state(rng)
    fwd = nl.reconstruct_density(s, "forward")
    mu = nl.empirical_measure(s)
    support = s.positions[-1] - s.positions[0]
    bound = s.total_mass * support / (2 * s.n_cells)
    assert nl.wasserstein1(fwd, mu) <= bound + 1e-12
