"""Particle scheme: quantile init, velocity law, integration invariants."""

import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nlftl as nl
from nlftl import gauss_sums, particles
from nlftl.particles import (
    _EXPANSION_MAX_TERMS,
    _EXPANSION_MIN_N,
    _TILE,
    _direct_velocities,
    _expanded_pair_sums,
    _jacobian,
    _pair_sum_terms,
    _pair_sums,
    _tiled_pair_sums,
    _velocities,
)

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


def dense_rhs(x, pm, kernel, mobility, rows=256):
    """The velocity law on the full (N+1)x(N+1) matrix of K'(x_i - x_j).

    Reference for the tiled production path: every pair is evaluated in
    both orders and each side is a row-wise reduction of a triangle.  The
    matrix is formed ``rows`` rows at a time so large N stays small in
    memory; each row's reductions are the same either way.
    """
    gaps = np.diff(x)
    with np.errstate(divide="ignore"):
        dens = np.where(gaps > 0.0, pm / np.where(gaps > 0.0, gaps, 1.0), np.inf)
    speed = mobility(dens)
    n = x.size
    s_above = np.empty(n)
    s_below = np.empty(n)
    for lo in range(0, n, rows):
        kp = kernel.d1(x[lo : lo + rows, None] - x[None, :])
        s_above[lo : lo + rows] = np.sum(np.triu(kp, lo + 1), axis=1)
        s_below[lo : lo + rows] = np.sum(np.tril(kp, lo - 1), axis=1)
    return -pm * (np.append(speed, 0.0) * s_above + np.concatenate(([0.0], speed)) * s_below)


def direct_pair_sums(x, kernel, rows):
    """Both one-sided sums at particles ``rows``, each a numpy sum of its own row of K'.

    Reference for the expansion at large N, where the dense matrix is too
    slow: numpy's pairwise summation keeps each row's rounding near
    eps * log2(N).
    """
    above = np.array([np.sum(kernel.d1(x[i] - x[i + 1 :])) for i in rows])
    below = np.array([np.sum(kernel.d1(x[i] - x[:i])) for i in rows])
    return above, below


def two_row_expanded_pair_sums(x, kernel, p):
    """The expansion's one-sided sums with both rows of every block computed in full.

    Reference for the one-block shortcut of the production sums, which
    copies the reversed particles' basis and weights from the particles'
    instead of computing them: with u = x - c and e_j, a_n as in
    :mod:`nlftl.gauss_sums`, P_n(i) is the sum over j < i of e_j a_n(u_j), and
    sum_{j<i} K'(u_i - u_j) = 2AB e_i sum_{n<p} a_n(u_i) (u_i P_n(i) - sqrt((n+1)/(2B)) P_{n+1}(i)).
    Row 0 gives the sums over j < i, row 1 the same sums on the reversed
    particles, so over j > i.  Particles go in blocks of BLOCK // (2 (p+1)),
    and a block's exclusive prefix sums start from the running totals of the
    blocks before it.
    """
    u = x - 0.5 * (np.min(x) + np.max(x))
    u = np.stack((u, u[::-1]))
    n = x.size
    block = min(n, max(1, gauss_sums.BLOCK // (2 * (p + 1))))
    step, twin = (f[:, None, None] for f in gauss_sums.factors(p, kernel.inv_width))
    e = kernel.gauss(u)
    total = np.zeros((p + 1, 2, 1))
    out = np.empty((2, n))
    a_buf, w_buf, pre_buf = (np.empty((p + 1, 2, block)) for _ in range(3))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        ub = u[:, lo:hi]
        a, w, pre = a_buf[..., : hi - lo], w_buf[..., : hi - lo], pre_buf[..., : hi - lo]
        gauss_sums.basis(step, ub, a)
        np.multiply(a, e[:, lo:hi], out=w)
        pre[..., :1] = total
        np.cumsum(w[..., :-1], axis=2, out=pre[..., 1:])
        pre[..., 1:] += total
        total = pre[..., -1:] + w[..., -1:]
        direct = np.multiply(a[:p], pre[:p], out=w[:p])
        shifted = np.multiply(twin, a[:p], out=a[:p])
        shifted *= pre[1:]
        out[:, lo:hi] = ub * np.sum(direct, axis=0) - np.sum(shifted, axis=0)
    out *= e
    out *= 2.0 * kernel.amplitude * kernel.inv_width
    return out[1, ::-1].copy(), out[0]


def bits(a):
    """The bit patterns of a float array: equal bits, signed zeros included, compare equal."""
    return np.ascontiguousarray(a).view(np.uint64)


def frozen_sum_rhs(x, pm, sums, mobility):
    """The velocity law with the one-sided pair sums held at ``sums``."""
    s_above, s_below = sums
    speed = mobility(pm / np.diff(x))
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


def loop_quantile(profile, t):
    """One quantile the way the per-particle initialisation loop computed it."""
    cum, bp = profile._cum, profile.breakpoints
    if t >= profile.mass:
        return float(bp[np.searchsorted(cum, profile.mass, side="left")])
    k = int(np.searchsorted(cum, t, side="right")) - 1
    if cum[k] == t:
        return float(bp[k])
    return float(bp[k] + (t - cum[k]) / profile.values[k])


@pytest.mark.parametrize("n", (1, 2, 300, 2400))
@pytest.mark.parametrize("name", nl.builtin_names())
def test_init_positions_equal_the_scalar_quantile_loop(name, n):
    prof = nl.build_profile(nl.builtin_scenario(name))
    s = nl.init_particles(prof, n, MOB)
    left, right = prof.support()
    pm = prof.mass / n
    want = [left] + [loop_quantile(prof, i * pm) for i in range(1, n)] + [right]
    assert np.array_equal(s.positions, want)
    if name in ("two-step-11", "stationary-weak") and n % 2 == 0:
        assert 0.5 in s.positions  # half the mass sits left of the gap: its particle is on the gap's right end


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


# cell counts putting N+1 particles on both sides of one and two strip edges;
# strips are _TILE rows up to N+1 = 512, shrink from 63 rows at N+1 = 513,
# and stop at 8 rows from N+1 = 4096
TILE_COUNTS = (1, 2, _TILE - 2, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE, 2 * _TILE + 1, 510, 511, 512, 513, 1000, 4100)


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
    assert peak < 8e6  # 8-row strips: about 2.8 MB; 64-row strips took 21 MB


@pytest.mark.parametrize("n", [n for n in TILE_COUNTS if n >= _EXPANSION_MIN_N])
def test_tiled_sums_match_dense_reference_across_tiles(n):
    # above the crossover _pair_sums runs the strips only past the term cap,
    # so the strips' tile edges at these counts are checked here directly
    rng = np.random.default_rng(n)
    s = compact_state(rng, n)
    got = frozen_sum_rhs(s.positions, s.particle_mass, _tiled_pair_sums(s.positions, KER), MOB)
    want = dense_rhs(s.positions, s.particle_mass, KER, MOB)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-14


# -------------------------------------------------------- pair-sum expansion

EXPANSION_COUNTS = (_EXPANSION_MIN_N - 1, _EXPANSION_MIN_N, _EXPANSION_MIN_N + 1, 2400, 10_000, 19_200, 40_000)


def expansion_inputs(n):
    """Particles of the three builtins the expansion is graded on, and a compact random state."""
    for name in ("single-step", "two-step-11", "stationary-weak"):
        yield name, nl.init_particles(nl.build_profile(nl.builtin_scenario(name)), n, MOB).positions
    yield "compact", compact_state(np.random.default_rng(n), n).positions


@pytest.mark.parametrize("n", EXPANSION_COUNTS)
def test_expanded_sums_match_direct_row_sums(n):
    # every row up to N = 2400, beyond that 1025 rows plus both ends, where one
    # unblocked running sum over all particles drifts furthest (it reached
    # 1.2e-14 at N = 40,000; the blocked sums stay near 2e-15)
    rows = np.arange(n + 1) if n <= 2400 else np.unique(np.r_[0:16, np.linspace(0, n, 1025).astype(int), n - 15 : n + 1])
    for name, x in expansion_inputs(n):
        assert (_pair_sum_terms(x, KER) > 0) == (n >= _EXPANSION_MIN_N), name
        for got, want in zip(_pair_sums(x, KER), direct_pair_sums(x, KER, rows)):
            assert np.max(np.abs(got[rows] - want)) / np.max(np.abs(want)) <= 1e-14, name


def test_expansion_order_is_the_smallest_with_a_small_first_omitted_term():
    n = _EXPANSION_MIN_N
    seen = set()
    for half in np.linspace(0.05, 3.0, 60):
        x = np.linspace(-half, half, n + 1)
        r = 2.0 * KER.inv_width * half * half
        p = next(k for k in range(1, 200) if r**k / math.factorial(k) <= 2.0**-56)
        assert _pair_sum_terms(x, KER) == (p if p <= _EXPANSION_MAX_TERMS else 0)
        seen.add(p <= _EXPANSION_MAX_TERMS)
    assert seen == {True, False}
    assert _pair_sum_terms(np.linspace(-1.0, 1.0, n), KER) == 0  # n - 1 cells: below the crossover


@pytest.mark.parametrize(
    "x, kernel",
    [
        (np.linspace(-1.0, 1.0, 2401), nl.Kernel(inv_width=50.0)),  # narrow kernel, R = 100
        (np.linspace(-2.5, 2.5, 2401), KER),  # wide span, R = 6.25
    ],
    ids=["narrow-kernel", "wide-span"],
)
def test_states_above_the_term_cap_take_the_strips_bitwise(x, kernel):
    assert _pair_sum_terms(x, kernel) == 0
    got = _pair_sums(x, kernel)
    want = _tiled_pair_sums(x, kernel)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_expanded_sums_repeat_bitwise():
    x = compact_state(np.random.default_rng(17), 40_000).positions
    first = _pair_sums(x, KER)
    assert _pair_sum_terms(x, KER) > 0
    assert all(np.array_equal(a, b) for a, b in zip(first, _pair_sums(x, KER)))
    assert all(np.array_equal(a, b) for a, b in zip(first, _pair_sums(x.copy(), KER)))


def test_expanded_sums_have_the_signs_of_one_sided_sums():
    # K' > 0 on (0, inf): every pair to the right pulls right, to the left pulls left
    rng = np.random.default_rng(23)
    for n in (*rng.integers(_EXPANSION_MIN_N, 3 * _EXPANSION_MIN_N, size=17), 2400, 10_000, 40_000):
        s = compact_state(rng, int(n))
        s_above, s_below = _pair_sums(s.positions, KER)
        assert _pair_sum_terms(s.positions, KER) > 0
        assert s_above[-1] == 0.0 and s_below[0] == 0.0
        assert np.all(s_above[:-1] < 0.0) and np.all(s_below[1:] > 0.0)
        v = nl.rhs(s, KER, MOB)
        assert v[0] >= 0.0
        assert v[-1] <= 0.0



@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=_EXPANSION_MAX_TERMS),
    offset=st.integers(min_value=-40, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(p=19, offset=0, seed=0)  # the largest one-block count at the settle run's order
@example(p=19, offset=1, seed=0)  # one particle more: two blocks
def test_expanded_sums_equal_the_two_row_reference_bitwise(p, offset, seed):
    # one block holds every particle exactly when 2 (p+1) (N+1) <= BLOCK, so
    # offset <= 0 takes the copied reversed row and offset > 0 the blocks
    n_particles = max(2, gauss_sums.BLOCK // (2 * (p + 1)) + offset)
    x = compact_state(np.random.default_rng(seed), n_particles - 1).positions
    got = _expanded_pair_sums(x, KER, p, 0.5 * (float(x.min()) + float(x.max())))
    want = two_row_expanded_pair_sums(x, KER, p)
    assert all(np.array_equal(bits(g), bits(w)) for g, w in zip(got, want))


def test_expansion_factors_are_shared_and_read_only():
    step, twin = gauss_sums.factors(19, KER.inv_width)
    again = gauss_sums.factors(19, KER.inv_width)
    assert again[0] is step and again[1] is twin
    assert step.shape == twin.shape == (19,)
    for f in (step, twin):
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0] = 1.0

def test_expanded_rhs_memory_stays_bounded_at_forty_thousand_cells():
    s = compact_state(np.random.default_rng(29), 40_000)
    assert _pair_sum_terms(s.positions, KER) > 0
    tracemalloc.start()
    try:
        v = _velocities(s.positions, s.particle_mass, KER, MOB)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(v))
    assert peak < 8e6  # about 3.4 MB: a few arrays of N entries and three blocks of 2^15


EXPANSION_FAULTS_PER_CALL = """
import resource, sys
import numpy as np
import nlftl as nl
from nlftl import entropy, particles
rng = np.random.default_rng(0)
kernel, mobility = nl.Kernel(), nl.Mobility()
x = np.sort(rng.uniform(-1.0, 1.0, 2401))  # the wide workload's size
snapshot = particles.reconstruct_density(nl.ParticleState(0.0, np.sort(rng.uniform(-1.0, 1.0, 301)), 0.002, 1.0))
points = np.linspace(-6.0, 6.0, 2439)  # the audit's fine quadrature grid on its test function's support
calls = {
    "velocities": (lambda: particles._velocities(x, 0.6 / 2400, kernel, mobility), lambda: particles._pair_sum_terms(x, kernel)),
    "convolutions": (lambda: entropy._convolutions(kernel, snapshot, points), lambda: entropy._convolutions(kernel, snapshot, points)[2]),
}
call, terms = calls[sys.argv[1]]
assert terms() > 0  # the expansion, not the direct path
call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    call()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
@pytest.mark.parametrize("call", ["velocities", "convolutions"])
def test_expansions_take_no_page_faults_per_call(call):
    # the expansions' block arrays are views of one work area in
    # nlftl.gauss_sums held across calls; allocated per call, the pair sums'
    # three 256 KB blocks at N = 2400 were mapped and faulted in anew each
    # time (74 minor faults per call here with these pins, 208 without).
    # Both malloc thresholds are pinned at glibc's defaults, as in
    # tests/test_godunov.py, so the count does not depend on what the process
    # freed before.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072", MALLOC_TRIM_THRESHOLD_=str(64 << 20))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    for padding in (0, 2_000):
        env["ENV_PADDING"] = "x" * padding
        proc = subprocess.run(
            [sys.executable, "-c", EXPANSION_FAULTS_PER_CALL, call], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 1.0, f"environment padded by {padding} bytes"


@pytest.mark.parametrize("n", (40, _TILE + 1))
def test_jacobian_matches_finite_differences_with_pair_sums_fixed(n):
    s = compact_state(np.random.default_rng(n), n)
    x = s.positions.copy()
    floor = s.gap_floor
    x[n // 2 + 1 :] -= x[n // 2 + 1] - x[n // 2] - 0.5 * floor  # one jammed cell: v = v' = 0
    pm = s.particle_mass
    sums = _pair_sums(x, KER)
    lower, main, upper = _jacobian(x, pm, KER, MOB)
    assert (lower.size, main.size, upper.size) == (x.size - 1, x.size, x.size - 1)
    got = np.diag(main) + np.diag(lower, -1) + np.diag(upper, 1)
    assert got[n // 2, n // 2 + 1] == 0.0 and got[n // 2 + 1, n // 2] == 0.0
    h = 1e-5 * floor  # truncation and rounding errors balance near here
    want = np.empty_like(got)
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        want[:, j] = (frozen_sum_rhs(x + e, pm, sums, MOB) - frozen_sum_rhs(x - e, pm, sums, MOB)) / (2.0 * h)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-8


def test_pair_sums_are_the_sums_the_rhs_uses():
    s = compact_state(np.random.default_rng(2), 3 * _TILE + 5)
    sums = _pair_sums(s.positions, KER)
    assert np.array_equal(frozen_sum_rhs(s.positions, s.particle_mass, sums, MOB), nl.rhs(s, KER, MOB))


def test_state_rejects_coincident_particles():
    with pytest.raises(ValueError):
        nl.ParticleState(time=0.0, positions=np.array([0.0, 0.0, 1.0]), particle_mass=0.5, cap=1.0)


# --------------------------------------------------------------- integrate

def test_integrate_jam_returns_to_initial_positions():
    jam = nl.jam_state(0.2, 1.0, MOB, 40)
    traj = nl.integrate(jam, KER, MOB, 2.0, output_times=[1.0, 2.0])
    assert np.max(np.abs(traj.final.positions - jam.positions)) < 1e-12



@pytest.mark.parametrize("settle_tol", [0.0, -1e-6, math.nan, math.inf])
def test_integrate_rejects_a_settle_tolerance_that_is_not_positive_and_finite(settle_tol):
    # 0, a negative tolerance or NaN would never settle, and +inf would settle at once
    s = nl.init_particles(nl.uniform_profile(-1.0, 1.0, 0.3), 10, MOB)
    with pytest.raises(ValueError, match="settle_tol"):
        nl.integrate(s, KER, MOB, 1.0, settle_tol=settle_tol)

def test_integrate_reports_gap_floor_breach():
    # initial gap far below m/(M N): the monitor must refuse to run
    bad = nl.ParticleState(time=0.0, positions=np.array([0.0, 1e-9, 2.0]), particle_mass=0.5, cap=1.0)
    with pytest.raises(nl.InvariantViolation):
        nl.integrate(bad, KER, MOB, 0.1, output_times=[0.1])


def _single_step_traj(n=60, t_end=0.4):
    prof = nl.uniform_profile(-1.0, 1.0, 0.3)
    s = nl.init_particles(prof, n, MOB)
    return s, nl.integrate(s, KER, MOB, t_end, output_times=np.linspace(0.0, t_end, 5)[1:])


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


@pytest.fixture(scope="module")
def settled_run():
    """The settle run at N=300 and the number of right-hand sides it evaluated."""
    calls = []

    def counted(*args):
        calls.append(None)
        return _velocities(*args)

    cfg = nl.ScenarioConfig.from_dict({"scenario": "single-step", "t_end": 200.0})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(particles, "_velocities", counted)
        traj = nl.run_particles(cfg, settle_tol=1e-6).trajectory
    return traj, len(calls)


def test_settle_run_never_dips_below_the_gap_floor(settled_run):
    # no eps_gap slack: the maximum principle holds on every accepted step
    traj, _ = settled_run
    assert traj.settled
    assert traj.min_gap_seen >= traj.states[0].gap_floor
    assert traj.min_gap_ratio >= 1.0


@pytest.mark.parametrize("name", ["two-step-11", "stationary-weak"])
def test_runs_from_cells_at_the_floor_dip_by_rounding_only(name):
    # their cells start at the floor; the runtime check's slack 10 * _RTOL *
    # support would let the gap ratio fall to about 0.99995 unnoticed
    traj = nl.run_particles(nl.builtin_scenario(name)).trajectory
    assert traj.final.time == 1.0
    assert traj.min_gap_ratio >= 1.0 - 1e-6


def test_settle_run_work_stays_implicit(settled_run):
    # an explicit method needs about 4,900 evaluations on this run, and a
    # finite-difference Jacobian N+1 per Jacobian, which the counters omit
    traj, calls = settled_run
    assert traj.integrator == "BDF"
    assert traj.rhs_evals < 1000
    assert calls == traj.rhs_evals + traj.settle_checks
    assert 0 < traj.settle_checks <= 5 < traj.steps  # the other steps were screened (see below)
    assert 0 < traj.lu_decompositions and 0 < traj.jac_evals
    assert 0.0 < traj.min_step <= traj.final.time / traj.steps



def unscreened_settle_run(cfg, settle_tol):
    """The settle run with the screen forced to pass every step on to the full check."""

    def never_conclusive(*args):
        velocity, bound = _direct_velocities(*args)
        return velocity, np.full_like(bound, np.inf)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(particles, "_direct_velocities", never_conclusive)
        return nl.run_particles(cfg, settle_tol=settle_tol).trajectory


@pytest.mark.parametrize(
    "n, settle_tol, most_checks",
    [(300, 1e-6, 5), (2400, 1e-6, 5), (100, 1e-6, None), (1, 1e-6, None), (300, 1e-13, None)],
    ids=["settle", "n2400", "strips", "one-cell", "tight-tol"],
)
def test_screened_settle_run_equals_the_unscreened_one_bitwise(n, settle_tol, most_checks):
    cfg = nl.ScenarioConfig.from_dict({"scenario": "single-step", "t_end": 200.0, "n_cells": n})
    screened = nl.run_particles(cfg, settle_tol=settle_tol).trajectory
    full = unscreened_settle_run(cfg, settle_tol)
    assert (screened.pair_sum_terms == 0) == (n < _EXPANSION_MIN_N)
    assert screened.settled and full.settled
    assert full.settle_checks == full.steps == screened.steps
    assert 0 < screened.settle_checks < screened.steps
    if most_checks is not None:
        assert screened.settle_checks <= most_checks
    assert screened.rhs_evals == full.rhs_evals
    assert [s.time for s in screened.states] == [s.time for s in full.states]
    assert all(np.array_equal(bits(a.positions), bits(b.positions)) for a, b in zip(screened.states, full.states))


@pytest.mark.parametrize("n", [1, 2, 40, _TILE + 1, _EXPANSION_MIN_N, 300, 2400])
def test_direct_velocities_match_the_oracle_and_bound_the_rhs(n):
    rng = np.random.default_rng(n)
    for k in range(4):
        s = compact_state(rng, n)
        x, pm = s.positions.copy(), s.particle_mass
        if k == 3 and n > 1:  # one jammed cell: v = 0 on both of its particles' sides
            x[n // 2 + 1 :] -= x[n // 2 + 1] - x[n // 2] - 0.5 * s.gap_floor
        rows = np.array([0, n, int(rng.integers(0, n + 1))])
        velocity, bound = _direct_velocities(x, rows, pm, KER, MOB)
        assert np.all(np.abs(_velocities(x, pm, KER, MOB)[rows] - velocity) <= bound)
        if n <= _TILE + 1:
            assert np.all(np.abs(oracle_rhs(x, pm, KER, MOB)[rows] - velocity) <= 0.5 * bound)
        else:  # the oracle's double loop is too slow here: the reference's direct row sums
            above, below = direct_pair_sums(x, KER, rows)
            speed = np.concatenate(([0.0], MOB(pm / np.diff(x)), [0.0]))  # v(R_{i-1}) at i, v(R_i) at i + 1
            want = -pm * (speed[rows + 1] * above + speed[rows] * below)
            assert np.all(np.abs(want - velocity) <= 0.5 * bound)


def test_settle_run_records_the_expansion_order(settled_run):
    # single-step spans [-1, 1]: R = 2B h^2 = 1 needs 19 terms at N = 300
    traj, _ = settled_run
    assert traj.pair_sum_terms == _pair_sum_terms(traj.states[0].positions, KER) == 19
    assert traj.diagnostics()["pair_sum_terms"] == 19


def test_integrate_preserves_even_symmetry():
    prof = nl.uniform_profile(-1.0, 1.0, 0.3)
    s = nl.init_particles(prof, 40, MOB)
    traj = nl.integrate(s, KER, MOB, 0.5, output_times=[0.25, 0.5])
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
