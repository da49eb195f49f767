"""Finite-volume scheme: fluxes, field splitting, stepping, refinement."""

import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import nlftl as nl
from nlftl import godunov
from nlftl.godunov import cfl_dt, compute_fields, interface_flux

MOB = nl.Mobility()
KER = nl.Kernel()


def oracle_fields(grid, rho, kernel):
    """Direct double-loop midpoint convolutions at the J+1 interfaces."""
    xe = grid.edges
    xc = grid.centers
    kplus = np.zeros(len(rho) + 1)
    kminus = np.zeros(len(rho) + 1)
    for i in range(len(rho) + 1):
        for m in range(len(rho)):
            w = kernel.d1(xe[i] - xc[m]) * rho[m] * grid.dx
            if xc[m] < xe[i]:
                kplus[i] += w
            else:
                kminus[i] += w
    return kplus, kminus


def direct_fields(rho, grid, kernel):
    """(K+, K-) by two O(J^2) np.convolve calls with the half-offset K' table.

    The reference for the FFT path of :func:`compute_fields`: the same
    midpoint sums in a fixed order, exactly 0 wherever one side holds no mass.
    """
    table = kernel.d1((np.arange(grid.cells) + 0.5) * grid.dx)
    cells, dx = grid.cells, grid.dx
    zero = np.zeros(1)
    left = np.convolve(rho, table)[:cells]  # left[i-1] = sum_{m<i} K'((i-1-m+1/2) dx) rho_m
    right = np.convolve(rho[::-1], table)[cells - 1 :: -1]  # right[i] = sum_{m>=i} K'((m-i+1/2) dx) rho_m
    return np.concatenate((zero, dx * left)), np.concatenate((-dx * right, zero))


def scipy_fields(rho, grid, kernel):
    """(K+, K-) by the batched ``scipy.fft`` convolution that :func:`compute_fields` ran before it moved to
    ``np.fft`` and cached work buffers: the bitwise reference for that move.

    The same transform length, the same spectrum, fresh arrays everywhere and
    the same two guards (exact zeros over vacuum, sign clamps).
    """
    cells, dx = grid.cells, grid.dx
    kplus, kminus = np.zeros(cells + 1), np.zeros(cells + 1)
    charged = np.flatnonzero(rho)
    if charged.size == 0:
        return kplus, kminus
    first, last = charged[0], charged[-1]
    size = scipy.fft.next_fast_len(2 * cells, real=True)
    spectrum = scipy.fft.rfft(dx * kernel.d1((np.arange(cells) + 0.5) * dx), n=size)
    sums = scipy.fft.irfft(scipy.fft.rfft(np.stack((rho, rho[::-1])), n=size) * spectrum, n=size)
    np.maximum(sums[0, first:cells], 0.0, out=kplus[first + 1 :])
    np.minimum(np.negative(sums[1, cells - 1 - last : cells][::-1]), 0.0, out=kminus[: last + 1])
    return kplus, kminus


def godunov_flux(u_left, u_right, mobility):
    """Exact Godunov flux of the unimodal f across a Riemann interface, from
    scalars or arrays clamped to [0, cap]: the per-interface reference for
    :func:`interface_flux`, which evaluates f once on the whole padded array."""
    a = np.clip(np.asarray(u_left, dtype=float), 0.0, mobility.cap)
    b = np.clip(np.asarray(u_right, dtype=float), 0.0, mobility.cap)
    out = godunov._upwind(a, b, mobility.flux(a), mobility.flux(b), mobility.flux_argmax, mobility.flux_max)
    return float(out) if np.ndim(u_left) == 0 and np.ndim(u_right) == 0 else out


def oracle_godunov_flux(u_left, u_right, mob):
    sigma = mob.flux_argmax
    if u_left <= u_right:
        return min(mob.flux(u_left), mob.flux(u_right))
    if u_right <= sigma <= u_left:
        return mob.flux_max
    return max(mob.flux(u_left), mob.flux(u_right))


def oracle_step(grid, rho, kernel, mob, dt):
    """Spelled-out transcription of the flux-form update, one cell at a time."""
    kplus, kminus = oracle_fields(grid, rho, kernel)
    ext = np.concatenate(([0.0], rho, [0.0]))

    def g(i):  # interface i sits between ext[i] (left) and ext[i + 1] (right)
        fp = oracle_godunov_flux(ext[i + 1], ext[i], mob)  # mirrored order
        fm = oracle_godunov_flux(ext[i], ext[i + 1], mob)
        return kplus[i] * fp + kminus[i] * fm

    new = np.empty_like(rho)
    for j in range(len(rho)):
        upd = (g(j + 1) - g(j)) / grid.dx
        new[j] = min(max(rho[j] + dt * upd, 0.0), mob.cap)
    return new


# ------------------------------------------------------------------- fluxes

def test_flux_consistency_on_grid():
    us = np.linspace(0.0, 1.0, 101)
    assert godunov_flux(us, us, MOB) == pytest.approx(MOB.flux(us), abs=1e-16)


def test_flux_riemann_cases():
    assert godunov_flux(0.8, 0.2, MOB) == pytest.approx(0.25, abs=1e-16)
    assert godunov_flux(0.0, 1.0, MOB) == 0.0
    assert godunov_flux(1.0, 0.0, MOB) == pytest.approx(0.25, abs=1e-16)
    # out-of-range states are clamped, not rejected
    assert godunov_flux(-0.1, 1.3, MOB) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_flux_monotone_in_both_arguments(u_left, u_right, other):
    low, high = sorted((u_left, other))
    assert godunov_flux(high, u_right, MOB) >= godunov_flux(low, u_right, MOB) - 1e-15
    assert godunov_flux(u_left, high, MOB) <= godunov_flux(u_left, low, MOB) + 1e-15


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_flux_matches_case_oracle(u_left, u_right):
    assert godunov_flux(u_left, u_right, MOB) == pytest.approx(
        oracle_godunov_flux(u_left, u_right, MOB), abs=1e-15
    )


# ------------------------------------------------------ interface fields

def fields_of(grid, vals):
    return compute_fields(vals, grid, KER)


def test_fields_vacuum():
    grid = nl.Grid(-2.5, 2.5, 10)
    zeros = np.zeros(10)
    kplus, kminus = fields_of(grid, zeros)
    assert kplus.shape == kminus.shape == (11,)
    assert np.all(kplus == 0.0)
    assert np.all(kminus == 0.0)
    assert np.all(interface_flux(zeros, (kplus, kminus), MOB) == 0.0)


def test_fields_single_charged_cell():
    grid = nl.Grid(-2.5, 2.5, 10)  # dx = 0.5, centers at -2.25 + 0.5 k
    vals = np.zeros(10)
    vals[2] = 0.8
    kplus, kminus = fields_of(grid, vals)
    xe, xc = grid.edges, grid.centers
    for i in range(11):
        expect = KER.d1(xe[i] - xc[2]) * 0.8 * grid.dx
        if i >= 3:  # interface right of the charged cell
            assert kplus[i] == pytest.approx(expect, abs=1e-16)
            assert kminus[i] == 0.0
        else:
            assert kminus[i] == pytest.approx(expect, abs=1e-16)
            assert kplus[i] == 0.0
    # the cell pulls on its two faces with equal and opposite strength: exactly
    # in the direct sums, to rounding through the FFT
    dplus, dminus = direct_fields(vals, grid, KER)
    assert dplus[3] == -dminus[2]
    assert kplus[3] == pytest.approx(-kminus[2], rel=1e-15)
    assert kplus[3] == pytest.approx(KER.d1(0.5 * grid.dx) * 0.8 * grid.dx, rel=1e-14)


def test_fields_signs_and_symmetry():
    grid = nl.Grid(-2.5, 2.5, 11)
    vals = np.array([0.0, 0.1, 0.5, 0.2, 0.7, 0.9, 0.7, 0.2, 0.5, 0.1, 0.0])
    kplus, kminus = fields_of(grid, vals)
    assert np.all(kplus >= 0.0)
    assert np.all(kminus <= 0.0)
    # even data: the field at interface i mirrors the one at interface J - i,
    # so the interface flux is odd and the step keeps the data even
    assert kplus == pytest.approx(-kminus[::-1], abs=1e-15)
    g = interface_flux(vals, (kplus, kminus), MOB)
    assert g == pytest.approx(-g[::-1], abs=1e-15)


def test_fields_match_oracle_loops():
    grid = nl.Grid(-2.5, 2.5, 5)  # dx = 1 exactly: table offsets equal interface offsets
    vals = np.array([0.2, 0.9, 0.4, 0.0, 0.6])
    kplus, kminus = fields_of(grid, vals)
    op, om = oracle_fields(grid, vals, KER)
    assert kplus == pytest.approx(op, abs=1e-15)
    assert kminus == pytest.approx(om, abs=1e-15)
    dplus, dminus = direct_fields(vals, grid, KER)
    assert dplus == pytest.approx(op, abs=1e-15)
    assert dminus == pytest.approx(om, abs=1e-15)


def assert_fields_match_direct(rho, grid):
    """FFT fields against :func:`direct_fields`: tolerance, exact zeros, signs, mirror symmetry.

    Both paths round: the direct sums by up to about 1e-15 max|K| against
    long-double sums, the FFT convolution by an error that grows like
    eps log2(n) in its length n.  Their difference is held to that FFT bound,
    plus n times the smallest subnormal for what underflow loses on densities
    near it.
    """
    kplus, kminus = compute_fields(rho, grid, KER)
    dplus, dminus = direct_fields(rho, grid, KER)
    size = godunov._d1_spectrum(grid, KER)[0]
    scale = max(np.max(np.abs(dplus)), np.max(np.abs(dminus)))
    tol = np.finfo(float).eps * np.log2(size) * scale + size * np.finfo(float).smallest_subnormal
    assert np.max(np.abs(kplus - dplus)) <= tol
    assert np.max(np.abs(kminus - dminus)) <= tol
    charged = np.flatnonzero(rho)
    first, last = (charged[0], charged[-1]) if charged.size else (grid.cells, -1)
    assert np.all(kplus[: first + 1] == 0.0)  # no mass left of these interfaces
    assert np.all(kminus[last + 1 :] == 0.0)  # no mass right of these
    assert np.all(kplus >= 0.0)
    assert np.all(kminus <= 0.0)
    mplus, mminus = compute_fields(rho[::-1], grid, KER)
    assert np.array_equal(mplus, -kminus[::-1])
    assert np.array_equal(mminus, -kplus[::-1])


@st.composite
def block_profiles(draw):
    """A grid on [-L, L], L <= 20, J <= 2400, and up to 8 blocks of vacuum, cap or values between."""
    cells = draw(st.integers(min_value=2, max_value=2400))
    half = draw(st.floats(min_value=0.5, max_value=20.0))
    value = st.one_of(st.just(0.0), st.just(MOB.cap), st.floats(min_value=0.0, max_value=MOB.cap))
    blocks = draw(st.lists(st.tuples(st.integers(min_value=1, max_value=10), value), min_size=1, max_size=8))
    ends = np.cumsum([0] + [w for w, _ in blocks])
    counts = np.diff(np.round(ends * cells / ends[-1]).astype(int))
    return nl.Grid(-half, half, cells), np.repeat([v for _, v in blocks], counts)


@settings(max_examples=100, deadline=None)
@given(block_profiles())
def test_fields_fft_matches_direct_sums(case):
    grid, rho = case
    assert_fields_match_direct(rho, grid)


def test_fields_fft_matches_direct_sums_on_a_fine_wide_grid():
    # two blocks with a vacuum gap at J=9600 on [-20, 20]: without the sign
    # clamp the FFT gives hundreds of K+ < 0 and K- > 0 entries here
    grid = nl.Grid(-20.0, 20.0, 9600)
    x = grid.centers
    rho = np.where((x > -6.0) & (x < -1.0), 0.6, 0.0) + np.where((x > 2.0) & (x < 4.0), MOB.cap, 0.0)
    assert_fields_match_direct(rho, grid)


def test_fields_share_one_read_only_table():
    grid = nl.Grid(-1.75, 2.25, 37)  # a grid no other test uses
    before = godunov._d1_spectrum.cache_info()
    vals = np.linspace(0.0, 1.0, 37)
    first, second = fields_of(grid, vals), fields_of(grid, vals[::-1])
    after = godunov._d1_spectrum.cache_info()
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)
    assert np.array_equal(first[0], -second[1][::-1])  # mirrored data, mirrored fields
    work = godunov._d1_spectrum(grid, KER)
    assert work is godunov._d1_spectrum(grid, KER)
    size, spectrum, product, sums = work
    assert size == scipy.fft.next_fast_len(2 * 37, real=True) >= 2 * 37 - 1
    table = grid.dx * KER.d1((np.arange(37) + 0.5) * grid.dx)
    assert np.array_equal(spectrum, scipy.fft.rfft(table, n=size))
    with pytest.raises(ValueError):
        spectrum[0] = 0.0
    # the work buffers: one transformed row, and the sums, one row per side
    assert product.shape == (size // 2 + 1,) and product.dtype == np.complex128
    assert sums.shape == (2, size) and sums.dtype == np.float64
    assert product.flags.writeable and sums.flags.writeable


@pytest.mark.parametrize("cells", [2, 3, 37, 1200, 4800])
def test_fields_equal_the_scipy_fft_reference_bitwise_call_after_call(cells):
    # several states on one grid, so every call after the first reuses the
    # cached buffers; each result must equal the reference bit for bit and
    # must not change when a later call overwrites the buffers
    grid = nl.Grid(-2.5, 2.5, cells)
    x = grid.centers
    rng = np.random.default_rng(cells)
    states = [
        np.where((x > -1.0) & (x < 1.0), 0.3, 0.0),
        np.zeros(cells),  # all vacuum: returns before touching the buffers
        rng.uniform(0.0, MOB.cap, cells),
        np.where(x > 0.0, MOB.cap, 0.0),
        np.where(np.abs(x) < 0.4, 0.0, 0.7),  # a vacuum gap inside
        np.zeros(cells),
        rng.uniform(0.0, MOB.cap, cells) * (rng.random(cells) < 0.3),
    ]
    results = []
    for rho in states:
        got = compute_fields(rho, grid, KER)
        want = scipy_fields(rho, grid, KER)
        assert all(np.array_equal(g.view(np.uint64), w.view(np.uint64)) for g, w in zip(got, want))
        results.append((got, tuple(a.copy() for a in got)))
    _, _, product, sums = godunov._d1_spectrum(grid, KER)
    for (kplus, kminus), (kplus_then, kminus_then) in results:
        assert np.array_equal(kplus, kplus_then) and np.array_equal(kminus, kminus_then)
        for a in (kplus, kminus):
            assert not np.shares_memory(a, product) and not np.shares_memory(a, sums)


def test_next_fast_len_matches_scipy_up_to_2_to_the_15():
    got = [godunov._next_fast_len(n) for n in range(1, 2**15 + 1)]
    assert got == [scipy.fft.next_fast_len(n, real=True) for n in range(1, 2**15 + 1)]


def test_fields_allocate_no_fft_work_array_per_call():
    # the fv-march grid and state: after one warm-up call builds the cached
    # entry, a call allocates K+, K- and J-sized index and sign temporaries
    # (a 112 KB peak at J = 4800), and no longer the two 154 KB FFT work
    # arrays it allocated per call before they were cached (a 470 KB peak)
    cfg = nl.builtin_scenario("two-step-0206")
    grid = nl.Grid(cfg.domain[0], cfg.domain[1], 4800)
    rho, kernel = nl.cell_averages(nl.build_profile(cfg), grid), nl.build_kernel(cfg)
    compute_fields(rho, grid, kernel)
    tracemalloc.start()
    try:
        compute_fields(rho, grid, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000


FAULTS_PER_CALL = """
import resource
import nlftl as nl
from nlftl.godunov import compute_fields
cfg = nl.builtin_scenario("two-step-0206")
grid = nl.Grid(cfg.domain[0], cfg.domain[1], 4800)
rho, kernel = nl.cell_averages(nl.build_profile(cfg), grid), nl.build_kernel(cfg)
compute_fields(rho, grid, kernel)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    compute_fields(rho, grid, kernel)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
def test_fields_take_no_page_faults_per_call():
    # what tracemalloc cannot see: a transform of both rows in one call makes
    # numpy's pocketfft allocate scratch above the mmap threshold, mapped and
    # unmapped every call (76 minor faults per call here); row by row, none.
    # A fresh interpreter with the mmap threshold pinned at glibc's default
    # keeps the count independent of what the process freed before.  The trim
    # threshold is pinned too: left at 128 KB, glibc trims the heap top after
    # some calls and faults it back in on the next, 20-24 faults per call or
    # none depending only on how large the environment is, so the count is
    # taken at several sizes of a dummy variable.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072", MALLOC_TRIM_THRESHOLD_=str(64 << 20))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    for padding in (0, 500, 2_000, 20_000):
        env["ENV_PADDING"] = "x" * padding
        proc = subprocess.run(
            [sys.executable, "-c", FAULTS_PER_CALL], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 5.0, f"environment padded by {padding} bytes"


def test_grid_edges_built_once_read_only_and_exact():
    grid = nl.Grid(-1.25, 2.75, 41)  # a grid no other test uses
    key = hash(grid)
    edges = grid.edges
    assert edges is grid.edges
    assert not edges.flags.writeable
    with pytest.raises(ValueError):
        edges[0] = 0.0
    expect = np.linspace(-1.25, 2.75, 42)
    assert edges.dtype == expect.dtype and np.array_equal(edges.view(np.uint64), expect.view(np.uint64))
    # the cached edges take no part in equality, hashing or repr
    twin = nl.Grid(-1.25, 2.75, 41)
    assert hash(grid) == key == hash(twin)
    assert grid == twin and repr(grid) == repr(twin) == "Grid(left=-1.25, right=2.75, cells=41)"
    assert grid != nl.Grid(-1.25, 2.75, 40)
    # so an equal grid that never built its edges still hits the spectrum cache
    before = godunov._d1_spectrum.cache_info()
    spectrum = godunov._d1_spectrum(grid, KER)
    assert godunov._d1_spectrum(twin, KER) is spectrum
    after = godunov._d1_spectrum.cache_info()
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)
    # every snapshot profile of a run shares the one edge array
    prof = nl.DensityProfile(np.array([-0.5, 0.5]), np.array([0.5]))
    run = nl.gd_run(grid, prof, KER, MOB, 0.2, output_times=[0.1])
    assert all(p.breakpoints is edges for p in run.profiles())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from([0.0, MOB.cap, MOB.cap + 1e-10]), st.floats(min_value=0.0, max_value=MOB.cap + 1e-10)),
        min_size=2,
        max_size=40,
    )
)
def test_interface_flux_equals_per_interface_godunov_fluxes(cells):
    # one flux evaluation on the padded array gives bitwise the fluxes of the
    # reference Riemann solver, interface by interface
    vals = np.array(cells)
    grid = nl.Grid(-1.0, 1.0, vals.size)
    kplus, kminus = fields_of(grid, vals)
    ext = np.concatenate(([0.0], vals, [0.0]))
    want = [
        kplus[i] * godunov_flux(ext[i + 1], ext[i], MOB) + kminus[i] * godunov_flux(ext[i], ext[i + 1], MOB)
        for i in range(vals.size + 1)
    ]
    assert np.array_equal(interface_flux(vals, (kplus, kminus), MOB), want)


def test_source_zero_at_vacuum_and_cap():
    # the flux form has no source term; what is left of this check is that no
    # flux crosses an interface between two vacuum cells or two cells at the cap
    grid = nl.Grid(-2.5, 2.5, 8)
    vals = np.array([0.0, 1.0, 1.0, 0.0, 0.5, 1.0, 0.0, 0.0])
    g = interface_flux(vals, fields_of(grid, vals), MOB)
    ext = np.concatenate(([0.0], vals, [0.0]))
    left, right = ext[:-1], ext[1:]
    dead = ((left <= 0.0) & (right <= 0.0)) | ((left >= MOB.cap) & (right >= MOB.cap))
    assert dead.sum() == 4
    assert np.all(g[dead] == 0.0)
    assert np.any(g[~dead] != 0.0)


# --------------------------------------------------------------------- cfl

def test_cfl_vacuum_returns_cap():
    grid = nl.Grid(-1.0, 1.0, 10)
    zeros = np.zeros(11)
    dt = cfl_dt(grid, (zeros, zeros), MOB, cap_dt=0.125)
    assert dt == 0.125


def test_cfl_halving_dx_halves_dt():
    vals = np.array([0.2, 0.9, 0.4, 0.0, 0.6])
    fields = fields_of(nl.Grid(-2.5, 2.5, 5), vals)
    coarse = cfl_dt(nl.Grid(-2.5, 2.5, 5), fields, MOB, cap_dt=np.inf)
    fine = cfl_dt(nl.Grid(-2.5, 2.5, 10), fields, MOB, cap_dt=np.inf)
    assert fine == pytest.approx(0.5 * coarse, rel=1e-15)


def test_cfl_transport_bound_uses_max_dflux():
    assert MOB.dflux_bound == 1.0  # |f'(0)| for f(u) = u(1-u)
    grid = nl.Grid(-2.5, 2.5, 5)
    vals = np.array([0.2, 0.9, 0.4, 0.0, 0.6])
    kplus, kminus = fields_of(grid, vals)
    dt = cfl_dt(grid, (kplus, kminus), MOB, cap_dt=np.inf)
    assert dt == pytest.approx(0.45 * grid.dx / np.max(kplus + np.abs(kminus)), rel=1e-14)


# -------------------------------------------------------------------- steps

def test_step_matches_manual_oracle():
    grid = nl.Grid(-2.5, 2.5, 5)  # dx = 1: table offsets equal interface offsets exactly
    vals = np.array([0.2, 0.9, 0.4, 0.0, 0.6])
    state = nl.FVState(0.0, vals, MOB.cap)
    dt = 0.01
    new, clamp = nl.gd_step(grid, state, KER, MOB, dt)
    want = oracle_step(grid, vals, KER, MOB, dt)
    scale = np.maximum(1.0, np.abs(want))
    assert np.max(np.abs(new.values - want) / scale) < 1e-14
    assert clamp == 0.0
    assert new.time == pytest.approx(dt)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=40))
def test_step_conserves_mass_and_stays_in_bounds(cells):
    vals = np.array(cells)
    grid = nl.Grid(-1.0, 1.0, vals.size)
    fields = fields_of(grid, vals)
    dt = cfl_dt(grid, fields, MOB, cap_dt=1.0)
    new, clamp = nl.gd_step(grid, nl.FVState(0.0, vals, MOB.cap), KER, MOB, dt, fields)
    assert clamp <= 1e-15  # the transport bound alone keeps the values in [0, cap], up to rounding
    assert np.sum(new.values) == pytest.approx(np.sum(vals), abs=1e-14 * vals.size)


def test_step_vacuum_stays_vacuum():
    grid = nl.Grid(-1.0, 1.0, 6)
    state = nl.FVState(0.0, np.zeros(6), MOB.cap)
    new, clamp = nl.gd_step(grid, state, KER, MOB, 0.05)
    assert np.array_equal(new.values, np.zeros(6))
    assert clamp == 0.0


def test_step_preserves_full_density_block_exactly():
    grid = nl.Grid(-2.5, 2.5, 1200)
    vals = np.where(np.abs(grid.centers) < 0.3, 1.0, 0.0)
    state = nl.FVState(0.0, vals, MOB.cap)
    fields = fields_of(grid, vals)
    dt = cfl_dt(grid, fields, MOB, cap_dt=1.0)
    new, clamp = nl.gd_step(grid, state, KER, MOB, dt, fields)
    assert np.array_equal(new.values, vals)
    assert clamp == 0.0


# ----------------------------------------------------------- cell averaging

def test_cell_averages_aligned_profile_is_verbatim():
    grid = nl.Grid(0.0, 1.0, 4)
    prof = nl.DensityProfile(np.array([0.25, 0.75]), np.array([0.8]))
    avg = nl.cell_averages(prof, grid)
    assert np.array_equal(avg, np.array([0.0, 0.8, 0.8, 0.0]))


def test_cell_averages_partial_overlap_exact():
    grid = nl.Grid(0.0, 1.0, 4)
    prof = nl.DensityProfile(np.array([0.1, 0.3]), np.array([1.0]))
    avg = nl.cell_averages(prof, grid)
    assert avg == pytest.approx([0.6, 0.2, 0.0, 0.0], abs=1e-15)
    assert np.sum(avg) * grid.dx == pytest.approx(prof.mass, abs=1e-15)


def test_cell_averages_rejects_profile_outside_grid():
    grid = nl.Grid(0.0, 1.0, 4)
    prof = nl.DensityProfile(np.array([-0.5, 0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        nl.cell_averages(prof, grid)


# --------------------------------------------------------------------- runs

def test_run_steady_block_final_equals_initial_bitwise():
    grid = nl.Grid(-2.5, 2.5, 240)
    edges = grid.edges  # block edges taken from the grid so sampling is verbatim
    prof = nl.DensityProfile(np.array([edges[106], edges[134]]), np.array([1.0]))
    run = nl.gd_run(grid, prof, KER, MOB, 0.5, output_times=[0.25, 0.5])
    assert np.array_equal(run.states[0].values, prof.value_at(grid.centers))
    assert np.array_equal(run.final.values, run.states[0].values)
    assert run.clamped_mass == 0.0


def test_run_time_axis_and_mass_bookkeeping():
    grid = nl.Grid(-2.5, 2.5, 300)
    prof = nl.uniform_profile(-1.0, 1.0, 0.3)
    run = nl.gd_run(grid, prof, KER, MOB, 0.2, output_times=[0.1, 0.2])
    assert run.times[0] == 0.0
    assert np.all(np.diff(run.times) > 0.0)
    assert run.times[-1] == 0.2
    assert len(run.masses) == len(run.states)
    assert run.clamped_mass == 0.0
    assert run.clamp_warnings == 0
    # each output time is reached by exactly one shortened step; the rest are CFL-limited
    assert run.output_limited_steps == 2
    assert run.cfl_limited_steps == run.steps - 2 > 0
    assert 0.0 < run.min_dt <= run.max_dt <= 0.1


def test_run_mass_drift_shrinks_linearly_with_refinement():
    # the flux form telescopes: the drift stays at rounding on every grid
    # instead of shrinking with dx
    prof = nl.uniform_profile(-1.0, 1.0, 0.3)
    for j_cells in (300, 600):
        grid = nl.Grid(-2.5, 2.5, j_cells)
        run = nl.gd_run(grid, prof, KER, MOB, 1.0, output_times=[1.0])
        assert run.masses[0] == pytest.approx(prof.mass, abs=1e-15)
        assert np.max(np.abs(run.masses - run.masses[0])) <= 1e-14 * prof.mass


def test_run_grid_refinement_contracts():
    prof = nl.uniform_profile(-1.0, 1.0, 0.3)
    finals = {}
    for j_cells in (300, 600, 1200, 2400):
        grid = nl.Grid(-2.5, 2.5, j_cells)
        run = nl.gd_run(grid, prof, KER, MOB, 1.0, output_times=[1.0])
        finals[j_cells] = run.profiles()[-1]
    diffs = {j: nl.l1_distance(finals[j], finals[2 * j]) for j in (300, 600, 1200)}
    assert diffs[300] / diffs[600] >= 1.3
    assert diffs[600] / diffs[1200] >= 1.3


def test_run_two_bumps_drift_toward_merged_step():
    prof = nl.build_profile(nl.builtin_scenario("two-step-11"))
    grid = nl.Grid(-2.5, 2.5, 600)
    run = nl.gd_run(grid, prof, KER, MOB, 1.0, output_times=np.linspace(0.0, 1.0, 11))
    profs = run.profiles()
    gap_mass = np.array([p.cdf(0.45) - p.cdf(0.05) for p in profs])
    assert np.all(np.diff(gap_mass) >= 0.0)
    assert gap_mass[-1] > 1e-3
    assert nl.l1_distance(profs[-1], profs[0]) > 0.05
