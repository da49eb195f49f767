"""Mass, total variation, L1 and 1-Wasserstein diagnostics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlftl as nl
from nlftl.metrics import _CHUNK
from nlftl.profiles import sorted_union


def random_profile(rng, cells=5, mass=0.5, origin=0.0):
    widths = rng.uniform(0.05, 0.5, size=cells)
    vals = rng.uniform(0.1, 1.0, size=cells)
    bp = origin + np.concatenate(([0.0], np.cumsum(widths)))
    prof = nl.DensityProfile(bp, vals)
    return nl.DensityProfile(bp, vals * (mass / prof.mass))


def quantile_vec(prof, u):
    """Vectorised pseudo-inverse of the CDF, written fresh for the oracle."""
    cum = np.concatenate(([0.0], np.cumsum(prof.values * prof.widths)))
    k = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(prof.values) - 1)
    return prof.breakpoints[k] + (u - cum[k]) / prof.values[k]


def mc_wasserstein(a, b, n=1_000_000, seed=0):
    """Quantile-coupling Monte Carlo estimate of d1 for equal-mass profiles."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, a.mass, size=n)
    return a.mass * float(np.mean(np.abs(quantile_vec(a, u) - quantile_vec(b, u))))


def refine(prof, extra):
    """Same function on a finer breakpoint set (values repeated, not changed)."""
    extra = np.asarray(extra, dtype=float)
    bp = np.unique(np.concatenate([prof.breakpoints, extra]))
    idx = np.clip(np.searchsorted(prof.breakpoints, bp[:-1], side="right") - 1, 0, len(prof.values) - 1)
    return nl.DensityProfile(bp, prof.values[idx])


# -------------------------------------------------------------------- mass

def test_total_mass_values():
    assert nl.uniform_profile(-1.0, 1.0, 0.3).mass == pytest.approx(0.6, abs=1e-15)
    vac = nl.DensityProfile(np.array([0.0, 1.0]), np.array([0.0]))
    assert vac.mass == 0.0
    parabola = nl.build_profile(nl.builtin_scenario("parabola"))
    assert parabola.mass == pytest.approx(1.0, abs=1e-7)


# ---------------------------------------------------------------------- tv

def test_total_variation_single_cell():
    assert nl.total_variation(nl.uniform_profile(0.0, 2.0, 0.7)) == pytest.approx(1.4, abs=1e-15)


def test_total_variation_two_bumps():
    prof = nl.build_profile(nl.builtin_scenario("two-step-0206"))
    assert nl.total_variation(prof) == pytest.approx(1.6, abs=1e-15)


def test_total_variation_vacuum():
    vac = nl.DensityProfile(np.array([0.0, 1.0]), np.array([0.0]))
    assert nl.total_variation(vac) == 0.0


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_total_variation_refinement_invariant(seed):
    rng = np.random.default_rng(seed)
    prof = random_profile(rng, cells=4)
    lo, hi = prof.breakpoints[0], prof.breakpoints[-1]
    fine = refine(prof, rng.uniform(lo, hi, size=7))
    assert nl.total_variation(fine) == pytest.approx(nl.total_variation(prof), abs=1e-12)


# ---------------------------------------------------------------------- l1

def test_l1_identical_profiles():
    prof = nl.uniform_profile(0.0, 1.0, 1.0)
    assert nl.l1_distance(prof, prof) == 0.0


def test_l1_disjoint_supports():
    a = nl.uniform_profile(0.0, 1.0, 0.4)
    b = nl.uniform_profile(3.0, 4.0, 0.9)
    assert nl.l1_distance(a, b) == pytest.approx(a.mass + b.mass, abs=1e-15)


def test_l1_shifted_blocks_overlap():
    a = nl.uniform_profile(0.0, 1.0, 1.0)
    b = nl.uniform_profile(0.25, 1.25, 1.0)
    assert nl.l1_distance(a, b) == pytest.approx(0.5, abs=1e-15)
    xs = np.linspace(-0.5, 1.75, 900_001)
    dx = xs[1] - xs[0]
    riemann = float(np.sum(np.abs(a.value_at(xs) - b.value_at(xs))) * dx)
    assert abs(nl.l1_distance(a, b) - riemann) < 1e-4


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_l1_symmetric_and_nonnegative(seed):
    rng = np.random.default_rng(seed)
    a = random_profile(rng, origin=rng.uniform(-1, 1))
    b = random_profile(rng, origin=rng.uniform(-1, 1))
    d = nl.l1_distance(a, b)
    assert d >= 0.0
    assert nl.l1_distance(b, a) == pytest.approx(d, abs=1e-15)


# ---------------------------------------------------------------------- w1

def test_w1_translation_cost():
    rng = np.random.default_rng(3)
    a = random_profile(rng, mass=0.8)
    h = 0.37
    b = nl.DensityProfile(a.breakpoints + h, a.values)
    assert nl.wasserstein1(a, b) == pytest.approx(h * a.mass, rel=1e-12)


def test_w1_atom_versus_uniform_block():
    atom = nl.AtomicMeasure(np.array([0.0]), np.array([1.0]))
    block = nl.uniform_profile(0.0, 1.0, 1.0)
    assert nl.wasserstein1(atom, block) == pytest.approx(0.5, abs=1e-14)
    assert nl.wasserstein1(block, atom) == pytest.approx(0.5, abs=1e-14)


def test_w1_self_distance_zero():
    rng = np.random.default_rng(5)
    a = random_profile(rng)
    assert nl.wasserstein1(a, a) == 0.0


def test_w1_matches_monte_carlo_coupling():
    rng = np.random.default_rng(11)
    a = random_profile(rng, cells=5, mass=0.5, origin=0.0)
    b = random_profile(rng, cells=5, mass=0.5, origin=0.3)
    exact = nl.wasserstein1(a, b)
    assert abs(exact - mc_wasserstein(a, b)) < 1e-3


def test_w1_triangle_inequality_on_random_triples():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_profile(rng, origin=rng.uniform(-1, 1))
        b = random_profile(rng, origin=rng.uniform(-1, 1))
        c = random_profile(rng, origin=rng.uniform(-1, 1))
        dab = nl.wasserstein1(a, b)
        dbc = nl.wasserstein1(b, c)
        dac = nl.wasserstein1(a, c)
        assert dac <= dab + dbc + 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e300])
def test_w1_stays_finite_where_the_cdf_gaps_square_beyond_the_double_range(scale):
    # the CDFs cross on [0.25, 0.75]; at 1e300 the squared gaps there overflow
    # and the crossing term falls back to the gaps over the span
    wide = nl.uniform_profile(0.0, 1.0, scale)
    narrow = nl.uniform_profile(0.25, 0.75, 2.0 * scale)
    assert nl.wasserstein1(wide, narrow) == nl.wasserstein1(narrow, wide) == 0.125 * scale


def test_w1_rejects_mass_mismatch():
    a = nl.uniform_profile(0.0, 1.0, 1.0)
    b = nl.uniform_profile(0.0, 1.0, 0.9)
    with pytest.raises(ValueError):
        nl.wasserstein1(a, b)


def test_w1_profile_level_consistency_with_l1_bound():
    # d1 <= diameter * mass and d1 <= L1 * diameter-ish sanity: weaker
    # cross-check that the two metrics rank a contracting family the same way
    base = nl.uniform_profile(-1.0, 1.0, 0.3)
    near = nl.uniform_profile(-0.9, 0.9, 1.0 / 3.0)
    far = nl.uniform_profile(-0.25, 0.35, 1.0)
    assert nl.wasserstein1(base, near) < nl.wasserstein1(base, far)
    assert nl.l1_distance(base, near) < nl.l1_distance(base, far)


@pytest.mark.parametrize("seed", range(4))
def test_sorted_union_equals_numpy_union1d_bitwise(seed):
    # the merge of breakpoint lists behind l1_distance, wasserstein1 and the
    # audit's quadrature grid, without np.union1d's import of numpy.ma
    rng = np.random.default_rng(seed)
    cases = [
        (rng.standard_normal(50), rng.standard_normal(70)),
        (rng.integers(0, 6, 200) * 0.25, rng.integers(3, 9, 150) * 0.5),  # most values repeat
        (np.sort(rng.uniform(-1.0, 1.0, 30)), np.linspace(-1.0, 1.0, 9)),
        (np.empty(0), rng.standard_normal(3)),
    ]
    for a, b in cases:
        want, got = np.union1d(a, b), sorted_union(a, b)
        assert got.dtype == want.dtype and np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ------------------------------------- chunked sums against the direct ones
#
# The direct forms below are the bodies ``total_variation``, ``l1_distance``
# and ``wasserstein1`` had before they formed their terms _CHUNK segments at a
# time: every term on the whole merged grid at once, then one np.sum.  The
# chunked forms sum the same terms in one array of the same length, so their
# results must agree bit for bit.


def total_variation_reference(profile):
    v = profile.values
    return float(v[0] + np.sum(np.abs(np.diff(v))) + v[-1])


def breaks_reference(obj):
    return obj.breakpoints if isinstance(obj, nl.DensityProfile) else obj.atoms


def l1_distance_reference(a, b):
    pts = sorted_union(breaks_reference(a), breaks_reference(b))
    if pts.size < 2:
        return 0.0
    mids = 0.5 * (pts[:-1] + pts[1:])
    va = a.value_at(mids)
    vb = b.value_at(mids)
    return float(np.sum(np.abs(va - vb) * np.diff(pts)))


def cdf_reference(obj, points, side):
    return obj.cdf(points) if isinstance(obj, nl.DensityProfile) else obj.cdf(points, side=side)


def wasserstein1_reference(a, b):
    if abs(a.mass - b.mass) > 1e-12:
        raise ValueError(f"mass mismatch: {a.mass} vs {b.mass}")
    pts = sorted_union(breaks_reference(a), breaks_reference(b))
    if pts.size < 2:
        return 0.0
    p, q = pts[:-1], pts[1:]
    g0 = cdf_reference(a, p, "right") - cdf_reference(b, p, "right")
    g1 = cdf_reference(a, q, "left") - cdf_reference(b, q, "left")
    w = q - p
    span = np.abs(g0) + np.abs(g1)
    segments = 0.5 * w * span
    cross = np.sign(g0) * np.sign(g1) < 0.0
    g0, g1, w, span = g0[cross], g1[cross], w[cross], span[cross]
    with np.errstate(over="ignore"):
        crossing = w * (g0 * g0 + g1 * g1) / (2.0 * span)
    big = ~np.isfinite(crossing)
    if big.any():
        a0, a1 = g0[big] / span[big], g1[big] / span[big]
        crossing[big] = 0.5 * w[big] * (a0 * a0 + a1 * a1) * span[big]
    segments[cross] = crossing
    return float(np.sum(segments))


def on_grid(rng, bp, mass=0.5):
    """Random positive profile of the given mass on the breakpoint array ``bp`` itself."""
    vals = rng.uniform(0.1, 1.0, size=bp.size - 1)
    return nl.DensityProfile(bp, vals * (mass / nl.DensityProfile(bp, vals).mass))


def assert_distances_match_the_references(a, b):
    for x, y in ((a, b), (b, a)):
        assert nl.l1_distance(x, y).hex() == l1_distance_reference(x, y).hex()
        assert nl.wasserstein1(x, y).hex() == wasserstein1_reference(x, y).hex()


@pytest.mark.parametrize("cells", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1])
@pytest.mark.parametrize("grid", ["same-array", "equal-copy", "distinct"])
def test_chunked_metrics_equal_the_direct_references_bitwise(grid, cells):
    rng = np.random.default_rng(cells)
    a = random_profile(rng, cells=cells)
    bp = {
        "same-array": a.breakpoints,
        "equal-copy": a.breakpoints.copy(),
        "distinct": random_profile(rng, cells=cells, origin=0.2).breakpoints,
    }[grid]
    b = on_grid(rng, bp)
    assert (b.breakpoints is a.breakpoints) == (grid == "same-array")
    assert_distances_match_the_references(a, b)
    assert nl.total_variation(b).hex() == total_variation_reference(b).hex()


@pytest.mark.parametrize("cells", [_CHUNK - 1, 3 * _CHUNK + 1])
@pytest.mark.parametrize("atoms_at", ["left-edges", "inside", "same-array"])
def test_w1_of_atoms_against_a_density_equals_the_direct_reference_bitwise(cells, atoms_at):
    # one atom per cell carrying the cell's mass, so both masses are the same
    # cumulative sum.  On the left edges the merged grid equals the profile's
    # breakpoints, inside the cells it is twice as long, and on the breakpoint
    # array itself it is that array: its last atom adds 1e-13 to the mass.
    prof = random_profile(np.random.default_rng(cells), cells=cells)
    masses = prof.values * prof.widths
    atoms = {
        "left-edges": nl.AtomicMeasure(prof.breakpoints[:-1], masses),
        "inside": nl.AtomicMeasure(prof.breakpoints[:-1] + 0.3 * prof.widths, masses),
        "same-array": nl.AtomicMeasure(prof.breakpoints, np.append(masses, 1e-13)),
    }[atoms_at]
    assert (atoms.atoms is prof.breakpoints) == (atoms_at == "same-array")
    for x, y in ((atoms, prof), (prof, atoms)):
        assert nl.wasserstein1(x, y).hex() == wasserstein1_reference(x, y).hex()


def test_w1_with_a_sign_crossing_in_every_segment_equals_the_reference_bitwise():
    # the CDF gap alternates in sign from one breakpoint to the next, so every
    # interior segment, those on both sides of each chunk seam included, is
    # summed as two triangles
    cells = 3 * _CHUNK + 1
    bp = np.arange(cells + 1) / cells
    jump = 0.6 * (-1.0) ** np.arange(cells)
    jump[0], jump[-1] = 0.3, -0.3 * (-1.0) ** cells
    a = nl.DensityProfile(bp, np.ones(cells))
    b = nl.DensityProfile(bp, 1.0 - jump)
    g = a.cdf(bp) - b.cdf(bp)
    assert np.all(np.sign(g[1:-2]) * np.sign(g[2:-1]) < 0.0)
    assert_distances_match_the_references(a, b)


def seam_blocks(scale):
    """A block of height ``scale`` on a grid of 2^-12 cells against one twice as
    high on half the length, moved so that their CDFs cross inside the last
    segment of the first chunk.  Every cell holds the same exact mass
    scale * 2^-12, so the two masses agree bitwise at any scale."""
    h, cells = 2.0**-12, 3 * _CHUNK // 2
    start = (_CHUNK // 4 - 0.25) * h
    wide = nl.DensityProfile(np.arange(cells + 1) * h, np.full(cells, scale))
    narrow = nl.DensityProfile(start + np.arange(cells + 1) * (0.5 * h), np.full(cells, 2.0 * scale))
    return wide, narrow


@pytest.mark.parametrize("scale", [1.0, 1e300])
def test_w1_crossing_at_a_chunk_seam_stays_finite_where_the_cdf_gaps_square_beyond_the_double_range(scale):
    wide, narrow = seam_blocks(scale)
    assert wide.mass == narrow.mass
    pts = sorted_union(wide.breakpoints, narrow.breakpoints)
    g = np.sign(wide.cdf(pts) - narrow.cdf(pts))
    assert np.flatnonzero(g[:-1] * g[1:] < 0.0).tolist() == [_CHUNK - 1]
    unit = nl.wasserstein1(*seam_blocks(1.0))
    for x, y in ((wide, narrow), (narrow, wide)):
        d = nl.wasserstein1(x, y)
        assert d.hex() == wasserstein1_reference(x, y).hex()
        assert d == pytest.approx(scale * unit, rel=1e-14)


# ----------------------------------------------------------------- memory


def traced_peak(f, *args):
    """Bytes allocated at the peak of f(*args), under tracemalloc."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("grid, per_cell", [("shared", 16), ("distinct", 40)])
@pytest.mark.parametrize("distance", [nl.l1_distance, nl.wasserstein1], ids=["l1", "w1"])
def test_distances_hold_a_few_bytes_per_cell(distance, grid, per_cell):
    # the whole-grid forms peaked at 49 (L1) and 64 (W1) bytes per cell on a
    # shared grid, 98 and 128 on two grids; the chunked ones hold the segment
    # terms (and the merged grid) plus fixed-size chunks: 9 and 34
    n = 100_000
    rng = np.random.default_rng(7)
    bp = np.linspace(0.0, 1.0, n + 1)
    a = on_grid(rng, bp)
    b = on_grid(rng, bp if grid == "shared" else bp + 0.5 / n)
    peak = traced_peak(distance, a, b)
    assert peak <= per_cell * n, f"{peak / n:.1f} bytes per cell"


def test_finite_volume_metric_rows_hold_a_few_bytes_per_cell():
    # each snapshot's TV jumps, then its W1 terms on the grid edges it shares
    # with the initial profile: 9.3 bytes per cell; the whole-grid W1 peaked at 64
    n = 100_000
    run = nl.run_godunov(nl.ScenarioConfig.from_dict({"scenario": "two-step-0206", "fv_cells": n, "t_end": 2e-4, "output_times": [1e-4]}))
    assert len(run.profiles) == 3
    peak = traced_peak(lambda: run.metric_rows)
    assert len(run.metric_rows) == 3
    assert peak <= 12 * n, f"{peak / n:.1f} bytes per cell"
