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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nlftl as nl
from nlftl import godunov
from nlftl.godunov import cfl_dt, compute_fields, interface_flux

MOB = nl.Mobility()
KER = nl.Kernel()


def oracle_fields(grid, rho, kernel):
    """Direct double-loop midpoint convolutions at the J+1 interfaces, all of them."""
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

    The midpoint sums in double precision and a fixed order at all J+1
    interfaces, exactly 0 wherever one side holds no mass; :func:`compute_fields`
    gives them on :func:`flux_span` only.
    """
    table = kernel.d1((np.arange(grid.cells) + 0.5) * grid.dx)
    cells, dx = grid.cells, grid.dx
    zero = np.zeros(1)
    left = np.convolve(rho, table)[:cells]  # left[i-1] = sum_{m<i} K'((i-1-m+1/2) dx) rho_m
    right = np.convolve(rho[::-1], table)[cells - 1 :: -1]  # right[i] = sum_{m>=i} K'((m-i+1/2) dx) rho_m
    return np.concatenate((zero, dx * left)), np.concatenate((-dx * right, zero))


def exact_fields(rho, grid, kernel):
    """(K+, K-) by two long-double np.convolve calls with the dx K' table that :func:`compute_fields` transforms.

    The reference of the FFT rounding bound: the same table entries as the
    FFT path, summed in x87 extended precision, 11 mantissa bits more than a
    double, so its own rounding is far below an ulp of the fields.  It sums
    at all J+1 interfaces; on :func:`flux_span` it reaches table offsets
    0..L-1 only, entries every transform length's table holds.
    """
    cells = grid.cells
    table = (grid.dx * kernel.d1((np.arange(cells) + 0.5) * grid.dx)).astype(np.longdouble)
    wide = rho.astype(np.longdouble)
    zero = np.zeros(1, dtype=np.longdouble)
    left = np.convolve(wide, table)[:cells]
    right = np.convolve(wide[::-1], table)[cells - 1 :: -1]
    return np.concatenate((zero, left)), np.concatenate((-right, zero))


def scipy_fields(rho, grid, kernel):
    """(K+, K-) by the batched ``scipy.fft`` convolution of all of rho at length _next_fast_len(2J), the path
    :func:`compute_fields` ran before it moved to ``np.fft``, cached work buffers and the charged window.

    Fresh arrays everywhere and the same two guards (exact zeros over vacuum,
    sign clamps), at all J+1 interfaces.  The window changes the transform
    length, so this path agrees with :func:`compute_fields` on
    :func:`flux_span` to the FFT bound of :func:`assert_fields_match_direct`,
    no longer bitwise.
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


def flux_span(rho):
    """The interfaces first..last+1 of the charged window of rho, the only ones a flux can cross, as a slice."""
    charged = np.flatnonzero(rho)
    return slice(charged[0], charged[-1] + 2) if charged.size else slice(0, 0)


def on_flux_span(fields, rho):
    """``fields`` on :func:`flux_span` and 0 at every other interface: what :func:`compute_fields` keeps of them."""
    span = flux_span(rho)
    out = tuple(np.zeros_like(f) for f in fields)
    for f, o in zip(fields, out):
        o[span] = f[span]
    return out


def assert_zero_off_flux_span(fields, rho):
    outside = np.ones(fields[0].size, dtype=bool)
    outside[flux_span(rho)] = False
    for f in fields:
        assert np.all(f[outside] == 0.0)


def window_size(rho):
    """The transform length of the charged window of rho, L cells: the smallest 5-smooth n >= 2L - 1."""
    charged = np.flatnonzero(rho)
    return scipy.fft.next_fast_len(2 * (charged[-1] - charged[0]) + 1, real=True) if charged.size else 0


def window_fields(rho, grid, kernel):
    """(K+, K-) by ``scipy.fft`` convolutions of the charged window and the reversed window with the
    min(J, ceil(n/2))-entry table, zero-padded to n = :func:`window_size`, on :func:`flux_span` and exactly 0
    elsewhere, in fresh arrays: the bitwise reference of :func:`compute_fields`.

    The same guards as :func:`scipy_fields`: exact zeros over vacuum, sign clamps.
    """
    cells, dx = grid.cells, grid.dx
    kplus, kminus = np.zeros(cells + 1), np.zeros(cells + 1)
    charged = np.flatnonzero(rho)
    if charged.size == 0:
        return kplus, kminus
    first, last = charged[0], charged[-1]
    window = rho[first : last + 1]
    size = window_size(rho)
    table = dx * kernel.d1((np.arange(min(cells, -(-size // 2))) + 0.5) * dx)
    spectrum = scipy.fft.rfft(table, n=size)
    causal = scipy.fft.irfft(scipy.fft.rfft(window, n=size) * spectrum, n=size)
    anticausal = scipy.fft.irfft(scipy.fft.rfft(window[::-1], n=size) * spectrum, n=size)
    kplus[first + 1 : last + 2] = np.maximum(causal[: window.size], 0.0)
    kminus[first : last + 1] = np.minimum(-anticausal[window.size - 1 :: -1], 0.0)
    return kplus, kminus


def full_interface_flux(rho, fields, mobility):
    """G at all J+1 interfaces from the demand and the supply on the whole vacuum-padded cell array: the path
    :func:`interface_flux` would take without the charged window, and its bitwise reference."""
    kplus, kminus = fields
    ext = np.clip(np.concatenate(([0.0], rho, [0.0])), 0.0, mobility.cap)
    sigma = mobility.flux_argmax
    demand, supply = mobility.flux(np.minimum(ext, sigma)), mobility.flux(np.maximum(ext, sigma))
    return kplus * np.minimum(demand[1:], supply[:-1]) + kminus * np.minimum(demand[:-1], supply[1:])


def full_gd_step(grid, state, mobility, dt, fields):
    """(values, clamped mass, raw values) of one forward-Euler step over all J cells, as :func:`gd_step` took it
    before it ran on cells first-1..last+1 only: the bitwise reference of the windowed update."""
    rho = state.values
    g = interface_flux(rho, fields, mobility)
    raw = rho + dt * ((g[1:] - g[:-1]) / grid.dx)
    clipped = np.clip(raw, 0.0, mobility.cap)
    return clipped, float(np.sum(np.abs(raw - clipped)) * grid.dx), raw


def bitwise_equal(got, want):
    return all(np.array_equal(np.asarray(g).view(np.uint64), np.asarray(w).view(np.uint64)) for g, w in zip(got, want))


def clamped(u, mobility):
    return np.clip(np.asarray(u, dtype=float), 0.0, mobility.cap)


def godunov_flux(u_left, u_right, mobility):
    """Exact Godunov flux of the unimodal f across a Riemann interface, from scalars or arrays clamped to
    [0, cap], by the three-case rule :func:`interface_flux` ran before it took min(demand, supply): the
    Riemann reference.

    For a <= b the minimum of f over [a, b] sits at an endpoint; for a > b the
    maximum is the peak f(sigma) when a, b straddle sigma, else the larger endpoint.
    """
    a, b = clamped(u_left, mobility), clamped(u_right, mobility)
    sigma = mobility.flux_argmax
    fa, fb = mobility.flux(a), mobility.flux(b)
    out = np.where(a <= b, np.minimum(fa, fb), np.where((b <= sigma) & (sigma <= a), mobility.flux(sigma), np.maximum(fa, fb)))
    return float(out) if np.ndim(u_left) == 0 and np.ndim(u_right) == 0 else out


def demand_supply_flux(u_left, u_right, mobility):
    """min(f(min(a, sigma)), f(max(b, sigma))) for the clamped states a, b, from scalars or arrays: the rule of
    :func:`interface_flux`, one interface at a time."""
    a, b = clamped(u_left, mobility), clamped(u_right, mobility)
    sigma = mobility.flux_argmax
    out = np.minimum(mobility.flux(np.minimum(a, sigma)), mobility.flux(np.maximum(b, sigma)))
    return float(out) if np.ndim(u_left) == 0 and np.ndim(u_right) == 0 else out


RIEMANN_RULES = (godunov_flux, demand_supply_flux)


def oracle_godunov_flux(u_left, u_right, mob):
    sigma = mob.flux_argmax
    if u_left <= u_right:
        return min(mob.flux(u_left), mob.flux(u_right))
    if u_right <= sigma <= u_left:
        return mob.flux(sigma)
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
    for rule in RIEMANN_RULES:
        assert rule(us, us, MOB) == pytest.approx(MOB.flux(us), abs=1e-16)


def test_flux_riemann_cases():
    for rule in RIEMANN_RULES:
        assert rule(0.8, 0.2, MOB) == pytest.approx(0.25, abs=1e-16)
        assert rule(0.0, 1.0, MOB) == 0.0
        assert rule(1.0, 0.0, MOB) == pytest.approx(0.25, abs=1e-16)
        # out-of-range states are clamped, not rejected
        assert rule(-0.1, 1.3, MOB) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_flux_monotone_in_both_arguments(u_left, u_right, other):
    low, high = sorted((u_left, other))
    for rule in RIEMANN_RULES:
        assert rule(high, u_right, MOB) >= rule(low, u_right, MOB) - 1e-15
        assert rule(u_left, high, MOB) <= rule(u_left, low, MOB) + 1e-15


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_flux_matches_case_oracle(u_left, u_right):
    for rule in RIEMANN_RULES:
        assert rule(u_left, u_right, MOB) == pytest.approx(oracle_godunov_flux(u_left, u_right, MOB), abs=1e-15)


MOBILITIES = [nl.Mobility(), nl.Mobility(0.7, 1.3), nl.Mobility(2.5, 0.4), nl.Mobility(1e-3, 7.0), nl.Mobility(3.0, 3.0)]


def flux_rounding_bound(mobility):
    """A bound on |fl(f(u)) - f(u)| over u in [0, cap] for the computed flux u * (v_max * (1 - u / cap)).

    With q = u / cap, its four roundings give
    fl(f(u)) = u v_max (1 - q (1 + d1)) (1 + d2) (1 + d3) (1 + d4), |d_k| <= u_r,
    the unit roundoff eps / 2, so |fl(f(u)) - f(u)| <= u v_max ((1 - q) g3 + q u_r (1 + g3))
    with g3 = 3 u_r / (1 - 3 u_r) (Higham, Accuracy and Stability, Lemma 3.1).
    Since u = q cap <= cap and q (1 - q) <= 1/4, q^2 <= 1, that is at most
    cap v_max (g3 / 4 + u_r (1 + g3)); the smallest subnormal covers a
    product that underflows.  fl(1 - q) = 0 where q rounds to 1 is the case
    d1 = 1/q - 1 <= u_r of the same bound.
    """
    unit = np.finfo(float).eps / 2.0
    gamma3 = 3.0 * unit / (1.0 - 3.0 * unit)
    return mobility.cap * mobility.v_max * (gamma3 / 4.0 + unit * (1.0 + gamma3)) + np.finfo(float).smallest_subnormal


@st.composite
def riemann_pairs(draw):
    """A mobility of ``MOBILITIES`` and two states in [0, cap]: random, one ulp apart, straddling sigma within
    1e-12 of it, or at 0 and cap and their neighbouring floats."""
    mob = draw(st.sampled_from(MOBILITIES))
    cap, sigma = mob.cap, mob.flux_argmax
    state = st.floats(min_value=0.0, max_value=cap)
    kind = draw(st.sampled_from(["random", "adjacent", "straddle", "ends"]))
    if kind == "random":
        a, b = draw(state), draw(state)
    elif kind == "adjacent":
        a = draw(state)
        b = float(np.clip(np.nextafter(a, draw(st.sampled_from([-np.inf, np.inf]))), 0.0, cap))
    elif kind == "straddle":
        near = st.floats(min_value=0.0, max_value=1e-12 * sigma)
        a, b = sigma + draw(near), sigma - draw(near)
    else:
        ends = [0.0, float(np.finfo(float).smallest_subnormal), float(np.nextafter(cap, 0.0)), cap]
        a, b = draw(st.sampled_from(ends)), draw(st.sampled_from(ends))
    if draw(st.booleans()):
        a, b = b, a
    return mob, a, b


@settings(max_examples=1000, deadline=None)
@given(riemann_pairs())
def test_demand_supply_flux_matches_the_three_case_rule_on_several_mobilities(case):
    # min(demand, supply) returns, bit for bit, one of the three values the
    # three-case rule chooses from; the two rules differ only where rounding
    # makes the computed f non-monotone, so each lies within one rounding
    # bound of f of the exact Godunov flux, and within two of each other
    mob, a, b = case
    got = demand_supply_flux(a, b, mob)
    candidates = [mob.flux(a), mob.flux(b), mob.flux(mob.flux_argmax)]
    assert any(bitwise_equal((got,), (c,)) for c in candidates)
    assert abs(got - godunov_flux(a, b, mob)) <= 2.0 * flux_rounding_bound(mob)
    # and interface_flux takes it at each interface of a two-cell grid
    vals = np.array([a, b])
    kplus, kminus = fields_of(nl.Grid(-1.0, 1.0, 2), vals)
    ext = np.concatenate(([0.0], vals, [0.0]))
    want = [
        kplus[i] * demand_supply_flux(ext[i + 1], ext[i], mob) + kminus[i] * demand_supply_flux(ext[i], ext[i + 1], mob)
        for i in range(3)
    ]
    assert bitwise_equal((interface_flux(vals, (kplus, kminus), mob),), (np.array(want),))


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
        if i == 3:  # the interface right of the charged cell
            assert kplus[i] == pytest.approx(expect, abs=1e-16)
            assert kminus[i] == 0.0
        elif i == 2:  # the one left of it
            assert kminus[i] == pytest.approx(expect, abs=1e-16)
            assert kplus[i] == 0.0
        else:  # no flux crosses between two vacuum cells
            assert kplus[i] == kminus[i] == 0.0
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
    # on the interfaces a flux can cross, exactly 0 on the others: a fully
    # charged grid, a window inside it and a window of one edge cell
    grid = nl.Grid(-2.5, 2.5, 5)  # dx = 1 exactly: table offsets equal interface offsets
    for vals in ([0.2, 0.9, 0.4, 0.0, 0.6], [0.0, 0.9, 0.4, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.6]):
        vals = np.array(vals)
        kplus, kminus = fields_of(grid, vals)
        op, om = oracle_fields(grid, vals, KER)
        wp, wm = on_flux_span((op, om), vals)
        assert kplus == pytest.approx(wp, abs=1e-15)
        assert kminus == pytest.approx(wm, abs=1e-15)
        assert_zero_off_flux_span((kplus, kminus), vals)
        dplus, dminus = direct_fields(vals, grid, KER)
        assert dplus == pytest.approx(op, abs=1e-15)
        assert dminus == pytest.approx(om, abs=1e-15)


def fft_tolerance(size, scale):
    """Rounding bound of an FFT convolution of length ``size`` against the exact sums, for fields up to ``scale``.

    Higham (Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 24.2)
    bounds a computed FFT of length 2^t by ||y^ - y|| <= e ||y||, with
    e = t eta / (1 - t eta), eta = mu + g4 (sqrt(2) + mu), g4 = 4u / (1 - 4u),
    u = eps / 2 and mu the error of the computed twiddle factors, here taken
    as u.  The convolution takes three transforms (the window's, the table's
    and the inverse) at t = log2(n) stages each, one complex product per
    frequency (sqrt(2) g2) and the 1/n scaling (u); their relative errors
    compose to (1 + e)^3 (1 + sqrt(2) g2) (1 + u) - 1, taken through log1p
    and expm1 so that it keeps its digits below eps.  The bound is normwise
    and is applied here entry by entry against max|K|.  n times the smallest
    subnormal covers what underflow loses on densities near it.
    """
    unit = np.finfo(float).eps / 2.0

    def gamma(k):
        return k * unit / (1.0 - k * unit)

    stages = np.log2(max(size, 2))
    eta = unit + gamma(4) * (np.sqrt(2.0) + unit)
    per_transform = stages * eta / (1.0 - stages * eta)
    relative = np.expm1(3.0 * np.log1p(per_transform) + np.log1p(np.sqrt(2.0) * gamma(2)) + np.log1p(unit))
    return relative * scale + size * np.finfo(float).smallest_subnormal


def fields_error(got, want):
    return max(float(np.max(np.abs(g - w))) for g, w in zip(got, want))


def assert_fields_match_direct(rho, grid):
    """FFT fields against :func:`exact_fields` on :func:`flux_span`: tolerance, exact zeros, signs, mirror symmetry.

    The FFT convolution rounds by an error that grows like eps log2(n) in its
    length n.  Its distance from the long-double sums of the same table is
    held to :func:`fft_tolerance`, the bound of an FFT error analysis at
    that length, on the interfaces a flux can cross; at every other one the
    fields are exactly 0.  The scale is max|K| over all J+1 exact sums, as
    before the fields were restricted to the span.  The double-precision
    direct sums round too, by up to an ulp of the fields, so they are no
    reference for this bound: on a 2-cell grid the FFT lies 1.5 ulps from
    the exact sums, within the bound, but 2 ulps from the direct ones.  The
    same bound holds the former full-length path, :func:`scipy_fields`, at
    its own length and at all J+1 interfaces.
    """
    kplus, kminus = compute_fields(rho, grid, KER)
    eplus, eminus = exact_fields(rho, grid, KER)
    scale = float(max(np.max(np.abs(eplus)), np.max(np.abs(eminus))))
    window_exact = on_flux_span((eplus, eminus), rho)
    assert fields_error((kplus, kminus), window_exact) <= fft_tolerance(window_size(rho), scale)
    assert_zero_off_flux_span((kplus, kminus), rho)
    old = scipy_fields(rho, grid, KER)
    old_size = scipy.fft.next_fast_len(2 * grid.cells, real=True)
    assert fields_error(old, (eplus, eminus)) <= fft_tolerance(old_size, scale)
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
# 2-cell windows, transform length 3: the first lay 2.42 ulps of max|K| from
# the exact sums, beyond eps log2(n) max|K|, a bound with no constant; the
# second 2 ulps from the double direct sums
@example((nl.Grid(-17.693837558525424, 17.693837558525424, 2), np.array([0.001, 0.001])))
@example((nl.Grid(-0.5, 0.5, 2), np.array([0.0031496028902646698, 0.0031496028902646698])))
def test_fields_fft_matches_direct_sums(case):
    grid, rho = case
    assert_fields_match_direct(rho, grid)


@settings(max_examples=100, deadline=None)
@given(block_profiles())
def test_windowed_interface_flux_equals_the_full_array_flux_bitwise(case):
    grid, rho = case
    fields = compute_fields(rho, grid, KER)
    assert bitwise_equal((interface_flux(rho, fields, MOB),), (full_interface_flux(rho, fields, MOB),))


@pytest.mark.parametrize("name", nl.builtin_names())
def test_windowed_fields_and_flux_on_every_snapshot_of_the_builtins(name):
    # the states a run really meets: every default snapshot of each builtin's
    # Godunov run at its default J, fields against the windowed reference and
    # the windowed flux against the full-array one, both bit for bit
    cfg = nl.builtin_scenario(name)
    run = nl.run_godunov(cfg).fv
    kernel, mobility = nl.build_kernel(cfg), nl.build_mobility(cfg)
    for state in run.states:
        fields = compute_fields(state.values, run.grid, kernel)
        assert bitwise_equal(fields, window_fields(state.values, run.grid, kernel))
        got = interface_flux(state.values, fields, mobility)
        assert bitwise_equal((got,), (full_interface_flux(state.values, fields, mobility),))


def test_fields_fft_matches_direct_sums_on_a_fine_wide_grid():
    # two blocks with a vacuum gap at J=9600 on [-20, 20]: without the sign
    # clamp the FFT gives hundreds of K+ < 0 and K- > 0 entries here
    grid = nl.Grid(-20.0, 20.0, 9600)
    x = grid.centers
    rho = np.where((x > -6.0) & (x < -1.0), 0.6, 0.0) + np.where((x > 2.0) & (x < 4.0), MOB.cap, 0.0)
    assert_fields_match_direct(rho, grid)


def test_fields_share_one_read_only_table():
    grid = nl.Grid(-1.75, 2.25, 37)  # a grid no other test uses
    vals = np.linspace(0.0, 1.0, 37)  # charged from cell 1: a 36-cell window
    size = godunov._next_fast_len(2 * 36 - 1)
    assert size == scipy.fft.next_fast_len(71, real=True) == 72
    before = godunov._d1_spectrum.cache_info()
    first, second = fields_of(grid, vals), fields_of(grid, vals[::-1])
    after = godunov._d1_spectrum.cache_info()
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)
    assert np.array_equal(first[0], -second[1][::-1])  # mirrored data, mirrored fields
    spectrum = godunov._d1_spectrum(grid, KER, size)
    assert spectrum is godunov._d1_spectrum(grid, KER, size)
    table = grid.dx * KER.d1((np.arange(36) + 0.5) * grid.dx)  # ceil(72 / 2) = 36 < J entries
    assert np.array_equal(spectrum, scipy.fft.rfft(table, n=size))
    # a table longer than J is cut at J: two cells, a 2-cell window, length 3
    short = nl.Grid(-1.75, 2.25, 2)
    table = short.dx * KER.d1((np.arange(2) + 0.5) * short.dx)
    assert np.array_equal(godunov._d1_spectrum(short, KER, 3), scipy.fft.rfft(table, n=3))
    with pytest.raises(ValueError):
        spectrum[0] = 0.0
    # the work buffers, one set per grid at a fully charged grid's length,
    # _next_fast_len(2J - 1): one transformed row, and the sums, one row per side
    work = godunov._field_work(grid)
    assert work is godunov._field_work(nl.Grid(-1.75, 2.25, 37))
    full = scipy.fft.next_fast_len(2 * 37 - 1, real=True)
    assert work.product.shape == (full // 2 + 1,) and work.product.dtype == np.complex128
    assert work.sums.shape == (2, full) and work.sums.dtype == np.float64
    assert work.product.flags.writeable and work.sums.flags.writeable


def shifted_states(x, rng):
    """States on one grid whose charged windows differ in place and length, vacuum among them."""
    cells = x.size
    return [
        np.where((x > -1.0) & (x < 1.0), 0.3, 0.0),
        np.zeros(cells),  # all vacuum: returns before touching the buffers
        rng.uniform(0.0, MOB.cap, cells),
        np.where(x > 0.0, MOB.cap, 0.0),
        np.where(np.abs(x) < 0.4, 0.0, 0.7),  # a vacuum gap inside
        np.zeros(cells),
        rng.uniform(0.0, MOB.cap, cells) * (rng.random(cells) < 0.3),
        np.where(x < -2.0, 0.5, 0.0),  # charged from cell 0
    ]


@pytest.mark.parametrize("cells", [2, 3, 37, 1200, 4800])
def test_fields_equal_the_scipy_fft_reference_bitwise_call_after_call(cells):
    # several states on one grid, so every call after the first reuses the
    # cached buffers; each result must equal the windowed reference bit for
    # bit and must not change when a later call overwrites the buffers.  The
    # former full-length path agrees to its FFT bound where a flux can cross.
    grid = nl.Grid(-2.5, 2.5, cells)
    results = []
    for rho in shifted_states(grid.centers, np.random.default_rng(cells)):
        got = compute_fields(rho, grid, KER)
        assert bitwise_equal(got, window_fields(rho, grid, KER))
        old = scipy_fields(rho, grid, KER)
        scale = max(float(np.max(np.abs(a))) for a in old)
        assert fields_error(got, on_flux_span(old, rho)) <= fft_tolerance(scipy.fft.next_fast_len(2 * cells, real=True), scale)
        assert_zero_off_flux_span(got, rho)
        results.append((got, tuple(a.copy() for a in got)))
    product, sums = godunov._field_work(grid)
    for (kplus, kminus), (kplus_then, kminus_then) in results:
        assert np.array_equal(kplus, kplus_then) and np.array_equal(kminus, kminus_then)
        for a in (kplus, kminus):
            assert not np.shares_memory(a, product) and not np.shares_memory(a, sums)


def edge_windows(cells):
    """States whose charged window touches a domain edge, a single cell at either end, or is empty."""
    rng = np.random.default_rng(cells)
    left, right, single_left, single_right = (np.zeros(cells) for _ in range(4))
    left[: max(1, cells // 3)] = rng.uniform(0.1, MOB.cap, max(1, cells // 3))
    right[-max(1, cells // 3) :] = rng.uniform(0.1, MOB.cap, max(1, cells // 3))
    single_left[0], single_right[-1] = 0.6, MOB.cap
    return {
        "left": left,
        "right": right,
        "single-left": single_left,
        "single-right": single_right,
        "both-edges": rng.uniform(0.1, MOB.cap, cells),
        "ends-only": np.where(np.arange(cells) % (cells - 1) == 0, 0.4, 0.0),
        "vacuum": np.zeros(cells),
    }


@pytest.mark.parametrize("cells", [2, 3, 4, 41, 4800])
@pytest.mark.parametrize("case", ["left", "right", "single-left", "single-right", "both-edges", "ends-only", "vacuum"])
def test_fields_and_flux_on_windows_at_the_domain_edges(cells, case):
    # charged cells at 0 and at J-1: the window starts at the first cell or
    # ends at the last, the shortest and the longest transform lengths, and
    # the step's cells first-1 or last+1 fall outside the domain
    grid = nl.Grid(-3.0, 3.0, cells)
    rho = edge_windows(cells)[case]
    assert_fields_match_direct(rho, grid)  # and its mirror, bitwise
    for state in (rho, rho[::-1]):
        fields = compute_fields(state, grid, KER)
        assert bitwise_equal(fields, window_fields(state, grid, KER))
        assert bitwise_equal((interface_flux(state, fields, MOB),), (full_interface_flux(state, fields, MOB),))
        for courant in (1.0, 20.0):
            assert_step_equals_the_full_update(grid, state, courant * cfl_dt(grid, fields, MOB, cap_dt=1.0))


def test_next_fast_len_matches_scipy_up_to_2_to_the_15():
    got = [godunov._next_fast_len(n) for n in range(1, 2**15 + 1)]
    assert got == [scipy.fft.next_fast_len(n, real=True) for n in range(1, 2**15 + 1)]


FV_MARCH_STATES = """
import numpy as np
import nlftl as nl
cfg = nl.builtin_scenario("two-step-0206")
grid = nl.Grid(cfg.domain[0], cfg.domain[1], 4800)
rho, kernel = nl.cell_averages(nl.build_profile(cfg), grid), nl.build_kernel(cfg)
states = []
for shrink in SHRINKS:
    state = rho.copy()
    charged = np.flatnonzero(state)
    if shrink < 0:  # the vacuum filled: a window over the whole grid
        state[state == 0.0] = 0.01
    state[charged[: max(shrink, 0)]] = 0.0
    state[charged[charged.size - max(shrink, 0) :]] = 0.0
    states.append(state)
"""

# the fv-march state (a 1,440-cell window, transform length 2,880) and the
# same window less its outer 20 and 470 charged cells at each end: a
# 1,400- and a 500-cell window, lengths 2,880 and 1,000.  "full" adds, in
# front, the fv-march state with its vacuum filled: a 4,800-cell window at
# length 9,600, the longest the grid takes
SHRINKS = {"fv-march": (0,), "shrinking": (0, 20, 470), "full": (-1, 0, 20, 470)}


def fv_march_states(shrinks):
    """The fv-march grid (two-step-0206 at J = 4800), its kernel, and its initial state with ``shrinks`` cells
    cleared at each end of the charged window, one state per entry; a negative entry fills the vacuum instead."""
    scope = {"SHRINKS": shrinks}
    exec(FV_MARCH_STATES, scope)
    return scope["grid"], scope["kernel"], scope["states"]


def assert_no_fft_work_array_per_call(windows):
    # after one warm-up call per state builds the cached entries, a call
    # allocates K+, K- and a J-entry mask (an 87 KB peak at J = 4800), and no
    # FFT work array: a product row and the sums allocated per call at the
    # call's length raise the peak to 103 KB at length 1,000 (the 500-cell
    # window) and 148 KB at 2,880 (the fv-march window)
    grid, kernel, states = fv_march_states(SHRINKS[windows])
    for rho in states:
        compute_fields(rho, grid, kernel)
    for rho in states:
        tracemalloc.start()
        try:
            compute_fields(rho, grid, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96_000


def test_fields_allocate_no_fft_work_array_per_call():
    assert_no_fft_work_array_per_call("fv-march")


def test_fields_allocate_no_fft_work_array_per_call_as_the_window_shrinks():
    assert_no_fft_work_array_per_call("full")


def test_fields_on_a_shrinking_window_miss_once_per_length():
    # one grid, its window shrinking between calls: a length first seen is a
    # miss of the spectrum cache, every later call at it a hit, and all
    # lengths share the grid's one set of work buffers
    grid, kernel, (wide, trimmed, narrow) = fv_march_states(SHRINKS["shrinking"])
    grid = nl.Grid(grid.left, grid.right - 0.125, grid.cells)  # a grid no other test uses
    assert [window_size(rho) for rho in (wide, trimmed, narrow)] == [2880, 2880, 1000]
    before = godunov._d1_spectrum.cache_info()
    outcomes = []
    for rho in (wide, trimmed, trimmed, narrow, narrow, wide):
        misses = godunov._d1_spectrum.cache_info().misses
        got = compute_fields(rho, grid, kernel)
        assert bitwise_equal(got, window_fields(rho, grid, kernel))
        outcomes.append("miss" if godunov._d1_spectrum.cache_info().misses > misses else "hit")
    assert outcomes == ["miss", "hit", "hit", "miss", "hit", "hit"]
    after = godunov._d1_spectrum.cache_info()
    assert (after.misses, after.hits) == (before.misses + 2, before.hits + 4)
    assert godunov._field_work(grid).sums.shape == (2, 9600)


FAULTS_PER_CALL = (
    """
import os
import resource
SHRINKS = tuple(map(int, os.environ["WINDOW_SHRINKS"].split(",")))
"""
    + FV_MARCH_STATES
    + """
from nlftl.godunov import compute_fields
for state in states:
    compute_fields(state, grid, kernel)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for k in range(50):
    compute_fields(states[k % len(states)], grid, kernel)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""
)


def assert_no_page_faults_per_call(windows):
    # what tracemalloc cannot see: a transform of both rows in one call makes
    # numpy's pocketfft allocate scratch above the mmap threshold, mapped and
    # unmapped every call, at length 9,600 (76 minor faults per call on the
    # filled state alone); row by row, none.  At 2,880 the scratch stays
    # below the threshold, so the fv-march window alone shows no faults either way.
    # A fresh interpreter with the mmap threshold pinned at glibc's default
    # keeps the count independent of what the process freed before.  The trim
    # threshold is pinned too: left at 128 KB, glibc trims the heap top after
    # some calls and faults it back in on the next, 20-24 faults per call or
    # none depending only on how large the environment is, so the count is
    # taken at several sizes of a dummy variable.  "full" cycles through
    # four windows and three transform lengths.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072", MALLOC_TRIM_THRESHOLD_=str(64 << 20))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    env["WINDOW_SHRINKS"] = ",".join(map(str, SHRINKS[windows]))
    for padding in (0, 500, 2_000, 20_000):
        env["ENV_PADDING"] = "x" * padding
        proc = subprocess.run(
            [sys.executable, "-c", FAULTS_PER_CALL], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 5.0, f"environment padded by {padding} bytes"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
def test_fields_take_no_page_faults_per_call():
    assert_no_page_faults_per_call("fv-march")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
def test_fields_take_no_page_faults_per_call_as_the_window_shrinks():
    assert_no_page_faults_per_call("full")


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
    spectrum = godunov._d1_spectrum(grid, KER, 81)
    assert godunov._d1_spectrum(twin, KER, 81) is spectrum
    after = godunov._d1_spectrum.cache_info()
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)
    assert godunov._field_work(twin) is godunov._field_work(grid)
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
    # one demand and one supply evaluation on the padded array give bitwise
    # the demand-supply fluxes, interface by interface; each of those lies
    # within two rounding bounds of f of the three-case Riemann flux
    vals = np.array(cells)
    grid = nl.Grid(-1.0, 1.0, vals.size)
    kplus, kminus = fields_of(grid, vals)
    ext = np.concatenate(([0.0], vals, [0.0]))
    want = []
    for i in range(vals.size + 1):
        fluxes = [(ext[i + 1], ext[i]), (ext[i], ext[i + 1])]  # F+ in mirrored order, F- in natural order
        for upstream, downstream in fluxes:
            gap = demand_supply_flux(upstream, downstream, MOB) - godunov_flux(upstream, downstream, MOB)
            assert abs(gap) <= 2.0 * flux_rounding_bound(MOB)
        fp, fm = (demand_supply_flux(u, d, MOB) for u, d in fluxes)
        want.append(kplus[i] * fp + kminus[i] * fm)
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


def assert_step_equals_the_full_update(grid, rho, dt):
    """gd_step on rho against :func:`full_gd_step`: values bitwise, clamped mass bitwise against the sum over
    cells first-1..last+1 and within its summation rounding of the sum over all J cells; returns the mass."""
    fields = compute_fields(rho, grid, KER)
    new, clamp = nl.gd_step(grid, nl.FVState(0.0, rho, MOB.cap), KER, MOB, dt, fields)
    values, full_clamp, raw = full_gd_step(grid, nl.FVState(0.0, rho, MOB.cap), MOB, dt, fields)
    assert bitwise_equal((new.values,), (values,))
    charged = np.flatnonzero(rho)
    cells = slice(max(charged[0] - 1, 0), charged[-1] + 2) if charged.size else slice(0, 0)
    window_clamp = float(np.sum(np.abs(raw[cells] - values[cells])) * grid.dx)
    assert bitwise_equal((clamp,), (window_clamp,))
    # |sum| of J non-negative terms in two orders: each within (J - 1) u of the exact sum
    assert abs(clamp - full_clamp) <= 2.0 * rho.size * np.finfo(float).eps * full_clamp
    return clamp


@settings(max_examples=200, deadline=None)
@given(block_profiles(), st.sampled_from([0.5, 1.0, 4.0, 50.0]))
def test_windowed_step_equals_the_full_update_bitwise(case, courant):
    # steps at and beyond the Courant bound, clamping nothing or much
    grid, rho = case
    dt = courant * cfl_dt(grid, compute_fields(rho, grid, KER), MOB, cap_dt=1.0)
    assert_step_equals_the_full_update(grid, rho, dt)


def test_windowed_step_clamps_a_too_large_step_as_the_full_update_does():
    # a dt far above the Courant bound, passed to gd_step directly, overshoots
    # the cap in the block and undershoots 0 at its edges: a nonzero clamp
    grid = nl.Grid(-2.5, 2.5, 300)
    rho = np.where(np.abs(grid.centers) < 1.0, 0.4, 0.0)
    rho[150:160] = 0.95
    dt = 40.0 * cfl_dt(grid, compute_fields(rho, grid, KER), MOB, cap_dt=1.0)
    assert assert_step_equals_the_full_update(grid, rho, dt) > 1e-3


@settings(max_examples=300, deadline=None)
@given(block_profiles())
def test_one_step_at_the_flux_span_bound_clamps_nothing(case):
    # the speed bound is taken only where a flux crosses, and a step at it
    # still keeps every value in [0, cap] with no clamping at all
    grid, rho = case
    fields = compute_fields(rho, grid, KER)
    dt = cfl_dt(grid, fields, MOB, cap_dt=1.0)
    speed = np.max((np.abs(fields[0]) + np.abs(fields[1]))[flux_span(rho)], initial=0.0)
    assert dt == (min(1.0, 0.45 * grid.dx / speed) if speed > 0.0 else 1.0)
    new, clamp = nl.gd_step(grid, nl.FVState(0.0, rho, MOB.cap), KER, MOB, dt, fields)
    raw = full_gd_step(grid, nl.FVState(0.0, rho, MOB.cap), MOB, dt, fields)[2]
    assert clamp == 0.0
    assert np.all(raw >= 0.0) and np.all(raw <= MOB.cap)


def test_fv_march_counters():
    # the bench workload fv-march: two-step-0206 at J = 4800 to t = 2 takes
    # 343 steps with the speed bound on the flux span (363 over all interfaces)
    cfg = nl.ScenarioConfig.from_dict({"scenario": "two-step-0206", "fv_cells": 4800, "t_end": 2.0})
    run = nl.run_godunov(cfg).fv
    assert run.steps == 343
    assert run.clamped_mass == 0.0 and run.clamp_warnings == 0
    assert abs(run.diagnostics()["mass_drift"]) <= 1e-15


def test_state_values_must_lie_in_zero_cap():
    for bad in (-1e-300, MOB.cap + 2e-10, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"\[0, cap\]"):
            nl.FVState(0.0, np.array([0.5, bad, 0.5]), MOB.cap)
    ok = nl.FVState(0.0, np.array([-0.0, 0.0, MOB.cap + 1e-10]), MOB.cap)
    assert ok.values.dtype == np.float64


def test_run_checks_each_state_once(monkeypatch):
    # every step's state is checked once, when gd_step builds it; a step
    # that lands on an output time builds one more, labelled with that time
    checks = []
    check = godunov.FVState.__post_init__
    monkeypatch.setattr(godunov.FVState, "__post_init__", lambda self: checks.append(self.time) or check(self))
    grid = nl.Grid(-2.5, 2.5, 300)
    run = nl.gd_run(grid, nl.uniform_profile(-1.0, 1.0, 0.3), KER, MOB, 0.2, output_times=[0.1, 0.2])
    assert len(checks) == 1 + run.steps + run.output_limited_steps
    assert [s.time for s in run.states] == [0.0, 0.1, 0.2] and all(s.time in checks for s in run.states)


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
