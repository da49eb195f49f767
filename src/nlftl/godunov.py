"""Godunov finite-volume scheme for the nonlocal congested transport law.

The scheme is in flux form, rho_j' = (G_{j+1/2} - G_{j-1/2}) / dx, after
Betancourt, Buerger, Karlsen & Tory (Nonlinearity 24, 2011) and Carrillo,
Chertock & Huang (Commun. Comput. Phys. 17, 2015).  At every interface the
nonlocal field W = K' conv rho is split into its leftward-driving part K+
(mass left of the interface, K+ >= 0) and its rightward-driving part K-
(mass right of it, K- <= 0).  Each part freezes into a local scalar
conservation law with flux -K* f(rho), upwinded with the exact Godunov flux
of the unimodal f.  The interface flux telescopes, so mass is conserved to
rounding.  No flux leaves the charged window, the cells from the first to
the last nonzero one, so none crosses the domain edge either.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvariantViolation
from .model import Kernel, Mobility
from .profiles import DensityProfile, snapshot_schedule

_OVERSHOOT = 1e-10  # constructor tolerance above the cap
_CFL = 0.45  # Courant number of cfl_dt, which keeps values in [0, cap] only below 1/2
# Most steps gd_run may take, bounded from its inputs: about 3 minutes at
# J = 2400 on a 2-vCPU Xeon VM (5,925 steps to t = 80 took 1 s).
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``cells`` cells on [left, right]."""

    left: float
    right: float
    cells: int

    def __post_init__(self) -> None:
        if not self.right > self.left:
            raise ValueError("need right > left")
        if self.cells < 2:
            raise ValueError("need at least two cells")

    @property
    def dx(self) -> float:
        return (self.right - self.left) / self.cells

    @functools.cached_property
    def edges(self) -> np.ndarray:
        """The cells + 1 cell edges, built once per grid and read-only because
        every snapshot profile of a run shares them."""
        edges = np.linspace(self.left, self.right, self.cells + 1)
        edges.setflags(write=False)
        return edges

    @property
    def centers(self) -> np.ndarray:
        return self.left + (np.arange(self.cells) + 0.5) * self.dx


@dataclass(frozen=True)
class FVState:
    """Cell averages at one instant; values confined to [0, cap] up to 1e-10."""

    time: float
    values: np.ndarray
    cap: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("values must be a 1-D array with >= 2 cells")
        if not (v.min() >= 0.0 and v.max() <= self.cap + _OVERSHOOT):  # a NaN fails both, an infinity one
            raise ValueError("cell values must lie in [0, cap]")
        object.__setattr__(self, "values", v)


def cell_averages(profile: DensityProfile, grid: Grid) -> np.ndarray:
    """Exact cell averages of a piecewise-constant profile.

    Grid cells entirely inside one profile cell copy its value verbatim
    (no arithmetic, so aligned data like a jam profile samples bit-exactly);
    cells crossing a breakpoint use CDF differences.
    """
    lo, hi = profile.breakpoints[0], profile.breakpoints[-1]
    if lo < grid.left or hi > grid.right:
        raise ValueError("grid does not contain the profile")
    e = grid.edges
    bp = profile.breakpoints
    idx_l = np.searchsorted(bp, e[:-1], side="right") - 1
    idx_r = np.searchsorted(bp, e[1:], side="left") - 1  # cell of the right edge, edges on a breakpoint stay left
    out = (profile.cdf(e[1:]) - profile.cdf(e[:-1])) / grid.dx
    same = (idx_l == idx_r) & (idx_l >= 0) & (idx_l < profile.values.size)
    out[same] = profile.values[idx_l[same]]
    outside = (e[1:] <= lo) | (e[:-1] >= hi)
    out[outside] = 0.0
    return out


def state_profile(grid: Grid, state: FVState) -> DensityProfile:
    return DensityProfile(grid.edges, state.values)


@functools.lru_cache(maxsize=256)
def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n, the lengths pocketfft's real transforms take fastest."""
    best = 1 << (n - 1).bit_length()  # the power of two at or above n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=16)
def _d1_spectrum(grid: Grid, kernel: Kernel, size: int) -> np.ndarray:
    """The rfft of dx K' at the half offsets (k + 1/2) dx, k = 0..T-1, zero-padded to ``size``.

    The half offsets run from an interface to the cell centers on either
    side of it; K' is odd, so one table serves both sides.  The table holds
    T = min(J, ceil(size/2)) entries: a window of L <= ceil(size/2) cells
    convolved with it gives L + T - 1 <= size sums, so the product never
    wraps, and the sums at interfaces inside the window reach offsets
    0..L-2 only.  T depends on ``size`` alone, so the entry is built once
    per (grid, kernel, size), all three frozen or immutable, and is
    read-only because every caller shares it.  A run whose charged window
    keeps its length uses one size, so one entry.
    """
    entries = min(grid.cells, (size + 1) // 2)
    table = grid.dx * kernel.d1((np.arange(entries) + 0.5) * grid.dx)
    spectrum = np.fft.rfft(table, n=size)
    spectrum.setflags(write=False)
    return spectrum


class _FieldWork(NamedTuple):
    """Work buffers of :func:`compute_fields` on one grid, at the longest transform length it takes."""

    product: np.ndarray  # complex (size//2 + 1,): one transformed row, then its product with the spectrum
    sums: np.ndarray  # real (2, size): the convolution sums of the window and of the reversed window


@functools.lru_cache(maxsize=8)
def _field_work(grid: Grid) -> _FieldWork:
    """The work buffers for every window on ``grid``, built once per grid.

    They are sized for a fully charged grid (L = J), transform length
    _next_fast_len(2J - 1); a shorter window's transform takes their leading
    parts, so a step allocates no FFT work array.  At J = 4800 the sums take
    154 KB, above glibc's 128 KB mmap threshold, where an array allocated
    per call faults its pages in again on every step.
    """
    size = _next_fast_len(2 * grid.cells - 1)
    return _FieldWork(np.empty(size // 2 + 1, dtype=complex), np.empty((2, size)))


def _charged_window(rho: np.ndarray):
    """(first, last), the first and the last nonzero cell of rho, or None when rho is all vacuum."""
    charged = rho != 0.0
    first = int(charged.argmax())
    if not charged[first]:
        return None
    return first, rho.size - 1 - int(charged[::-1].argmax())


class Fields(NamedTuple):
    """K+ and K- at the interior interfaces first+1..first+n of the charged window rho[first..first+n].

    :func:`compute_fields` finds the window, and every later layer of a step
    reads it from here.  Vacuum has ``Fields(0, empty, empty)``, a one-cell
    window, which no flux crosses.
    """

    first: int
    kplus: np.ndarray  # (n,), >= 0
    kminus: np.ndarray  # (n,), <= 0


def compute_fields(rho: np.ndarray, grid: Grid, kernel: Kernel) -> Fields:
    """(first, K+, K-) of rho by midpoint-rule convolution, where flux can cross.

    K+ at interface i sums K'(x_i - x_m) rho_m dx over the cells m < i left
    of it; K- sums the cells m >= i right of it.  Only the charged window
    rho[first..last], from the first to the last nonzero cell, carries mass,
    and since f(0) = 0 a flux can cross only its interior interfaces
    first+1..last: at interface first K+ sums no mass and F- flows out of a
    vacuum cell, and the mirror holds at last+1, so the window never grows.
    The fields are computed and held on first+1..last only; they are
    exactly 0 at every other interface.  There the sums reach table offsets
    0..L-2 only, L = last - first + 1, so both sides are real-FFT
    convolutions of the window and of the reversed window at length
    n = _next_fast_len(2L - 1) with the cached spectrum of the half-offset
    table (:func:`_d1_spectrum`), which never wrap around.  The transforms
    run in the grid's cached work buffers; K+ and K- are fresh arrays.  The
    two rows go through numpy's FFT one at a time: on both rows at once,
    pocketfft maps and unmaps a scratch area twice a row's size on every
    long transform (76 minor page faults per call at n = 9,600, a fully
    charged grid at J = 4800).  The FFT leaves rounding noise of order
    eps max|K| on every sum, also where the direct sums are sign-definite,
    so K+ >= 0 and K- <= 0 are enforced by clamping.
    """
    charged = _charged_window(rho)
    if charged is None:
        return Fields(0, np.empty(0), np.empty(0))
    first, last = charged
    window = rho[first : last + 1]
    width = window.size
    size = _next_fast_len(2 * width - 1)
    spectrum = _d1_spectrum(grid, kernel, size)
    work = _field_work(grid)
    product = work.product[: size // 2 + 1]
    for row, side in enumerate((window, window[::-1])):
        np.fft.rfft(side, n=size, out=product)
        np.multiply(product, spectrum, out=product)
        np.fft.irfft(product, n=size, out=work.sums[row, :size])
    # sums[0, k] = sum_{m<i} K'((i-1-m+1/2) dx) rho_m dx at interface i = first + 1 + k
    kplus = np.maximum(work.sums[0, : width - 1], 0.0)
    # sums[1, k] = sum_{m>=i} K'((m-i+1/2) dx) rho_m dx at interface i = last - k
    kminus = np.negative(work.sums[1, : width - 1][::-1])
    np.minimum(kminus, 0.0, out=kminus)
    return Fields(first, kplus, kminus)


def cfl_dt(grid: Grid, fields: Fields, mobility: Mobility, cap_dt: float) -> float:
    """Stable step from the transport speeds, or ``cap_dt`` when the fields vanish.

    dt <= _CFL * dx / (max_i (|K+_i| + |K-_i|) * max|f'|).  Since
    f(rho) <= v_max * min(rho, cap - rho), a cell loses at most
    2 * _CFL * rho and gains at most 2 * _CFL * (cap - rho) in one step, so
    with _CFL < 1/2 this bound alone keeps the values in [0, cap].  The
    argument needs the speed only where a flux crosses, the interior
    interfaces first+1..last that ``fields`` holds.
    """
    _, kplus, kminus = fields
    dt = float(cap_dt)
    speed = float(np.max(np.abs(kplus) + np.abs(kminus), initial=0.0)) * mobility.dflux_bound
    if speed > 0.0:
        dt = min(dt, _CFL * grid.dx / speed)
    return dt


def _window_flux(rho: np.ndarray, fields: Fields, mobility: Mobility) -> np.ndarray:
    """G_i = K+_i F+_i + K-_i F-_i at the interior interfaces first+1..first+n that ``fields`` holds.

    The exact Godunov flux of the unimodal f, peak at sigma, from an upstream
    state a to a downstream state b is min(D(a), S(b)): the demand
    D(u) = f(min(u, sigma)) against the supply S(u) = f(max(u, sigma))
    (Lebacque, ISTTT 1996).  F- transports rightward, from the left cell to
    the right one; F+ leftward, from the right cell to the left one.  D and
    S are evaluated on the window rho[first..first+n] alone, clamped to
    [0, cap], with f unchecked on the clamped values.  At every other
    interface G is +0.0: both fluxes vanish where their upstream cell is
    vacuum, and the fields vanish there (:func:`compute_fields`).  G also
    vanishes between two cells at the cap, where S = f(cap) = 0.
    """
    first, kplus, kminus = fields
    window = np.clip(rho[first : first + kplus.size + 1], 0.0, mobility.cap)
    sigma = mobility.flux_argmax
    demand, supply = mobility.flux_unchecked(np.stack((np.minimum(window, sigma), np.maximum(window, sigma))))
    f_left = np.minimum(demand[1:], supply[:-1])  # F+ at interfaces first+1..first+n
    f_right = np.minimum(demand[:-1], supply[1:])  # F- at interfaces first+1..first+n
    return kplus * f_left + kminus * f_right


def gd_step(grid: Grid, state: FVState, kernel: Kernel, mobility: Mobility, dt: float, fields: Fields | None = None):
    """One forward-Euler step of the flux form; returns (state, clamped mass).

    rho_j' = (G_{j+1/2} - G_{j-1/2}) / dx with G from :func:`_window_flux`
    on the charged window that ``fields`` (computed here when not given)
    holds.  G is +0.0 outside its interior interfaces, so only its cells
    first..first+n can change: the update, the clamp to [0, cap] and the
    clamped-mass sum run on those cells alone, and every other cell stays
    vacuum.  An update that is not finite raises
    :class:`InvariantViolation`.  The clamped mass is a diagnostic.
    """
    rho = state.values
    if fields is None:
        fields = compute_fields(rho, grid, kernel)
    cells = slice(fields.first, fields.first + fields.kplus.size + 1)
    g = np.zeros(fields.kplus.size + 2)  # G at the window's interfaces; no flux crosses the outer two
    g[1:-1] = _window_flux(rho, fields, mobility)
    raw = rho[cells] + dt * ((g[1:] - g[:-1]) / grid.dx)
    if not np.isfinite(raw).all():
        raise InvariantViolation(f"finite-volume step at t={state.time:.6g} gave a value that is not finite")
    values = np.zeros(rho.size)
    clipped = np.clip(raw, 0.0, mobility.cap, out=values[cells])
    clamp_mass = float(np.sum(np.abs(raw - clipped)) * grid.dx)
    return FVState(state.time + dt, values, mobility.cap), clamp_mass


@dataclass(frozen=True)
class GodunovRun:
    """Snapshots and diagnostics of a finite-volume run.

    Every step is limited either by the CFL bound or by the next output
    time, which it lands on exactly: ``cfl_limited_steps +
    output_limited_steps == steps``.  ``min_dt`` and ``max_dt`` span the
    step lengths taken.
    """

    grid: Grid
    states: tuple[FVState, ...]
    clamped_mass: float
    steps: int
    clamp_warnings: int
    min_dt: float
    max_dt: float
    cfl_limited_steps: int
    output_limited_steps: int

    @property
    def times(self) -> np.ndarray:
        return np.asarray([s.time for s in self.states])

    @property
    def masses(self) -> np.ndarray:
        """The mass of every snapshot: its cell values summed, times the cell width."""
        return np.asarray([float(np.sum(s.values) * self.grid.dx) for s in self.states])

    @property
    def final(self) -> FVState:
        return self.states[-1]

    def profiles(self) -> list[DensityProfile]:
        return [state_profile(self.grid, s) for s in self.states]

    def diagnostics(self) -> dict:
        """The run's deterministic diagnostics, as ``meta.json`` records them."""
        return {
            "steps": self.steps,
            "min_dt": self.min_dt,
            "max_dt": self.max_dt,
            "cfl_limited_steps": self.cfl_limited_steps,
            "output_limited_steps": self.output_limited_steps,
            "clamped_mass": float(self.clamped_mass),
            "clamp_warnings": self.clamp_warnings,
            "mass_drift": float(self.masses[-1] - self.masses[0]),
        }


def gd_run(
    grid: Grid,
    profile: DensityProfile,
    kernel: Kernel,
    mobility: Mobility,
    t_end: float,
    output_times=None,
) -> GodunovRun:
    """March the scheme to ``t_end`` with steps limited at Courant number ``_CFL``.

    Steps are shortened to land exactly on every requested output time, so
    snapshot times are hit without interpolation and reruns are bit
    reproducible.  Each step passes the state :func:`gd_step` returned,
    whose [0, cap] check ran once when it was built, into the next one; a
    step that lands on an output time is relabelled with that time exactly.
    Per-step clamped mass above 1e-6 * cap counts as a warning; the total
    clamped mass is reported on the run.  No field exceeds sup|K'| m, so a
    bound above ``MAX_STEPS`` of t_end sup|K'| m max|f'| / (_CFL dx) plus the
    output count raises :class:`ConfigError` after the first step, which
    checks that the update is finite.
    """
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    schedule = snapshot_schedule(0.0, t_end, output_times)
    sup_field = kernel.amplitude * math.sqrt(2.0 * kernel.inv_width) * math.exp(-0.5) * profile.mass
    bound = t_end * sup_field * mobility.dflux_bound / (_CFL * grid.dx) + len(schedule)
    state = FVState(0.0, cell_averages(profile, grid), mobility.cap)
    states = [state]
    clamped = 0.0
    warnings = 0
    steps = 0
    output_limited = 0
    min_dt, max_dt = np.inf, 0.0
    for t_next in schedule:
        while state.time < t_next:
            fields = compute_fields(state.values, grid, kernel)
            remaining = t_next - state.time
            dt = cfl_dt(grid, fields, mobility, cap_dt=remaining)
            state, step_clamp = gd_step(grid, state, kernel, mobility, dt, fields)
            clamped += step_clamp
            if step_clamp > 1e-6 * mobility.cap:
                warnings += 1
            steps += 1
            if steps == 1 and not bound <= MAX_STEPS:
                raise ConfigError(f"the finite-volume run may take {bound:.3g} steps, above {MAX_STEPS}")
            min_dt, max_dt = min(min_dt, dt), max(max_dt, dt)
            if dt >= remaining:
                output_limited += 1
                state = FVState(t_next, state.values, mobility.cap)
        states.append(state)
    return GodunovRun(
        grid=grid,
        states=tuple(states),
        clamped_mass=clamped,
        steps=steps,
        clamp_warnings=warnings,
        min_dt=min_dt,
        max_dt=max_dt,
        cfl_limited_steps=steps - output_limited,
        output_limited_steps=output_limited,
    )
