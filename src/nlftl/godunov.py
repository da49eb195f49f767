"""Godunov finite-volume scheme for the nonlocal congested transport law.

The scheme is in flux form, rho_j' = (G_{j+1/2} - G_{j-1/2}) / dx, after
Betancourt, Buerger, Karlsen & Tory (Nonlinearity 24, 2011) and Carrillo,
Chertock & Huang (Commun. Comput. Phys. 17, 2015).  At every interface the
nonlocal field W = K' conv rho is split into its leftward-driving part K+
(mass left of the interface, K+ >= 0) and its rightward-driving part K-
(mass right of it, K- <= 0).  Each part freezes into a local scalar
conservation law with flux -K* f(rho), upwinded with the exact Godunov flux
of the unimodal f.  The interface flux telescopes, so mass is conserved to
rounding; no flux crosses the domain edge because K+ vanishes on the left
edge and K- on the right one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import Kernel, Mobility
from .profiles import DensityProfile

_OVERSHOOT = 1e-10  # constructor tolerance above the cap
_CFL = 0.45  # Courant number of gd_run; cfl_dt keeps values in [0, cap] only below 1/2


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
        if np.any(v < 0.0) or np.any(v > self.cap + _OVERSHOOT) or not np.all(np.isfinite(v)):
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


class _FieldWork(NamedTuple):
    """Per-(grid, kernel) state of :func:`compute_fields`: transform length, spectrum, work buffers."""

    size: int
    spectrum: np.ndarray  # rfft of the half-offset table, read-only
    product: np.ndarray  # complex (size//2 + 1,): one transformed row, then its product with the spectrum
    sums: np.ndarray  # real (2, size): the convolution sums of rho and of reversed rho


@functools.lru_cache(maxsize=8)
def _d1_spectrum(grid: Grid, kernel: Kernel) -> _FieldWork:
    """The rfft of dx K' at the half offsets (k + 1/2) dx, zero-padded to n, and two work buffers.

    The half offsets, k = 0..J-1, run from an interface to the cell centers
    on either side of it; K' is odd, so one table serves both sides.  The
    length n = _next_fast_len(2J) >= 2J - 1 keeps the circular convolution
    free of wrap-around in its first J entries.  The entry is built once per
    (grid, kernel) pair, both frozen.  The spectrum is read-only because
    every caller shares it; the buffers are overwritten by every
    :func:`compute_fields` call on the grid, so a step allocates no FFT
    work array.  At J = 4800 the sums take 154 KB, above glibc's 128 KB
    mmap threshold: allocated per call, such an array's pages go back to
    the OS when it is freed and fault in again on the next step.
    """
    size = _next_fast_len(2 * grid.cells)
    table = grid.dx * kernel.d1((np.arange(grid.cells) + 0.5) * grid.dx)
    spectrum = np.fft.rfft(table, n=size)
    spectrum.setflags(write=False)
    return _FieldWork(size, spectrum, np.empty(size // 2 + 1, dtype=complex), np.empty((2, size)))


def compute_fields(rho: np.ndarray, grid: Grid, kernel: Kernel):
    """(K+, K-) at the J+1 interfaces by midpoint-rule convolution.

    K+ at interface i sums K'(x_i - x_m) rho_m dx over the cells m < i left
    of it; K- sums the cells m >= i right of it.  Both sides are real-FFT
    convolutions, of rho and of reversed rho, with the cached spectrum of
    the half-offset table, O(J log J), in the grid's cached work buffers;
    K+ and K- are fresh arrays.  The two rows go through numpy's FFT one at
    a time: a call on both rows takes a scratch area twice a row's size
    inside pocketfft, which at J = 4800 is mapped and unmapped on every call
    (43 minor page faults per call; row by row, none).  The FFT leaves
    rounding noise of order eps max|K| everywhere, also where the direct
    sums are exactly 0 or sign-definite, so two guards restore what the
    direct sums give: one-sided sums over vacuum are exactly 0 (K+ up to the
    first charged cell, including the left domain edge; K- after the last
    one, including the right edge), and K+ >= 0, K- <= 0 are enforced by
    clamping.  The first guard keeps a saturated block bitwise steady.
    """
    cells = grid.cells
    kplus, kminus = np.zeros(cells + 1), np.zeros(cells + 1)
    charged = np.flatnonzero(rho)
    if charged.size == 0:
        return kplus, kminus
    first, last = charged[0], charged[-1]
    size, spectrum, product, sums = _d1_spectrum(grid, kernel)
    for row, side in enumerate((rho, rho[::-1])):
        np.fft.rfft(side, n=size, out=product)
        np.multiply(product, spectrum, out=product)
        np.fft.irfft(product, n=size, out=sums[row])
    # sums[0, i-1] = sum_{m<i} K'((i-1-m+1/2) dx) rho_m dx
    np.maximum(sums[0, first:cells], 0.0, out=kplus[first + 1 :])
    # sums[1, cells-1-i] = sum_{m>=i} K'((m-i+1/2) dx) rho_m dx
    np.minimum(np.negative(sums[1, cells - 1 - last : cells][::-1]), 0.0, out=kminus[: last + 1])
    return kplus, kminus


def _upwind(a, b, fa, fb, sigma: float, peak: float):
    """Exact Godunov flux of the unimodal f from clamped states a, b, their fluxes fa, fb and peak = f(sigma).

    For a <= b the minimum of f over [a, b] sits at an endpoint; for a > b the
    maximum is the peak when a, b straddle sigma, else the larger endpoint.
    """
    return np.where(
        a <= b,
        np.minimum(fa, fb),
        np.where((b <= sigma) & (sigma <= a), peak, np.maximum(fa, fb)),
    )


def cfl_dt(grid: Grid, fields, mobility: Mobility, cfl: float, cap_dt: float) -> float:
    """Stable step from the transport speeds, or ``cap_dt`` when the fields vanish.

    dt <= cfl * dx / (max_i (|K+_i| + |K-_i|) * max|f'|).  Since
    f(rho) <= v_max * min(rho, cap - rho), a cell loses at most
    2 * cfl * rho and gains at most 2 * cfl * (cap - rho) in one step, so for
    cfl < 1/2 this bound alone keeps the values in [0, cap].
    """
    kplus, kminus = fields
    dt = float(cap_dt)
    speed = float(np.max(np.abs(kplus) + np.abs(kminus))) * mobility.dflux_bound
    if speed > 0.0:
        dt = min(dt, cfl * grid.dx / speed)
    return dt


def interface_flux(rho: np.ndarray, fields, mobility: Mobility) -> np.ndarray:
    """G_i = K+_i F+_i + K-_i F-_i at the J+1 interfaces.

    F+ is the Godunov flux of :func:`_upwind` in mirrored argument order
    (leftward transport upwinds from the right), F- in natural order; the
    domain is padded with vacuum and clamped to [0, cap], and f is evaluated
    once on it.  G vanishes between two vacuum cells or two cells at the
    cap, where both Godunov fluxes are f(0) = f(cap) = 0.
    """
    kplus, kminus = fields
    ext = np.clip(np.concatenate(([0.0], rho, [0.0])), 0.0, mobility.cap)
    f = mobility.flux(ext)
    sigma, peak = mobility.flux_argmax, mobility.flux_max
    f_left = _upwind(ext[1:], ext[:-1], f[1:], f[:-1], sigma, peak)  # F+ at interfaces 0..J
    f_right = _upwind(ext[:-1], ext[1:], f[:-1], f[1:], sigma, peak)  # F- at interfaces 0..J
    return kplus * f_left + kminus * f_right


def gd_step(grid: Grid, state: FVState, kernel: Kernel, mobility: Mobility, dt: float, fields=None):
    """One forward-Euler step of the flux form; returns (state, clamped mass).

    rho_j' = (G_{j+1/2} - G_{j-1/2}) / dx with G from :func:`interface_flux`.
    The updated values are clamped to [0, cap]; the clamped mass is returned
    as a diagnostic.
    """
    rho = state.values
    if fields is None:
        fields = compute_fields(rho, grid, kernel)
    g = interface_flux(rho, fields, mobility)
    raw = rho + dt * ((g[1:] - g[:-1]) / grid.dx)
    clipped = np.clip(raw, 0.0, mobility.cap)
    clamp_mass = float(np.sum(np.abs(raw - clipped)) * grid.dx)
    return FVState(state.time + dt, clipped, mobility.cap), clamp_mass


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
    masses: np.ndarray = field(default=None, repr=False, compare=False)

    @property
    def times(self) -> np.ndarray:
        return np.asarray([s.time for s in self.states])

    @property
    def final(self) -> FVState:
        return self.states[-1]

    def profiles(self) -> list[DensityProfile]:
        return [state_profile(self.grid, s) for s in self.states]


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
    reproducible.  Per-step clamped mass above 1e-6 * cap counts as a
    warning; the total clamped mass is reported on the run.
    """
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    rho = cell_averages(profile, grid)
    requested = [] if output_times is None else output_times
    outputs = sorted({float(t) for t in requested if 0.0 < t <= t_end})
    if not outputs or outputs[-1] < t_end:
        outputs.append(t_end)
    states = [FVState(0.0, rho, mobility.cap)]
    clamped = 0.0
    warnings = 0
    steps = 0
    output_limited = 0
    min_dt, max_dt = np.inf, 0.0
    t = 0.0
    for t_next in outputs:
        while t < t_next:
            fields = compute_fields(rho, grid, kernel)
            remaining = t_next - t
            dt = cfl_dt(grid, fields, mobility, _CFL, cap_dt=remaining)
            stepped, step_clamp = gd_step(grid, FVState(t, rho, mobility.cap), kernel, mobility, dt, fields)
            rho = stepped.values
            clamped += step_clamp
            if step_clamp > 1e-6 * mobility.cap:
                warnings += 1
            steps += 1
            min_dt, max_dt = min(min_dt, dt), max(max_dt, dt)
            if dt >= remaining:
                output_limited += 1
                t = t_next
            else:
                t += dt
        states.append(FVState(t_next, rho, mobility.cap))
    masses = np.asarray([float(np.sum(s.values) * grid.dx) for s in states])
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
        masses=masses,
    )
