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

import numpy as np

from .model import Kernel, Mobility
from .profiles import DensityProfile

_OVERSHOOT = 1e-10  # constructor tolerance above the cap


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

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.left, self.right, self.cells + 1)

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


@dataclass(frozen=True)
class KernelTables:
    """K' sampled at the half offsets (k + 1/2) dx, k = 0..J-1, of a grid.

    These are the offsets from an interface to the cell centers on either
    side of it; K' is odd, so the same table serves both sides.  The table
    is read-only because :func:`_tables` hands one instance to every caller.
    """

    d1: np.ndarray  # K'((k + 1/2) dx) >= 0
    cells: int
    dx: float

    @classmethod
    def build(cls, grid: Grid, kernel: Kernel) -> "KernelTables":
        offsets = (np.arange(grid.cells) + 0.5) * grid.dx
        d1 = kernel.d1(offsets)
        d1.setflags(write=False)
        return cls(d1=d1, cells=grid.cells, dx=grid.dx)


@functools.lru_cache(maxsize=8)
def _tables(grid: Grid, kernel: Kernel) -> KernelTables:
    """The tables of a (grid, kernel) pair, built once; both are frozen."""
    return KernelTables.build(grid, kernel)


def compute_fields(rho: np.ndarray, tables: KernelTables):
    """(K+, K-) at the J+1 interfaces by midpoint-rule convolution.

    K+ at interface i sums K'(x_i - x_m) rho_m dx over the cells m < i left
    of it; K- sums the cells m >= i right of it.  One-sided sums over vacuum
    are exactly 0, so K+ vanishes on the left domain edge and K- on the
    right one.  Each side is one full convolution in a fixed order
    (np.convolve is a plain C loop).
    """
    cells, dx = tables.cells, tables.dx
    zero = np.zeros(1)
    left = np.convolve(rho, tables.d1)[:cells]  # left[i-1] = sum_{m<i} K'((i-1-m+1/2) dx) rho_m
    right = np.convolve(rho[::-1], tables.d1)[cells - 1 :: -1]  # right[i] = sum_{m>=i} K'((m-i+1/2) dx) rho_m
    return np.concatenate((zero, dx * left)), np.concatenate((-dx * right, zero))


def godunov_flux(u_left, u_right, mobility: Mobility):
    """Exact Godunov flux of the unimodal f across a Riemann interface.

    Arguments are clamped to [0, cap].  For u_left <= u_right the minimum of
    f over the interval sits at an endpoint; for u_left > u_right the maximum
    is f(argmax) when the maximiser is straddled, else the larger endpoint.
    """
    a = np.clip(np.asarray(u_left, dtype=float), 0.0, mobility.cap)
    b = np.clip(np.asarray(u_right, dtype=float), 0.0, mobility.cap)
    fa, fb = mobility.flux(a), mobility.flux(b)
    sigma = mobility.flux_argmax
    out = np.where(
        a <= b,
        np.minimum(fa, fb),
        np.where((b <= sigma) & (sigma <= a), mobility.flux_max, np.maximum(fa, fb)),
    )
    return float(out) if np.ndim(u_left) == 0 and np.ndim(u_right) == 0 else out


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

    F+ is the Godunov flux in mirrored argument order (leftward transport
    upwinds from the right), F- in natural order; the domain is padded with
    vacuum.  G vanishes between two vacuum cells or two cells at the cap,
    where both Godunov fluxes are f(0) = f(cap) = 0.
    """
    kplus, kminus = fields
    ext = np.concatenate(([0.0], rho, [0.0]))
    f_left = godunov_flux(ext[1:], ext[:-1], mobility)  # F+ at interfaces 0..J
    f_right = godunov_flux(ext[:-1], ext[1:], mobility)  # F- at interfaces 0..J
    return kplus * f_left + kminus * f_right


def gd_step(grid: Grid, state: FVState, kernel: Kernel, mobility: Mobility, dt: float, fields=None):
    """One forward-Euler step of the flux form; returns (state, clamped mass).

    rho_j' = (G_{j+1/2} - G_{j-1/2}) / dx with G from :func:`interface_flux`.
    The updated values are clamped to [0, cap]; the clamped mass is returned
    as a diagnostic.
    """
    rho = state.values
    if fields is None:
        fields = compute_fields(rho, _tables(grid, kernel))
    g = interface_flux(rho, fields, mobility)
    raw = rho + dt * ((g[1:] - g[:-1]) / grid.dx)
    clipped = np.clip(raw, 0.0, mobility.cap)
    clamp_mass = float(np.sum(np.abs(raw - clipped)) * grid.dx)
    return FVState(state.time + dt, clipped, mobility.cap), clamp_mass


@dataclass(frozen=True)
class GodunovRun:
    """Snapshots and diagnostics of a finite-volume run."""

    grid: Grid
    states: tuple[FVState, ...]
    clamped_mass: float
    steps: int
    clamp_warnings: int
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
    cfl: float = 0.45,
) -> GodunovRun:
    """March the scheme to ``t_end`` with CFL-limited steps.

    Steps are shortened to land exactly on every requested output time, so
    snapshot times are hit without interpolation and reruns are bit
    reproducible.  Per-step clamped mass above 1e-6 * cap counts as a
    warning; the total clamped mass is reported on the run.
    """
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    tables = _tables(grid, kernel)
    rho = cell_averages(profile, grid)
    requested = [] if output_times is None else output_times
    outputs = sorted({float(t) for t in requested if 0.0 < t <= t_end})
    if not outputs or outputs[-1] < t_end:
        outputs.append(t_end)
    states = [FVState(0.0, rho, mobility.cap)]
    clamped = 0.0
    warnings = 0
    steps = 0
    t = 0.0
    for t_next in outputs:
        while t < t_next:
            fields = compute_fields(rho, tables)
            remaining = t_next - t
            dt = cfl_dt(grid, fields, mobility, cfl, cap_dt=remaining)
            stepped, step_clamp = gd_step(grid, FVState(t, rho, mobility.cap), kernel, mobility, dt, fields)
            rho = stepped.values
            clamped += step_clamp
            if step_clamp > 1e-6 * mobility.cap:
                warnings += 1
            steps += 1
            t = t_next if dt >= remaining else t + dt
        states.append(FVState(t_next, rho, mobility.cap))
    masses = np.asarray([float(np.sum(s.values) * grid.dx) for s in states])
    return GodunovRun(
        grid=grid,
        states=tuple(states),
        clamped_mass=clamped,
        steps=steps,
        clamp_warnings=warnings,
        masses=masses,
    )
