"""Deterministic follow-the-leader particle scheme for nonlocal transport.

N+1 ordered particles carry mass m/N per inter-particle cell.  Each particle
moves with the congested nonlocal velocity of the cell ahead of it in the
direction of motion: attraction from the right is damped by the density of
the cell to the right, attraction from the left by the cell to the left.
The discrete density R_i = (m/N) / (x_{i+1} - x_i) then obeys a maximum
principle R_i <= cap, equivalently a gap floor m / (cap * N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import RK45

from .errors import InvariantViolation
from .model import Kernel, Mobility
from .profiles import AtomicMeasure, DensityProfile


@dataclass(frozen=True)
class ParticleState:
    """Ordered particle positions at one instant.

    ``particle_mass`` is m/N, the mass of each inter-particle cell;
    ``cap`` is the maximal density of the mobility law, carried along so
    reconstructions and gap-floor checks need no extra context.
    """

    time: float
    positions: np.ndarray
    particle_mass: float
    cap: float

    def __post_init__(self) -> None:
        x = np.asarray(self.positions, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("need at least two particles")
        if not np.all(np.isfinite(x)):
            raise ValueError("positions must be finite")
        if not np.all(np.diff(x) > 0.0):
            raise ValueError("positions must be strictly increasing")
        if not self.particle_mass > 0.0:
            raise ValueError("particle_mass must be positive")
        if not self.cap > 0.0:
            raise ValueError("cap must be positive")
        object.__setattr__(self, "positions", x)

    @property
    def n_cells(self) -> int:
        return self.positions.size - 1

    @property
    def total_mass(self) -> float:
        return self.particle_mass * self.n_cells

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.positions)

    @property
    def min_gap(self) -> float:
        return float(np.min(self.gaps))

    @property
    def gap_floor(self) -> float:
        """Analytic lower bound on every gap: particle_mass / cap."""
        return self.particle_mass / self.cap


def init_particles(profile: DensityProfile, n_cells: int, mobility: Mobility) -> ParticleState:
    """Quantile initialisation: N+1 particles splitting the mass into N equal cells.

    The outermost particles sit on the support endpoints; interior particle i
    sits at the rightmost point with cumulative mass i*m/N, so each cell
    carries exactly m/N and cells straddle interior vacuum gaps.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    m = profile.mass
    if not m > 0.0:
        raise ValueError("initial profile must carry positive mass")
    left, right = profile.support()
    pm = m / n_cells
    x = np.empty(n_cells + 1)
    x[0] = left
    x[-1] = right
    for i in range(1, n_cells):
        x[i] = profile.quantile(i * pm)
    return ParticleState(time=0.0, positions=x, particle_mass=pm, cap=mobility.cap)


def jam_state(center: float, mass: float, mobility: Mobility, n_cells: int) -> ParticleState:
    """Equispaced configuration with every gap at the floor m/(cap*N).

    Every cell density equals the cap, so the mobility vanishes and the
    configuration is stationary; it is the discrete analogue of the jam
    profile of density ``cap`` and length mass/cap.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    pm = mass / n_cells
    gap = pm / mobility.cap
    idx = np.arange(n_cells + 1, dtype=float) - 0.5 * n_cells
    return ParticleState(time=0.0, positions=center + idx * gap, particle_mass=pm, cap=mobility.cap)


_TILE = 64  # rows per strip of the pair sums: memory is O(_TILE * N)


def _velocities(x: np.ndarray, pm: float, kernel: Kernel, mobility: Mobility) -> np.ndarray:
    """Right-hand side on a raw position array.

    dx_i/dt = -v(R_i) * pm * sum_{j>i} K'(x_i - x_j)
              -v(R_{i-1}) * pm * sum_{j<i} K'(x_i - x_j)
    with R_i = pm / gap_i.  The first/last particle only sees the single
    defined neighbour cell.  Gaps <= 0 (transient trial states of the
    adaptive integrator) are treated as jammed: their mobility factor is 0,
    the continuous extension of v(pm/gap) as gap -> 0+.

    The pair sums walk row strips of ``_TILE`` particles.  A strip evaluates
    K'(x_i - x_j) once on its block of pairs j > i (the mirrored pairs inside
    the strip's diagonal tile are evaluated too and masked to zero), adds
    the block's row sums to the sums over j > i, and subtracts its column
    sums from the sums over j < i: K' is odd, exactly so in floating point,
    so K'(x_j - x_i) = -K'(x_i - x_j) bit for bit.  Strips are accumulated
    in a fixed order with plain numpy reductions, no threads and no BLAS, so
    results do not depend on thread count; no temporary exceeds
    ``_TILE * (N+1)`` entries.
    """
    gaps = np.diff(x)
    with np.errstate(divide="ignore"):
        dens = np.where(gaps > 0.0, pm / np.where(gaps > 0.0, gaps, 1.0), np.inf)
    speed = mobility(dens)  # v(R_i), zero where jammed or inverted
    n = x.size
    s_above = np.zeros(n)  # sum over j > i
    s_below = np.zeros(n)  # sum over j < i
    mirrored = np.tri(_TILE, _TILE - 1, -1, dtype=bool)  # column j = lo+1+c is at or left of row i = lo+r
    for lo in range(0, n - 1, _TILE):
        hi = min(lo + _TILE, n)
        kp = kernel.d1(x[lo:hi, None] - x[None, lo + 1 :])
        rows = hi - lo
        kp[:, : rows - 1][mirrored[:rows, : rows - 1]] = 0.0
        s_above[lo:hi] = np.sum(kp, axis=1)
        s_below[lo + 1 :] -= np.sum(kp, axis=0)
    v_fwd = np.append(speed, 0.0)  # v(R_i); padding hits an empty sum
    v_bwd = np.concatenate(([0.0], speed))  # v(R_{i-1})
    return -pm * (v_fwd * s_above + v_bwd * s_below)


def rhs(state: ParticleState, kernel: Kernel, mobility: Mobility) -> np.ndarray:
    """Particle velocities for an admissible state."""
    if abs(mobility.cap - state.cap) > 0.0:
        raise ValueError("state and mobility disagree on the density cap")
    return _velocities(state.positions, state.particle_mass, kernel, mobility)


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of an integrated particle run plus running diagnostics.

    ``min_gap_seen`` is the minimum gap over every accepted integrator step,
    not just the stored snapshots; ``masses`` holds the per-snapshot mass of
    the forward reconstruction.
    """

    states: tuple[ParticleState, ...]
    min_gap_seen: float
    settled: bool = False
    masses: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        times = [s.time for s in self.states]
        if len(times) < 1 or not np.all(np.diff(times) > 0.0):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        return np.asarray([s.time for s in self.states])

    @property
    def final(self) -> ParticleState:
        return self.states[-1]

    def profiles(self, mode: str = "forward") -> list[DensityProfile]:
        return [reconstruct_density(s, mode) for s in self.states]


def _finish_trajectory(states: list[ParticleState], min_gap_seen: float, settled: bool) -> Trajectory:
    masses = np.asarray([reconstruct_density(s, "forward").mass for s in states])
    return Trajectory(states=tuple(states), min_gap_seen=min_gap_seen, settled=settled, masses=masses)


def integrate(
    state: ParticleState,
    kernel: Kernel,
    mobility: Mobility,
    t_end: float,
    output_times=None,
    rtol: float = 1e-8,
    settle_tol: float | None = None,
) -> Trajectory:
    """Advance the particle system with an adaptive embedded RK 4(5) pair.

    After every accepted step the ordering/gap-floor invariant is asserted
    with slack eps_gap = 10 * rtol * (initial support length); a violation
    beyond that slack raises :class:`InvariantViolation` since the analytic
    maximum principle forbids it.  Snapshots at ``output_times`` come from
    the integrator's dense output.  If ``settle_tol`` is given the run stops
    once max|dx/dt| drops below it and the final state is appended.
    """
    if not t_end > state.time:
        raise ValueError("t_end must exceed the state time")
    x0 = state.positions
    pm = state.particle_mass
    support0 = float(x0[-1] - x0[0])
    eps_gap = 10.0 * rtol * support0
    floor = state.gap_floor

    if output_times is None:
        output_times = [t_end]
    outputs = sorted({float(t) for t in output_times if state.time < t <= t_end})
    if not outputs or outputs[-1] < t_end:
        outputs.append(t_end)

    def fun(t, y):
        return _velocities(y, pm, kernel, mobility)

    solver = RK45(fun, state.time, x0, t_bound=t_end, rtol=rtol, atol=1e-10 * support0)

    def check(y: np.ndarray, t: float) -> float:
        gaps = np.diff(y)
        mg = float(np.min(gaps))
        if mg < floor - eps_gap:
            i = int(np.argmin(gaps))
            raise InvariantViolation(
                f"gap {mg:.3e} below floor {floor:.3e} - {eps_gap:.1e} at t={t:.6g} between particles {i} and {i + 1}"
            )
        return mg

    states = [state]
    min_gap_seen = check(x0, state.time)
    next_out = 0
    settled = False
    while solver.status == "running":
        msg = solver.step()
        if solver.status == "failed":
            raise InvariantViolation(f"integrator failed at t={solver.t:.6g}: {msg}")
        mg = check(solver.y, solver.t)
        min_gap_seen = min(min_gap_seen, mg)
        dense = None
        while next_out < len(outputs) and outputs[next_out] <= solver.t + 1e-14 * max(1.0, abs(solver.t)):
            t_out = min(outputs[next_out], solver.t)
            if dense is None:
                dense = solver.dense_output()
            y_out = dense(t_out) if t_out < solver.t else solver.y
            min_gap_seen = min(min_gap_seen, check(y_out, t_out))
            states.append(ParticleState(t_out, y_out, pm, state.cap))
            next_out += 1
        if settle_tol is not None and float(np.max(np.abs(solver.f))) < settle_tol:
            settled = True
            if states[-1].time < solver.t:
                states.append(ParticleState(solver.t, solver.y, pm, state.cap))
            break
    return _finish_trajectory(states, min_gap_seen, settled)


def reconstruct_density(state: ParticleState, mode: str = "forward") -> DensityProfile:
    """Piecewise-constant density carried by the particle configuration.

    forward: value pm/gap_i on [x_i, x_{i+1}); total mass is exactly m.
    centered: plotting-oriented variant on cells bounded by the particle
    midpoints; the value at interior particle i averages its two cells,
    2*pm / (x_{i+1} - x_{i-1}), and the two boundary particles are zeroed.
    """
    x = state.positions
    pm = state.particle_mass
    if mode == "forward":
        return DensityProfile(x, pm / np.diff(x))
    if mode == "centered":
        mids = 0.5 * (x[:-1] + x[1:])
        bp = np.concatenate(([x[0]], mids, [x[-1]]))
        vals = np.zeros(x.size)
        vals[1:-1] = 2.0 * pm / (x[2:] - x[:-2])
        return DensityProfile(bp, vals)
    raise ValueError(f"unknown reconstruction mode: {mode!r}")


def empirical_measure(state: ParticleState) -> AtomicMeasure:
    """Atoms of weight pm at every particle except the rightmost.

    Pairing the atom at x_i with the forward cell [x_i, x_{i+1}) keeps both
    measures at total mass m and yields the sharp transport bound
    d1 <= m * (support length) / (2N).
    """
    return AtomicMeasure(state.positions[:-1], np.full(state.n_cells, state.particle_mass))
