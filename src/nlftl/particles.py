"""Deterministic follow-the-leader particle scheme for nonlocal transport.

N+1 ordered particles carry mass m/N per inter-particle cell.  Each particle
moves with the congested nonlocal velocity of the cell ahead of it in the
direction of motion: attraction from the right is damped by the density of
the cell to the right, attraction from the left by the cell to the left.
The discrete density R_i = (m/N) / (x_{i+1} - x_i) then obeys a maximum
principle R_i <= cap, equivalently a gap floor m / (cap * N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import gauss_sums
from .errors import InvariantViolation
from .model import Kernel, Mobility
from .profiles import AtomicMeasure, DensityProfile, snapshot_schedule


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
    from . import stiff  # noqa: F401  the run's integrator loads with its initial state (see integrate)
    left, right = profile.support()
    pm = m / n_cells
    x = np.empty(n_cells + 1)
    x[0] = left
    x[-1] = right
    x[1:-1] = profile.quantile(np.arange(1, n_cells) * pm)
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


def _densities(gaps: np.ndarray, pm: float) -> np.ndarray:
    """R_i = pm / gap_i, and +inf where a gap is not positive.

    Gaps <= 0 (transient trial states of the implicit integrator) thus count
    as jammed: v and v' vanish there, the continuous extension of v(pm/gap)
    as gap -> 0+.
    """
    return np.divide(pm, gaps, out=np.full(gaps.shape, np.inf), where=gaps > 0.0)


def _velocities(x: np.ndarray, pm: float, kernel: Kernel, mobility: Mobility) -> np.ndarray:
    """Right-hand side on a raw position array.

    dx_i/dt = -v(R_i) * pm * sum_{j>i} K'(x_i - x_j)
              -v(R_{i-1}) * pm * sum_{j<i} K'(x_i - x_j)
    with R_i = pm / gap_i.  The first/last particle only sees the single
    defined neighbour cell.
    """
    speed = mobility.value_unchecked(_densities(x[1:] - x[:-1], pm))  # v(R_i); every R_i is > 0 or +inf
    fwd, bwd = gauss_sums.pair_sums(x, kernel)
    fwd[:-1] *= speed
    fwd[-1] *= 0.0  # no cell ahead of the last particle: its sum is empty
    bwd[1:] *= speed
    bwd[0] *= 0.0
    fwd += bwd
    fwd *= -pm
    return fwd


def _direct_velocities(x: np.ndarray, rows: np.ndarray, pm: float, kernel: Kernel, mobility: Mobility):
    """dx_i/dt at particles ``rows`` by direct O(N) sums, and how far :func:`_velocities` can lie from each.

    Each one-sided sum lies within :func:`nlftl.gauss_sums.pair_sum_error` of the exact
    sum, and these direct sums round less: the bound is pm (v(R_i) + v(R_{i-1})) times twice that.
    """
    n = x.size - 1
    kp = kernel.d1(x[rows, None] - x)
    above = np.array([kp[r, i + 1 :].sum() for r, i in enumerate(rows.tolist())])
    below = np.array([kp[r, :i].sum() for r, i in enumerate(rows.tolist())])
    speed = np.zeros(n + 2)  # v(R_{i-1}) at i, v(R_i) at i + 1; zero beyond the end cells
    speed[1:-1] = mobility.value_unchecked(_densities(x[1:] - x[:-1], pm))
    behind, ahead = speed[rows], speed[rows + 1]
    velocity = -pm * (ahead * above + behind * below)
    return velocity, 2.0 * pm * (ahead + behind) * gauss_sums.pair_sum_error(x, kernel)


def _jacobian(x: np.ndarray, pm: float, kernel: Kernel, mobility: Mobility):
    """Tridiagonal part of the Jacobian of :func:`_velocities`: its (lower, main, upper) diagonals.

    It differentiates the mobility factors v(pm/gap) and holds the one-sided
    pair sums fixed.  That part carries the stiffness, which grows as gaps
    approach the floor; the dropped part, the pair sums' derivative, is a
    dense K'' matrix bounded by pm * sup|K''| per entry, and a Newton matrix
    needs only the stiff part (Hairer & Wanner, Solving ODEs II).  With
    w_i = pm^2 v'(R_i) / gap_i^2 and (A_i, B_i) the sums above and below:
    J[i, i+1] = A_i w_i, J[i, i-1] = -B_i w_{i-1}, and J[i, i] makes each
    row sum to zero (the frozen-sum system sees only gaps).
    """
    gaps = np.diff(x)
    s_above, s_below = gauss_sums.pair_sums(x, kernel)
    safe = np.where(gaps > 0.0, gaps, 1.0)
    w = pm * pm * mobility.d1(_densities(gaps, pm)) / (safe * safe)  # v' is 0 where jammed or inverted
    upper = s_above[:-1] * w
    lower = -s_below[1:] * w
    main = -np.append(upper, 0.0) - np.concatenate(([0.0], lower))
    return lower, main, upper


def rhs(state: ParticleState, kernel: Kernel, mobility: Mobility) -> np.ndarray:
    """Particle velocities for an admissible state."""
    if abs(mobility.cap - state.cap) > 0.0:
        raise ValueError("state and mobility disagree on the density cap")
    return _velocities(state.positions, state.particle_mass, kernel, mobility)


@dataclass(frozen=True, kw_only=True)
class Trajectory:
    """Snapshots of an integrated particle run plus running diagnostics.

    ``min_gap_seen`` is the minimum gap over every accepted integrator step,
    not just the stored snapshots.  The integrator counters are deterministic:
    accepted ``steps`` and the smallest of them (``min_step``), right-hand
    side evaluations inside the integrator (``rhs_evals``), Jacobian
    evaluations and LU factorizations of its Newton matrix, and the full
    right-hand side evaluations of settle detection (``settle_checks``); with
    a ``settle_tol``, the other ``steps - settle_checks`` steps were screened
    out by a few direct velocities (see :func:`integrate`).
    ``pair_sum_terms`` is the order of the pair-sum expansion at the initial
    state, or 0 only where R is past ``gauss_sums.MAX_REACH`` and the sums
    run pair by pair; the support only shrinks, so later states need no more
    terms.
    """

    integrator: ClassVar[str] = "BDF"

    states: tuple[ParticleState, ...]
    min_gap_seen: float
    settled: bool
    steps: int
    min_step: float
    rhs_evals: int
    jac_evals: int
    lu_decompositions: int
    settle_checks: int
    pair_sum_terms: int

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

    @property
    def masses(self) -> np.ndarray:
        """The mass of every snapshot's forward reconstruction."""
        return np.asarray([reconstruct_density(s, "forward").mass for s in self.states])

    @property
    def min_gap_ratio(self) -> float:
        """min_gap_seen over the gap floor m/(cap N); >= 1 is the maximum principle."""
        return self.min_gap_seen / self.states[0].gap_floor

    def diagnostics(self) -> dict:
        """The run's deterministic diagnostics, as ``meta.json`` records them."""
        return {
            "integrator": self.integrator,
            "settled": self.settled,
            "steps": self.steps,
            "min_step": self.min_step,
            "rhs_evals": self.rhs_evals,
            "jac_evals": self.jac_evals,
            "lu_decompositions": self.lu_decompositions,
            "settle_checks": self.settle_checks,
            "pair_sum_terms": self.pair_sum_terms,
            "min_gap_seen": self.min_gap_seen,
            "min_gap_ratio": self.min_gap_ratio,
        }

    def profiles(self) -> list[DensityProfile]:
        """The forward reconstruction of every snapshot."""
        return [reconstruct_density(s) for s in self.states]


def integrate(
    state: ParticleState,
    kernel: Kernel,
    mobility: Mobility,
    t_end: float,
    output_times=None,
    settle_tol: float | None = None,
) -> Trajectory:
    """Advance the particle system with the variable-order BDF method of :mod:`nlftl.stiff`.

    The system is stiff: the mobility factors v(pm/gap) stiffen as gaps
    approach the floor.  The Newton matrix gets the tridiagonal Jacobian of
    :func:`_jacobian`, O(N) memory; the dense pair-sum part is never built.
    Every step error is measured in the solver's one length ``scale``,
    ``_RTOL`` times the initial support length, wherever the particles lie.
    After every accepted step the ordering/gap-floor invariant is asserted
    with slack eps_gap = 10 * ``scale``; a violation beyond that slack raises
    :class:`InvariantViolation` since the analytic maximum principle forbids
    it.  Snapshots at ``output_times`` come from the integrator's dense
    output.  If ``settle_tol`` (positive and finite)
    is given, the run stops after the first accepted step where
    max|dx/dt| < ``settle_tol`` and appends that state.  The full check is
    skipped where :func:`_direct_velocities` at both ends and at the last
    check's argmax prove it would not settle: a speed of at least
    2 * ``settle_tol`` that exceeds ``settle_tol`` by more than its error
    bound.  The screen never touches the solver, so the run settles at the
    same step either way.
    """
    # imported here and in init_particles rather than with the package: a
    # finite-volume run never needs it, and compiling it, where no bytecode is
    # cached, takes about 5 ms of every process that imports it
    from .stiff import BDF

    if not t_end > state.time:
        raise ValueError("t_end must exceed the state time")
    if settle_tol is not None and not (settle_tol > 0.0 and math.isfinite(settle_tol)):
        raise ValueError("settle_tol must be positive and finite")
    x0 = state.positions
    pm = state.particle_mass
    floor = state.gap_floor

    outputs = snapshot_schedule(state.time, t_end, output_times)

    def fun(t, y):
        return _velocities(y, pm, kernel, mobility)

    def jac(t, y):
        return _jacobian(y, pm, kernel, mobility)

    solver = BDF(fun, state.time, x0, t_end, jac)
    eps_gap = 10.0 * solver.scale

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
    steps = settle_checks = 0
    watched = np.array([0, state.n_cells, 0])  # both ends and the argmax of the last full settle check
    min_step = math.inf
    while solver.t < t_end:
        t_prev = solver.t
        solver.step()  # raises InvariantViolation once the step size underflows
        steps += 1
        min_step = min(min_step, float(solver.t - t_prev))
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
        if settle_tol is not None:
            velocity, bound = _direct_velocities(solver.y, watched, pm, kernel, mobility)
            speed = np.abs(velocity)
            if np.any((speed >= 2.0 * settle_tol) & (speed - settle_tol > bound)):
                continue  # so |dx/dt| >= settle_tol in the full check too: the run has not settled
            settle_checks += 1
            speed = np.abs(_velocities(solver.y, pm, kernel, mobility))
            watched[2] = np.argmax(speed)
            if float(np.max(speed)) < settle_tol:
                settled = True
                if states[-1].time < solver.t:
                    states.append(ParticleState(solver.t, solver.y, pm, state.cap))
                break
    return Trajectory(
        states=tuple(states),
        min_gap_seen=min_gap_seen,
        settled=settled,
        steps=steps,
        min_step=min_step,
        rhs_evals=solver.nfev,
        jac_evals=solver.njev,
        lu_decompositions=solver.nlu,
        settle_checks=settle_checks,
        pair_sum_terms=gauss_sums.pair_sum_order(x0, kernel),
    )


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
