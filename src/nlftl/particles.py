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


_TILE = 64  # most rows per strip of the pair sums
# Crossover and term cap of the Gauss-Taylor pair sums, measured on a 2-vCPU
# Xeon VM (medians of 3 x 30 calls on equispaced particles): with 32 terms the
# expansion takes 0.87 of the strips' time at N = 224 and 1.12 at N = 192;
# with 19 terms (every builtin) 0.58 at N = 224; with 40 terms 1.06 at N = 224.
_EXPANSION_MIN_N = 224  # cells
_EXPANSION_MAX_TERMS = 32


def _densities(gaps: np.ndarray, pm: float) -> np.ndarray:
    """R_i = pm / gap_i, and +inf where a gap is not positive.

    Gaps <= 0 (transient trial states of the implicit integrator) thus count
    as jammed: v and v' vanish there, the continuous extension of v(pm/gap)
    as gap -> 0+.
    """
    return np.divide(pm, gaps, out=np.full(gaps.shape, np.inf), where=gaps > 0.0)


def _expansion(x: np.ndarray, kernel: Kernel) -> tuple[int, float]:
    """Order p and centre c of the Gauss-Taylor expansion :func:`_pair_sums` uses on ``x``; p = 0 for the strips.

    p is the smallest order whose first omitted term R^p / p! is at most
    2^-56, with R = 2B h^2 and h the half-span of the particles, and c is
    the middle of the span.  The strips run below the crossover of
    ``_EXPANSION_MIN_N`` cells and when p exceeds ``_EXPANSION_MAX_TERMS``
    (narrow kernels or wide spans).
    """
    if x.size - 1 < _EXPANSION_MIN_N:
        return 0, 0.0
    lo, hi = float(x.min()), float(x.max())  # trial states of the integrator may be out of order
    half = 0.5 * (hi - lo)
    return gauss_sums.terms(2.0 * kernel.inv_width * half * half, _EXPANSION_MAX_TERMS), 0.5 * (lo + hi)


def _pair_sum_terms(x: np.ndarray, kernel: Kernel) -> int:
    """Order p of the expansion :func:`_pair_sums` uses on ``x``, 0 for the strips (see :func:`_expansion`)."""
    return _expansion(x, kernel)[0]


def _tiled_pair_sums(x: np.ndarray, kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """The one-sided sums of :func:`_pair_sums`, pair by pair in row strips.

    The sums walk row strips of ``max(8, min(_TILE, gauss_sums.BLOCK // (N+1)))``
    particles, so no temporary exceeds ``gauss_sums.BLOCK`` entries up to
    N+1 = 4096, nor 8*(N+1) beyond.  A strip evaluates K'(x_i - x_j)
    once on its block of pairs j > i (the mirrored pairs inside the strip's
    diagonal tile are evaluated too and masked to zero), adds the block's row
    sums to the sums over j > i, and subtracts its column sums from the sums
    over j < i: K' is odd, exactly so in floating point, so
    K'(x_j - x_i) = -K'(x_i - x_j) bit for bit.
    """
    n = x.size
    tile = max(8, min(_TILE, gauss_sums.BLOCK // n))
    s_above = np.zeros(n)
    s_below = np.zeros(n)
    mirrored = np.tri(tile, tile - 1, -1, dtype=bool)  # column j = lo+1+c is at or left of row i = lo+r
    for lo in range(0, n - 1, tile):
        hi = min(lo + tile, n)
        kp = kernel.d1(x[lo:hi, None] - x[None, lo + 1 :])
        rows = hi - lo
        kp[:, : rows - 1][mirrored[:rows, : rows - 1]] = 0.0
        s_above[lo:hi] = np.sum(kp, axis=1)
        s_below[lo + 1 :] -= np.sum(kp, axis=0)
    return s_above, s_below


def _expanded_pair_sums(x: np.ndarray, kernel: Kernel, p: int, centre: float) -> tuple[np.ndarray, np.ndarray]:
    """The one-sided sums of :func:`_pair_sums` by a p-term expansion about ``centre``.

    With u = x - c and e_j, a_n as in :mod:`nlftl.gauss_sums`, let P_n(i) be
    the sum over j < i of the source weight e_j a_n(u_j); by the twin
    identity its u_j-weighted twin is sqrt((n+1)/(2B)) P_{n+1}(i), so
    sum_{j<i} K'(u_i - u_j) = 2AB e_i sum_{n<p} a_n(u_i) (u_i P_n(i) - sqrt((n+1)/(2B)) P_{n+1}(i)).
    The sums over j > i are the same sums on the reversed particles; both
    orders go through together.  Particles go in blocks of
    ``gauss_sums.BLOCK // (2 (p+1))``, all p+1 weights at once, in the work
    arrays :func:`nlftl.gauss_sums.work_arrays` holds across calls; a block's
    exclusive prefix sums start from the running totals of the blocks before
    it, so no running sum is longer than one block.  When one block holds
    every particle, the basis and weights of the reversed particles are
    those of the particles reversed, bit for bit, and are copied, not
    computed.
    """
    n = x.size
    block = min(n, max(1, gauss_sums.BLOCK // (2 * (p + 1))))
    step, twin = gauss_sums.factors(p, kernel.inv_width)
    step, twin = step[:, None, None], twin[:, None, None]
    u = np.empty((2, n))  # row 0 gives the sums over j < i, row 1 over j > i, reversed
    np.subtract(x, centre, out=u[0])
    u[1] = u[0, ::-1]
    e = kernel.gauss(u)
    total = np.zeros((p + 1, 2, 1))
    out = np.empty((2, n))
    a_buf, w_buf, pre_buf = gauss_sums.work_arrays((p + 1, 2, block))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        ub = u[:, lo:hi]
        a, w, pre = a_buf[..., : hi - lo], w_buf[..., : hi - lo], pre_buf[..., : hi - lo]
        if block == n:  # row 1 is row 0 reversed, bit for bit
            gauss_sums.basis(step[:, 0], u[0], a[:, 0])
            np.multiply(a[:, 0], e[0], out=w[:, 0])
            a[:, 1] = a[:, 0, ::-1]
            w[:, 1] = w[:, 0, ::-1]
        else:
            gauss_sums.basis(step, ub, a)
            np.multiply(a, e[:, lo:hi], out=w)
        pre[..., :1] = total  # pre[n, :, i] = P_n(lo + i): the running totals plus this block's sums
        np.cumsum(w[..., :-1], axis=2, out=pre[..., 1:])
        pre[..., 1:] += total
        total = pre[..., -1:] + w[..., -1:]
        direct = np.multiply(a[:p], pre[:p], out=w[:p])
        shifted = np.multiply(twin, a[:p], out=a[:p])
        shifted *= pre[1:]
        out[:, lo:hi] = ub * np.add.reduce(direct, axis=0) - np.add.reduce(shifted, axis=0)
    out *= e
    out *= 2.0 * kernel.amplitude * kernel.inv_width
    return out[1, ::-1], out[0]


def _pair_sums(x: np.ndarray, kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """One-sided kernel sums (sum_{j>i} K'(x_i - x_j), sum_{j<i} K'(x_i - x_j)).

    Above the crossover, and while the expansion needs at most the term cap
    (see :func:`_expansion`), the sums come from a p-term Taylor
    expansion of the Gaussian about the middle of the span, O(N p) work and
    O(N) memory; otherwise from the row strips of :func:`_tiled_pair_sums`,
    O(N^2).  Since e_i e_j <= 1 and (2B |u_i u_j|)^n / n! <= R^n / n!, the
    omitted terms change each pair's weight exp(-B (x_i - x_j)^2) by about
    2^-56 at most, and since e_i e_j exp(2B |u_i u_j|) <= 1 the rounding
    stays near eps * sum |K'| whatever R is; only p grows with R.  Both
    paths use plain numpy reductions in a fixed order, no threads and no
    BLAS, so results repeat bitwise.  The two arrays are fresh on every
    call, so callers may scale them in place.
    """
    p, centre = _expansion(x, kernel)
    if p == 0:
        return _tiled_pair_sums(x, kernel)
    return _expanded_pair_sums(x, kernel, p, centre)


def _velocities(x: np.ndarray, pm: float, kernel: Kernel, mobility: Mobility) -> np.ndarray:
    """Right-hand side on a raw position array.

    dx_i/dt = -v(R_i) * pm * sum_{j>i} K'(x_i - x_j)
              -v(R_{i-1}) * pm * sum_{j<i} K'(x_i - x_j)
    with R_i = pm / gap_i.  The first/last particle only sees the single
    defined neighbour cell.
    """
    speed = mobility.value_unchecked(_densities(x[1:] - x[:-1], pm))  # v(R_i); every R_i is > 0 or +inf
    fwd, bwd = _pair_sums(x, kernel)
    fwd[:-1] *= speed
    fwd[-1] *= 0.0  # no cell ahead of the last particle: its sum is empty
    bwd[1:] *= speed
    bwd[0] *= 0.0
    fwd += bwd
    fwd *= -pm
    return fwd


def _direct_velocities(x: np.ndarray, rows: np.ndarray, pm: float, kernel: Kernel, mobility: Mobility):
    """dx_i/dt at particles ``rows`` by direct O(N) sums, and how far :func:`_velocities` can lie from each.

    Each one-sided sum of :func:`_pair_sums` has at most N terms of modulus
    at most 2AB * span (in the expansion too, as e_i e_j exp(2B |u_i u_j|)
    <= 1), and at most 2 (N + p + 16) roundings of eps / 2 lie on the way to
    any term (running sums over N terms in blocks, p basis products, a few
    more), so it lies within 2AB * span * N * (N + p + 16) eps of the exact
    sum; the omitted tail adds under eps / 8 per pair, and these direct sums
    round less.  The bound at particle i is pm (v(R_i) + v(R_{i-1})) times
    twice that, with p at its cap.
    """
    n = x.size - 1
    kp = kernel.d1(x[rows, None] - x)
    above = np.array([kp[r, i + 1 :].sum() for r, i in enumerate(rows.tolist())])
    below = np.array([kp[r, :i].sum() for r, i in enumerate(rows.tolist())])
    speed = np.zeros(n + 2)  # v(R_{i-1}) at i, v(R_i) at i + 1; zero beyond the end cells
    speed[1:-1] = mobility.value_unchecked(_densities(x[1:] - x[:-1], pm))
    behind, ahead = speed[rows], speed[rows + 1]
    velocity = -pm * (ahead * above + behind * below)
    span = float(x.max() - x.min())
    sums = 2.0 * kernel.amplitude * kernel.inv_width * span * n * (n + _EXPANSION_MAX_TERMS + 16) * np.finfo(float).eps
    return velocity, 2.0 * pm * (ahead + behind) * sums


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
    s_above, s_below = _pair_sums(x, kernel)
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
    state, or 0 where the sums run pair by pair; the support only shrinks,
    so later states need no more terms.
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
    The steps keep the relative tolerance ``_RTOL`` and an absolute one of
    1e-10 times the initial support length.  After every accepted step the
    ordering/gap-floor invariant is asserted
    with slack eps_gap = 10 * _RTOL * (initial support length); a violation
    beyond that slack raises :class:`InvariantViolation` since the analytic
    maximum principle forbids it.  Snapshots at ``output_times`` come from
    the integrator's dense output.  If ``settle_tol`` (positive and finite)
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
    from .stiff import _RTOL, BDF

    if not t_end > state.time:
        raise ValueError("t_end must exceed the state time")
    if settle_tol is not None and not (settle_tol > 0.0 and math.isfinite(settle_tol)):
        raise ValueError("settle_tol must be positive and finite")
    x0 = state.positions
    pm = state.particle_mass
    support0 = float(x0[-1] - x0[0])
    eps_gap = 10.0 * _RTOL * support0
    floor = state.gap_floor

    outputs = snapshot_schedule(state.time, t_end, output_times)

    def fun(t, y):
        return _velocities(y, pm, kernel, mobility)

    def jac(t, y):
        return _jacobian(y, pm, kernel, mobility)

    solver = BDF(fun, state.time, x0, t_end, jac)

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
        pair_sum_terms=_pair_sum_terms(x0, kernel),
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
