"""The BDF stepper of ``nlftl.stiff``: its tridiagonal Newton solve against a
dense solve and against doubling scans over stored levels, and whole particle
runs against scipy's ``BDF``, which ``particles.integrate`` ran before the
stepper replaced it."""

import json
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import BDF as ScipyBDF
from scipy.sparse import diags_array

import nlftl as nl
from nlftl import stiff
from nlftl.errors import InvariantViolation
from nlftl.particles import _jacobian, _velocities
from nlftl.stiff import _RTOL, BDF, TridiagonalLU


def particle_like_jacobian(rng, n):
    """Diagonals of a J shaped like the particle Jacobian: off-diagonals in
    [0, 1), some of them zero as at a jammed cell, and rows summing to zero.

    At c = 1e3, c|J| reaches 2e3, a hundred times the most the settle run
    reaches (16); the condition number of I - cJ, and with it the error of
    the dense reference, grows with c|J|.
    """
    lower, upper = rng.random(n - 1), rng.random(n - 1)
    lower[rng.random(n - 1) < 0.1] = 0.0
    upper[rng.random(n - 1) < 0.1] = 0.0
    main = -np.append(upper, 0.0) - np.concatenate(([0.0], lower))
    return lower, main, upper


def newton_matrix(c, lower, main, upper):
    """I - cJ as a dense matrix."""
    return np.eye(main.size) - c * (np.diag(main) + np.diag(lower, -1) + np.diag(upper, 1))


@pytest.mark.parametrize("n", (1, 2, 3, 64, 65, 301, 2401))
def test_tridiagonal_solve_matches_a_dense_solve(n):
    rng = np.random.default_rng(n)
    diagonals = particle_like_jacobian(rng, n)
    b = rng.standard_normal(n)
    for c in np.logspace(-3.0, 3.0, 7):
        lu = TridiagonalLU(c, *diagonals)
        assert np.all(lu.pivots >= 1.0)  # I - cJ is a diagonally dominant M-matrix
        got = lu.solve(b)
        want = np.linalg.solve(newton_matrix(c, *diagonals), b)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), f"c = {c:g}"
        again = TridiagonalLU(c, *diagonals).solve(b)
        assert np.array_equal(got.view(np.uint64), again.view(np.uint64))
        assert np.array_equal(lu.solve(b).view(np.uint64), got.view(np.uint64))  # the factors are reused


def doubling_levels(coef):
    """(shift s, multipliers) of every pass of a doubling scan of
    x_i += coef x_{i-+1}, all formed at once: about n log2(n) entries."""
    levels = []
    s = 1
    while coef.size:
        levels.append((s, coef))
        coef = coef[s:] * coef[:-s]
        s *= 2
    return levels


def stored_levels_solve(c, lower, upper, pivots, b):
    """x with (I - cJ) x = b by the doubling scans of ``TridiagonalLU``, given
    its pivots, with every pass's multipliers formed and held up front, as
    ``TridiagonalLU`` held them when it kept them per factorization."""
    l, u = -c * lower, -c * upper
    x = b.copy()
    for s, m in doubling_levels(-l / pivots[:-1]):
        x[s:] += m * x[:-s]
    x /= pivots
    for s, m in doubling_levels(-u / pivots[:-1]):
        x[:-s] += m * x[s:]
    return x


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 63, 64, 65, 301, 2401, 10001))
def test_tridiagonal_solve_equals_the_stored_levels_solve_bitwise(n):
    # the solve overwrites its multiplier rows, so a row read before it is
    # formed anew shows from the second solve of a factorization on: three each
    rng = np.random.default_rng(n)
    lower, main, upper = particle_like_jacobian(rng, n)
    for c in np.logspace(-3.0, 3.0, 7):
        lu = TridiagonalLU(c, lower, main, upper)
        for b in rng.standard_normal((3, n)):
            want = stored_levels_solve(c, lower, upper, lu.pivots, b)
            assert np.array_equal(lu.solve(b).view(np.uint64), want.view(np.uint64)), f"c = {c:g}"


def test_tridiagonal_factors_hold_and_peak_at_a_few_doubles_per_row():
    # the stored levels held about 35n doubles at this n and peaked at 46n
    n = 200_000
    lower, main, upper = particle_like_jacobian(np.random.default_rng(0), n)
    b = np.ones(n)
    tracemalloc.start()
    try:
        lu = TridiagonalLU(1.0, lower, main, upper)
        held = tracemalloc.get_traced_memory()[0]
        x = lu.solve(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.size == n
    assert held <= 8 * n * 8, f"{held / 8 / n:.1f} n doubles held"
    assert peak <= 12 * n * 8, f"{peak / 8 / n:.1f} n doubles at the peak"


def test_tridiagonal_solve_leaves_its_input_and_earlier_results_alone():
    rng = np.random.default_rng(3)
    lu = TridiagonalLU(0.5, *particle_like_jacobian(rng, 40))
    b = rng.standard_normal(40)
    b_copy = b.copy()
    first = lu.solve(b)
    kept = first.copy()
    lu.solve(rng.standard_normal(40))
    assert np.array_equal(b, b_copy) and np.array_equal(first, kept)


@pytest.mark.parametrize(
    "c, lower, main, upper",
    [
        (1.0, [], [2.0], []),  # 1 - c J = -1 on the first and only row
        (1.0, [3.0], [0.0, 0.0], [3.0]),  # [[1, -3], [-3, 1]]: second pivot 1 - 9
        (0.5, [1.0, 1.0], [4.0, -2.0, -1.0], [1.0, 1.0]),  # first pivot -1, later rows fine
    ],
    ids=["one-row", "second-pivot", "first-of-three"],
)
def test_non_dominant_newton_matrix_fails_its_pivot_check(c, lower, main, upper):
    with pytest.raises(InvariantViolation, match="pivot"):
        TridiagonalLU(c, *(np.asarray(d, dtype=float) for d in (lower, main, upper)))


@pytest.mark.parametrize(
    "x, want",
    [
        ([1e200] * 3, 1e200),  # each square overflows, the norm does not
        ([3e300, -4e300], 5e300 / np.sqrt(2.0)),
        ([np.finfo(float).max] * 2, np.finfo(float).max),
        ([1e200, np.inf], np.inf),
        ([1e200, np.nan], np.nan),
        ([3.0, -4.0], np.sqrt(12.5)),
        ([1e154, 1e-300], np.sqrt(1e308 / 2.0)),
    ],
    ids=["1e200", "3e300-4e300", "max", "inf", "nan", "in-range", "edge"],
)
def test_rms_rescales_squares_past_the_float_range(x, want):
    # a plain sum of squares, bitwise, wherever it stays finite; rescaled by
    # max|x| where it overflows, so a finite vector has a finite norm
    got = stiff._rms(np.array(x))
    if np.isnan(want):
        assert np.isnan(got)
    elif abs(want) < 1e300 or np.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=4 * np.finfo(float).eps)


def single_step_bdf(n_cells, t_end):
    """``BDF`` on the single-step particle system, as ``particles.integrate`` builds it."""
    cfg = nl.builtin_scenario("single-step")
    kernel, mobility = nl.build_kernel(cfg), nl.build_mobility(cfg)
    state = nl.init_particles(nl.build_profile(cfg), n_cells, mobility)
    pm = state.particle_mass
    return BDF(
        lambda t, y: _velocities(y, pm, kernel, mobility),
        state.time,
        state.positions,
        t_end,
        lambda t, y: _jacobian(y, pm, kernel, mobility),
    )


def test_order_stays_an_int_that_json_writes():
    # np.argmax made it an np.int64 at the first order change
    solver = single_step_bdf(300, 40.0)
    while solver.order == 1:
        solver.step()
    assert type(solver.order) is int
    assert json.loads(json.dumps({"order": solver.order})) == {"order": solver.order}


def test_bdf_frees_the_old_factors_before_it_factors(monkeypatch):
    # else two factorizations are alive at once, and the memory of the
    # Newton solve doubles
    made, alive = [], []

    class Watched(TridiagonalLU):
        def __init__(self, *args):
            alive.append(sum(ref() is not None for ref in made))
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(stiff, "TridiagonalLU", Watched)
    solver = single_step_bdf(300, 40.0)
    while solver.t < solver.t_bound:
        solver.step()
    assert len(made) == solver.nlu > 1
    assert alive == [0] * solver.nlu


def test_step_raises_once_its_size_underflows():
    # y' = -y at t = 0 and NaN after it: no Newton iteration past t = 0
    # converges, so the step halves until it falls below the spacing of t
    def fun(t, y):
        return -y if t == 0.0 else np.full_like(y, np.nan)

    def jac(t, y):
        return np.zeros(4), -np.ones(5), np.zeros(4)

    solver = BDF(fun, 0.0, np.arange(1.0, 6.0), 1.0, jac)
    with pytest.raises(InvariantViolation, match=r"^integrator failed at t=0: Required step size is less than"):
        solver.step()
    assert solver.t == 0.0
    assert solver.nfev > 1000  # one right-hand side per halving, down to 10 times the spacing at 0


def test_difference_rows_past_the_first_start_at_zero():
    # the first step's D[2] = d - D[1] reads row 2 before any step writes it,
    # so every row past row 1 starts at 0, as in scipy's BDF
    y0 = np.arange(1.0, 6.0)

    def jac(t, y):
        return np.zeros(4), -np.ones(5), np.zeros(4)

    for _ in range(20):  # fill the heap with non-zero garbage of the right size first
        garbage = np.full((8, y0.size), np.nan)
        del garbage
        solver = BDF(lambda t, y: -y, 0.0, y0, 1.0, jac)
        assert np.array_equal(solver.D[0], y0)
        assert np.all(solver.D[2:] == 0.0)


def scipy_integrate(state, kernel, mobility, t_end, output_times):
    """Snapshots and counters of scipy's ``BDF`` with the CSC Jacobian, as
    ``particles.integrate`` ran it, with snapshots from the dense output of
    the step that reaches each output time.

    The error scale is ``nlftl.stiff``'s as near as scipy allows: ``atol`` is
    its one length ``_RTOL`` times the span, and ``rtol`` scipy's floor of
    100 eps, which leaves a 2.2e-14 |y| term that ``nlftl.stiff`` lacks.
    scipy derives its Newton tolerance from ``rtol``, 0.1 at that floor, so
    it is set back to ``nlftl.stiff``'s, 1e-4, after construction."""
    x0, pm = state.positions, state.particle_mass

    def jac(t, y):
        lower, main, upper = _jacobian(y, pm, kernel, mobility)
        return diags_array([lower, main, upper], offsets=(-1, 0, 1), format="csc")

    solver = ScipyBDF(
        lambda t, y: _velocities(y, pm, kernel, mobility),
        state.time,
        x0,
        t_bound=t_end,
        rtol=100 * np.finfo(float).eps,
        atol=_RTOL * float(x0[-1] - x0[0]),
        jac=jac,
    )
    solver.newton_tol = stiff._NEWTON_TOL
    outputs = sorted({float(t) for t in output_times if state.time < t <= t_end} | {t_end})
    snapshots, steps = [(state.time, x0)], 0
    while solver.status == "running":
        assert solver.step() is None
        steps += 1
        dense = solver.dense_output()
        while outputs and outputs[0] <= solver.t + 1e-14 * max(1.0, abs(solver.t)):
            t_out = min(outputs.pop(0), solver.t)
            snapshots.append((t_out, dense(t_out) if t_out < solver.t else solver.y))
    counters = {"steps": steps, "rhs_evals": solver.nfev, "jac_evals": solver.njev, "lu_decompositions": solver.nlu}
    return snapshots, counters


@pytest.mark.parametrize("name", nl.builtin_names())
def test_runs_match_scipy_bdf(name):
    # the port keeps scipy's arithmetic but for BLAS products and norms, so
    # the runs take the same steps and differ by rounding only
    cfg = nl.builtin_scenario(name)
    kernel, mobility = nl.build_kernel(cfg), nl.build_mobility(cfg)
    state = nl.init_particles(nl.build_profile(cfg), cfg.n_cells, mobility)
    traj = nl.integrate(state, kernel, mobility, cfg.t_end, cfg.output_times)
    snapshots, counters = scipy_integrate(state, kernel, mobility, cfg.t_end, cfg.output_times)
    assert {key: getattr(traj, key) for key in counters} == counters
    assert [s.time for s in traj.states] == [t for t, _ in snapshots]
    support = state.positions[-1] - state.positions[0]
    for s, (_, y) in zip(traj.states, snapshots):
        assert np.max(np.abs(s.positions - y)) <= 1e-9 * support


def shifted_single_step_run(shift):
    """single-step at N = 300 to t = 40, snapshots every 5, its initial state moved by ``shift``."""
    cfg = nl.builtin_scenario("single-step")
    kernel, mobility = nl.build_kernel(cfg), nl.build_mobility(cfg)
    state = nl.init_particles(nl.build_profile(cfg), 300, mobility)
    state = nl.ParticleState(state.time, state.positions + shift, state.particle_mass, state.cap)
    return nl.integrate(state, kernel, mobility, 40.0, output_times=np.arange(5.0, 41.0, 5.0))


def test_runs_do_not_depend_on_where_the_origin_lies(monkeypatch):
    # with a term in |y| in the error scale the run at the origin took 138
    # steps and the one shifted by 10 took 88, 1.55e-7 of the span off a
    # tight run; one length for every particle takes 108 steps at both
    runs = {shift: shifted_single_step_run(shift) for shift in (0.0, 10.0)}
    assert abs(runs[0.0].steps - runs[10.0].steps) <= 0.1 * runs[0.0].steps
    tight_rtol = 1e-10  # and the Newton tolerance nlftl.stiff derives from it
    monkeypatch.setattr(stiff, "_RTOL", tight_rtol)
    monkeypatch.setattr(stiff, "_NEWTON_TOL", max(10 * stiff._EPS / tight_rtol, min(0.03, tight_rtol**0.5)))
    for shift, traj in runs.items():
        tight = shifted_single_step_run(shift)
        assert [s.time for s in traj.states] == [s.time for s in tight.states]
        span = traj.states[0].positions[-1] - traj.states[0].positions[0]
        off = max(np.max(np.abs(s.positions - r.positions)) for s, r in zip(traj.states, tight.states))
        assert off <= 1e-7 * span, f"shift {shift:g}: {off / span:.2e} of the span"
