"""The BDF stepper of ``nlftl.stiff``: its tridiagonal Newton solve against a
dense solve, and whole particle runs against scipy's ``BDF``, which
``particles.integrate`` ran before the stepper replaced it."""

import numpy as np
import pytest
from scipy.integrate import BDF as ScipyBDF
from scipy.sparse import diags_array

import nlftl as nl
from nlftl.errors import InvariantViolation
from nlftl.particles import _jacobian, _velocities
from nlftl.stiff import _ATOL_PER_SPAN, _RTOL, BDF, TridiagonalLU


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


def scipy_integrate(state, kernel, mobility, t_end, output_times):
    """Snapshots and counters of scipy's ``BDF`` with the CSC Jacobian, as
    ``particles.integrate`` ran it: the same tolerances, and snapshots from
    the dense output of the step that reaches each output time."""
    x0, pm = state.positions, state.particle_mass

    def jac(t, y):
        lower, main, upper = _jacobian(y, pm, kernel, mobility)
        return diags_array([lower, main, upper], offsets=(-1, 0, 1), format="csc")

    solver = ScipyBDF(
        lambda t, y: _velocities(y, pm, kernel, mobility),
        state.time,
        x0,
        t_bound=t_end,
        rtol=_RTOL,
        atol=_ATOL_PER_SPAN * float(x0[-1] - x0[0]),
        jac=jac,
    )
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
