"""The Gauss-Taylor plan (centre and order) shared by the particle pair sums and the entropy jump sums."""

import numpy as np
import pytest

import nlftl as nl
from nlftl import entropy, gauss_sums, particles

# R from below the one-term bound 2^-56 to beyond both term caps, fine enough
# in log R that every order up to each cap gets a value
R_SWEEP = np.geomspace(1e-18, 50.0, 4000)


def particle_expansion_reference(x, kernel):
    """The rule particles._expansion applied before gauss_sums.plan: R = 2B h^2, h the half-span, about its middle."""
    if x.size - 1 < particles._EXPANSION_MIN_N:
        return 0, 0.0
    lo, hi = float(x.min()), float(x.max())
    half = 0.5 * (hi - lo)
    return gauss_sums.terms(2.0 * kernel.inv_width * half * half, particles._EXPANSION_MAX_TERMS), 0.5 * (lo + hi)


def jump_sum_plan_reference(kernel, bp, x):
    """The rule of entropy._jump_sum_terms before gauss_sums.plan, and the centre
    entropy._expanded_jump_sums took: R = 2B h_b h_x about the middle c of the
    breakpoints, h_b their half-span and h_x the farthest point's distance from c."""
    if bp.size < entropy._EXPANSION_MIN_BREAKPOINTS:
        return 0, None
    c = 0.5 * (bp[0] + bp[-1])
    h_x = max(abs(float(np.min(x)) - c), abs(float(np.max(x)) - c))
    r = 2.0 * kernel.inv_width * (0.5 * (bp[-1] - bp[0])) * h_x
    return gauss_sums.terms(r, entropy._EXPANSION_MAX_TERMS), c


@pytest.mark.parametrize("seed", range(3))
def test_particle_plan_equals_the_removed_rule(seed):
    # random spans, centres and kernels, the particles shuffled as the
    # integrator's trial states may be; every order up to the cap, and 0 beyond it
    rng = np.random.default_rng(seed)
    seen = set()
    for r in R_SWEEP:
        half = 10.0 ** rng.uniform(-3.0, 0.5)
        kernel = nl.Kernel(amplitude=rng.uniform(0.1, 2.0), inv_width=r / (2.0 * half * half))
        n = particles._EXPANSION_MIN_N + int(rng.integers(0, 40))
        x = rng.uniform(-1.0, 1.0) + half * np.concatenate(([-1.0, 1.0], rng.uniform(-1.0, 1.0, n - 1)))
        rng.shuffle(x)
        want = particle_expansion_reference(x, kernel)
        assert particles._expansion(x, kernel) == want
        assert particles._pair_sum_terms(x, kernel) == want[0]
        seen.add(want[0])
    assert seen == set(range(particles._EXPANSION_MAX_TERMS + 1))
    # below the crossover the strips run whatever R is
    x = np.linspace(-1.0, 1.0, particles._EXPANSION_MIN_N)
    assert particles._expansion(x, nl.Kernel()) == particle_expansion_reference(x, nl.Kernel()) == (0, 0.0)


@pytest.mark.parametrize("seed", range(3))
def test_jump_sum_plan_equals_the_removed_rule(seed, monkeypatch):
    # random breakpoint and point sets: the points are unsorted and reach from
    # well inside the breakpoints' span to beyond it; one set in ten has one
    # breakpoint too few for the expansion
    plans = []
    monkeypatch.setattr(entropy, "_direct_jump_sums", lambda kernel, bp, coef, x: (x, x))
    monkeypatch.setattr(entropy, "_expanded_jump_sums", lambda kernel, bp, coef, x, p, c: plans.append(c) or (x, x))
    rng = np.random.default_rng(seed)
    seen = set()
    for k, r in enumerate(R_SWEEP):
        h_b = 10.0 ** rng.uniform(-2.0, 0.5)
        h_x = h_b * rng.uniform(0.2, 3.0)
        kernel = nl.Kernel(amplitude=rng.uniform(0.1, 2.0), inv_width=r / (2.0 * h_b * h_x))
        centre = rng.uniform(-1.0, 1.0)
        below = k % 10 == 0
        n_bp = entropy._EXPANSION_MIN_BREAKPOINTS + (-1 if below else int(rng.integers(0, 40)))
        bp = np.sort(centre + h_b * np.concatenate(([-1.0, 1.0], rng.uniform(-1.0, 1.0, n_bp - 2))))
        profile = nl.DensityProfile(bp, rng.uniform(0.1, 1.0, n_bp - 1))
        x = centre + h_x * np.concatenate(([rng.choice([-1.0, 1.0])], rng.uniform(-1.0, 1.0, 50)))
        rng.shuffle(x)
        want_p, want_c = jump_sum_plan_reference(kernel, bp, x)
        plans.clear()
        assert entropy._convolutions(kernel, profile, x)[2] == want_p
        assert plans == ([want_c] if want_p else [])
        if not below:
            seen.add(want_p)
    assert seen == set(range(entropy._EXPANSION_MAX_TERMS + 1))


# the orders README gives: R = 1 on a span of 2, R = 0.5625 on a span of 1.5
BUILTIN_TERMS = {"single-step": 19, "parabola": 19, "stationary-weak": 19, "two-step-0206": 16, "two-step-11": 16}


@pytest.mark.parametrize("name", sorted(BUILTIN_TERMS))
def test_builtin_pair_sums_and_orders_are_unchanged_bitwise(name):
    cfg = nl.builtin_scenario(name)
    kernel, mobility = nl.build_kernel(cfg), nl.build_mobility(cfg)
    state = nl.init_particles(nl.build_profile(cfg), cfg.n_cells, mobility)
    x = state.positions
    p, centre = particle_expansion_reference(x, kernel)
    assert p == BUILTIN_TERMS[name]
    want = particles._expanded_pair_sums(x, kernel, p, centre)
    assert all(np.array_equal(g.view(np.int64), w.view(np.int64)) for g, w in zip(particles._pair_sums(x, kernel), want))
    traj = nl.integrate(state, kernel, mobility, 0.01)
    assert traj.pair_sum_terms == p
