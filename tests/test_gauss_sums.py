"""The two kernel sums of nlftl.gauss_sums: the plan (centre and order) both share, and each sum against its direct path."""

import math

import numpy as np
import pytest

import nlftl as nl
from nlftl import entropy, gauss_sums

# R from below the one-term bound 2^-56 to beyond the limit, fine enough in
# log R that every order up to the limit gets a value
R_SWEEP = np.geomspace(1e-18, 50.0, 4000)


def order_reference(r):
    """The smallest p with r^p / p! <= 2^-56, or 0 past R = MAX_REACH."""
    if not r <= gauss_sums.MAX_REACH:
        return 0
    return next(k for k in range(1, 1000) if r**k / math.factorial(k) <= 2.0**-56)


def particle_expansion_reference(x, kernel):
    """The plan of the particle pair sums: R = 2B h^2 about the middle, h the half-span."""
    lo, hi = float(x.min()), float(x.max())
    half = 0.5 * (hi - lo)
    return order_reference(2.0 * kernel.inv_width * half * half), 0.5 * (lo + hi)


def jump_sum_plan_reference(kernel, bp, x):
    """The plan of the entropy jump sums, and the centre gauss_sums._expanded_jump_sums
    takes: R = 2B h_b h_x about the middle c of the breakpoints, h_b their
    half-span and h_x the farthest point's distance from c."""
    c = 0.5 * (bp[0] + bp[-1])
    h_x = max(abs(float(np.min(x)) - c), abs(float(np.max(x)) - c))
    p = order_reference(2.0 * kernel.inv_width * (0.5 * (bp[-1] - bp[0])) * h_x)
    return p, (c if p else None)


def max_rel_error(got, want):
    return max(float(np.max(np.abs(g - w)) / np.max(np.abs(w))) for g, w in zip(got, want))


def weighted_error(got, kernel, bp, coef, x):
    """Max-norm error of the jump sums (W1, W2) against the direct blocks, relative
    to the largest sum of absolute terms: the jumps of a profile add up to
    zero, so under a kernel much wider than their span W1 is a cancelled sum."""
    want = gauss_sums._direct_jump_sums(kernel, bp, coef, x)
    d = np.abs(x[:, None] - bp[None, :])
    scales = (np.abs(coef) * np.abs(kernel.value(d)), np.abs(coef) * np.abs(kernel.d1(d)))
    return max(float(np.max(np.abs(g - w)) / np.max(np.sum(a, axis=1))) for g, w, a in zip(got, want, scales))


@pytest.mark.parametrize("seed", range(3))
def test_particle_plan_equals_the_rule(seed):
    # random spans, centres and kernels, the particles shuffled as the
    # integrator's trial states may be; every order up to the limit, 0
    # beyond it, and one count in five up to 520 particles (6p at the limit
    # and more), where the sums are also held to the strips
    rng = np.random.default_rng(seed)
    seen = set()
    for k, r in enumerate(R_SWEEP):
        half = 10.0 ** rng.uniform(-3.0, 0.5)
        kernel = nl.Kernel(amplitude=rng.uniform(0.1, 2.0), inv_width=r / (2.0 * half * half))
        n = int(rng.integers(2, 521 if k % 5 == 0 else 1001))
        x = rng.uniform(-1.0, 1.0) + half * np.concatenate(([-1.0, 1.0], rng.uniform(-1.0, 1.0, n - 2)))
        rng.shuffle(x)
        want = particle_expansion_reference(x, kernel)
        assert gauss_sums._plan(kernel, x, x) == want
        seen.add(want[0])
        if k % 5 == 0:
            assert max_rel_error(gauss_sums.pair_sums(x, kernel), gauss_sums._tiled_pair_sums(x, kernel)) <= 1e-14
    assert seen == set(range(gauss_sums.MAX_ORDER + 1))


@pytest.mark.parametrize("seed", range(3))
def test_jump_sum_plan_equals_the_rule(seed, monkeypatch):
    # random breakpoint and point sets: the points are unsorted and reach from
    # well inside the breakpoints' span to beyond it; one set in five has up
    # to 70 breakpoints and points (0.8p at the limit and more), where the sums
    # are also held to the direct blocks
    plans = []
    expanded = gauss_sums._expanded_jump_sums
    monkeypatch.setattr(gauss_sums, "_expanded_jump_sums", lambda *args: plans.append(args[-1]) or expanded(*args))
    rng = np.random.default_rng(seed)
    seen = set()
    for k, r in enumerate(R_SWEEP):
        h_b = 10.0 ** rng.uniform(-2.0, 0.5)
        h_x = h_b * rng.uniform(0.2, 3.0)
        kernel = nl.Kernel(amplitude=rng.uniform(0.1, 2.0), inv_width=r / (2.0 * h_b * h_x))
        centre = rng.uniform(-1.0, 1.0)
        n_bp, n_x = rng.integers(2, 71 if k % 5 == 0 else 1001, size=2)
        bp = np.sort(centre + h_b * np.concatenate(([-1.0, 1.0], rng.uniform(-1.0, 1.0, n_bp - 2))))
        profile = nl.DensityProfile(bp, rng.uniform(0.1, 1.0, n_bp - 1))
        x = centre + h_x * np.concatenate(([rng.choice([-1.0, 1.0])], rng.uniform(-1.0, 1.0, n_x - 1)))
        rng.shuffle(x)
        want_p, want_c = jump_sum_plan_reference(kernel, bp, x)
        plans.clear()
        *got, p = entropy._convolutions(kernel, profile, x)
        assert p == want_p
        assert plans == ([want_c] if want_p else [])
        seen.add(want_p)
        if k % 5 == 0:
            assert weighted_error(got, kernel, *entropy._charged_breakpoints(profile), x) <= 1e-14
    assert seen == set(range(gauss_sums.MAX_ORDER + 1))


@pytest.mark.parametrize("kernel", [nl.Kernel(), nl.Kernel(amplitude=0.7, inv_width=2.0)], ids=["kernel0", "kernel1"])
def test_few_sources_take_the_order_of_their_reach(kernel):
    # the order depends on R alone: 2 to 300 particles, and 1 to 16
    # breakpoints at 2,439 points, all within reach, expand at _terms(R)
    rng = np.random.default_rng(11)
    for n in range(2, 301):
        half = math.sqrt(rng.uniform(0.0, gauss_sums.MAX_REACH) / (2.0 * kernel.inv_width))
        x = np.sort(np.r_[-half, half, rng.uniform(-half, half, n - 2)])
        want = particle_expansion_reference(x, kernel)[0]
        assert want > 0 and gauss_sums.pair_sum_order(x, kernel) == want
    x = np.linspace(-1.0, 1.0, 2439)
    for n_bp in range(1, 17):
        h_b = rng.uniform(0.0, gauss_sums.MAX_REACH) / (2.0 * kernel.inv_width)  # the farthest point lies 1 from the centre
        bp = np.sort(np.r_[-h_b, h_b, rng.uniform(-h_b, h_b, n_bp)][:n_bp])
        want = jump_sum_plan_reference(kernel, bp, x)[0]
        assert want > 0 and gauss_sums.jump_sums(kernel, bp, rng.uniform(-1.0, 1.0, n_bp), x)[2] == want


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
    want = gauss_sums._expanded_pair_sums(x, kernel, p, centre)
    assert all(np.array_equal(g.view(np.int64), w.view(np.int64)) for g, w in zip(gauss_sums.pair_sums(x, kernel), want))
    traj = nl.integrate(state, kernel, mobility, 0.01)
    assert traj.pair_sum_terms == p


KER = nl.Kernel()
# R = 6.25 (a span of 5 for the default kernel), 12, just inside the limit and just past it
REACHES = [6.25, 12.0, gauss_sums.MAX_REACH * (1.0 - 1e-12), gauss_sums.MAX_REACH * (1.0 + 1e-12)]


@pytest.mark.parametrize("n", [2401, 10_001])
@pytest.mark.parametrize("r", REACHES, ids=["R6", "R12", "at-limit", "past-limit"])
def test_particle_sums_up_to_the_limit_match_the_strips(r, n):
    # equispaced and random particles on the span where R = 2B h^2 is r: the
    # expansion's error grows with R and N, to about 8e-15 at the limit;
    # past it the strips run, bit for bit
    half = math.sqrt(r / (2.0 * KER.inv_width))
    rng = np.random.default_rng(n)
    for x in (np.linspace(-half, half, n), np.sort(np.r_[-half, half, rng.uniform(-half, half, n - 2)])):
        p = gauss_sums.pair_sum_order(x, KER)
        assert p == gauss_sums._terms(r) and (p > 0) == (r <= gauss_sums.MAX_REACH)
        got, want = gauss_sums.pair_sums(x, KER), gauss_sums._tiled_pair_sums(x, KER)
        if p:
            assert max_rel_error(got, want) <= 1e-14
        else:
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("r", REACHES, ids=["R6", "R12", "at-limit", "past-limit"])
def test_jump_sums_up_to_the_limit_match_the_direct_blocks(r):
    # 301 charged breakpoints spanning [-1, 1] and 2,439 points reaching to
    # where R = 2B h_b h_x is r; past the limit the direct blocks run, bit for bit
    rng = np.random.default_rng(7)
    bp = np.sort(np.r_[-1.0, 1.0, rng.uniform(-1.0, 1.0, 299)])
    profile = nl.DensityProfile(bp, rng.uniform(0.1, 1.0, 300))
    x = np.linspace(-1.0, 1.0, 2439) * (r / (2.0 * KER.inv_width))
    *got, p = entropy._convolutions(KER, profile, x)
    assert p == gauss_sums._terms(r) and (p > 0) == (r <= gauss_sums.MAX_REACH)
    want = gauss_sums._direct_jump_sums(KER, *entropy._charged_breakpoints(profile), x)
    if p:
        assert max_rel_error(got, want) <= 1e-14
    else:
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
