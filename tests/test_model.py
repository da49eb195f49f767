"""Mobility, kernel and profile primitives against closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlftl as nl


def central_diff(fn, x, h=1e-5):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def bisect_root(fn, lo, hi, target, iters=200):
    # fn monotone increasing on [lo, hi]
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------- mobility

def test_mobility_endpoint_values():
    mob = nl.Mobility(cap=1.0, v_max=1.0)
    assert mob(0.0) == 1.0
    assert mob(1.7) == 0.0
    assert mob.flux(0.5) == 0.25


def test_mobility_rejects_negative_density():
    mob = nl.Mobility()
    with pytest.raises(ValueError):
        mob(-0.1)
    with pytest.raises(ValueError):
        mob.flux(np.array([0.2, -0.3]))


def test_mobility_is_its_density_check_plus_the_unchecked_core():
    mob = nl.Mobility(cap=0.8, v_max=2.5)
    rho = np.array([0.0, 1e-300, 0.3, 0.8 - 1e-12, 0.8, 0.8 + 1e-12, 5.0, np.inf])
    got = mob(rho)
    assert np.array_equal(got.view(np.uint64), mob.value_unchecked(rho).view(np.uint64))
    assert np.array_equal(got[4:], np.zeros(4))
    assert mob(np.inf) == 0.0
    for bad in (-0.1, math.nan, np.array([0.2, -0.3]), np.array([0.2, np.nan])):
        with pytest.raises(ValueError):
            mob(bad)
    assert np.array_equal(mob.flux(rho[:-1]), mob.flux_unchecked(rho[:-1]))


def test_mobility_strictly_decreasing_up_to_cap():
    mob = nl.Mobility(cap=0.8, v_max=2.5)
    rho = np.linspace(0.0, 0.8, 400)
    v = mob(rho)
    assert np.all(np.diff(v) < 0.0)
    assert mob(0.8) == 0.0
    # continuity at the cap from above
    assert mob(0.8 + 1e-12) == 0.0


def test_mobility_d1_matches_finite_difference_and_vanishes_when_jammed():
    mob = nl.Mobility(cap=0.8, v_max=2.5)
    rho = np.linspace(0.01, 0.79, 40)
    h = 1e-6
    fd = (mob(rho + h) - mob(rho - h)) / (2.0 * h)
    assert np.max(np.abs(mob.d1(rho) - fd)) < 1e-9
    assert mob.d1(0.3) == -2.5 / 0.8
    assert np.array_equal(mob.d1(np.array([0.8, 1.0, np.inf])), np.zeros(3))
    with pytest.raises(ValueError):
        mob.d1(-0.1)


def test_flux_vanishes_at_ends_positive_inside():
    mob = nl.Mobility(cap=1.3, v_max=0.7)
    assert mob.flux(0.0) == 0.0
    assert mob.flux(1.3) == 0.0
    inner = np.linspace(1e-3, 1.3 - 1e-3, 300)
    assert np.all(mob.flux(inner) > 0.0)
    assert mob.flux_argmax == pytest.approx(0.65)
    assert mob.dflux_bound == pytest.approx(0.7)


# ------------------------------------------------------------------ kernel

def test_kernel_first_derivative_values():
    ker = nl.Kernel(amplitude=1.0, inv_width=0.5)
    assert ker.d1(0.0) == 0.0
    # d/dx of -exp(-x^2/2) at x=1, cross-checked by finite difference
    assert ker.d1(1.0) == pytest.approx(math.exp(-0.5), rel=1e-13)
    fd = central_diff(ker.value, 1.0)
    assert ker.d1(1.0) == pytest.approx(fd, abs=1e-6)


def test_kernel_evenness_exact():
    ker = nl.Kernel()
    for x in (0.3, 1.7, 5.2, 9.9):
        assert ker.value(x) == ker.value(-x)
        assert ker.d1(x) == -ker.d1(-x)
        assert ker.d2(x) == ker.d2(-x)


@pytest.mark.parametrize("ker", [nl.Kernel(), nl.Kernel(amplitude=0.7, inv_width=2.0)])
def test_kernel_value_and_d1_bitwise_equal_value_and_d1(ker):
    tiny = np.nextafter(0.0, 1.0)
    xs = np.array([0.0, -0.0, tiny, -tiny, 1e-300, -1e-300, 0.3, -1.7, 27.0, -38.5, 40.0, -1e3, 1e150])
    assert np.exp(-ker.inv_width * 40.0 * 40.0) == 0.0  # the largest arguments underflow
    k, k1 = ker.value_and_d1(xs)
    assert k.tobytes() == ker.value(xs).tobytes()
    assert k1.tobytes() == ker.d1(xs).tobytes()
    bufs = (np.full_like(xs, np.nan), np.full_like(xs, np.nan))
    got = ker.value_and_d1(xs, out=bufs)
    assert got[0] is bufs[0] and got[1] is bufs[1]
    assert bufs[0].tobytes() == k.tobytes() and bufs[1].tobytes() == k1.tobytes()
    for x in xs:
        pair = ker.value_and_d1(float(x))
        assert type(pair[0]) is type(pair[1]) is float
        assert np.array(pair).tobytes() == np.array((ker.value(float(x)), ker.d1(float(x)))).tobytes()


def test_kernel_attractive_on_positive_axis():
    ker = nl.Kernel(amplitude=0.8, inv_width=1.3)
    xs = np.linspace(1e-6, 12.0, 500)
    assert np.all(ker.d1(xs) > 0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0))
def test_kernel_d1_matches_finite_difference(x):
    ker = nl.Kernel()
    fd = central_diff(ker.value, x)
    assert abs(ker.d1(x) - fd) < 1e-6


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0))
def test_kernel_d2_matches_finite_difference(x):
    ker = nl.Kernel()
    fd = central_diff(ker.d1, x)
    assert abs(ker.d2(x) - fd) < 1e-6


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=1e-3, max_value=8.0),
    st.floats(min_value=0.2, max_value=3.0),
)
def test_lipschitz_bound_dominates_d2(a, width, inv_width):
    ker = nl.Kernel(amplitude=1.0, inv_width=inv_width)
    b = a + width
    bound = ker.lipschitz_bound((a, b))
    xs = np.linspace(a, b, 2000)
    assert bound >= np.max(np.abs(ker.d2(xs))) - 1e-12


def test_kernel_rejects_bad_order_and_params():
    with pytest.raises(ValueError):
        nl.Kernel(amplitude=-1.0)
    with pytest.raises(ValueError):
        nl.Kernel(inv_width=0.0)


# ---------------------------------------------------------------- profiles

def test_cdf_basic_values():
    prof = nl.uniform_profile(-1.0, 1.0, 0.3)
    assert prof.mass == pytest.approx(0.6, abs=1e-15)
    assert prof.cdf(0.0) == pytest.approx(0.3, abs=1e-15)
    assert prof.cdf(-1.0) == 0.0
    assert prof.cdf(-5.0) == 0.0
    assert prof.cdf(1.0) == prof.mass
    assert prof.cdf(42.0) == prof.mass


def test_quantile_uniform_midpoint():
    prof = nl.uniform_profile(-1.0, 1.0, 0.3)
    assert prof.quantile(0.3) == pytest.approx(0.0, abs=1e-15)
    assert prof.quantile(0.0) == -1.0
    assert prof.quantile(0.6) == 1.0


def test_quantile_skips_vacuum_plateau_rightward():
    prof = nl.step_profile([(-1.0, -0.5, 1.0), (0.5, 1.0, 1.0)])
    # cumulative mass 0.5 is attained on all of [-0.5, 0.5]; the sup
    # convention lands on the right end of the gap
    assert prof.quantile(0.5) == 0.5


def test_quantile_parabola_against_bisection_oracle():
    prof = nl.build_profile(nl.builtin_scenario("parabola"))
    # closed-form CDF of (3/4)(1 - x^2) on [-1, 1]
    root = bisect_root(lambda x: 0.75 * (x - x**3 / 3.0) + 0.5, -1.0, 0.0, 0.25)
    assert prof.quantile(0.25) == pytest.approx(root, abs=2e-8)


def test_quantile_rejects_out_of_range_targets():
    prof = nl.uniform_profile(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        prof.quantile(-0.1)
    with pytest.raises(ValueError):
        prof.quantile(1.1)


def test_quantile_of_an_array_is_the_quantile_of_each_target():
    prof = nl.step_profile([(-1.0, -0.5, 1.0), (0.0, 0.25, 0.4), (0.5, 1.0, 1.0)])
    targets = np.array([[0.0, 0.2, 0.5], [0.55, 0.6, prof.mass]])  # ends, exact plateau hits, interior points
    got = prof.quantile(targets)
    assert got.shape == targets.shape
    assert np.array_equal(got, [[prof.quantile(float(t)) for t in row] for row in targets])
    assert got[0, 2] == 0.0 and got[1, 1] == 0.5 and got[1, 2] == 1.0
    assert isinstance(prof.quantile(0.2), float)
    for bad in ([0.1, -0.1], [0.1, prof.mass + 0.1], [np.nan]):
        with pytest.raises(ValueError):
            prof.quantile(np.array(bad))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_quantile_inverts_cdf_on_charged_cells(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    widths = data.draw(
        st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=n, max_size=n)
    )
    vals = data.draw(
        st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=n, max_size=n)
    )
    bp = np.concatenate(([0.0], np.cumsum(widths)))
    prof = nl.DensityProfile(bp, np.asarray(vals))
    # interior point of a charged cell: cdf is strictly increasing there
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    frac = data.draw(st.floats(min_value=0.1, max_value=0.9))
    x = bp[k] + frac * widths[k]
    assert prof.quantile(prof.cdf(x)) == pytest.approx(x, abs=1e-12)


def test_profile_constructor_rejections():
    with pytest.raises(ValueError):
        nl.DensityProfile(np.array([0.0, 0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        nl.DensityProfile(np.array([0.0, 1.0]), np.array([-0.2]))
    with pytest.raises(ValueError):
        nl.DensityProfile(np.array([0.0]), np.array([]))


def test_vacuum_profile_allowed_but_has_no_support():
    vac = nl.DensityProfile(np.array([-1.0, 1.0]), np.array([0.0]))
    assert vac.mass == 0.0
    with pytest.raises(ValueError):
        vac.support()


def test_atomic_measure_invariants():
    mu = nl.AtomicMeasure(np.array([0.0, 0.5, 2.0]), np.array([0.1, 0.2, 0.3]))
    assert mu.mass == pytest.approx(0.6)
    assert mu.cdf(0.5) == pytest.approx(0.3)          # right-continuous
    assert mu.cdf(0.5, side="left") == pytest.approx(0.1)
    with pytest.raises(ValueError):
        nl.AtomicMeasure(np.array([0.0, 0.0]), np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        nl.AtomicMeasure(np.array([0.0, 1.0]), np.array([0.1, 0.0]))
