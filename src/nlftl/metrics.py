"""Total variation, L1 and 1-Wasserstein distances for profiles.

All distances are computed exactly on the merged breakpoint grid: between
breakpoints both arguments are constant (L1) or their CDF difference is
affine (W1), so each segment has a closed-form contribution.
"""

from __future__ import annotations

import numpy as np

from .profiles import AtomicMeasure, DensityProfile, sorted_union

_MASS_MATCH = 1e-12


def total_variation(profile: DensityProfile) -> float:
    """TV of the compactly supported piecewise-constant extension by zero.

    Counts the jump up from vacuum at the left end, every interior jump, and
    the jump down to vacuum at the right end; refining a cell into equal
    pieces leaves the value unchanged.
    """
    v = profile.values
    return float(v[0] + np.sum(np.abs(np.diff(v))) + v[-1])


def _breaks(obj) -> np.ndarray:
    if isinstance(obj, DensityProfile):
        return obj.breakpoints
    if isinstance(obj, AtomicMeasure):
        return obj.atoms
    raise TypeError(f"unsupported measure type: {type(obj).__name__}")


def l1_distance(a: DensityProfile, b: DensityProfile) -> float:
    """Exact integral of |a - b| (profiles are 0 outside their breakpoints)."""
    pts = sorted_union(_breaks(a), _breaks(b))
    if pts.size < 2:
        return 0.0
    mids = 0.5 * (pts[:-1] + pts[1:])
    va = a.value_at(mids)
    vb = b.value_at(mids)
    return float(np.sum(np.abs(va - vb) * np.diff(pts)))


def _cdf(obj, points: np.ndarray, side: str) -> np.ndarray:
    """CDF at points; ``side`` picks whether an atom sitting on a point counts."""
    if isinstance(obj, DensityProfile):
        return obj.cdf(points)
    return obj.cdf(points, side=side)


def wasserstein1(a, b) -> float:
    """1-Wasserstein distance between equal-mass measures on the line.

    Equals the integral of |F_a - F_b|.  On each merged segment the CDF
    difference is affine, so the segment integral is trapezoidal for equal
    signs and two triangles across a sign change; atoms only shift the
    segment endpoint values.  Requires masses matching to 1e-12.
    """
    mass_a = a.mass
    mass_b = b.mass
    if abs(mass_a - mass_b) > _MASS_MATCH:
        raise ValueError(f"mass mismatch: {mass_a} vs {mass_b}")
    pts = sorted_union(_breaks(a), _breaks(b))
    if pts.size < 2:
        return 0.0
    p, q = pts[:-1], pts[1:]
    g0 = _cdf(a, p, "right") - _cdf(b, p, "right")
    g1 = _cdf(a, q, "left") - _cdf(b, q, "left")
    w = q - p
    span = np.abs(g0) + np.abs(g1)
    segments = 0.5 * w * span
    cross = np.sign(g0) * np.sign(g1) < 0.0  # by the signs: g0 * g1 overflows beyond about 1e154
    g0, g1, w, span = g0[cross], g1[cross], w[cross], span[cross]
    with np.errstate(over="ignore"):
        crossing = w * (g0 * g0 + g1 * g1) / (2.0 * span)
    big = ~np.isfinite(crossing)
    if big.any():  # each gap over the span squares to at most 1
        a0, a1 = g0[big] / span[big], g1[big] / span[big]
        crossing[big] = 0.5 * w[big] * (a0 * a0 + a1 * a1) * span[big]
    segments[cross] = crossing
    return float(np.sum(segments))
