"""Total variation, L1 and 1-Wasserstein distances for profiles.

All distances are computed exactly on the merged breakpoint grid: between
breakpoints both arguments are constant (L1) or their CDF difference is
affine (W1), so each segment has a closed-form contribution.  The terms are
formed _CHUNK segments at a time into one array that is summed once: at 10^5
cells a distance holds 9 B a cell on a shared grid, 34 B on a merged one.
"""

from __future__ import annotations

import numpy as np

from .profiles import AtomicMeasure, DensityProfile, sorted_union

_MASS_MATCH = 1e-12
_CHUNK = 2048


def total_variation(profile: DensityProfile) -> float:
    """TV of the compactly supported piecewise-constant extension by zero.

    Counts the jump up from vacuum at the left end, every interior jump, and
    the jump down to vacuum at the right end; refining a cell into equal
    pieces leaves the value unchanged.
    """
    v = profile.values
    jumps = np.diff(v)
    return float(v[0] + np.sum(np.abs(jumps, out=jumps)) + v[-1])


def _breaks(obj) -> np.ndarray:
    if isinstance(obj, DensityProfile):
        return obj.breakpoints
    if isinstance(obj, AtomicMeasure):
        return obj.atoms
    raise TypeError(f"unsupported measure type: {type(obj).__name__}")


def _segment_sum(a, b, terms) -> float:
    """Sum of ``terms(a, b, pts, s, e)``, the terms of the segments s..e-1 of the
    merged grid ``pts``, which is the breakpoint array itself when a and b hold the same one."""
    ba, bb = _breaks(a), _breaks(b)
    pts = ba if ba is bb else sorted_union(ba, bb)
    seg = np.empty(pts.size - 1)
    for s in range(0, seg.size, _CHUNK):
        e = min(s + _CHUNK, seg.size)
        seg[s:e] = terms(a, b, pts, s, e)
    return float(np.sum(seg))


def _l1_terms(a, b, pts, s, e):
    p, q = pts[s:e], pts[s + 1 : e + 1]
    mids = 0.5 * (p + q)
    return np.abs(a.value_at(mids) - b.value_at(mids)) * (q - p)


def l1_distance(a: DensityProfile, b: DensityProfile) -> float:
    """Exact integral of |a - b| (profiles are 0 outside their breakpoints)."""
    return _segment_sum(a, b, _l1_terms)


def _cdfs(obj, pts, s, e):
    """CDF at pts[s:e] with and without an atom sitting on a point: one array for a
    profile, whose CDF at its own breakpoints is its cumulative mass, as np.interp gives it."""
    if isinstance(obj, AtomicMeasure):
        x = pts[s:e]
        return obj.cdf(x, side="right"), obj.cdf(x, side="left")
    f = obj._cum[s:e] if pts is obj.breakpoints else obj.cdf(pts[s:e])
    return f, f


def _w1_terms(a, b, pts, s, e):
    ra, la = _cdfs(a, pts, s, e + 1)
    rb, lb = _cdfs(b, pts, s, e + 1)
    g0 = ra[:-1] - rb[:-1]
    g1 = la[1:] - lb[1:]
    w = pts[s + 1 : e + 1] - pts[s:e]
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
    return segments


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
    return _segment_sum(a, b, _w1_terms)
