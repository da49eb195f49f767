"""Piecewise-constant density profiles and atomic measures on the line.

A ``DensityProfile`` is the common currency of the package: initial data,
particle reconstructions and finite-volume states all reduce to one.  Its
CDF is piecewise linear and is inverted in closed form per cell, which is
what makes quantile-based particle initialisation exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DensityProfile:
    """Non-negative piecewise-constant function on [breakpoints[0], breakpoints[-1]].

    ``values[i]`` holds on the half-open cell [breakpoints[i], breakpoints[i+1]).
    Vacuum cells (value 0) are allowed, including a fully vacuum profile.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or bp.size != vals.size + 1 or vals.size < 1:
            raise ValueError("need n+1 breakpoints for n >= 1 cell values")
        widths = np.diff(bp)
        if not np.all(widths > 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
            raise ValueError("cell values must be finite and non-negative")
        cum = np.concatenate(([0.0], np.cumsum(vals * widths)))
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_cum", cum)

    @property
    def mass(self) -> float:
        return float(self._cum[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def support(self) -> tuple[float, float]:
        """Smallest closed interval containing all cells of positive value."""
        pos = np.nonzero(self.values > 0.0)[0]
        if pos.size == 0:
            raise ValueError("vacuum profile has no support")
        return float(self.breakpoints[pos[0]]), float(self.breakpoints[pos[-1] + 1])

    def value_at(self, x):
        """Pointwise value with the half-open cell convention, 0 outside."""
        arr = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, arr, side="right") - 1
        inside = (idx >= 0) & (idx < self.values.size)
        out = np.where(inside, self.values[np.clip(idx, 0, self.values.size - 1)], 0.0)
        return float(out) if np.ndim(x) == 0 else out

    def cdf(self, x):
        """Cumulative mass up to x, exact since the CDF is piecewise linear."""
        arr = np.asarray(x, dtype=float)
        out = np.interp(arr, self.breakpoints, self._cum)
        return float(out) if np.ndim(x) == 0 else out

    def quantile(self, target):
        """Rightmost point whose cumulative mass does not exceed ``target``.

        When the CDF hits ``target`` exactly at the start of a vacuum plateau
        the returned point is the right end of the plateau, so consecutive
        quantiles step across interior vacuum gaps instead of piling up on
        their left edge.  target = 0 and target = mass return the support
        endpoints.  Accepts a scalar (returns a float) or an array of targets.
        """
        t = np.asarray(target, dtype=float)
        inside = (t >= 0.0) & (t <= self.mass)
        if not np.all(inside):
            raise ValueError(f"target {float(t[~inside][0])} outside [0, {self.mass}]")
        cum, bp = self._cum, self.breakpoints
        top = t >= self.mass
        k = np.minimum(np.searchsorted(cum, t, side="right") - 1, self.values.size - 1)
        hit = cum[k] == t
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only where hit or top selects another branch
            inner = bp[k] + (t - cum[k]) / self.values[k]
        # right edge of the last charged cell, not of trailing vacuum
        last = bp[np.searchsorted(cum, self.mass, side="left")]
        out = np.where(top, last, np.where(hit, bp[k], inner))
        return float(out) if np.ndim(target) == 0 else out


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite sum of point masses with strictly increasing atom positions."""

    atoms: np.ndarray
    weights: np.ndarray
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        at = np.asarray(self.atoms, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if at.ndim != 1 or w.shape != at.shape or at.size < 1:
            raise ValueError("atoms and weights must be 1-D arrays of equal positive length")
        if not np.all(np.diff(at) > 0.0):
            raise ValueError("atoms must be strictly increasing")
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)) or not np.all(np.isfinite(at)):
            raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "atoms", at)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_cum", np.cumsum(w))

    @property
    def mass(self) -> float:
        return float(self._cum[-1])

    def cdf(self, x, side: str = "right"):
        """Step CDF; side='right' includes an atom sitting exactly at x."""
        arr = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.atoms, arr, side=side)
        cum = np.concatenate(([0.0], self._cum))
        out = cum[idx]
        return float(out) if np.ndim(x) == 0 else out


def sorted_union(*arrays) -> np.ndarray:
    """The distinct values of ``arrays`` in increasing order, as ``np.union1d`` gives them.

    ``np.union1d`` and ``np.unique`` import ``numpy.ma`` on their first call
    (10-27 ms), which a run would pay inside its own time.
    """
    pts = np.sort(np.concatenate(arrays))
    keep = np.empty(pts.size, dtype=bool)
    keep[:1] = True
    np.not_equal(pts[1:], pts[:-1], out=keep[1:])
    return pts[keep]


def snapshot_schedule(t0: float, t_end: float, output_times=None) -> list[float]:
    """The distinct output times in (t0, t_end], increasing, with ``t_end`` last; None gives [t_end].

    A run holds its t0 state and one snapshot per time: ``1 + len(schedule)`` in all.
    """
    requested = () if output_times is None else output_times
    times = sorted({float(t) for t in requested if t0 < t <= t_end})
    if not times or times[-1] < t_end:
        times.append(t_end)
    return times


def uniform_profile(left: float, right: float, value: float) -> DensityProfile:
    return DensityProfile(np.array([left, right], dtype=float), np.array([value], dtype=float))


def step_profile(segments) -> DensityProfile:
    """Profile from disjoint charged segments [(a, b, value), ...].

    Gaps between consecutive segments become explicit vacuum cells so the
    breakpoint list stays strictly increasing.
    """
    segs = sorted((float(a), float(b), float(v)) for a, b, v in segments)
    if not segs:
        raise ValueError("need at least one segment")
    bp = [segs[0][0]]
    vals = []
    for a, b, v in segs:
        if a < bp[-1]:
            raise ValueError("segments must not overlap")
        if a > bp[-1]:
            bp.append(a)
            vals.append(0.0)
        if not b > a:
            raise ValueError("segments must have positive width")
        bp.append(b)
        vals.append(v)
    return DensityProfile(np.asarray(bp), np.asarray(vals))

