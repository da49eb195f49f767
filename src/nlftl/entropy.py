"""Kruzkov-style entropy residual for the nonlocal congested transport law.

For a constant c and a smooth compactly supported test function
phi(t, x) = phi(x) * xi(t) the residual is

    R = int |rho0 - c| phi(x) xi(0) dx
      + int int [ |rho - c| phi xi'
                  - sign(rho - c) ( (f(rho) - f(c)) (K' conv rho) phi' xi
                                    - f(c) (K'' conv rho) phi xi ) ] dx dt

with sign(0) = 0.  Admissible solutions make R >= 0 for every (phi, c);
a residual below the negative guard band certifies a violation.

Spatial convolutions of the Gaussian kernel against a piecewise-constant
profile are exact: integrating K' (resp. K'') over a cell telescopes to K
(resp. K') at the cell edges, so K' conv rho collapses to one kernel
evaluation per breakpoint weighted by the density jump, the jump sums of
:func:`nlftl.gauss_sums.jump_sums`.  The space integral
uses 3-point Gauss-Legendre on the merged cell grid, at two resolutions,
and the time integral is trapezoidal over the snapshots.  The
c-independent integrands (density, flux, both convolutions, phi and phi')
are evaluated once per snapshot, on the points of both grids in one array,
and shared by every constant of an audit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gauss_sums
from .errors import ConfigError, number
from .model import Kernel, Mobility
from .profiles import DensityProfile, sorted_union

_GL_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])
_GUARD_FLOOR = 1e-6  # smallest guard band below zero before a residual is flagged
N_SPACE = 256  # default spatial quadrature cells of the coarse pass; the fine pass takes twice as many
MAX_N_SPACE = 100_000  # most coarse-pass cells: a snapshot's work peaks at about 80 MB here (8.3 MB at 10^4 under tracemalloc)
MAX_HORIZON = 1e4  # longest plateau: a frozen audit takes a snapshot per unit of it, 14 us each on a 2-vCPU Xeon VM


@dataclass(frozen=True)
class SpatialBump:
    """Compactly supported bump centered at ``center`` with support width ``width``.

    kinds: 'mollifier' is the classical exp(1 - 1/(1-u^2)) bump (smooth),
    'cos2' is cos^2(pi u) with u = (x-center)/width (C^1, cheap); both have
    closed-form derivatives.
    """

    kind: str
    center: float
    width: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("mollifier", "cos2"):
            raise ValueError(f"unknown bump kind: {self.kind!r}")
        if not self.width > 0.0:
            raise ValueError("width must be positive")
        if not self.amplitude > 0.0:
            raise ValueError("amplitude must be positive")

    @property
    def support(self) -> tuple[float, float]:
        return self.center - 0.5 * self.width, self.center + 0.5 * self.width

    def _u(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.center) / self.width

    def value_and_deriv(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(value, derivative) at x, sharing u and the inside mask."""
        u = self._u(x)
        if self.kind == "cos2":
            inside = np.abs(u) < 0.5
            val = np.where(inside, np.cos(np.pi * u) ** 2, 0.0)
            der = np.where(inside, -(np.pi / self.width) * np.sin(2.0 * np.pi * u), 0.0)
        else:
            w = 1.0 - 4.0 * u * u  # mollifier variable 2u in (-1, 1)
            inside = w > 1e-12
            safe = np.where(inside, w, 1.0)
            val = np.where(inside, np.exp(1.0 - 1.0 / safe), 0.0)
            der = np.where(inside, val * (-8.0 * u / (safe * safe)) / self.width, 0.0)
        return self.amplitude * val, self.amplitude * der

    def value(self, x) -> np.ndarray:
        return self.value_and_deriv(x)[0]

    def deriv(self, x) -> np.ndarray:
        return self.value_and_deriv(x)[1]


@dataclass(frozen=True)
class TestFunction:
    """Separable test function phi(x) * xi(t).

    The spatial part is a sum of disjoint bumps; the temporal part is 1 on
    [0, horizon], decays to 0 over one unit with a C^1 cubic ramp, and
    vanishes after horizon + 1.
    """

    bumps: tuple[SpatialBump, ...]
    horizon: float
    label: str

    def __post_init__(self) -> None:
        if not self.bumps:
            raise ValueError("need at least one bump")
        if not 0.0 <= self.horizon <= MAX_HORIZON:
            raise ConfigError(f"horizon must lie in [0, {MAX_HORIZON:g}], got {self.horizon!r}")

    @property
    def x_support(self) -> tuple[float, float]:
        los, his = zip(*(b.support for b in self.bumps))
        return min(los), max(his)

    @property
    def t_support_end(self) -> float:
        return self.horizon + 1.0

    def phi_and_dphi(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(phi, phi') at x: one pass over the bumps."""
        phi = np.zeros_like(np.asarray(x, dtype=float))
        dphi = np.zeros_like(phi)
        for b in self.bumps:
            val, der = b.value_and_deriv(x)
            phi += val
            dphi += der
        return phi, dphi

    def xi(self, t: float) -> float:
        if t <= self.horizon:
            return 1.0
        s = t - self.horizon
        if s >= 1.0:
            return 0.0
        return 1.0 - s * s * (3.0 - 2.0 * s)

    def dxi(self, t: float) -> float:
        if t <= self.horizon:
            return 0.0
        s = t - self.horizon
        if s >= 1.0:
            return 0.0
        return -6.0 * s * (1.0 - s)


def bump_pair(horizon: float) -> TestFunction:
    """Two mollifier bumps of width 0.5 at -0.5 and 0.5, one per interior jump
    of the split-jam profile."""
    bumps = (SpatialBump("mollifier", -0.5, 0.5), SpatialBump("mollifier", 0.5, 0.5))
    return TestFunction(bumps, horizon, f"mollifier-pair:c=-0.5,0.5;w=0.5;T={horizon:g}")


def single_bump(horizon: float, center: float = 0.0, width: float = 1.0) -> TestFunction:
    """One cosine-squared bump."""
    return TestFunction(
        (SpatialBump("cos2", center, width),),
        horizon,
        f"cos2:c={center:g};w={width:g};T={horizon:g}",
    )


@dataclass(frozen=True)
class EntropyReport:
    """Residual of one (test function, constant) pair at a known resolution.

    ``violation`` is ``residual < -guard``, where the guard band is
    max(_GUARD_FLOOR, 10 * est_error).  ``jump_sum_terms`` is the largest
    expansion order of the jump sums over every snapshot and both grids, 0
    only where all of them lay past ``gauss_sums.MAX_REACH`` and ran direct
    (or had no jump to sum); it goes to ``meta.json``, not to the record.
    """

    c: float
    phi: str
    residual: float
    resolution: str
    residual_coarse: float
    est_error: float
    guard: float
    violation: bool
    jump_sum_terms: int

    def json_record(self) -> dict:
        return {
            "c": self.c,
            "phi": self.phi,
            "residual": self.residual,
            "resolution": self.resolution,
            "residual_coarse": self.residual_coarse,
            "est_error": self.est_error,
            "guard": self.guard,
            "violation": self.violation,
        }


def check_audit_inputs(c_list, n_space) -> tuple[list[float], int]:
    """The constants of an audit as floats and n_space as an int, each through
    :func:`errors.number`; raises ConfigError (a ValueError) unless there is at
    least one constant, each is non-negative, and n_space is in [1, MAX_N_SPACE]."""
    cs = [number("c", c) for c in c_list]
    if not cs:
        raise ConfigError("need at least one constant c")
    if not all(c >= 0.0 for c in cs):
        raise ConfigError("c must be a finite non-negative constant")
    n = number("n_space", n_space, integer=True)
    if not 1 <= n <= MAX_N_SPACE:
        raise ConfigError(f"n_space must be an integer in [1, {MAX_N_SPACE}], got {n_space!r}")
    return cs, n


@functools.lru_cache(maxsize=8)
def _uniform_edges(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n + 1), computed once per (lo, hi, n) and shared, so read-only."""
    edges = np.linspace(lo, hi, n + 1)
    edges.flags.writeable = False
    return edges


def _quad_grid(profile: DensityProfile, lo: float, hi: float, *n_spaces: int):
    """Gauss points/weights on profile breakpoints merged with a uniform refinement.

    One grid per cell count in ``n_spaces``, written one after another into
    the two arrays; returns (x, w, stops), where grid i ends at ``stops[i]``.
    Points increase within each grid.
    """
    pts = profile.breakpoints
    pts = pts[(pts > lo) & (pts < hi)]
    grids = [sorted_union(_uniform_edges(lo, hi, n), pts) for n in n_spaces]
    stops = np.cumsum([3 * (edges.size - 1) for edges in grids]).tolist()
    x, w = np.empty(stops[-1]), np.empty(stops[-1])
    start = 0
    for edges, stop in zip(grids, stops):
        left, right = edges[:-1, None], edges[1:, None]
        half = 0.5 * (right - left)
        xs = np.multiply(half, _GL_NODES, out=x[start:stop].reshape(-1, 3))
        xs += 0.5 * (left + right)
        np.multiply(half, _GL_WEIGHTS, out=w[start:stop].reshape(-1, 3))
        start = stop
    return x, w, stops


def _charged_breakpoints(profile: DensityProfile) -> tuple[np.ndarray, np.ndarray]:
    """The breakpoints where the density jumps, and the jumps (vacuum on both sides)."""
    padded = np.zeros(profile.values.size + 2)
    padded[1:-1] = profile.values
    jumps = padded[1:] - padded[:-1]  # np.diff(values, prepend=0.0, append=0.0) without its overhead
    keep = jumps != 0.0
    return profile.breakpoints[keep], jumps[keep]


def _convolutions(kernel: Kernel, profile: DensityProfile, x: np.ndarray):
    """(K' conv rho, K'' conv rho, p) at points x, exact per cell; p is the expansion order, 0 past ``MAX_REACH``, where the sums ran direct.

    sum_i r_i [K(x-a_i) - K(x-b_i)] regroups into the jump sums of :func:`nlftl.gauss_sums.jump_sums`
    over the breakpoints: W1(x) = sum_j coef_j K(x - b_j), W2(x) = sum_j coef_j K'(x - b_j).
    """
    return gauss_sums.jump_sums(kernel, *_charged_breakpoints(profile), x)


def _snapshot_terms(profile, kernel, mobility, test_fn, cs, fcs, n_space):
    """Spatial integrals feeding the time quadrature at one snapshot, per grid and constant.

    Returns arrays (S_abs, S_flux) of shape (2, len(cs)), row 0 on the
    ``n_space`` grid and row 1 on the ``2 * n_space`` grid, columns indexed
    like the constants ``cs``, whose fluxes f(c) are ``fcs``, with
      S_abs  = int |rho - c| phi dx
      S_flux = int sign(rho - c) [ (f(rho) - f(c)) W1 phi' - f(c) W2 phi ] dx,
    and the largest expansion order of the jump sums (0 when they lay past
    ``MAX_REACH`` and ran direct).  Both grids' points sit in one array, so
    everything that does not depend on c is evaluated in one pass, the jump
    sums included.  The fine grid's end cells are no wider than the coarse
    grid's, so its outermost points lie farther out and every point takes
    the order the fine grid alone would.
    Each integral sums its own grid's contiguous slice, in the order a grid
    of its own would.
    """
    x, w, (split, _) = _quad_grid(profile, *test_fn.x_support, n_space, 2 * n_space)
    phi, dphi = test_fn.phi_and_dphi(x)
    w1, w2, terms = _convolutions(kernel, profile, x)
    rho = profile.value_at(x)
    del x  # frees the points before the per-constant buffers
    f_rho = mobility.flux(rho)
    grids = (slice(0, split), slice(split, None))
    s_abs = np.empty((2, len(cs)))
    s_flux = np.empty((2, len(cs)))
    dev, a, b = (np.empty_like(rho) for _ in range(3))
    for j, (c, fc) in enumerate(zip(cs, fcs)):
        np.subtract(rho, c, out=dev)
        np.abs(dev, out=a)
        a *= w
        a *= phi  # w |rho - c| phi
        for g, cells in enumerate(grids):
            s_abs[g, j] = np.add.reduce(a[cells])
        np.subtract(f_rho, fc, out=a)
        a *= w1
        a *= dphi
        np.multiply(w2, fc, out=b)
        b *= phi
        a -= b  # (f(rho) - f(c)) W1 phi' - f(c) W2 phi
        np.sign(dev, out=b)
        b *= w
        b *= a
        for g, cells in enumerate(grids):
            s_flux[g, j] = np.add.reduce(b[cells])
    return s_abs, s_flux, terms


def _time_quadrature(times, s_abs, s_flux, test_fn) -> np.ndarray:
    """Initial term plus trapezoidal time integral, one residual per column.

    Rows of ``s_abs``/``s_flux`` are the snapshots at ``times``, columns the
    constants.
    """
    acc = np.zeros(s_abs.shape[1])
    g_prev = None
    for k, t in enumerate(times):
        g = s_abs[k] * test_fn.dxi(t) - s_flux[k] * test_fn.xi(t)
        if k:
            acc += 0.5 * (t - times[k - 1]) * (g + g_prev)
        g_prev = g
    return s_abs[0] * test_fn.xi(times[0]) + acc


def entropy_residuals(
    snapshots,
    kernel: Kernel,
    mobility: Mobility,
    test_fn: TestFunction,
    c_list,
    n_space: int = N_SPACE,
) -> list[EntropyReport]:
    """Residuals of a trajectory against one test function, one per constant.

    ``snapshots`` is a sequence of (time, DensityProfile) with strictly
    increasing times starting at 0 and covering the temporal support of the
    test function.  Each residual is evaluated at ``n_space`` and 2*n_space
    spatial cells; the difference, plus the change from halving the snapshot
    density, estimates the quadrature error, and the violation flag fires
    only below -max(_GUARD_FLOOR, 10 * estimate).

    All constants share one pass over the snapshots: the kernel sums and
    the other c-independent integrands are evaluated once per snapshot, on
    both grids at once, whatever the length of ``c_list``, and f(c) once per
    constant.  A snapshot whose profile object an earlier snapshot already
    holds, as on every snapshot of a frozen trajectory, reuses that
    snapshot's spatial integrals, so each distinct profile is evaluated once.
    """
    cs, n_space = check_audit_inputs(c_list, n_space)
    snaps = [(float(t), p) for t, p in snapshots]
    if not snaps:
        raise ValueError("need at least one snapshot")
    times = [t for t, _ in snaps]
    if times[0] != 0.0 or not all(b > a for a, b in zip(times, times[1:])):
        raise ValueError("snapshot times must increase strictly from 0")
    if times[-1] < test_fn.t_support_end - 1e-12:
        raise ValueError(
            f"trajectory ends at t={times[-1]:g} but the test function is supported up to t={test_fn.t_support_end:g}"
        )
    # per-snapshot scalars only: (coarse, fine) grid, then rows are snapshots, columns constants
    s_abs, s_flux = np.empty((2, len(snaps), len(cs))), np.empty((2, len(snaps), len(cs)))
    fcs = [mobility.flux(c) for c in cs]
    terms = 0
    first_seen = {}  # id of a profile -> the first snapshot holding it; snaps keeps every profile alive
    for k, (_, profile) in enumerate(snaps):
        first = first_seen.setdefault(id(profile), k)
        if first < k:
            s_abs[:, k], s_flux[:, k] = s_abs[:, first], s_flux[:, first]
            continue
        s_abs[:, k], s_flux[:, k], p = _snapshot_terms(profile, kernel, mobility, test_fn, cs, fcs, n_space)
        terms = max(terms, p)
    (coarse_abs, fine_abs), (coarse_flux, fine_flux) = s_abs, s_flux
    coarse = _time_quadrature(times, coarse_abs, coarse_flux, test_fn)
    fine = _time_quadrature(times, fine_abs, fine_flux, test_fn)
    if not np.all(np.isfinite(fine)):
        raise ValueError("residual is not finite")
    est = np.abs(fine - coarse)
    if len(snaps) >= 3:
        # halved snapshot density bounds the trapezoid-in-time error; its
        # rows are a subset of the fine pass
        rows = list(range(0, len(snaps), 2))
        if (len(snaps) - 1) % 2:
            rows.append(len(snaps) - 1)
        thin = _time_quadrature([times[k] for k in rows], fine_abs[rows], fine_flux[rows], test_fn)
        est += np.abs(thin - fine)
    resolution = f"space={2 * n_space}x3gauss;snapshots={len(snaps)}"
    reports = []
    for c, res, res_coarse, err in zip(cs, fine.tolist(), coarse.tolist(), est.tolist()):
        guard = max(_GUARD_FLOOR, 10.0 * err)
        reports.append(EntropyReport(c, test_fn.label, res, resolution, res_coarse, err, guard, res < -guard, terms))
    return reports


def entropy_residual(
    snapshots,
    kernel: Kernel,
    mobility: Mobility,
    test_fn: TestFunction,
    c: float,
    n_space: int = N_SPACE,
) -> EntropyReport:
    """Residual of a trajectory against one (test function, constant) pair:
    the one-constant form of :func:`entropy_residuals`."""
    return entropy_residuals(snapshots, kernel, mobility, test_fn, (c,), n_space)[0]
