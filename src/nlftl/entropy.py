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
evaluation per breakpoint weighted by the density jump; above a crossover
these jump sums come from the Gauss-Taylor expansion of
:mod:`nlftl.gauss_sums`.  The space integral
uses 3-point Gauss-Legendre on the merged cell grid and the time integral
is trapezoidal over the snapshots.  The c-independent integrands (density,
flux, both convolutions, phi and phi') are evaluated once per snapshot and
grid and shared by every constant of an audit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import gauss_sums
from .errors import ConfigError
from .model import Kernel, Mobility
from .profiles import DensityProfile, sorted_union

_GL_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])
# Crossover and term cap of the Gauss-Taylor jump sums, measured on a 2-vCPU
# Xeon VM (medians of 7 x 40 calls, 2,439 points on [-6, 6]): the direct
# blocks take 1.43 times the expansion's time at 24 breakpoints with 40 terms
# (the audit's order) and 1.03 times with 63 terms; 0.97 and 0.60 at 12.
_EXPANSION_MIN_BREAKPOINTS = 24
_EXPANSION_MAX_TERMS = 64
_GUARD_FLOOR = 1e-6  # smallest guard band below zero before a residual is flagged
N_SPACE = 256  # default spatial quadrature cells of the coarse pass; the fine pass takes twice as many
MAX_N_SPACE = 100_000  # most coarse-pass cells: a snapshot's work peaks at about 68 MB here (6.8 MB at 10^4 under tracemalloc)
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

    def value(self, x) -> np.ndarray:
        u = self._u(x)
        if self.kind == "cos2":
            inside = np.abs(u) < 0.5
            return self.amplitude * np.where(inside, np.cos(np.pi * u) ** 2, 0.0)
        w = 1.0 - 4.0 * u * u  # mollifier variable 2u in (-1, 1)
        inside = w > 1e-12
        safe = np.where(inside, w, 1.0)
        return self.amplitude * np.where(inside, np.exp(1.0 - 1.0 / safe), 0.0)

    def deriv(self, x) -> np.ndarray:
        u = self._u(x)
        if self.kind == "cos2":
            inside = np.abs(u) < 0.5
            return self.amplitude * np.where(
                inside, -(np.pi / self.width) * np.sin(2.0 * np.pi * u), 0.0
            )
        w = 1.0 - 4.0 * u * u
        inside = w > 1e-12
        safe = np.where(inside, w, 1.0)
        val = np.where(inside, np.exp(1.0 - 1.0 / safe), 0.0)
        return self.amplitude * np.where(inside, val * (-8.0 * u / (safe * safe)) / self.width, 0.0)


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

    def phi(self, x) -> np.ndarray:
        out = np.zeros_like(np.asarray(x, dtype=float))
        for b in self.bumps:
            out = out + b.value(x)
        return out

    def dphi(self, x) -> np.ndarray:
        out = np.zeros_like(np.asarray(x, dtype=float))
        for b in self.bumps:
            out = out + b.deriv(x)
        return out

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
    where all of them ran direct; it goes to ``meta.json``, not to the record.
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


def check_audit_inputs(c_list, n_space) -> list[float]:
    """The constants of an audit as floats; raises ConfigError (a ValueError)
    unless there is at least one, each is finite and non-negative, and
    n_space is an integer in [1, MAX_N_SPACE]."""
    cs = [float(c) for c in c_list]
    if not cs:
        raise ConfigError("need at least one constant c")
    if not all(c >= 0.0 and math.isfinite(c) for c in cs):
        raise ConfigError("c must be a finite non-negative constant")
    if not (isinstance(n_space, numbers.Integral) and 1 <= n_space <= MAX_N_SPACE):
        raise ConfigError(f"n_space must be an integer in [1, {MAX_N_SPACE}], got {n_space!r}")
    return cs


def _quad_grid(profile: DensityProfile, lo: float, hi: float, n_space: int):
    """Gauss points/weights on profile breakpoints merged with a uniform refinement."""
    pts = profile.breakpoints
    pts = pts[(pts > lo) & (pts < hi)]
    edges = sorted_union(np.linspace(lo, hi, n_space + 1), pts)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return x, w


def _jump_sum_terms(kernel: Kernel, bp: np.ndarray, x: np.ndarray) -> int:
    """Order p of the Gauss-Taylor expansion :func:`_convolutions` uses, 0 for the direct blocks.

    p is the smallest order whose first omitted term R^p / p! is at most
    2^-56, with R = 2B h_b h_x: h_b is the half-span of the charged
    breakpoints ``bp`` (sorted) and h_x the distance of the farthest point
    from their middle.  The direct blocks run below the crossover of
    ``_EXPANSION_MIN_BREAKPOINTS`` and when p exceeds ``_EXPANSION_MAX_TERMS``.
    """
    if bp.size < _EXPANSION_MIN_BREAKPOINTS:
        return 0
    c = 0.5 * (bp[0] + bp[-1])
    h_x = max(abs(float(np.min(x)) - c), abs(float(np.max(x)) - c))
    r = 2.0 * kernel.inv_width * (0.5 * (bp[-1] - bp[0])) * h_x
    return gauss_sums.terms(r, _EXPANSION_MAX_TERMS)


def _direct_jump_sums(kernel: Kernel, bp: np.ndarray, coef: np.ndarray, x: np.ndarray):
    """The jump sums of :func:`_convolutions`, one kernel evaluation per (point, breakpoint).

    The points are walked in blocks of about ``gauss_sums.BLOCK`` kernel
    evaluations, so memory stays bounded at any N; each row is summed whole,
    so the sums equal ``sum(coef * kernel.value(d))`` and
    ``sum(coef * kernel.d1(d))`` exactly.  Every block is computed into the
    same three arrays of :func:`nlftl.gauss_sums.work_arrays`: a fresh
    allocation per call this size takes new pages from the OS each time.
    """
    w1, w2 = np.zeros_like(x), np.zeros_like(x)
    rows = max(1, min(x.size, gauss_sums.BLOCK // bp.size))
    if bp.size <= gauss_sums.BLOCK:
        d, k, k1 = gauss_sums.work_arrays((rows, bp.size))
    else:  # one row outgrows the work area
        d, k, k1 = (np.empty((rows, bp.size)) for _ in range(3))
    for start in range(0, x.size, rows):
        m = min(rows, x.size - start)
        np.subtract(x[start : start + m, None], bp, out=d[:m])
        kernel.value_and_d1(d[:m], out=(k[:m], k1[:m]))
        k[:m] *= coef
        k1[:m] *= coef
        w1[start : start + m] = np.sum(k[:m], axis=1)
        w2[start : start + m] = np.sum(k1[:m], axis=1)
    return w1, w2


def _expanded_jump_sums(kernel: Kernel, bp: np.ndarray, coef: np.ndarray, x: np.ndarray, p: int):
    """The jump sums of :func:`_convolutions` by a p-term expansion about the middle c of ``bp``.

    With u = . - c and e, a_n as in :mod:`nlftl.gauss_sums`, the p+1 global
    moments M_n = sum_j coef_j e_j a_n(u_j) give
    W1 = -A e_x sum_{n<p} a_n(u_x) M_n and, by the twin identity,
    W2 = 2AB e_x sum_{n<p} a_n(u_x) (u_x M_n - sqrt((n+1)/(2B)) M_{n+1}).
    The moments add up over blocks of ``gauss_sums.BLOCK // (p+1)``
    breakpoints, all orders at once, in a work array that
    :func:`nlftl.gauss_sums.work_arrays` holds across calls.  Since
    a_n(u) = a_n(1) u^n, each sum over n is a polynomial in u_x, evaluated
    by Horner's rule on all points at once: O(points) memory, 2p passes.
    """
    c = 0.5 * (bp[0] + bp[-1])
    step, twin = gauss_sums.factors(p, kernel.inv_width)
    cols = max(1, gauss_sums.BLOCK // (p + 1))
    a_buf = gauss_sums.work_arrays((p + 1, min(cols, bp.size)))[0]
    moments = np.zeros(p + 1)
    for lo in range(0, bp.size, cols):
        u = bp[lo : lo + cols] - c
        a = gauss_sums.basis(step[:, None], u, a_buf[:, : u.size])
        a *= coef[lo : lo + cols] * kernel.gauss(u)
        moments += np.sum(a, axis=1)
    scale = gauss_sums.basis(step[: p - 1], 1.0, np.empty(p))  # a_n(1)
    g1 = moments[:p] * scale
    g2 = twin * moments[1:] * scale
    u = x - c
    s1, s2 = np.full_like(u, g1[-1]), np.full_like(u, g2[-1])
    for n in range(p - 2, -1, -1):
        s1 *= u
        s1 += g1[n]
        s2 *= u
        s2 += g2[n]
    e = kernel.gauss(u)
    s2 -= u * s1  # -(u_x S1 - S2)
    s2 *= e
    s2 *= -2.0 * kernel.amplitude * kernel.inv_width
    s1 *= e
    s1 *= -kernel.amplitude
    return s1, s2


def _convolutions(kernel: Kernel, profile: DensityProfile, x: np.ndarray):
    """(K' conv rho, K'' conv rho) at points x, exact per cell, and the expansion order used.

    sum_i r_i [K(x-a_i) - K(x-b_i)] regroups into jump coefficients at the
    breakpoints: W1(x) = sum_j coef_j K(x - b_j), W2(x) = sum_j coef_j K'(x - b_j).
    Above the crossover, and while the expansion needs at most the term cap
    (see :func:`_jump_sum_terms`), the sums come from the Gauss-Taylor
    expansion of :func:`_expanded_jump_sums`, O((points + breakpoints) p)
    work; otherwise from :func:`_direct_jump_sums`, O(points x breakpoints).
    Both use O(points + breakpoints) memory and plain numpy reductions in a
    fixed order, so results repeat bitwise.  Returns (W1, W2, p), p = 0 on
    the direct path.
    """
    jumps = np.diff(profile.values, prepend=0.0, append=0.0)
    keep = jumps != 0.0
    bp = profile.breakpoints[keep]
    coef = jumps[keep]
    if bp.size == 0:
        return np.zeros_like(x), np.zeros_like(x), 0
    p = _jump_sum_terms(kernel, bp, x)
    if p == 0:
        return (*_direct_jump_sums(kernel, bp, coef, x), 0)
    return (*_expanded_jump_sums(kernel, bp, coef, x, p), p)


def _snapshot_terms(profile, kernel, mobility, test_fn, cs, fcs, n_space):
    """Spatial integrals feeding the time quadrature at one snapshot, per constant.

    Returns arrays (S_abs, S_flux) indexed like the constants ``cs``, whose
    fluxes f(c) are ``fcs``, with
      S_abs  = int |rho - c| phi dx
      S_flux = int sign(rho - c) [ (f(rho) - f(c)) W1 phi' - f(c) W2 phi ] dx,
    and the expansion order of the jump sums (0 when they ran direct).
    Everything that does not depend on c is evaluated once.
    """
    lo, hi = test_fn.x_support
    x, w = _quad_grid(profile, lo, hi, n_space)
    rho = profile.value_at(x)
    f_rho = mobility.flux(rho)
    w1, w2, terms = _convolutions(kernel, profile, x)
    phi = test_fn.phi(x)
    dphi = test_fn.dphi(x)
    s_abs = np.empty(len(cs))
    s_flux = np.empty(len(cs))
    for j, (c, fc) in enumerate(zip(cs, fcs)):
        dev = rho - c
        s_abs[j] = np.sum(w * np.abs(dev) * phi)
        s_flux[j] = np.sum(w * np.sign(dev) * ((f_rho - fc) * w1 * dphi - fc * w2 * phi))
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
    the other c-independent integrands are evaluated once per snapshot and
    grid, whatever the length of ``c_list``, and f(c) once per constant.  A
    snapshot whose profile object an earlier snapshot already holds, as on
    every snapshot of a frozen trajectory, reuses that snapshot's spatial
    integrals, so each distinct profile is evaluated once per grid.
    """
    cs = check_audit_inputs(c_list, n_space)
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
    # per-snapshot scalars only: rows are snapshots, columns constants
    coarse_abs, coarse_flux, fine_abs, fine_flux = (np.empty((len(snaps), len(cs))) for _ in range(4))
    fcs = [mobility.flux(c) for c in cs]
    terms = 0
    first_seen = {}  # id of a profile -> the first snapshot holding it; snaps keeps every profile alive
    for k, (_, profile) in enumerate(snaps):
        first = first_seen.setdefault(id(profile), k)
        if first < k:
            for rows in (coarse_abs, coarse_flux, fine_abs, fine_flux):
                rows[k] = rows[first]
            continue
        coarse_abs[k], coarse_flux[k], p_coarse = _snapshot_terms(profile, kernel, mobility, test_fn, cs, fcs, n_space)
        fine_abs[k], fine_flux[k], p_fine = _snapshot_terms(profile, kernel, mobility, test_fn, cs, fcs, 2 * n_space)
        terms = max(terms, p_coarse, p_fine)
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
