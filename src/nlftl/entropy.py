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
evaluation per breakpoint weighted by the density jump.  The space integral
uses 3-point Gauss-Legendre on the merged cell grid and the time integral
is trapezoidal over the snapshots.  The c-independent integrands (density,
flux, both convolutions, phi and phi') are evaluated once per snapshot and
grid and shared by every constant of an audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Kernel, Mobility
from .profiles import DensityProfile

_GL_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


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
        if self.horizon < 0.0:
            raise ValueError("horizon must be >= 0")

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


def bump_pair(horizon: float, centers: tuple[float, float] = (-0.5, 0.5), width: float = 0.5) -> TestFunction:
    """Two mollifier bumps, one per interior jump of the split-jam profile."""
    bumps = tuple(SpatialBump("mollifier", c, width) for c in sorted(centers))
    return TestFunction(bumps, horizon, f"mollifier-pair:c={centers[0]:g},{centers[1]:g};w={width:g};T={horizon:g}")


def single_bump(horizon: float, center: float = 0.0, width: float = 1.0, kind: str = "cos2") -> TestFunction:
    return TestFunction(
        (SpatialBump(kind, center, width),),
        horizon,
        f"{kind}:c={center:g};w={width:g};T={horizon:g}",
    )


@dataclass(frozen=True)
class EntropyReport:
    """Residual of one (test function, constant) pair at a known resolution.

    ``violation`` is ``residual < -guard``, where the guard band is
    max(guard_floor, 10 * est_error).
    """

    c: float
    phi: str
    residual: float
    resolution: str
    residual_coarse: float
    est_error: float
    guard: float
    violation: bool

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


def _quad_grid(profile: DensityProfile, lo: float, hi: float, n_space: int):
    """Gauss points/weights on profile breakpoints merged with a uniform refinement."""
    pts = profile.breakpoints
    pts = pts[(pts > lo) & (pts < hi)]
    edges = np.union1d(np.linspace(lo, hi, n_space + 1), pts)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return x, w


def _convolutions(kernel: Kernel, profile: DensityProfile, x: np.ndarray):
    """(K' conv rho, K'' conv rho) at points x, exact per cell.

    sum_i r_i [K(x-a_i) - K(x-b_i)] regroups into jump coefficients at the
    breakpoints, one kernel evaluation per charged breakpoint.  K and K'
    share one exponential; each product is formed in the operation order of
    ``Kernel.value`` and ``Kernel.d1``, so the sums equal
    ``sum(coef * kernel.value(d))`` and ``sum(coef * kernel.d1(d))`` exactly.
    """
    jumps = np.diff(profile.values, prepend=0.0, append=0.0)
    keep = jumps != 0.0
    bp = profile.breakpoints[keep]
    coef = jumps[keep]
    if bp.size == 0:
        return np.zeros_like(x), np.zeros_like(x)
    d = x[:, None] - bp[None, :]
    e = np.multiply(-kernel.inv_width, d)
    e *= d
    np.exp(e, out=e)
    d *= 2.0 * kernel.amplitude * kernel.inv_width
    d *= e
    d *= coef
    w2 = np.sum(d, axis=1)
    e *= -kernel.amplitude
    e *= coef
    w1 = np.sum(e, axis=1)
    return w1, w2


def _snapshot_terms(profile, kernel, mobility, test_fn, cs, n_space):
    """Spatial integrals feeding the time quadrature at one snapshot, per constant.

    Returns arrays (S_abs, S_flux) indexed like ``cs``, with
      S_abs  = int |rho - c| phi dx
      S_flux = int sign(rho - c) [ (f(rho) - f(c)) W1 phi' - f(c) W2 phi ] dx.
    Everything that does not depend on c is evaluated once.
    """
    lo, hi = test_fn.x_support
    x, w = _quad_grid(profile, lo, hi, n_space)
    rho = profile.value_at(x)
    f_rho = mobility.flux(rho)
    w1, w2 = _convolutions(kernel, profile, x)
    phi = test_fn.phi(x)
    dphi = test_fn.dphi(x)
    s_abs = np.empty(len(cs))
    s_flux = np.empty(len(cs))
    for j, c in enumerate(cs):
        dev = rho - c
        fc = mobility.flux(c)
        s_abs[j] = np.sum(w * np.abs(dev) * phi)
        s_flux[j] = np.sum(w * np.sign(dev) * ((f_rho - fc) * w1 * dphi - fc * w2 * phi))
    return s_abs, s_flux


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
    n_space: int = 256,
    guard_floor: float = 1e-6,
) -> list[EntropyReport]:
    """Residuals of a trajectory against one test function, one per constant.

    ``snapshots`` is a sequence of (time, DensityProfile) with strictly
    increasing times starting at 0 and covering the temporal support of the
    test function.  Each residual is evaluated at ``n_space`` and 2*n_space
    spatial cells; the difference, plus the change from halving the snapshot
    density, estimates the quadrature error, and the violation flag fires
    only below -max(guard_floor, 10 * estimate).

    All constants share one pass over the snapshots: the kernel sums and
    the other c-independent integrands are evaluated once per snapshot and
    grid, whatever the length of ``c_list``.
    """
    cs = [float(c) for c in c_list]
    if not cs:
        raise ValueError("need at least one constant c")
    if not all(c >= 0.0 and math.isfinite(c) for c in cs):
        raise ValueError("c must be a finite non-negative constant")
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
    for k, (_, profile) in enumerate(snaps):
        coarse_abs[k], coarse_flux[k] = _snapshot_terms(profile, kernel, mobility, test_fn, cs, n_space)
        fine_abs[k], fine_flux[k] = _snapshot_terms(profile, kernel, mobility, test_fn, cs, 2 * n_space)
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
        guard = max(guard_floor, 10.0 * err)
        reports.append(EntropyReport(c, test_fn.label, res, resolution, res_coarse, err, guard, res < -guard))
    return reports


def entropy_residual(
    snapshots,
    kernel: Kernel,
    mobility: Mobility,
    test_fn: TestFunction,
    c: float,
    n_space: int = 256,
    guard_floor: float = 1e-6,
) -> EntropyReport:
    """Residual of a trajectory against one (test function, constant) pair:
    the one-constant form of :func:`entropy_residuals`."""
    return entropy_residuals(snapshots, kernel, mobility, test_fn, (c,), n_space, guard_floor)[0]
