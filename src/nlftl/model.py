"""Congestion mobility and attractive interaction kernels.

The transport velocity of the model is v(rho) * (K' conv rho): a truncated
linear mobility that vanishes at the cap density, and the derivative of an
attractive Gaussian well K(x) = -A exp(-B x^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# amplitude that normalises the Gaussian well to unit L1 size at B = 1/2
GAUSSIAN_AMPLITUDE = 1.0 / math.sqrt(2.0 * math.pi)


def _same_kind(out: np.ndarray, like) -> np.ndarray | float:
    if np.ndim(like) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Mobility:
    """Truncated-linear mobility v(rho) = v_max * (1 - rho/cap)+.

    ``cap`` is the maximal admissible density: v is clamped to zero for
    rho >= cap so the velocity law stays defined for over-dense arguments.
    """

    cap: float = 1.0
    v_max: float = 1.0

    def __post_init__(self) -> None:
        if not (self.cap > 0.0 and math.isfinite(self.cap)):
            raise ValueError("cap must be positive and finite")
        if not (self.v_max > 0.0 and math.isfinite(self.v_max)):
            raise ValueError("v_max must be positive and finite")

    def _check_density(self, rho: np.ndarray) -> None:
        if np.any(rho < 0.0) or np.any(np.isnan(rho)):
            raise ValueError("density must be non-negative")

    def __call__(self, rho):
        """Mobility value; accepts scalars or arrays, rejects negative density."""
        arr = np.asarray(rho, dtype=float)
        self._check_density(arr)
        return _same_kind(self.value_unchecked(arr), rho)

    def value_unchecked(self, arr: np.ndarray) -> np.ndarray:
        """v on a float array with no density check, for densities known to be > 0 or +inf.

        The one definition of v: :meth:`__call__` and :meth:`flux_unchecked`
        run it; v(+inf) = 0.
        """
        return self.v_max * np.maximum(0.0, 1.0 - arr / self.cap)

    def d1(self, rho):
        """v'(rho): -v_max/cap below the cap, 0 at and above it, where v is 0."""
        arr = np.asarray(rho, dtype=float)
        self._check_density(arr)
        out = np.where(arr < self.cap, -self.v_max / self.cap, 0.0)
        return _same_kind(out, rho)

    def flux(self, rho):
        """f(rho) = rho * v(rho); vanishes exactly at rho = 0 and rho >= cap."""
        arr = np.asarray(rho, dtype=float)
        self._check_density(arr)
        with np.errstate(invalid="ignore"):  # inf * 0 where rho = inf, masked to 0
            out = self.flux_unchecked(arr)
        return _same_kind(out, rho)

    def flux_unchecked(self, arr: np.ndarray) -> np.ndarray:
        """f on a float array with no density check, for values already clamped to [0, cap].

        The one definition of f: :meth:`flux` runs it after its check.
        """
        v = self.value_unchecked(arr)
        return np.where(v > 0.0, arr * v, 0.0)

    @property
    def flux_argmax(self) -> float:
        """Maximiser of the unimodal flux (cap/2 for the truncated-linear law)."""
        return 0.5 * self.cap

    @property
    def dflux_bound(self) -> float:
        """max over [0, cap] of |f'|, attained at the endpoints."""
        return self.v_max


@dataclass(frozen=True)
class Kernel:
    """Attractive Gaussian well K(x) = -amplitude * exp(-inv_width * x^2).

    K(0) = -amplitude < 0, K is even, K' > 0 on (0, inf): particles are
    pulled toward regions of mass.  Evenness is exact in floating point
    because every evaluation goes through x*x.
    """

    amplitude: float = GAUSSIAN_AMPLITUDE
    inv_width: float = 0.5

    def __post_init__(self) -> None:
        if not (self.amplitude > 0.0 and math.isfinite(self.amplitude)):
            raise ValueError("amplitude must be positive and finite")
        if not (self.inv_width > 0.0 and math.isfinite(self.inv_width)):
            raise ValueError("inv_width must be positive and finite")

    def gauss(self, arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """exp(-B x^2) in one array (fresh unless ``out`` is given), also for 0-d input."""
        e = np.multiply(-self.inv_width, arr, out=np.empty_like(arr) if out is None else out)
        e *= arr
        return np.exp(e, out=e)

    def value(self, x):
        out = -self.amplitude * self.gauss(np.asarray(x, dtype=float))
        return _same_kind(out, x)

    def d1(self, x):
        """K'(x) = 2AB x exp(-B x^2); odd, positive for x > 0."""
        arr = np.asarray(x, dtype=float)
        out = (2.0 * self.amplitude * self.inv_width) * arr * self.gauss(arr)
        return _same_kind(out, x)

    def value_and_d1(self, x, out=None):
        """(K(x), K'(x)) from one exponential, bitwise equal to value and d1.

        ``out``, a pair of float arrays shaped like ``x``, receives the two
        results, so repeated calls allocate nothing.
        """
        arr = np.asarray(x, dtype=float)
        k, k1 = (None, None) if out is None else out
        g = self.gauss(arr, k)
        d1 = np.multiply(2.0 * self.amplitude * self.inv_width, arr, out=k1)
        d1 *= g
        g *= -self.amplitude
        return _same_kind(g, x), _same_kind(d1, x)

    def d2(self, x):
        """K''(x) = 2AB (1 - 2B x^2) exp(-B x^2)."""
        arr = np.asarray(x, dtype=float)
        out = (2.0 * self.amplitude * self.inv_width) * (1.0 - 2.0 * self.inv_width * arr * arr) * self.gauss(arr)
        return _same_kind(out, x)

    def lipschitz_bound(self, interval: tuple[float, float]) -> float:
        """sup of |K''| over a closed interval: a Lipschitz constant for K'.

        |K''| is maximised either at an endpoint or at one of the interior
        critical points x = 0 and x^2 = 3/(2B), so checking those suffices.
        """
        a, b = float(interval[0]), float(interval[1])
        if not a < b:
            raise ValueError("interval must satisfy a < b")
        candidates = [a, b]
        star = math.sqrt(1.5 / self.inv_width)
        for c in (0.0, star, -star):
            if a < c < b:
                candidates.append(c)
        return float(np.max(np.abs(self.d2(np.asarray(candidates)))))
