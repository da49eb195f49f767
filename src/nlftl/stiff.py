"""Variable-order BDF stepper with a tridiagonal Newton matrix.

This is scipy's ``scipy.integrate.BDF`` (scipy 1.17) carried over step for
step: the NDF formulas of orders 1 to 5 with a quasi-constant step size
(Shampine & Reichelt, "The MATLAB ODE Suite", SIAM J. Sci. Comput. 18,
1997), the simplified Newton iteration and its convergence test, step-size
and order control, the initial-step rule (Hairer, Norsett & Wanner, Solving
ODEs I, II.4) and the dense output, with the same counters of right-hand
side evaluations, Jacobian evaluations and LU factorizations.  It differs in
four ways:

- the Jacobian is tridiagonal, passed as its three diagonals, and the Newton
  matrix I - cJ is factored without pivoting and solved by doubling scans
  in O(n) memory (:class:`TridiagonalLU`);
- every product and norm is a plain numpy reduction in a fixed order, never
  BLAS, so results repeat bitwise;
- the error scale is one length, not a parameter: ``_RTOL`` times the span
  y0[-1] - y0[0] of the (ordered) initial state for every component, where
  scipy's ``atol + rtol * |y|`` would depend on where the origin lies;
- it keeps only what :func:`nlftl.particles.integrate` reads, not the
  ``OdeSolver`` interface: no status strings, and a step that cannot be
  taken raises :class:`InvariantViolation`.

Importing it loads numpy only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvariantViolation

# Error length of the BDF steps per unit of the initial span (``BDF.scale``).
# It also sets the slack of the gap-floor check in ``particles.integrate``, so
# it is fixed here and no caller can loosen that check.
_RTOL = 1e-8

_MAX_ORDER = 5
_NEWTON_MAXITER = 4
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_EPS = float(np.finfo(float).eps)
_NEWTON_TOL = max(10 * _EPS / _RTOL, min(0.03, _RTOL**0.5))

# NDF coefficients by order (index 0 unused), as scipy computes them
_KAPPA = np.array([0, -0.1850, -1 / 9, -0.0823, -0.0415, 0])
_GAMMA = np.hstack((0, np.cumsum(1 / np.arange(1, _MAX_ORDER + 1))))
_ALPHA = (1 - _KAPPA) * _GAMMA
_ERROR_CONST = _KAPPA * _GAMMA + 1 / np.arange(1, _MAX_ORDER + 2)

_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


class TridiagonalLU:
    """LU factors of I - cJ for a tridiagonal J, without pivoting.

    ``lower``, ``main`` and ``upper`` are J's sub-, main and super-diagonal
    (lengths n-1, n, n-1).  The pivots come from the scalar recurrence
    d_i = a_i - l_i u_{i-1} / d_{i-1}; each must be positive, which holds
    when I - cJ is a row-diagonally-dominant M-matrix (then every d_i >= 1),
    as for the particle Jacobian on ordered particles with c > 0: its
    off-diagonals are >= 0 and its rows sum to zero.  A pivot that is not
    positive raises :class:`InvariantViolation`.

    :meth:`solve` runs the two first-order recurrences of the triangular
    solves, z_i = b_i - (l_i / d_{i-1}) z_{i-1} and
    x_i = z_i / d_i - (u_i / d_i) x_{i+1}, as doubling scans (Hillis &
    Steele): log2(n) vector passes each.  Only the pivots, the first-pass
    multipliers and a (3, n-1) work array are kept, about 7n doubles; each
    solve forms the later passes' multipliers anew, bit for bit.
    """

    def __init__(self, c: float, lower: np.ndarray, main: np.ndarray, upper: np.ndarray) -> None:
        n = main.size
        l = -c * lower  # A[i, i-1]
        u = -c * upper  # A[i, i+1]
        diag = memoryview(1.0 - c * main)  # no lists of n floats
        d = diag[0]
        piv = [d]
        for a, q in zip(diag[1:], memoryview(l * u)):
            if not d > 0.0:
                break
            d = a - q / d
            piv.append(d)
        if not d > 0.0:
            raise InvariantViolation(f"Newton matrix pivot {d!r} at row {len(piv) - 1} of {n} is not positive")
        self.pivots = np.array(piv)
        del diag, piv  # before the scan arrays are made
        self._x = x = np.empty(n)  # the solve works in place, on views of x
        work = np.empty((3, max(n - 1, 0)))  # shared by both scans
        self._forward = _doubling_passes(-l / self.pivots[:-1], x, work, forward=True)
        self._backward = _doubling_passes(-u / self.pivots[:-1], x, work, forward=False)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (I - cJ) x = b, as a new array."""
        x = self._x
        x[...] = b
        _scan(self._forward)  # x_i += m x_{i-s}
        x /= self.pivots
        _scan(self._backward)  # x_i += m x_{i+s}
        return x.copy()


def _doubling_passes(coef: np.ndarray, x: np.ndarray, work: np.ndarray, forward: bool) -> list:
    """Views for each pass of a doubling scan of x_i += coef x_{i-+1} over x.

    The pass of shift s adds the product m of the s multipliers it bridges
    times the entry s places away: past the first pass, two of the last
    pass's m, s/2 apart, formed into ``work[0]`` and ``work[1]`` in turn.
    """
    n = x.size
    passes = []
    s, m, factors = 1, coef, ()
    while s < n:
        dst, src = (x[s:], x[:-s]) if forward else (x[:-s], x[s:])
        passes.append((factors, m, dst, src, work[2, : n - s]))
        factors, m = (m[s:], m[:-s]), work[s.bit_length() % 2, : n - 2 * s]
        s *= 2
    return passes


def _scan(passes: list) -> None:
    """Run the passes of :func:`_doubling_passes` in place."""
    for factors, m, dst, src, tmp in passes:
        if factors:
            np.multiply(*factors, out=m)
        np.add(dst, np.multiply(m, src, out=tmp), out=dst)


def _rms(x: np.ndarray) -> float:
    """Root mean square, by a plain sum; rescaled by max|x| where the squares overflow, and NaN stays NaN."""
    with np.errstate(over="ignore"):
        total = float(np.sum(x * x))
    if math.isinf(total):  # a NaN makes the sum NaN, not inf
        big = float(np.max(np.abs(x)))
        if big < math.inf:
            scaled = x / big
            return big * math.sqrt(float(np.sum(scaled * scaled)) / x.size)
    return math.sqrt(total / x.size)


def _positive_step(h: float) -> float:
    """``h``, checked to be a positive finite step."""
    if not 0.0 < h < math.inf:
        raise InvariantViolation(f"integrator failed at the start: step {h!r} is not a positive finite number")
    return h


def _compute_r(order: int, factor: float) -> np.ndarray:
    """The matrix that rescales the differences array for a step-size ratio ``factor``."""
    i = np.arange(1, order + 1)[:, None]
    j = np.arange(1, order + 1)
    m = np.zeros((order + 1, order + 1))
    m[1:, 1:] = (i - 1 - factor * j) / i
    m[0] = 1
    return np.cumprod(m, axis=0)


class BDF:
    """Variable-order BDF (NDF) integration of y' = fun(t, y) from t0 to t_bound > t0.

    ``jac(t, y)`` returns the three diagonals (lower, main, upper) of the
    Jacobian of ``fun``.  :meth:`step` advances one accepted step, the last
    one ending at t_bound exactly; ``t`` and ``y`` are its end (each accepted
    step gets a new ``y`` array), :meth:`dense_output` interpolates over it,
    and ``nfev``, ``njev`` and ``nlu`` count right-hand sides, Jacobians and
    factorizations.  Every error and Newton norm is in units of ``scale``.
    """

    def __init__(self, fun, t0: float, y0: np.ndarray, t_bound: float, jac) -> None:
        self.t = t0
        self.y = y0
        self.t_bound = t_bound
        self.nfev = self.njev = self.nlu = 0
        self._fun, self._jac = fun, jac
        self.scale = _RTOL * float(y0[-1] - y0[0])
        f = self.fun(t0, y0)
        self.h_abs = self._initial_step(f)
        self.J = self.jac(t0, y0)
        self.D = np.zeros((_MAX_ORDER + 3, y0.size))  # the first step reads row 2 before it writes it
        self.D[0] = y0
        self.D[1] = f * self.h_abs
        self._rows = np.empty((_MAX_ORDER + 1, y0.size))  # products of the difference rows
        self._new = np.empty((_MAX_ORDER + 1, y0.size))  # rescaled differences
        self.order = 1
        self.n_equal_steps = 0
        self.LU = None

    def fun(self, t: float, y: np.ndarray) -> np.ndarray:
        self.nfev += 1
        return self._fun(t, y)

    def jac(self, t: float, y: np.ndarray):
        self.njev += 1
        return self._jac(t, y)

    def lu(self, c: float, J) -> TridiagonalLU:
        self.nlu += 1
        self.LU = None  # free the old factors first
        return TridiagonalLU(c, *J)

    def _initial_step(self, f0: np.ndarray) -> float:
        """Hairer, Norsett & Wanner's starting step for an order-1 error estimate,
        whose d0 measures y0 itself, as in scipy.  A norm that overflows leaves a
        step of 0, and a step not positive and finite raises :class:`InvariantViolation`."""
        t0, y0, scale = self.t, self.y, self.scale
        interval_length = abs(self.t_bound - t0)
        with np.errstate(over="ignore"):
            d0 = _rms(y0) / scale
            d1 = _rms(f0) / scale
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = _positive_step(min(h0, interval_length))
        y1 = y0 + h0 * f0
        f1 = self.fun(t0 + h0, y1)
        with np.errstate(over="ignore"):
            d2 = _rms(f1 - f0) / scale / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 2)
        return _positive_step(min(100 * h0, h1, interval_length))

    def _change_d(self, order: int, factor: float) -> None:
        """Rescale the differences array in place for a step size ``factor`` times the old."""
        r = _compute_r(order, factor)
        u = _compute_r(order, 1)
        ru = np.sum(r[:, :, None] * u[None, :, :], axis=1)  # the product R U
        k = order + 1
        D, rows, new = self.D[:k], self._rows[:k], self._new[:k]
        for i in range(k):  # new[i] = sum_j (RU)[j, i] D[j]
            np.multiply(ru[:, i, None], D, out=rows)
            np.sum(rows, axis=0, out=new[i])
        D[...] = new

    def _solve_bdf_system(self, t_new, y_predict, c, psi, LU):
        """The Newton iteration for the implicit step: (converged, iterations, y, d)."""
        d = 0
        y = y_predict.copy()
        dy_norm_old = None
        converged = False
        for k in range(_NEWTON_MAXITER):
            f = self.fun(t_new, y)
            if not np.all(np.isfinite(f)):
                break
            dy = LU.solve(c * f - psi - d)
            dy_norm = _rms(dy) / self.scale
            rate = None if dy_norm_old is None else dy_norm / dy_norm_old
            if rate is not None and (rate >= 1 or rate ** (_NEWTON_MAXITER - k) / (1 - rate) * dy_norm > _NEWTON_TOL):
                break
            y += dy
            d += dy
            if dy_norm == 0 or rate is not None and rate / (1 - rate) * dy_norm < _NEWTON_TOL:
                converged = True
                break
            dy_norm_old = dy_norm
        return converged, k + 1, y, d

    def step(self) -> None:
        """Advance one accepted step; raises :class:`InvariantViolation` if the
        step size falls below the spacing of floating-point numbers at t."""
        t = self.t
        D = self.D
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        if self.h_abs < min_step:
            h_abs = min_step
            self._change_d(self.order, min_step / self.h_abs)
            self.n_equal_steps = 0
        else:
            h_abs = self.h_abs

        scale, order = self.scale, self.order
        J = self.J
        LU = self.LU
        current_jac = False

        step_accepted = False
        while not step_accepted:
            if h_abs < min_step:
                raise InvariantViolation(f"integrator failed at t={t:.6g}: {_TOO_SMALL_STEP}")
            t_new = t + h_abs
            if t_new > self.t_bound:
                t_new = self.t_bound
                self._change_d(order, (t_new - t) / h_abs)
                self.n_equal_steps = 0
                LU = None
            h = h_abs = t_new - t

            y_predict = np.sum(D[: order + 1], axis=0)
            rows = np.multiply(D[1 : order + 1], _GAMMA[1 : order + 1, None], out=self._rows[:order])
            psi = np.sum(rows, axis=0)
            psi /= _ALPHA[order]

            converged = False
            c = h / _ALPHA[order]
            while not converged:
                if LU is None:
                    LU = self.lu(c, J)
                converged, n_iter, y_new, d = self._solve_bdf_system(t_new, y_predict, c, psi, LU)
                if not converged:
                    if current_jac:
                        break
                    J = self.jac(t_new, y_predict)
                    LU = None
                    current_jac = True

            if not converged:
                factor = 0.5
                h_abs *= factor
                self._change_d(order, factor)
                self.n_equal_steps = 0
                LU = None
                continue

            safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
            error_norm = _rms(_ERROR_CONST[order] * d) / scale
            if error_norm > 1:
                factor = max(_MIN_FACTOR, safety * error_norm ** (-1 / (order + 1)))
                h_abs *= factor
                self._change_d(order, factor)
                self.n_equal_steps = 0
                # the Newton iteration converged, so the factorization stays
            else:
                step_accepted = True

        self.n_equal_steps += 1
        self.t = t_new
        self.y = y_new
        self.h_abs = h_abs
        self.J = J
        self.LU = LU

        # D^{j+1} y_n = D^j y_n - D^j y_{n-1}, and d = D^{k+1} y_n
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]

        if self.n_equal_steps < order + 1:
            return

        error_m_norm = _rms(_ERROR_CONST[order - 1] * D[order]) / scale if order > 1 else np.inf
        error_p_norm = _rms(_ERROR_CONST[order + 1] * D[order + 2]) / scale if order < _MAX_ORDER else np.inf

        error_norms = np.array([error_m_norm, error_norm, error_p_norm])
        with np.errstate(divide="ignore"):
            factors = error_norms ** (-1 / np.arange(order, order + 3))
        delta_order = int(np.argmax(factors)) - 1  # an int, which json writes
        order += delta_order
        self.order = order

        factor = min(_MAX_FACTOR, safety * np.max(factors))
        self.h_abs *= factor
        self._change_d(order, factor)
        self.n_equal_steps = 0
        self.LU = None

    def dense_output(self):
        """The interpolant of the last accepted step, a function of t between its start and ``t``."""
        h = self.h_abs
        t_shift = self.t - h * np.arange(self.order)
        denom = h * (1 + np.arange(self.order))
        D = self.D[: self.order + 1].copy()

        def interpolate(t_eval: float) -> np.ndarray:
            p = np.cumprod((t_eval - t_shift) / denom)
            out = np.sum(D[1:] * p[:, None], axis=0)
            out += D[0]
            return out

        return interpolate
