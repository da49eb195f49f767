"""Single-centre Gauss-Taylor expansion shared by the particle pair sums and
the entropy jump sums (a one-level fast Gauss transform; Greengard & Strain,
SIAM J. Sci. Stat. Comput. 12, 1991).

With u = . - c about a centre c, e(u) = exp(-B u^2) and the basis
a_n(u) = (sqrt(2B) u)^n / sqrt(n!),

    exp(-B (u - v)^2) = e(u) e(v) sum_n a_n(u) a_n(v).

A p-term sum leaves out terms of size at most e(u) e(v) R^n / n! for n >= p,
where R bounds 2B |u v|.  Since e(u) e(v) exp(2B |u v|) <= 1, every term of
the expansion is at most 1 whatever R is, so rounding stays near eps times
the sum of the absolute weights; only p grows with R.  :func:`plan` picks the
centre, the order and the path for both sums by one rule; each caller keeps
only its contraction (prefix sums of the source weights for the one-sided
particle sums, global moments for the full entropy sums).  Every sum takes
its block arrays from one work area held here (:func:`work_arrays`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

_TAIL = 2.0**-56  # bound on the first omitted term R^p / p!
BLOCK = 2**15  # array entries per block or strip of the pair sums and the jump sums
# The path rule of :func:`plan`, measured on a 2-vCPU Xeon VM.  Past R =
# MAX_REACH the direct paths run: the particle sums' max-norm error against
# the strips grows with R and N, to 9.1e-15 at R = 16 (p = 72) on 2,401 to
# 40,001 particles and 1.2e-14 at R = 36 (jump sums: 7e-15 at R = 16).  Up
# to it, the expansion runs when ratio * (sources + targets) * p, its work,
# is below the direct path's sources * targets.  At the crossovers the ratios
# set, the strips take 1.03, 1.10 and 1.01 times the expansion's time (N+1 =
# 6p for p = 19, 41, 72), and the direct blocks on 2,439 points 1.00 times
# (16 breakpoints, p = 41), 0.93 and 1.07 (26 and 32, p = 64); medians.
MAX_REACH = 16.0
PREFIX_RATIO = 3.0  # the one-sided particle pair sums: prefix sums of the source weights
MOMENT_RATIO = 0.4  # the entropy jump sums: global moments of the breakpoint weights


def terms(r: float) -> int:
    """The smallest order p with r^p / p! <= 2^-56, or 0 when r exceeds ``MAX_REACH`` (or is not a number)."""
    if not r <= MAX_REACH:
        return 0
    p, term = 0, 1.0
    while term > _TAIL:
        p += 1
        term *= r / p
    return p


MAX_ORDER = terms(MAX_REACH)  # the largest order plan picks


def plan(
    inv_width: float, sources_lo: float, sources_hi: float, n_sources: int,
    targets_lo: float, targets_hi: float, n_targets: int, ratio: float,
) -> tuple[int, float]:
    """Order p and centre c of an expansion of sources in [sources_lo, sources_hi] at targets in [targets_lo, targets_hi].

    c is the middle of the sources' span and R = 2B h_s h_t, with h_s the
    sources' half-span and h_t the distance from c to the farther target
    end.  p is :func:`terms` (R) when ``ratio`` (``PREFIX_RATIO`` or
    ``MOMENT_RATIO``, after the caller's contraction) times the expansion's
    work (n_sources + n_targets) p is below the direct path's
    n_sources n_targets, and 0, for the direct path, otherwise.
    """
    centre = 0.5 * (sources_lo + sources_hi)
    reach = max(abs(targets_lo - centre), abs(targets_hi - centre))
    p = terms(2.0 * inv_width * (0.5 * (sources_hi - sources_lo)) * reach)
    return (p if ratio * (n_sources + n_targets) * p < n_sources * n_targets else 0), centre


@functools.lru_cache(maxsize=256)
def factors(p: int, inv_width: float) -> tuple[np.ndarray, np.ndarray]:
    """(step, twin) for n < p, as columns along the first axis.

    The basis recurrence is a_{n+1}(u) = step[n] u a_n(u) with
    step[n] = sqrt(2B/(n+1)), and the twin identity is
    u a_n(u) = twin[n] a_{n+1}(u) with twin[n] = sqrt((n+1)/(2B)).
    Both arrays are computed once per (p, B) and shared by every caller,
    so they are read-only.
    """
    root_2b = math.sqrt(2.0 * inv_width)
    orders = np.arange(1.0, p + 1)
    step, twin = root_2b / np.sqrt(orders), np.sqrt(orders) / root_2b
    step.flags.writeable = twin.flags.writeable = False
    return step, twin


@functools.lru_cache(maxsize=256)
def unit_basis(p: int, inv_width: float) -> np.ndarray:
    """a_n(1) for n < p, the coefficients of a_n(u) = a_n(1) u^n.

    Computed once per (p, B) from :func:`factors` and shared by every
    caller, so read-only.
    """
    scale = basis(factors(p, inv_width)[0][: p - 1], 1.0, np.empty(p))
    scale.flags.writeable = False
    return scale


def basis(step: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a_n(u) for n = 0 .. len(out) - 1 into ``out``, one order per leading index.

    ``step`` is shaped to broadcast against ``out[1:]``, whose trailing axes
    are those of ``u``.
    """
    out[0] = 1.0
    np.multiply(step, u, out=out[1:])
    for k in range(1, out.shape[0]):
        out[k] *= out[k - 1]
    return out


@functools.cache
def _work_area() -> np.ndarray:
    return np.empty((3, BLOCK))


def work_arrays(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three arrays of ``shape``, views of one work area held across calls.

    The blocks of the particle pair sums and the entropy jump sums fill about
    ``BLOCK`` entries (256 KB), above glibc's default mmap threshold of
    128 KB, so arrays allocated per call would be mapped and faulted in anew
    on every call.  The views share memory with every earlier caller's: each
    caller writes what it reads, and neither sum calls the other.
    """
    size = math.prod(shape)
    if size > BLOCK:
        raise ValueError(f"work arrays of shape {shape} exceed the {BLOCK} entries of the work area")
    area = _work_area()
    return tuple(row[:size].reshape(shape) for row in area)
