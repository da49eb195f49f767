"""The two Gaussian kernel sums: :func:`pair_sums` of K' over the particles
ahead of and behind each particle, and :func:`jump_sums` of K and K' weighted
by the density jumps, each by a single-centre Gauss-Taylor expansion (a
one-level fast Gauss transform; Greengard & Strain, SIAM J. Sci. Stat.
Comput. 12, 1991), or pair by pair past its accuracy limit.

With u = . - c about a centre c, e(u) = exp(-B u^2) and the basis
a_n(u) = (sqrt(2B) u)^n / sqrt(n!),

    exp(-B (u - v)^2) = e(u) e(v) sum_n a_n(u) a_n(v).

A p-term sum leaves out terms of size at most e(u) e(v) R^n / n! for n >= p,
where R bounds 2B |u v|.  Since e(u) e(v) exp(2B |u v|) <= 1, every term of
the expansion is at most 1 whatever R is, so rounding stays near eps times
the sum of the absolute weights; only p grows with R.  :func:`_plan` picks
the centre and the order of both sums from R alone: they expand wherever R
is at most ``MAX_REACH`` and go pair by pair only past it.  Each sum keeps
only its contraction (prefix sums of the source weights for the one-sided
pair sums, global moments for the full jump sums).  Both paths use plain
numpy reductions in a fixed order, no threads and no BLAS, so results repeat
bitwise, and O(sources + targets) memory: every block comes from one work
area held here (:func:`_work_arrays`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import Kernel

_TAIL = 2.0**-56  # bound on the first omitted term R^p / p!
_BLOCK = 2**15  # array entries per block or strip of both sums
_TILE = 64  # most rows per strip of the pair sums
# The accuracy limit of the expansion, measured on a 2-vCPU Xeon VM: the pair
# sums' max-norm error against the strips grows with R and N, to 9.1e-15 at
# R = 16 (p = 72) on 2,401 to 40,001 particles and 1.2e-14 at R = 36 (jump
# sums: 7e-15 at R = 16).  Past it the direct paths run.
MAX_REACH = 16.0


def _terms(r: float) -> int:
    """The smallest order p with r^p / p! <= 2^-56, or 0 when r exceeds ``MAX_REACH`` (or is not a number)."""
    if not r <= MAX_REACH:
        return 0
    p, term = 0, 1.0
    while term > _TAIL:
        p += 1
        term *= r / p
    return p


MAX_ORDER = _terms(MAX_REACH)  # the largest order either sum takes


def _plan(kernel: Kernel, sources: np.ndarray, targets: np.ndarray) -> tuple[int, float]:
    """Order p and centre c of an expansion of the kernel about c from ``sources`` at ``targets``.

    c is the middle of the sources' span and R = 2B h_s h_t, with h_s the
    sources' half-span and h_t the distance from c to the farther target
    end; neither array needs to be sorted.  p is :func:`_terms` (R): 0, for
    the direct path, only past ``MAX_REACH``.
    """
    lo, hi = float(sources.min()), float(sources.max())
    t_lo, t_hi = (lo, hi) if targets is sources else (float(targets.min()), float(targets.max()))
    centre = 0.5 * (lo + hi)
    return _terms(2.0 * kernel.inv_width * (0.5 * (hi - lo)) * max(abs(t_lo - centre), abs(t_hi - centre))), centre


@functools.lru_cache(maxsize=256)
def _factors(p: int, inv_width: float) -> tuple[np.ndarray, np.ndarray]:
    """(step, twin) for n < p: a_{n+1}(u) = step[n] u a_n(u) and u a_n(u) = twin[n] a_{n+1}(u).

    step[n] = sqrt(2B/(n+1)) and twin[n] = sqrt((n+1)/(2B)) (the twin
    identity), computed once per (p, B) and shared, so read-only.
    """
    root_2b = math.sqrt(2.0 * inv_width)
    orders = np.arange(1.0, p + 1)
    step, twin = root_2b / np.sqrt(orders), np.sqrt(orders) / root_2b
    step.flags.writeable = twin.flags.writeable = False
    return step, twin


@functools.lru_cache(maxsize=256)
def _unit_basis(p: int, inv_width: float) -> np.ndarray:
    """a_n(1) for n < p, the coefficients of a_n(u) = a_n(1) u^n; shared, so read-only."""
    scale = _basis(_factors(p, inv_width)[0][: p - 1], 1.0, np.empty(p))
    scale.flags.writeable = False
    return scale


def _basis(step: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
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
    return np.empty((3, _BLOCK))


def _work_arrays(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three arrays of ``shape``, views of one work area held across calls.

    The blocks of both sums fill about ``_BLOCK`` entries (256 KB), above
    glibc's default mmap threshold of 128 KB, so arrays allocated per call
    would be mapped and faulted in anew on every call.  The views share
    memory with every earlier call's: each sum writes what it reads, and
    neither sum calls the other.
    """
    size = math.prod(shape)
    if size > _BLOCK:
        raise ValueError(f"work arrays of shape {shape} exceed the {_BLOCK} entries of the work area")
    area = _work_area()
    return tuple(row[:size].reshape(shape) for row in area)


def pair_sum_order(x: np.ndarray, kernel: Kernel) -> int:
    """The order of the expansion :func:`pair_sums` takes on ``x``, 0 past ``MAX_REACH``, where it runs the strips."""
    return _plan(kernel, x, x)[0]


def pair_sums(x: np.ndarray, kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """One-sided kernel sums (sum_{j>i} K'(x_i - x_j), sum_{j<i} K'(x_i - x_j)), in fresh arrays.

    By the expansion of :func:`_expanded_pair_sums`, O(N p), wherever R is at
    most ``MAX_REACH``, else by the strips of :func:`_tiled_pair_sums`,
    O(N^2); both in O(N) memory.  Callers may scale the two arrays in place.
    """
    p, centre = _plan(kernel, x, x)  # the particles are both the sources and the targets
    if p == 0:
        return _tiled_pair_sums(x, kernel)
    return _expanded_pair_sums(x, kernel, p, centre)


def pair_sum_error(x: np.ndarray, kernel: Kernel) -> float:
    """How far each one-sided sum of :func:`pair_sums` on ``x`` can lie from the exact sum.

    Each has at most N terms of modulus at most 2AB * span (in the expansion
    too, as e_i e_j exp(2B |u_i u_j|) <= 1), and at most 2 (N + p + 16)
    roundings of eps / 2 lie on the way to any term (running sums over N
    terms in blocks, p basis products, a few more), so it lies within
    2AB * span * N * (N + p + 16) eps of the exact sum, with p the largest
    order, ``MAX_ORDER``; the omitted tail adds under eps / 8 per pair.
    """
    n = x.size - 1
    span = float(x.max() - x.min())
    return 2.0 * kernel.amplitude * kernel.inv_width * span * n * (n + MAX_ORDER + 16) * np.finfo(float).eps


def _tiled_pair_sums(x: np.ndarray, kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """The one-sided sums of :func:`pair_sums`, pair by pair in row strips.

    The sums walk row strips of ``max(8, min(_TILE, _BLOCK // (N+1)))``
    particles, so no temporary exceeds ``_BLOCK`` entries up to N+1 = 4096,
    nor 8*(N+1) beyond.  A strip evaluates K'(x_i - x_j) once on its block
    of pairs j > i (the mirrored pairs inside the strip's diagonal tile are
    evaluated too and masked to zero), adds the block's row sums to the sums
    over j > i, and subtracts its column sums from the sums over j < i: K'
    is odd, exactly so in floating point, so K'(x_j - x_i) = -K'(x_i - x_j)
    bit for bit.
    """
    n = x.size
    tile = max(8, min(_TILE, _BLOCK // n))
    s_above = np.zeros(n)
    s_below = np.zeros(n)
    mirrored = np.tri(tile, tile - 1, -1, dtype=bool)  # column j = lo+1+c is at or left of row i = lo+r
    for lo in range(0, n - 1, tile):
        hi = min(lo + tile, n)
        kp = kernel.d1(x[lo:hi, None] - x[None, lo + 1 :])
        rows = hi - lo
        kp[:, : rows - 1][mirrored[:rows, : rows - 1]] = 0.0
        s_above[lo:hi] = np.sum(kp, axis=1)
        s_below[lo + 1 :] -= np.sum(kp, axis=0)
    return s_above, s_below


def _expanded_pair_sums(x: np.ndarray, kernel: Kernel, p: int, centre: float) -> tuple[np.ndarray, np.ndarray]:
    """The one-sided sums of :func:`pair_sums` by a p-term expansion about ``centre``.

    With u = x - c, let P_n(i) be the sum over j < i of the source weight
    e_j a_n(u_j); by the twin identity its u_j-weighted twin is
    sqrt((n+1)/(2B)) P_{n+1}(i), so
    sum_{j<i} K'(u_i - u_j) = 2AB e_i sum_{n<p} a_n(u_i) (u_i P_n(i) - sqrt((n+1)/(2B)) P_{n+1}(i)).
    The sums over j > i are the same sums on the reversed particles; both
    orders go through together.  Particles go in blocks of
    ``_BLOCK // (2 (p+1))``, all p+1 weights at once; a block's exclusive
    prefix sums start from the running totals of the blocks before it, so no
    running sum is longer than one block.  When one block holds every
    particle, the basis and weights of the reversed particles are those of
    the particles reversed, bit for bit, and are copied, not computed.
    """
    n = x.size
    block = min(n, max(1, _BLOCK // (2 * (p + 1))))
    step, twin = _factors(p, kernel.inv_width)
    step, twin = step[:, None, None], twin[:, None, None]
    u = np.empty((2, n))  # row 0 gives the sums over j < i, row 1 over j > i, reversed
    np.subtract(x, centre, out=u[0])
    u[1] = u[0, ::-1]
    e = kernel.gauss(u)
    total = np.zeros((p + 1, 2, 1))
    out = np.empty((2, n))
    a_buf, w_buf, pre_buf = _work_arrays((p + 1, 2, block))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        ub = u[:, lo:hi]
        a, w, pre = a_buf[..., : hi - lo], w_buf[..., : hi - lo], pre_buf[..., : hi - lo]
        if block == n:  # row 1 is row 0 reversed, bit for bit
            _basis(step[:, 0], u[0], a[:, 0])
            np.multiply(a[:, 0], e[0], out=w[:, 0])
            a[:, 1] = a[:, 0, ::-1]
            w[:, 1] = w[:, 0, ::-1]
        else:
            _basis(step, ub, a)
            np.multiply(a, e[:, lo:hi], out=w)
        pre[..., :1] = total  # pre[n, :, i] = P_n(lo + i): the running totals plus this block's sums
        np.cumsum(w[..., :-1], axis=2, out=pre[..., 1:])
        if block < n:  # the totals stay zero when one block holds every particle
            pre[..., 1:] += total
            total = pre[..., -1:] + w[..., -1:]
        direct = np.multiply(a[:p], pre[:p], out=w[:p])
        shifted = np.multiply(twin, a[:p], out=a[:p])
        shifted *= pre[1:]
        out[:, lo:hi] = ub * np.add.reduce(direct, axis=0) - np.add.reduce(shifted, axis=0)
    out *= e
    out *= 2.0 * kernel.amplitude * kernel.inv_width
    return out[1, ::-1], out[0]


def jump_sums(kernel: Kernel, bp: np.ndarray, coef: np.ndarray, x: np.ndarray):
    """(W1, W2, p) at points ``x``: W1(x) = sum_j coef_j K(x - b_j), W2(x) = sum_j coef_j K'(x - b_j).

    By the expansion of :func:`_expanded_jump_sums`, O((points + breakpoints)
    p), wherever R is at most ``MAX_REACH``, else by the direct blocks of
    :func:`_direct_jump_sums`, O(points x breakpoints), with p = 0; both in
    O(points + breakpoints) memory.
    """
    if bp.size == 0:
        return np.zeros_like(x), np.zeros_like(x), 0
    p, c = _plan(kernel, bp, x)
    if p == 0:
        return (*_direct_jump_sums(kernel, bp, coef, x), 0)
    return (*_expanded_jump_sums(kernel, bp, coef, x, p, c), p)


def _direct_jump_sums(kernel: Kernel, bp: np.ndarray, coef: np.ndarray, x: np.ndarray):
    """The jump sums of :func:`jump_sums`, one kernel evaluation per (point, breakpoint).

    The points are walked in blocks of about ``_BLOCK`` kernel evaluations,
    so memory stays bounded at any size; each row is summed whole, so the
    sums equal ``sum(coef * kernel.value(d))`` and
    ``sum(coef * kernel.d1(d))`` exactly.
    """
    w1, w2 = np.zeros_like(x), np.zeros_like(x)
    rows = max(1, min(x.size, _BLOCK // bp.size))
    if bp.size <= _BLOCK:
        d, k, k1 = _work_arrays((rows, bp.size))
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


def _expanded_jump_sums(kernel: Kernel, bp: np.ndarray, coef: np.ndarray, x: np.ndarray, p: int, c: float):
    """The jump sums of :func:`jump_sums` by a p-term expansion about the centre ``c``.

    With u = . - c, the p+1 global moments M_n = sum_j coef_j e_j a_n(u_j)
    give W1 = -A e_x sum_{n<p} a_n(u_x) M_n and, by the twin identity,
    W2 = 2AB e_x sum_{n<p} a_n(u_x) (u_x M_n - sqrt((n+1)/(2B)) M_{n+1}).
    The moments add up over blocks of ``_BLOCK // (p+1)`` breakpoints, all
    orders at once.  Since a_n(u) = a_n(1) u^n, each sum over n is a
    polynomial in u_x, evaluated by Horner's rule on all points at once,
    W1's and W2's in the two rows of one array: O(points) memory, 2p passes.
    """
    step, twin = _factors(p, kernel.inv_width)
    cols = max(1, _BLOCK // (p + 1))
    a_buf = _work_arrays((p + 1, min(cols, bp.size)))[0]
    moments = np.zeros(p + 1)
    for lo in range(0, bp.size, cols):
        u = bp[lo : lo + cols] - c
        a = _basis(step[:, None], u, a_buf[:, : u.size])
        a *= coef[lo : lo + cols] * kernel.gauss(u)
        moments += np.sum(a, axis=1)
    scale = _unit_basis(p, kernel.inv_width)
    g = np.empty((2, p))
    np.multiply(moments[:p], scale, out=g[0])
    np.multiply(twin, moments[1:], out=g[1])
    g[1] *= scale
    cols = g.T[:, :, None]  # cols[n] = (g1[n], g2[n]) down one column
    u = x - c
    s = np.empty((2, u.size))  # (S1, S2)
    s[...] = cols[-1]
    for col in cols[-2::-1]:
        s *= u
        s += col
    e = kernel.gauss(u)
    u *= s[0]
    s[1] -= u  # -(u_x S1 - S2)
    s *= e
    s *= np.array([[-kernel.amplitude], [-2.0 * kernel.amplitude * kernel.inv_width]])
    return s[0], s[1]
