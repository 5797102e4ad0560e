"""Segmented sieves for prime-factor counting over an integer window.

build_tables fills three aligned arrays over [lo, hi): Omega(n) (number of
prime factors with multiplicity, one byte each), the Mobius function (one
signed byte), and a squarefree flag. The fill goes one window of _WINDOW
n at a time, so transient memory is proportional to that window, not to
[lo, hi).

The Omega fill (_omega_segment) divides nothing: each prime-power hit
adds one packed uint16 constant, the hit count in the top 6 bits and a
fixed-point log2 (unit 1/16) in the low 10, and the log sum tells whether
a prime above sqrt(hi-1) is left over. The squarefree flags come from a
separate pass over the multiples of every p^2.

The streamed passes of kfree and ergodic go over [1, N] in runs of at
most _RUN n (_runs); the Omega histograms read their argument axis one
window of _WINDOW n at a time.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

# n per Omega window (build_tables, the histogram pass)
_WINDOW = 1 << 20
# n per run: every array below a window (values, flags, gathers) is
# allocated one run at a time.
# 2^17 halves them against 2^18, and the k-free walk's Python calls go by
# hit groups and small primes, not by root, so shorter runs cost no time
_RUN = 1 << 17
MAX_LIMIT = 1 << 40
_PRIME_TABLE_LIMIT = 1 << 30


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, dtype int64. Empty for limit < 2."""
    limit = int(limit)
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    if limit > _PRIME_TABLE_LIMIT:
        raise CapacityError(
            f"prime table to {limit} exceeds the supported limit {_PRIME_TABLE_LIMIT}"
        )
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64, copy=False)


@dataclass
class ArithTables:
    """Aligned tables of Omega, Mobius, and squarefree flags over [lo, hi)."""

    lo: int
    hi: int
    omega: np.ndarray       # uint8
    mobius: np.ndarray      # int8
    squarefree: np.ndarray  # bool

    def index(self, n: int) -> int:
        if not (self.lo <= n < self.hi):
            raise ValueError(f"n={n} outside table window [{self.lo}, {self.hi})")
        return n - self.lo


def _omega_segment(a: int, b: int, primes: np.ndarray) -> np.ndarray:
    """Omega(n) for n in [a, b) as uint8, given (at least) every prime up
    to isqrt(b - 1).

    Each hit p^e | n adds the uint16 (1 << 10) + L_p to acc[n - a], L_p =
    floor(16 log2 p), so acc >> 10 = Omega(s) for the sieved part s of n
    and the low 10 bits hold F with 0 <= 16 log2 s - F <= Omega(s). The
    rest, q = n / s, is 1 or one prime >= R = isqrt(b - 1) + 1 (two would
    exceed n). Let D = 16 log2 n - F and T = 8 log2 R.

    If q = 1, D <= Omega(n) <= log2(b - 1) < 2 log2 R <= T - 6; if q >= R,
    D >= 16 log2 R >= T + 8. So q > 1 iff F < 16 log2 n - T, tested per
    element below cut = 32(b - 1) // R + 1. From cut on, the integer theta
    = floor(16 log2((b - 1) / R)) + 8 decides the whole window: q > 1
    means s <= (b - 1) / R, so F <= theta - 7, and q = 1 with n > 32(b - 1)
    / R gives F >= 16 log2 n - 2 log2 R > theta + 72 - 2 log2 R >= theta
    while R <= 2^36. The margins also absorb the rounding of the float
    logs. In a pass of windows 2^11 or longer, only the first reaches
    below cut.

    Bounds: primes_up_to stops at 2^30, so b - 1 < 2^61 for every caller.
    Then Omega(n) < 61 and F < 16 * 61 < 2^10, so the fields never overlap
    and acc < (61 << 10) < 2^16 fits uint16.

    The tail runs in place on acc: acc >> 10 goes straight into the uint8
    output, and the uniform test writes its flags over acc.
    """
    m = b - a
    ps = primes[:np.searchsorted(primes, b - 1, side="right")]
    steps = ((1 << 10) + np.floor(16 * np.log2(ps))).astype(np.uint16)
    acc = np.zeros(m, dtype=np.uint16)
    for p, step in zip(ps.tolist(), steps.tolist()):
        pe = p
        # p^e <= b-1 whenever any multiple of p^e lies in [a, b)
        while pe <= b - 1:
            off = (-a) % pe
            if off < m:
                acc[off::pe] += step
            pe *= p
    omega = np.empty(m, dtype=np.uint8)
    np.right_shift(acc, 10, out=omega, casting="unsafe")
    acc &= (1 << 10) - 1
    R = math.isqrt(b - 1) + 1
    cut = min(max(32 * (b - 1) // R + 1 - a, 0), m)
    x = np.arange(a, a + cut, dtype=np.float64)
    np.log2(x, out=x)
    x *= 16
    x -= 8 * math.log2(R)
    omega[:cut] += acc[:cut] < x
    tail = acc[cut:]
    np.less(tail, math.floor(16 * math.log2((b - 1) / R)) + 8, out=tail)
    omega[cut:] += tail
    return omega


def _runs(a: int, b: int, cuts):
    """Tile [a, b) by runs [s, e) of at most _RUN n, yielding (s, e, parts):
    parts lists (c, i, j) for every checkpoint interval (cuts[c], cuts[c +
    1]] that meets the run, whose n are those at run offsets [i, j). cuts
    ascend from below a to at least b - 1."""
    for s in range(a, b, _RUN):
        e = min(s + _RUN, b)
        c = bisect.bisect_left(cuts, s) - 1
        parts = []
        while cuts[c] < e - 1:
            parts.append((c, max(cuts[c] + 1, s) - s,
                          min(cuts[c + 1] + 1, e) - s))
            c += 1
        yield s, e, parts


def _squarefree_segment(a: int, b: int, primes: np.ndarray) -> np.ndarray:
    """Squarefree flags of n in [a, b), given (at least) every prime up to
    isqrt(b - 1): the multiples of each p^2 are cleared."""
    sq = np.ones(b - a, dtype=bool)
    q = primes * primes
    off = (-a) % q
    for qi, oi in zip(q[q <= b - a].tolist(), off[q <= b - a].tolist()):
        sq[oi::qi] = False
    sq[off[(q > b - a) & (off < b - a)]] = False  # at most one hit each
    return sq


def build_tables(lo: int, hi: int) -> ArithTables:
    """Sieve Omega/Mobius/squarefree over [lo, hi).

    lo >= 1, hi > lo, hi <= 2^40. Memory for the result is 3 bytes per
    integer in [lo, hi). Transients peak at 3 bytes per n of a _WINDOW:
    the uint16 Omega accumulator and the uint8 Omega it is shifted into,
    before that is copied in.
    """
    lo, hi = int(lo), int(hi)
    if lo < 1 or hi <= lo:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi > MAX_LIMIT:
        raise CapacityError(f"hi={hi} exceeds the configured limit {MAX_LIMIT}")

    primes = primes_up_to(math.isqrt(hi - 1))
    omega = np.empty(hi - lo, dtype=np.uint8)
    sqfree = np.empty(hi - lo, dtype=bool)
    for a in range(lo, hi, _WINDOW):
        b = min(a + _WINDOW, hi)
        omega[a - lo:b - lo] = _omega_segment(a, b, primes)
        sqfree[a - lo:b - lo] = _squarefree_segment(a, b, primes)
    # mu(n) = (-1)^Omega(n) on squarefree n, else 0; in place, no temporaries
    mobius = np.bitwise_and(omega, 1).view(np.int8)
    mobius *= -2
    mobius += 1
    mobius *= sqfree
    return ArithTables(lo=lo, hi=hi, omega=omega, mobius=mobius, squarefree=sqfree)
