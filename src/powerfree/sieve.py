"""Segmented sieves for prime-factor counting over an integer window.

build_tables fills three aligned arrays over [lo, hi): Omega(n) (number of
prime factors with multiplicity, one byte each), the Mobius function (one
signed byte), and a squarefree flag. Work proceeds in fixed-size segments,
so transient memory is proportional to the segment, not the window. The
per-segment algorithm divides out every prime power p^e <= hi-1 at its
residue positions; whatever remains after all p <= sqrt(hi-1) is either 1
or a single prime > sqrt(hi-1), which contributes exactly one to Omega and
never a square.

Results are independent of segment size and thread count by construction:
segments are disjoint, each is computed by the same deterministic code, and
assembly writes each segment to its fixed offset.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

DEFAULT_SEGMENT = 1 << 20
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
    return np.nonzero(flags)[0].astype(np.int64)


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

    def omega_of(self, n: int) -> int:
        return int(self.omega[self.index(n)])

    def mobius_of(self, n: int) -> int:
        return int(self.mobius[self.index(n)])

    def is_squarefree(self, n: int) -> bool:
        return bool(self.squarefree[self.index(n)])

    def liouville(self, n: int) -> int:
        """(-1)^Omega(n) by table lookup."""
        return 1 - 2 * (self.omega_of(n) & 1)

    def liouville_values(self) -> np.ndarray:
        """Vector of (-1)^Omega over the whole window, dtype int8."""
        return (1 - 2 * (self.omega & np.uint8(1)).astype(np.int8)).astype(np.int8)


def _fill_segment(a: int, b: int, primes: np.ndarray):
    """Omega and squarefree flags for the window [a, b), given all primes
    <= sqrt of the global top."""
    m = b - a
    rem = np.arange(a, b, dtype=np.int64)
    omega = np.zeros(m, dtype=np.uint8)
    sqfree = np.ones(m, dtype=bool)
    for p in primes:
        p = int(p)
        pe = p
        level = 1
        # p^e <= b-1 whenever any multiple of p^e lies in [a, b)
        while pe <= b - 1:
            off = (-a) % pe
            if off < m:
                sl = slice(off, m, pe)
                omega[sl] += 1
                rem[sl] //= p
                if level == 2:
                    sqfree[sl] = False
            pe *= p
            level += 1
    big = rem > 1
    omega[big] += 1
    return omega, sqfree


def build_tables(
    lo: int,
    hi: int,
    segment_size: int = DEFAULT_SEGMENT,
    threads: int = 1,
) -> ArithTables:
    """Sieve Omega/Mobius/squarefree over [lo, hi).

    lo >= 1, hi > lo, hi <= 2^40. Memory for the result is 3 bytes per
    integer in the window; transients are bounded by the segment size.
    """
    lo, hi = int(lo), int(hi)
    if lo < 1 or hi <= lo:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi > MAX_LIMIT:
        raise CapacityError(f"hi={hi} exceeds the configured limit {MAX_LIMIT}")
    if segment_size < 8:
        raise ValueError("segment_size too small")
    threads = max(1, int(threads))

    primes = primes_up_to(math.isqrt(hi - 1))
    n = hi - lo
    omega = np.empty(n, dtype=np.uint8)
    sqfree = np.empty(n, dtype=bool)

    bounds = [(a, min(a + segment_size, hi)) for a in range(lo, hi, segment_size)]

    def run(seg):
        a, b = seg
        return a, _fill_segment(a, b, primes)

    if threads == 1 or len(bounds) == 1:
        results = map(run, bounds)
    else:
        pool = ThreadPoolExecutor(max_workers=threads)
        try:
            results = list(pool.map(run, bounds))
        finally:
            pool.shutdown()
    for a, (om, sq) in results:
        i = a - lo
        omega[i : i + len(om)] = om
        sqfree[i : i + len(om)] = sq
    # mu(n) = (-1)^Omega(n) on squarefree n, else 0; in place, no temporaries
    mobius = np.bitwise_and(omega, 1).view(np.int8)
    mobius *= -2
    mobius += 1
    mobius *= sqfree
    return ArithTables(lo=lo, hi=hi, omega=omega, mobius=mobius, squarefree=sqfree)
