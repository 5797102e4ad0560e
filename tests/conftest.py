import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from powerfree import sieve
from powerfree.density import DensityResult
from powerfree.sieve import primes_up_to


def _traced_peak(fn):
    """(fn(), the peak of tracemalloc's traced memory while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak


@contextlib.contextmanager
def sieve_consts(**values):
    """Set powerfree.sieve's _RUN (n per run) and _WINDOW (n per Omega
    window), as named, inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in values.items():
            mp.setattr(sieve, name, value)
        yield


def _kth_power_prime_table(f, k, N):
    """{n - 1: ascending primes p with p^k | f(n)} over [1, N], only for the
    n where that set is not empty, built from kfree._kth_power_hits."""
    from powerfree.kfree import _kth_power_hits

    table = {}
    for _, _, n, primes in _kth_power_hits(f, k, N):
        for i, p in zip(n.tolist(), primes.tolist()):
            table.setdefault(i - 1, []).append(p)
    return table


@pytest.fixture
def prime_table():
    return _kth_power_prime_table


def _divide_out(vals, seg_bits, off, p, k, record=None):
    """Divide the full p-part out of vals[off::p], reading the values; clear
    seg_bits where the exponent reaches k. record(positions, primes) hooks
    exponent >= k. The > 0 tests keep a zero of f, which every p divides,
    from looping forever."""
    sl = vals[off::p]
    sl //= p
    cur = np.flatnonzero((sl % p == 0) & (sl > 0))
    e = 2
    while len(cur):
        sl[cur] //= p
        if e == k:
            pos = off + cur * p
            seg_bits[pos] = False
            if record is not None:
                record(pos, np.full(len(pos), p, dtype=np.int64))
        e += 1
        sub = sl[cur]
        cur = cur[(sub % p == 0) & (sub > 0)]


def divided_reference(f, k, a, b, roots, record=None):
    """(vals, seg_bits) as kfree._cofactors leaves them for n in [a, b),
    by the value-reading divide-out: every (p, root) pair of the RootTable
    roots divides p out of its class while p still divides."""
    from powerfree.poly import evaluate_range

    vals = np.abs(evaluate_range(f, a, b))
    seg_bits = np.ones(b - a, dtype=bool)
    for p, r in zip(roots.p.tolist(), roots.roots.tolist()):
        off = (r - a) % p
        if off < b - a:
            _divide_out(vals, seg_bits, off, p, k, record)
    return vals, seg_bits


class MaskCondition:
    """A precomputed indicator as an ergodic condition (bits[n - 1] is n's
    flag); its density is the empirical frequency on [1, N]."""

    def __init__(self, bits):
        self.bits = np.asarray(bits, dtype=bool)

    def selector(self, N):
        if N > len(self.bits):
            raise ValueError(f"mask holds {len(self.bits)} bits, N={N} asked")
        return lambda s, e: self.bits[s - 1:e - 1]

    def density(self, P, N):
        return float(whole_mask(self, N).sum()) / N


def whole_mask(condition, N):
    """A condition's whole indicator on [1, N], assembled from the flags
    its selector gives per range of sieve._WINDOW n."""
    step = sieve._WINDOW
    select, bits = condition.selector(N), np.empty(N, dtype=bool)
    for s in range(1, N + 1, step):
        sel = select(s, min(s + step, N + 1))
        bits[s - 1:s - 1 + step] = True if sel is None else sel
    return bits


def liouville(tables) -> np.ndarray:
    """(-1)^Omega(n) over the window of an ArithTables, dtype int8."""
    return (1 - 2 * (tables.omega & np.uint8(1)).astype(np.int8)).astype(np.int8)


def estermann_constant(P: int) -> DensityResult:
    """prod_{p <= P, p = 1 mod 4} (1 - 2/p^2): density of squarefree n^2+1.

    Only p = 1 mod 4 contribute (n^2 = -1 needs -1 to be a square; at p = 2
    the value n^2 + 1 is never divisible by 4). Tail: the p > P terms are
    spaced at least 4 apart among integers = 1 mod 4, so the missing log
    mass is under sum_{m > P, m = 1 mod 4} 4/m^2 <= 1/(P-3).
    """
    if P < 5:
        raise ValueError("P >= 5 required")
    logs = [math.log1p(-2.0 / p ** 2)
            for p in primes_up_to(P).tolist() if p % 4 == 1]
    value = math.exp(math.fsum(logs))
    tail = 1.0 / (P - 3)
    return DensityResult(value, value * math.exp(-tail), value, P, 2, 2, (2,))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p, by Euler's criterion."""
    if p <= 2 or p % 2 == 0:
        raise ValueError("odd prime required")
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def quadratic_pair_constant(P: int) -> DensityResult:
    """Density of n with (n^2+1)(n^2+2) squarefree, as an explicit product.

    For odd p the factors have 1 + (-1/p) and 1 + (-2/p) roots mod p, never
    shared (their resultant is 1), and every root lifts uniquely since only
    p = 2 is singular for the quartic; so rho(p^2) = 2 + (-1/p) + (-2/p).
    At p = 2 neither n^2+1 nor n^2+2 is ever divisible by 4, contributing a
    factor 1. Tail <= 8/P from rho <= 4 = deg.
    """
    if P < 5:
        raise ValueError("P >= 5 required")
    logs = []
    for p in primes_up_to(P).tolist():
        if p == 2:
            continue
        a = legendre(-1, p) + legendre(-2, p) + 2
        if a:
            logs.append(math.log1p(-a / p ** 2))
    value = math.exp(math.fsum(logs))
    tail = 8.0 / P
    return DensityResult(value, value * math.exp(-tail), value, P, 2, 4, (2,))
