import tracemalloc

import numpy as np
import pytest


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
    its selector gives per range of DEFAULT_SEGMENT n."""
    from powerfree.sieve import DEFAULT_SEGMENT as step

    select, bits = condition.selector(N), np.empty(N, dtype=bool)
    for s in range(1, N + 1, step):
        sel = select(s, min(s + step, N + 1))
        bits[s - 1:s - 1 + step] = True if sel is None else sel
    return bits
