import tracemalloc

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
