import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from powerfree.sieve import DEFAULT_SEGMENT, build_tables, primes_up_to


def brute_omega(n: int) -> int:
    return sum(e for _, e in sympy.factorint(n).items()) if n > 1 else 0


def test_primes_up_to_matches_sympy():
    got = primes_up_to(10 ** 4).tolist()
    want = list(sympy.primerange(2, 10 ** 4 + 1))
    assert got == want


def test_primes_up_to_small_bounds():
    assert primes_up_to(1).tolist() == []
    assert primes_up_to(2).tolist() == [2]
    assert primes_up_to(3).tolist() == [2, 3]


def test_tables_match_sympy_exactly():
    lo, hi = 1, 5001
    t = build_tables(lo, hi)
    for n in range(lo, hi):
        i = t.index(n)
        assert t.omega[i] == brute_omega(n), n
        assert t.mobius[i] == sympy.mobius(n), n
        assert bool(t.squarefree[i]) == (sympy.mobius(n) != 0), n


def test_tables_offset_window():
    t = build_tables(10 ** 6, 10 ** 6 + 500)
    for n in range(10 ** 6, 10 ** 6 + 500):
        i = t.index(n)
        assert t.mobius[i] == sympy.mobius(n), n
        assert t.omega[i] == brute_omega(n), n


def test_mobius_omega_consistency_bulk():
    # mu is 0 exactly off the squarefree set; on it, mu = (-1)^omega
    t = build_tables(1, 200001)
    sf = t.squarefree
    assert np.all((t.mobius != 0) == sf)
    assert np.all(t.mobius[sf] == 1 - 2 * (t.omega[sf].astype(np.int64) & 1))


def test_segment_size_invariance():
    a = build_tables(1, 30000, segment_size=DEFAULT_SEGMENT)
    b = build_tables(1, 30000, segment_size=1024)
    c = build_tables(1, 30000, segment_size=7777)
    for x in (b, c):
        assert bytes(a.omega) == bytes(x.omega)
        assert bytes(a.mobius) == bytes(x.mobius)
        assert bytes(a.squarefree) == bytes(x.squarefree)


def test_thread_count_invariance():
    a = build_tables(1, 300001, threads=1)
    b = build_tables(1, 300001, threads=8)
    assert bytes(a.omega) == bytes(b.omega)
    assert bytes(a.mobius) == bytes(b.mobius)
    assert bytes(a.squarefree) == bytes(b.squarefree)


def test_index_bounds_checked():
    t = build_tables(10, 20)
    with pytest.raises((IndexError, ValueError)):
        t.index(9)
    with pytest.raises((IndexError, ValueError)):
        t.index(20)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10 ** 6))
def test_single_value_property(n):
    t = build_tables(n, n + 1)
    i = t.index(n)
    assert t.omega[i] == brute_omega(n)
    assert t.mobius[i] == sympy.mobius(n)
