import functools
import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from powerfree import sieve
from powerfree.sieve import (_WINDOW, _omega_segment, build_tables,
                             primes_up_to)


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


def test_segment_size_invariance(monkeypatch):
    def tables(window):
        monkeypatch.setattr(sieve, "_WINDOW", window)
        return build_tables(1, 30000)

    a, b, c = tables(_WINDOW), tables(1024), tables(7777)
    for x in (b, c):
        assert bytes(a.omega) == bytes(x.omega)
        assert bytes(a.mobius) == bytes(x.mobius)
        assert bytes(a.squarefree) == bytes(x.squarefree)


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


# ------------------------------------------------ packed Omega accumulator

@functools.cache
def spf_omega(hi: int) -> np.ndarray:
    """Omega(n) for n in [0, hi) (0 at n = 0, 1) by repeated division with
    a smallest-prime-factor table."""
    n = np.arange(hi, dtype=np.int64)
    spf = np.zeros(hi, dtype=np.int64)
    for p in range(2, math.isqrt(hi - 1) + 1):
        if spf[p] == 0:
            blk = spf[p * p::p]
            blk[blk == 0] = p
    spf[spf == 0] = n[spf == 0]  # primes are their own smallest factor
    omega = np.zeros(hi, dtype=np.int64)
    rem = n.copy()
    while (live := rem > 1).any():
        omega += live
        rem[live] //= spf[rem[live]]
    return omega


def _spf():
    return spf_omega(10 ** 6 + 1)


@pytest.mark.parametrize("seg", [8, 1024, 7777])
def test_first_segments_match_spf_oracle(seg, monkeypatch):
    # the first window decides n below 2(b - 1) / R element by element
    monkeypatch.setattr(sieve, "_WINDOW", seg)
    t = build_tables(1, 30000)
    assert np.array_equal(t.omega, _spf()[1:30000])


@pytest.mark.parametrize("a", [1, 900, 1413, 1998, 1999, 2000])
def test_windows_straddling_the_threshold_cut(a):
    # b - 1 = 10^6, R = 1001: windows starting near (b - 1) / R, where one
    # threshold for the whole window would misread smooth n
    b = 10 ** 6 + 1
    got = _omega_segment(a, b, primes_up_to(math.isqrt(b - 1)))
    assert np.array_equal(got, _spf()[a:b])


def test_extra_primes_and_short_windows(monkeypatch):
    # the streamed histograms pass every prime to isqrt(top) to each window
    primes = primes_up_to(6324)
    for a, b in [(1, 4097), (4097, 8193), (999_000, 10 ** 6 + 1)]:
        assert np.array_equal(_omega_segment(a, b, primes), _spf()[a:b])
    monkeypatch.setattr(sieve, "_WINDOW", 8)
    for top in (2, 3, 4):
        t = build_tables(1, top + 1)
        assert t.omega.tolist() == _spf()[1:top + 1].tolist()
        assert t.squarefree.tolist() == [True, True, True, False][:top]


def test_random_windows_match_spf_oracle():
    rng = np.random.default_rng(19)
    for _ in range(200):
        b = int(rng.integers(2, 10 ** 6 + 2))
        a = max(1, b - int(2 ** rng.uniform(0, 18)))
        got = _omega_segment(a, b, primes_up_to(math.isqrt(b - 1)))
        assert np.array_equal(got, _spf()[a:b]), (a, b)


def test_tiny_windows_match_spf_oracle():
    # b - 1 = 1 has no primes, and R = 2 while 16 log2 R is at its least
    for top in range(1, 41):
        primes = primes_up_to(math.isqrt(top))
        for a in range(1, top + 1):
            got = _omega_segment(a, top + 1, primes)
            assert np.array_equal(got, _spf()[a:top + 1]), (a, top)


@pytest.mark.parametrize("a", [1, 1000, 1414, 31000, 31968, 31969, 31970])
def test_windows_straddling_the_uniform_cut(a):
    # b - 1 = 10^6, R = 1001: n >= 32(b - 1) // R + 1 = 31969 share one
    # threshold, which would misread smooth n just above (b - 1) / R
    b = 10 ** 6 + 1
    got = _omega_segment(a, b, primes_up_to(math.isqrt(b - 1)))
    assert np.array_equal(got, _spf()[a:b])


def test_primes_beyond_the_window_root():
    # the histograms pass every prime to isqrt(top) to each window, so a
    # prime may exceed isqrt(b - 1), the window length, or b - 1 itself
    for plim in (1000, 6324):
        primes = primes_up_to(plim)
        for a, b in [(1, 2), (1, 50), (7, 1000), (1000, 5000), (1, 70001),
                     (500_000, 500_300), (999_999, 10 ** 6 + 1)]:
            got = _omega_segment(a, b, primes)
            assert np.array_equal(got, _spf()[a:b]), (plim, a, b)


@pytest.mark.parametrize("a", [1, 4 * 10 ** 7 - 2 ** 20])
def test_window_fill_peak(traced_peak, a):
    # a 2^20 window holds its uint16 accumulator (2 MiB) and the uint8
    # output (1 MiB); the tail runs in place, so no bool copy of the window
    primes = primes_up_to(6325)
    _, peak = traced_peak(lambda: _omega_segment(a, a + 2 ** 20, primes))
    assert peak <= 3.5 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_window_just_below_max_limit():
    hi = 1 << 40
    t = build_tables(hi - 600, hi)
    for n in range(hi - 600, hi):
        fac = sympy.factorint(n)
        assert t.omega[t.index(n)] == sum(fac.values()), n
        assert t.squarefree[t.index(n)] == (max(fac.values()) == 1), n
