import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from powerfree.dynamics import (CyclicRotation, PairObservable, TwoPointSwap,
                                VectorObservable, orbit_table)
from conftest import MaskCondition, whole_mask
from powerfree.ergodic import (AllIntegers, BeattyMap, ProductKfree,
                               ProgressionMap, TwinSquarefree,
                               _interval_counts, convergence_report,
                               default_j_max, ergodic_average, exponent_fit,
                               omega_histogram, omega_histograms)
from powerfree.poly import IntPolynomial, parse_poly_or_product
from powerfree.sieve import DEFAULT_SEGMENT, build_tables


def big_omega(n):
    return sum(sympy.factorint(n).values()) if n > 1 else 0


def test_identity_map():
    m = ProgressionMap(1, 0)
    n = np.arange(1, 11, dtype=np.int64)
    assert m.map_values(n).tolist() == list(range(1, 11))
    assert m.max_argument(10) == 10
    assert [m.first_index(A) for A in (-3, 0, 1, 7)] == [1, 1, 1, 7]
    assert m.window_index(5, 9, 3) == slice(2, 6, 1)


def test_progression_map():
    m = ProgressionMap(3, 1)
    n = np.arange(1, 6, dtype=np.int64)
    assert m.map_values(n).tolist() == [4, 7, 10, 13, 16]
    assert m.max_argument(5) == 16
    with pytest.raises(ValueError):
        ProgressionMap(0, 0)
    with pytest.raises(ValueError):
        ProgressionMap(3, -1)


def test_beatty_map_exact_at_integers():
    # rational alpha hits integer boundaries exactly; floor must not be off
    # by one in the float fast path
    m = BeattyMap(Fraction(3, 2), Fraction(1, 2))
    n = np.arange(1, 2001, dtype=np.int64)
    got = m.map_values(n)
    for i, nn in enumerate(range(1, 2001)):
        assert got[i] == (3 * nn + 1) // 2, nn


def test_beatty_map_float_inputs():
    m = BeattyMap(math.sqrt(2), 0.0)
    n = np.arange(1, 5001, dtype=np.int64)
    got = m.map_values(n)
    a = Fraction(math.sqrt(2))
    for i in (0, 1, 2, 4999):
        assert got[i] == math.floor(a * (i + 1))
    assert m.max_argument(5000) == math.floor(a * 5000)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=64),
       st.integers(min_value=0, max_value=64))
def test_beatty_exactness_property(p, q, r):
    alpha = Fraction(p, q)
    beta = Fraction(r, q)
    if alpha + beta < 1:
        beta = 1 - alpha + beta
    m = BeattyMap(alpha, beta)
    n = np.arange(1, 500, dtype=np.int64)
    got = m.map_values(n)
    for i in range(0, 499, 57):
        assert got[i] == math.floor(alpha * (i + 1) + beta)


def test_conditions_mask_and_density():
    N = 2000
    allc = AllIntegers()
    assert int(whole_mask(allc, N).sum()) == N
    assert allc.density(100, N) == 1.0

    kf = ProductKfree((IntPolynomial.parse("1,0,1"),), 2)
    mask = whole_mask(kf, N)
    assert mask.dtype == bool and len(mask) == N
    assert 0.0 < kf.density(10 ** 4, N) < 1.0

    tw = TwinSquarefree()
    assert int(whole_mask(tw, N).sum()) > 0
    pk = ProductKfree(parse_poly_or_product("1,0,1*2,0,1"), 2)
    assert len(whole_mask(pk, N)) == N

    bits = np.zeros(N, dtype=bool)
    bits[::2] = True
    mc = MaskCondition(bits)
    assert mc.density(100, N) == 0.5


def test_omega_histogram_small_brute():
    N = 500
    hist = omega_histogram(N)
    want = np.zeros(hist.j_max + 1, dtype=np.int64)
    for n in range(1, N + 1):
        want[big_omega(n)] += 1
    assert hist.counts.tolist() == want.tolist()
    assert hist.selected == N


def test_omega_histogram_with_condition_and_map():
    N = 300
    kf = ProductKfree((IntPolynomial.parse("1,0,1"),), 2)
    hist = omega_histogram(N, kf, ProgressionMap(2, 1))
    sel = whole_mask(kf, N)
    want = {}
    for n in range(1, N + 1):
        if sel[n - 1]:
            want[big_omega(2 * n + 1)] = want.get(big_omega(2 * n + 1), 0) + 1
    for j, c in enumerate(hist.counts.tolist()):
        assert c == want.get(j, 0), j
    assert hist.selected == int(sel.sum())


def test_ergodic_average_is_weighted_dot():
    N = 400
    hist = omega_histogram(N)
    orb = orbit_table(TwoPointSwap(), PairObservable(1.0, -1.0), 0,
                      hist.j_max)
    avg = ergodic_average(hist, orb)
    want = sum((-1) ** big_omega(n) for n in range(1, N + 1)) / N
    assert abs(avg - want) < 1e-12


def test_ergodic_average_orbit_too_short():
    hist = omega_histogram(1000)
    orb = orbit_table(TwoPointSwap(), PairObservable(1.0, -1.0), 0, 2)
    with pytest.raises(ValueError):
        ergodic_average(hist, orb)


def test_convergence_report_rows_and_target():
    rows = convergence_report(
        TwoPointSwap(), PairObservable(1.0, -1.0), 0,
        N_values=[10, 100, 1000], P=10 ** 4)
    assert [r.N for r in rows] == [10, 100, 1000]
    assert rows[0].average == 0.0          # hand-checked Liouville start
    assert rows[1].average == -0.02        # L(100) = -2
    assert rows[2].average == -0.014       # L(1000) = -14
    for r in rows:
        assert r.target == 0.0
        assert r.residual == r.average - r.target


def test_convergence_report_with_condition_target():
    sys3 = CyclicRotation(3)
    obs = VectorObservable((1.0, 0.0, 0.0))
    rows = convergence_report(sys3, obs, 0, N_values=[1000],
                              condition=AllIntegers(), P=100)
    # target = density * mean = 1 * 1/3
    assert abs(rows[0].target - 1.0 / 3.0) < 1e-15


def test_exponent_fit_contract():
    assert exponent_fit([(10, 1.0), (100, 1.0), (1000, 1.0)]) == 0.0
    assert exponent_fit([(10, 0.0), (100, 0.0)]) == -math.inf
    got = exponent_fit([(10, 100.0), (100, 10.0), (1000, 1.0)])
    assert abs(got - (-1.0)) < 1e-12
    up = exponent_fit([(10, 10.0), (100, 100.0), (1000, 1000.0)])
    assert abs(up - 1.0) < 1e-12
    with pytest.raises(ValueError):
        exponent_fit([(10, 1.0)])
    with pytest.raises(ValueError):
        exponent_fit([(100, 1.0), (10, 2.0)])


def test_default_j_max_covers_omega():
    for N in (10, 1000, 10 ** 6):
        jm = default_j_max(N)
        assert 2 ** (jm + 1) > N


# ------------------------------------------------------ streaming core

STREAM_N = 20000
STREAM_MAPS = [ProgressionMap(m, r) for m in (1, 2, 3, 4)
               for r in range(m)] + [
    BeattyMap(Fraction(5, 13), Fraction(8, 13)),      # alpha < 1
    BeattyMap(Fraction(13, 8), Fraction(1, 2)),       # alpha > 1, exact hits
    # alpha n + beta sits 10^-6 (n - 1) below the integer n
    BeattyMap(Fraction(999999, 1000000), Fraction(1, 1000000)),
]
# checkpoints on both sides of the window edges for both segment sizes
STREAM_CUTS = [0, 1, 1023, 1024, 1025, 7776, 7777, 7778, 12345, 15554,
               15555, STREAM_N]


def _omega_upto(M):
    """Omega(0..M) from a smallest-prime-factor table, one n at a time."""
    spf = list(range(M + 1))
    for p in range(2, math.isqrt(M) + 1):
        if spf[p] == p:
            for q in range(p * p, M + 1, p):
                if spf[q] == q:
                    spf[q] = p
    om = [0] * (M + 1)
    for n in range(2, M + 1):
        om[n] = om[n // spf[n]] + 1
    return np.array(om)


@pytest.fixture(scope="module")
def stream_case():
    rng = np.random.default_rng(5)
    bits = rng.random(STREAM_N) < 0.7
    n = np.arange(1, STREAM_N + 1, dtype=np.int64)
    args = [[am.max_argument(i) for i in range(1, STREAM_N + 1)]
            if isinstance(am, BeattyMap) else am.map_values(n).tolist()
            for am in STREAM_MAPS]
    om = _omega_upto(max(max(a) for a in args))
    jm = default_j_max(max(max(a) for a in args))
    want = np.zeros((len(STREAM_MAPS), len(STREAM_CUTS) - 1, jm + 1),
                    dtype=np.int64)
    for i, a in enumerate(args):
        for c in range(len(STREAM_CUTS) - 1):
            lo, hi = STREAM_CUTS[c], STREAM_CUTS[c + 1]
            vals = om[np.asarray(a[lo:hi])][bits[lo:hi]]
            want[i, c] = np.bincount(vals, minlength=jm + 1)
    return MaskCondition(bits), jm, want


@pytest.mark.parametrize("segment_size", [1024, 7777])
def test_streamed_counts_match_brute_omega(stream_case, segment_size):
    cond, jm, want = stream_case
    got = _interval_counts(STREAM_N, STREAM_MAPS, cond, STREAM_CUTS, jm,
                           threads=1, segment_size=segment_size, tables=None)
    assert got.tolist() == want.tolist()
    hists = omega_histograms(STREAM_N, STREAM_MAPS, cond, j_max=jm,
                             segment_size=segment_size)
    for h, w in zip(hists, want.sum(axis=1)):
        assert h.counts.tolist() == w.tolist()
        assert h.selected == int(w.sum())


def test_streamed_counts_thread_and_table_invariant(stream_case):
    cond, jm, want = stream_case
    top = max(am.max_argument(STREAM_N) for am in STREAM_MAPS)
    tables = build_tables(1, top + 1)
    runs = [_interval_counts(STREAM_N, STREAM_MAPS, cond, STREAM_CUTS, jm,
                             threads=t, segment_size=1024, tables=tb)
            for t in (1, 2) for tb in (None, tables)]
    assert all(r.tobytes() == runs[0].tobytes() for r in runs)
    assert runs[0].tolist() == want.tolist()


def test_convergence_report_streams_in_bounded_memory(traced_peak):
    # today's cost is the condition mask (1 byte per n) plus O(segment);
    # whole-window int64 arguments and Omega tables took about 30 bytes per n
    N = 2 * 10 ** 6
    cond = ProductKfree((IntPolynomial.parse("1,0,1"),), 2)
    rows, peak = traced_peak(lambda: convergence_report(
        TwoPointSwap(), PairObservable(1.0, -1.0), 0, N_values=[10 ** 5, N],
        condition=cond, P=10 ** 4, segment_size=2 ** 16))
    assert rows[-1].selected == int(whole_mask(cond, N).sum())
    assert peak < 4 * N, f"peak {peak / N:.2f} bytes per n"


# ------------------------------------------------- streamed conditions

COND_N = 12000
COND_CUTS = [1000, 7777, COND_N]


def _brute_kfree(factors, k, N):
    """k-free flags of the product of factors on [1, N], exponents added
    per prime over sympy.factorint of each factor value."""
    out = np.zeros(N, dtype=bool)
    for n in range(1, N + 1):
        exps = {}
        for g in factors:
            for p, e in sympy.factorint(abs(g(n))).items():
                exps[p] = exps.get(p, 0) + e
        out[n - 1] = all(e < k for e in exps.values())
    return out


@pytest.fixture(scope="module")
def sieved_conditions():
    """(condition, brute flags on [1, COND_N]) for each sieved condition."""
    quad = IntPolynomial.parse("1,0,1")
    pair = parse_poly_or_product("1,0,1*2,0,1")
    sq = np.array([all(e < 2 for e in sympy.factorint(n).values())
                   for n in range(1, COND_N + 2)])
    return [(ProductKfree((quad,), 2), _brute_kfree([quad], 2, COND_N)),
            (ProductKfree(pair, 2), _brute_kfree(pair, 2, COND_N)),
            (TwinSquarefree(), sq[:-1] & sq[1:])]


def test_selector_ranges_match_mask():
    N = 5000
    bits = np.random.default_rng(11).random(N + 100) < 0.5
    sq = np.array([all(e < 2 for e in sympy.factorint(n).values())
                   for n in range(1, N + 2)])
    quad, linear = IntPolynomial.parse("1,0,1"), IntPolynomial.parse("1,1")
    pair3 = parse_poly_or_product("1,0,1*3,0,1")
    conds = [(AllIntegers(), np.ones(N, dtype=bool)),
             (ProductKfree((quad,), 2), _brute_kfree([quad], 2, N)),
             (ProductKfree([linear, quad], 2),
              _brute_kfree([linear, quad], 2, N)),
             (ProductKfree(pair3, 3), _brute_kfree(pair3, 3, N)),
             (TwinSquarefree(), sq[:-1] & sq[1:]),
             (MaskCondition(bits), bits[:N])]
    ranges = [(1, 2), (1, 1025), (1024, 1026), (1023, 2049), (4095, 4097),
              (4999, 5001), (2, 5001), (1, 5001)]
    for cond, want in conds:
        whole = whole_mask(cond, N)
        assert whole.dtype == bool and whole.tolist() == want.tolist()
        select = cond.selector(N)
        for s, e in ranges:
            got = select(s, e)
            if isinstance(cond, AllIntegers):
                assert got is None
                continue
            assert got.tolist() == whole[s - 1:e - 1].tolist(), (cond, s, e)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("segment_size", [1024, 7777])
def test_sieved_conditions_match_brute_omega(sieved_conditions,
                                             segment_size, threads):
    maps = [ProgressionMap(1, 0), ProgressionMap(3, 1),
            BeattyMap(Fraction(13, 8), Fraction(1, 2))]
    om = _omega_upto(max(am.max_argument(COND_N) for am in maps))
    n = np.arange(1, COND_N + 1, dtype=np.int64)
    args = [am.map_values(n) for am in maps]
    swap, liouville = TwoPointSwap(), PairObservable(1.0, -1.0)
    for i, (cond, sel) in enumerate(sieved_conditions):
        hists = omega_histograms(COND_N, maps, cond, threads=threads,
                                 segment_size=segment_size)
        for h, a in zip(hists, args):
            want = np.bincount(om[a][sel], minlength=len(h.counts))
            assert h.counts.tolist() == want.tolist(), i
            assert h.selected == int(sel.sum())
        for am, a in zip(maps[:2], args):
            rows = convergence_report(swap, liouville, 0, N_values=COND_CUTS,
                                      condition=cond, argmap=am, P=10 ** 3,
                                      threads=threads,
                                      segment_size=segment_size)
            for r in rows:
                lam = 1 - 2 * (om[a[:r.N]][sel[:r.N]] & 1)
                assert r.selected == int(sel[:r.N].sum())
                assert r.average == int(lam.sum()) / r.N, (i, r)


def test_convergence_report_peak_is_flat_in_N(traced_peak):
    # the whole-N condition masks cost 1 byte per n; streamed, the peak
    # at N = 4*10^6 stays within 1 MB of the peak at 10^6
    peaks = []
    for N in (10 ** 6, 4 * 10 ** 6):
        cond = ProductKfree((IntPolynomial.parse("1,0,1"),), 2)
        peaks.append(traced_peak(lambda: convergence_report(
            TwoPointSwap(), PairObservable(1.0, -1.0), 0, N_values=[N],
            condition=cond, P=10 ** 4, segment_size=2 ** 18))[1])
    assert peaks[1] < peaks[0] + 2 ** 20, peaks


def test_interval_pass_peak_is_capped_at_a_run(traced_peak):
    # a window holds its Omega fill (the uint16 accumulator and the uint8
    # output); the selection, the gather and np.bincount's intp copy of it
    # are one run long; whole-window runs peaked at about 17 MB here
    N = 4 * 2 ** 20
    cond = ProductKfree(parse_poly_or_product("1,0,1*2,0,1"), 2)
    _, peak = traced_peak(lambda: _interval_counts(
        N, [ProgressionMap(1, 0)], cond, [0, N], default_j_max(N), threads=1,
        segment_size=DEFAULT_SEGMENT, tables=None))
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MB"


def test_convergence_report_density_fails_before_the_pass(monkeypatch):
    cond = MaskCondition(np.ones(100, dtype=bool))
    monkeypatch.setattr("powerfree.ergodic._interval_counts", None)
    with pytest.raises(ValueError, match="mask holds 100 bits"):
        convergence_report(TwoPointSwap(), PairObservable(1.0, -1.0), 0,
                           N_values=[200], condition=cond)
