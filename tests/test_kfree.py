import functools
import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import divided_reference, liouville, sieve_consts
from powerfree import kfree, sieve
from powerfree.cli import count_rows
from powerfree.ergodic import ProductKfree, omega_histogram
from powerfree.errors import CapacityError, HypothesisViolation
from powerfree.factorint import is_perfect_kth_power
from powerfree.kfree import (_RESIDUE_MODULI, _STRIDE_MAX, ROOT_LIMIT,
                             KfreeSieve, _cofactors, _kth_power_cofactors,
                             _sieve_setup, _walk_plan, checkpoint_counts,
                             count_kfree, decompose_sum, kfree_mask,
                             product_kfree_mask, sieve_prime_bound,
                             tail_pair_count, tail_pair_counts,
                             twin_squarefree_range)
from powerfree.local_roots import lift_roots, root_table
from powerfree.poly import (IntPolynomial, evaluate_range, max_abs_value,
                            parse_poly_or_product, profile, resultant)
from powerfree.sieve import _RUN, _WINDOW, build_tables, primes_up_to


def brute_mask(f, k, N):
    out = np.zeros(N, dtype=bool)
    for n in range(1, N + 1):
        v = abs(f(n))
        if v == 0:
            continue
        out[n - 1] = all(e < k for e in sympy.factorint(v).values())
    return out


MASK_CASES = [
    ("0,1", 2), ("1,0,1", 2), ("0,1,1", 2), ("2,0,0,1", 2),
    ("2,0,0,1", 3), ("5,0,0,1", 2), ("4,1,0,1", 2), ("2,0,3,0,1", 2),
    ("-50,1", 2), ("-4,0,1", 2), ("1,3,0,2", 2), ("2,1,1", 2),
]


@pytest.mark.parametrize("text,k", MASK_CASES)
def test_kfree_mask_matches_brute_force(text, k):
    f = IntPolynomial.parse(text)
    N = 1500
    mask = kfree_mask(f, k, N)
    want = brute_mask(f, k, N)
    assert np.array_equal(mask.bits, want), text


def test_zero_hits_recorded_and_masked():
    f = IntPolynomial.parse("-50,1")
    mask = kfree_mask(f, 2, 200)
    assert mask.zero_hits == (50,)
    assert not mask.bits[49]
    g = IntPolynomial.parse("-4,0,1")
    mg = kfree_mask(g, 2, 100)
    assert mg.zero_hits == (2,)
    assert not mg.bits[1]


def test_product_mask_matches_brute_and_expanded():
    factors = parse_poly_or_product("1,0,1*2,0,1")
    N = 1500
    pm = product_kfree_mask(factors, 2, N)
    expanded = factors[0] * factors[1]
    want = brute_mask(expanded, 2, N)
    assert np.array_equal(pm.bits, want)
    # independent route: sieve the expanded quartic directly
    direct = kfree_mask(expanded, 2, N)
    assert np.array_equal(pm.bits, direct.bits)


def test_twin_squarefree_matches_brute():
    N = 3000
    bits = twin_squarefree_range(1, N + 1, primes_up_to(math.isqrt(N + 1)))
    for n in range(1, N + 1):
        want = (sympy.mobius(n) != 0) and (sympy.mobius(n + 1) != 0)
        assert bool(bits[n - 1]) == want, n


def test_segment_and_thread_invariance():
    f = IntPolynomial.parse("1,0,1")
    with sieve_consts(_RUN=1 << 14):
        a = kfree_mask(f, 2, 20000)
    with sieve_consts(_RUN=999):
        b = kfree_mask(f, 2, 20000)
    assert bytes(a.bits) == bytes(b.bits)


def test_sieve_prime_bound_minimal():
    for text, k in [("1,0,1", 2), ("5,0,0,1", 2), ("2,0,0,1", 3)]:
        f = IntPolynomial.parse(text)
        for N in (100, 10 ** 4):
            P0 = sieve_prime_bound(f, k, N)
            top = max_abs_value(f, N)
            assert P0 ** (k + 1) >= top
            assert (P0 - 1) ** (k + 1) < top


def test_hypothesis_violations_rejected():
    with pytest.raises(HypothesisViolation):
        kfree_mask(IntPolynomial.parse("0,0,1"), 2, 100)      # x^2
    with pytest.raises(HypothesisViolation):
        kfree_mask(IntPolynomial.parse("0,0,4"), 2, 100)      # fixed 4
    with pytest.raises(HypothesisViolation):
        kfree_mask(IntPolynomial.parse("1,2,1"), 2, 100)      # (x+1)^2
    with pytest.raises(ValueError):
        kfree_mask(IntPolynomial.parse("1,0,1"), 1, 100)


def test_product_mask_rejects_shared_factor():
    factors = parse_poly_or_product("1,0,1*1,0,1")
    with pytest.raises(HypothesisViolation):
        product_kfree_mask(factors, 2, 100)


# pairwise resultants above 1, so the correction pass runs: Res(x^2+1,
# x^2+3) = 4, Res(x+1, x^2+1) = 2, Res(x^2+1, x^2+7) = 36
CORRECTION_PRODUCTS = ["1,0,1*3,0,1", "1,1*1,0,1", "1,0,1*7,0,1"]
CORRECTION_N = 2500


@functools.lru_cache(maxsize=None)
def brute_product_mask(text, k):
    """k-free flags of the expanded product from sympy.factorint of each
    factor value, exponents added per prime."""
    factors = parse_poly_or_product(text)
    out = np.zeros(CORRECTION_N, dtype=bool)
    for n in range(1, CORRECTION_N + 1):
        exps = {}
        for g in factors:
            for p, e in sympy.factorint(abs(g(n))).items():
                exps[p] = exps.get(p, 0) + e
        out[n - 1] = all(e < k for e in exps.values())
    return out


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("text", CORRECTION_PRODUCTS)
def test_correction_products_match_factorint(text, k):
    factors = parse_poly_or_product(text)
    N, want = CORRECTION_N, brute_product_mask(text, k)
    omega = np.array([sum(sympy.factorint(n).values())
                      for n in range(1, N + 1)])
    cond = ProductKfree(factors, k)
    for seg in (1000, _WINDOW):
        select = cond.selector(N)
        got = np.concatenate([select(s, min(s + seg, N + 1))
                              for s in range(1, N + 1, seg)])
        assert np.array_equal(got, want), seg
        with sieve_consts(_RUN=min(seg, _RUN), _WINDOW=seg):
            pm = product_kfree_mask(factors, k, N)
            hist = omega_histogram(N, cond)
        assert np.array_equal(pm.bits, want), seg
        assert hist.selected == int(want.sum())
        assert hist.counts.tolist() == np.bincount(
            omega[want], minlength=len(hist.counts)).tolist()


@pytest.mark.parametrize("text", CORRECTION_PRODUCTS)
def test_correction_levels_match_per_level_lifts(text):
    # the correction classes from one walk per factor equal the lift_roots
    # of every level on its own
    factors = parse_poly_or_product(text)
    N = CORRECTION_N
    sv = KfreeSieve(factors, 2, N)
    shared = set()
    for i, g in enumerate(factors):
        for h in factors[i + 1:]:
            shared.update(sympy.factorint(abs(resultant(g, h))))
    want = []
    for p in sorted(shared):
        levels = []
        for g in factors:
            j, pj = 1, p
            while pj <= max_abs_value(g, N):
                levels.append((pj, lift_roots(g, p, j)))
                j, pj = j + 1, pj * p
        want.append(levels)
    assert sv.corrections == want
    assert sum(len(levels) for levels in want) > 10


def test_correction_changes_the_factor_and():
    # without the correction these would keep n where 2^k | product only
    for text, k in (("1,1*1,0,1", 2), ("1,0,1*3,0,1", 3)):
        factors = parse_poly_or_product(text)
        anded = np.logical_and.reduce(
            [kfree_mask(g, k, CORRECTION_N).bits for g in factors])
        want = brute_product_mask(text, k)
        assert (anded & ~want).any() and not (want & ~anded).any()


def test_checkpoint_counts_validates_range():
    f = IntPolynomial.parse("1,0,1")
    mask = kfree_mask(f, 2, 100)

    def flags(s, e):
        return mask.bits[s - 1:e - 1], []
    with pytest.raises(ValueError):
        checkpoint_counts(flags, 100, [0])
    with pytest.raises(ValueError):
        checkpoint_counts(flags, 100, [101])
    assert checkpoint_counts(flags, 100, [100])[0] == [int(mask.bits.sum())]


def test_count_kfree_rows():
    f = IntPolynomial.parse("1,0,1")
    mask = kfree_mask(f, 2, 1000)
    cps = [10, 100, 1000]
    counts = np.cumsum(mask.bits)[np.array(cps) - 1].tolist()
    rows = count_kfree(cps, counts, 0.894841940656975)
    assert [r.count for r in rows] == [int(mask.bits[:n].sum())
                                       for n in (10, 100, 1000)]
    assert rows[-1].count == 895
    assert abs(rows[-1].rel_error) < 2e-3


def test_decomposition_identity_exact():
    f = IntPolynomial.parse("1,0,1")
    N = 2000
    tables = build_tables(1, N + 1)
    lam = liouville(tables)
    mask = kfree_mask(f, 2, N)
    for Y in (1, 5, 50, 316):
        for w in (None, lam):
            d = decompose_sum(f, 2, Y, N, weights=w)
            assert d.small_part + d.large_part == d.total, (Y, w is None)
        unweighted = decompose_sum(f, 2, Y, N)
        assert unweighted.total == int(mask.bits.sum())


def test_decompose_rejects_float_weights():
    f = IntPolynomial.parse("1,0,1")
    with pytest.raises(TypeError):
        decompose_sum(f, 2, 10, 100, weights=np.ones(100) * 0.5)
    with pytest.raises(CapacityError):
        decompose_sum(f, 2, 10, 2 * 10 ** 6)


def factorint_table(f, k, N):
    out = {}
    for n in range(1, N + 1):
        S = sorted(p for p, e in sympy.factorint(abs(f(n))).items() if e >= k)
        if S:
            out[n - 1] = S
    return out


# c = 2 q^3 - 1 with q = nextprime(2 * 10^6): the values pass int64, so the
# object-dtype path runs, and f(1) = 2 q^3 with q far above P0 = 63246
_Q = 2000003
_BIG = f"{2 * _Q ** 3 - 1},0,1"


@pytest.mark.parametrize("text,k,N", [("1,0,1", 2, 2000), ("5,0,0,1", 2, 2000),
                                      ("2,0,0,1", 3, 2000), (_BIG, 3, 100)])
def test_kth_power_prime_table_matches_factorint(text, k, N, prime_table):
    f = IntPolynomial.parse(text)
    table = prime_table(f, k, N)
    assert table == factorint_table(f, k, N)
    P0 = sieve_prime_bound(f, k, N)
    if text == "1,0,1":
        # 1393^2 + 1 = 2 * 5^2 * 197^2, and 197 is found by the cofactor test
        assert P0 == 159 and table[1392] == [5, 197]
    if text == _BIG:
        assert evaluate_range(f, 1, N + 1).dtype == object
        assert table[0] == [_Q] and _Q > P0


# checkpoints on both sides of the run edges of 1000 and 7777 and of the
# first edge of a default run, _RUN
COUNT_CHECKPOINTS = [1, 999, 1000, 1001, 7776, 7777, 7778, 15554, 15555,
                     19999, _RUN - 1, _RUN, _RUN + 1, _RUN + 2000]
# x^2 + 2^63 takes the object dtype from n = 1
_OBJECT = f"{2 ** 63},0,1"
COUNT_CASES = [("1,0,1", 2), *((t, 2) for t in CORRECTION_PRODUCTS),
               ("-27,0,0,1", 2), (_OBJECT, 3), ("twinsqfree", 2)]


def _mask_counts(text, k, N, cps):
    """(counts at cps, zero hits) from the whole-N masks, built in runs of
    1000 n."""
    if text == "twinsqfree":
        bits = twin_squarefree_range(1, N + 1,
                                     primes_up_to(math.isqrt(N + 1)))
        return np.cumsum(bits)[np.array(cps) - 1].tolist(), []
    with sieve_consts(_RUN=1000):
        mask = product_kfree_mask(parse_poly_or_product(text), k, N)
    return (np.cumsum(mask.bits)[np.array(cps) - 1].tolist(),
            list(mask.zero_hits))


@pytest.mark.parametrize("text,k", COUNT_CASES)
def test_streamed_counts_match_mask(text, k):
    # object values are slow, so they stop short of a default run edge
    top = 20000 if text == _OBJECT else _RUN + 2000
    for runs, N in (((1000, 7777), 20000), ((_RUN,), top)):
        cps = [n for n in COUNT_CHECKPOINTS if n <= N]
        want, zeros = _mask_counts(text, k, N, cps)
        if text == "-27,0,0,1":
            assert zeros == [3]
        if text == _OBJECT:
            assert evaluate_range(IntPolynomial.parse(text), 1, 2).dtype \
                == object
        for run in runs:
            with sieve_consts(_RUN=run):
                _, got_zeros, _, rows = count_rows(text, k, N, cps, 100)
            assert [r[1] for r in rows] == want, (N, run)
            assert got_zeros == zeros


def test_decompose_total_past_old_table_cap():
    f = IntPolynomial.parse("1,0,1")
    N = 300250
    d = decompose_sum(f, 2, 1000, N)
    assert d.small_part + d.large_part == d.total == kfree_mask(f, 2, N).count


def test_decompose_frees_each_runs_transients(traced_peak):
    # 300201 n are three runs. Only the sorted hits of a run live across
    # its yield, and the peak is 3.13 MiB; keeping the hit lists, the
    # unsorted hits and their order as well took it to 3.42 MiB
    f = IntPolynomial.parse("1,0,1")
    d, peak = traced_peak(lambda: decompose_sum(f, 2, 1000, 300201))
    assert d.total == 268629
    assert peak < 3.3 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_table_path_never_factorizes(monkeypatch):
    def boom(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr("powerfree.kfree.factorize", boom)
    f = IntPolynomial.parse("5,0,0,1")  # floor(max|f|^(1/2)) > 3 * 10^5
    d = decompose_sum(f, 2, 100, 5000)
    assert d.small_part + d.large_part == d.total == kfree_mask(f, 2, 5000).count
    assert tail_pair_count(f, 2, 100, 5000) == brute_tail_pairs(f, 2, 100, 5000)


def brute_tail_pairs(f, k, Y, N):
    count = 0
    for n in range(1, N + 1):
        v = abs(f(n))
        if v == 0:
            continue
        S = [p for p, e in sympy.factorint(v).items() if e >= k]
        for msk in range(1, 1 << len(S)):
            prod = 1
            for j, p in enumerate(S):
                if msk >> j & 1:
                    prod *= p
            if prod > Y:
                count += 1
    return count


def test_tail_pair_count_matches_brute():
    f = IntPolynomial.parse("1,0,1")
    for Y in (1, 3, 10, 100):
        for N in (50, 300):
            assert tail_pair_count(f, 2, Y, N) == brute_tail_pairs(f, 2, Y, N)


def test_tail_pair_count_caps():
    f = IntPolynomial.parse("1,0,1")
    with pytest.raises(CapacityError):
        tail_pair_count(f, 2, 10, 10 ** 6)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=-9, max_value=9),
       st.integers(min_value=-9, max_value=9))
def test_random_quadratic_masks_match_brute(b, c):
    f_coeffs = [c, b, 1]
    f = IntPolynomial.from_coeffs(f_coeffs)
    try:
        mask = kfree_mask(f, 2, 400)
    except HypothesisViolation:
        # (x+a)^2 shapes and fixed-square shapes are correctly rejected
        disc = b * b - 4 * c
        from powerfree.poly import has_fixed_kth_power
        assert disc == 0 or has_fixed_kth_power(f, 2) is not None
        return
    assert np.array_equal(mask.bits, brute_mask(f, 2, 400))


def test_mask_on_large_coefficient_quadratic():
    # the discriminant has a 31-digit cofactor that factorint cannot prove
    # prime; the sieve needs only squarefreeness, so it must never factor it
    f = IntPolynomial.from_coeffs([-4999999993, -4999999994, 3000000008])
    for k in (3, 2):
        assert kfree_mask(f, k, 300).count == int(brute_mask(f, k, 300).sum())
    assert "bad_primes" not in vars(profile(f))


# ------------------------------------------------ bucketed large primes

def _designed_constant(d, hits):
    """c with f = x^d + c divisible by each modulus m at its n, by CRT."""
    c, M = 0, 1
    for m, n in hits:
        want = -n ** d % m
        c += M * ((want - c) * pow(M, -1, m) % m)
        M *= m
    return c


# two bucketed primes (above _STRIDE_MAX): their squares collide at n0,
# and a cube of the first sits at n1
_P1, _P2, _N0, _N1 = 4099, 4111, 777, 1234
_CUBIC_DESIGNED = _designed_constant(3, [((_P1 * _P2) ** 2, _N0)])
_QUINTIC_SQUARES = _designed_constant(5, [((_P1 * _P2) ** 2, _N0)])
_QUINTIC_CUBE = _designed_constant(5, [(_P1 ** 3, _N1)])

BUCKET_CASES = [
    (f"{_CUBIC_DESIGNED},0,0,1", 2, 3000),
    (f"{_QUINTIC_SQUARES},0,0,0,0,1", 3, 1500),
    (f"{_QUINTIC_CUBE},0,0,0,0,1", 3, 1500),
    ("5,0,0,1", 2, 6000),
    ("-27,0,0,1", 2, 6000),                   # f(3) = 0
    ("-12,-3,0,-3", 2, 6000),                 # negative lc, content 3
]


@pytest.mark.parametrize("text,k,N", BUCKET_CASES)
def test_bucketed_pass_matches_factorint(text, k, N, monkeypatch):
    # the last two masks take the bucketed pairs in slices of 1 and 3
    f = IntPolynomial.parse(text)
    with sieve_consts(_RUN=1000):
        masks = [kfree_mask(f, k, N)]
    masks.append(kfree_mask(f, k, N))
    for size in (1, 3):
        monkeypatch.setattr(kfree, "_PAIR_SLICE", size)
        with sieve_consts(_RUN=1000):
            masks.append(kfree_mask(f, k, N))
    assert masks[0].prime_bound > _STRIDE_MAX
    want = brute_mask(f, k, N)
    for m in masks:
        assert m.bits.tobytes() == want.tobytes(), text
        assert m.zero_hits == masks[0].zero_hits
    if text == BUCKET_CASES[4][0]:
        assert masks[0].zero_hits == (3,)


def test_bucketed_pass_designed_hits(monkeypatch, prime_table):
    cubic, squares, cube = (IntPolynomial.parse(t) for t, _, _ in
                            BUCKET_CASES[:3])
    # the Hensel lifts of the root n0 mod each prime reach its square
    for r in (_P1, _P2):
        assert _N0 in lift_roots(cubic, r, 2)
    assert cube(_N1) % _P1 ** 3 == 0
    with sieve_consts(_RUN=1000):
        assert not kfree_mask(cubic, 2, 3000).bits[_N0 - 1]
        # p1^2 p2^2 is no cube: each division at the collision counts once
        assert squares(_N0) % _P1 ** 3 and squares(_N0) % _P2 ** 3
        assert kfree_mask(squares, 3, 1500).bits[_N0 - 1]
        assert not kfree_mask(cube, 3, 1500).bits[_N1 - 1]
    table = prime_table(cubic, 2, 3000)
    assert table[_N0 - 1] == [_P1, _P2]
    assert table == factorint_table(cubic, 2, 3000)
    assert prime_table(cube, 3, 1500)[_N1 - 1] == [_P1]
    # short slices put slice edges among the bucketed primes
    for size in (1, 3):
        monkeypatch.setattr(kfree, "_PAIR_SLICE", size)
        assert prime_table(cubic, 2, 3000) == table
        assert prime_table(cube, 3, 1500)[_N1 - 1] == [_P1]


# 251 and 257, the primes on either side of _STRIDE_MAX: squares at n0
_AT_BOUND = _designed_constant(3, [((251 * 257) ** 2, _N0)])


@pytest.mark.parametrize("bound,last", [(251, 251), (_STRIDE_MAX, 251),
                                        (257, 257)])
def test_prime_at_the_stride_bound_matches_factorint(bound, last, monkeypatch,
                                                     prime_table):
    # with the bound at 251 or 257 that prime is exactly on it, the last
    # one strided, and the other is on the bucketed side
    monkeypatch.setattr(kfree, "_STRIDE_MAX", bound)
    f, N = IntPolynomial.parse(f"{_AT_BOUND},0,0,1"), 3000
    _, _, (_, strided) = _sieve_setup(f, 2, N)
    assert strided[-1][0] == last
    with sieve_consts(_RUN=1000):
        mask = kfree_mask(f, 2, N)
    assert mask.bits.tobytes() == brute_mask(f, 2, N).tobytes()
    table = prime_table(f, 2, N)
    assert table == factorint_table(f, 2, N)
    assert {251, 257} <= set(table[_N0 - 1])


# ------------------------------------------------ lifted strides

# x^2 + c with c near 2^62, 3^20 | f(100) and 5^12 | f(201): int64 values
# whose simple roots at 3 and 5 lift through many levels
_M62 = 3 ** 20 * 5 ** 12
_C62 = _designed_constant(2, [(3 ** 20, 100), (5 ** 12, 201)])
_C62 += _M62 * ((1 << 62) // _M62)
_NEAR62 = f"{_C62},0,1"
# x^2 + 3^20: the singular root 0 mod 3 branches (c0 = 0 mod 3) until its
# level mod 3^8 holds 81 classes, more than _LEVEL_CAP
_DEEP3 = f"{3 ** 20},0,1"

LIFT_CASES = [
    ("5,0,0,1", 3000),      # 1 is a simple root mod 2
    ("1,0,1", 3000),        # singular root at 2
    ("2,0,1", 3000),        # singular root at 2
    ("7,0,0,5", 3000),      # 5 | lc
    ("-12,-3,0,-3", 3000),  # content 3: every root mod 3 is singular
    ("-27,0,0,1", 3000),    # f(3) = 0
    ("-1,1", 1025),         # f(1025) = 2^10 = max|f|: lifts to the height
    (_BIG, 100),            # object dtype
    (_NEAR62, 300),         # int64 values near 2^62
    ("81,0,1", 3000),       # singular root 0 mod 3: 0, 3, 6 mod 9
    (_DEEP3, 3000),         # levels past the plan are read by value
]


@functools.lru_cache(maxsize=None)
def _factored(text, N):
    f = IntPolynomial.parse(text)
    return tuple(sympy.factorint(abs(f(n))) if f(n) else None
                 for n in range(1, N + 1))


def _sieve_run(f, k, N, roots, plan=None):
    """(values, flags, recorded primes per position) of _cofactors on
    plan over [1, N], or of the value-reading reference without one."""
    rows = {}

    def record(pos, primes):
        for i, p in zip(pos.tolist(), primes.tolist()):
            rows.setdefault(i, []).append(p)

    if plan is None:
        vals, bits = divided_reference(f, k, 1, N + 1, roots, record)
    else:
        bits = np.empty(N, dtype=bool)
        vals = _cofactors(f, k, 1, N + 1, roots, plan, bits, record)
    return vals.tolist(), bits, rows


def _strided_levels(plan, p):
    """(levels, whole) of the prime p in the strided part of a plan."""
    return next((lv, whole) for q, _, lv, whole in plan[1] if q == p)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("text,N", LIFT_CASES)
def test_lifted_strides_match_factorint(text, N, k, prime_table):
    f = IntPolynomial.parse(text)
    if text == _BIG:
        assert evaluate_range(f, 1, N + 1).dtype == object
    if text == _NEAR62:
        v = evaluate_range(f, 1, N + 1)
        assert v.dtype == np.int64 and v.min() > (1 << 62) - _M62
    P0, roots, plan = _sieve_setup(f, k, N, root_limit=3 * 10 ** 6)
    assert any(len(levels) > 1 for _, _, levels, _ in plan[1])
    if text == "81,0,1":
        assert _strided_levels(plan, 3) == ([(3, (0,)), (9, (0, 3, 6)),
                                             (27, (0, 9, 18)),
                                             (81, tuple(range(0, 81, 9)))],
                                            True)
    if text == _DEEP3:
        levels, whole = _strided_levels(plan, 3)
        assert len(levels) == 7 and not whole
    vals, bits, rows = _sieve_run(f, k, N, roots, plan)
    # the reference: the value-reading divide-out of every (p, root) pair
    ref_vals, ref_bits, ref_rows = _sieve_run(f, k, N, roots)
    assert vals == ref_vals
    for i, fac in enumerate(_factored(text, N)):
        if fac is None:
            assert vals[i] == 0
            continue
        assert vals[i] == math.prod(p ** e for p, e in fac.items() if p > P0)
        small = sorted(p for p, e in fac.items() if p <= P0 and e >= k)
        assert rows.get(i, []) == ref_rows.get(i, []) == small, i
        assert bits[i] == ref_bits[i] == (not small), i
    if _factored(text, N).count(None):
        with pytest.raises(HypothesisViolation):
            prime_table(f, k, N)
    elif P0 <= ROOT_LIMIT:
        assert prime_table(f, k, N) == factorint_table(f, k, N)


def test_singular_walk_transient_is_small(traced_peak):
    # x^2 + 1 has the singular root 1 mod 2, so the walk divides half a run
    # by 2; it does so in place, where a remainder copy would be 1 MiB
    f = IntPolynomial.parse("1,0,1")
    roots = root_table(f, primes_up_to(2))
    plan = _walk_plan(f, roots, max_abs_value(f, _RUN))
    n = np.arange(1, _RUN + 1, dtype=np.int64)
    vals, bits = n * n + 1, np.ones(_RUN, dtype=bool)
    _, peak = traced_peak(lambda: kfree._walk(vals, bits, 1, roots, plan, 2))
    assert np.array_equal(vals, np.where(n % 2, (n * n + 1) // 2, n * n + 1))
    assert bits.all()
    assert peak < 2 ** 19, f"peak {peak / 2 ** 20:.2f} MiB"


def test_zero_values_stay_zero():
    # x^3 - 27 vanishes at n = 3. From p = 5 on every root there is simple,
    # and a 1 in place of the zero would become 5^-1 mod 2^64 at the first
    # lifted level (with 2 or 3 in the table, 1 // p = 0 would hide it)
    f = IntPolynomial.parse("-27,0,0,1")
    N, k = 3000, 2
    P0 = sieve_prime_bound(f, k, N)
    primes = primes_up_to(P0)
    roots = root_table(f, primes[primes >= 5])
    plan = _walk_plan(f, roots, max_abs_value(f, N))
    levels, _ = _strided_levels(plan, 5)
    assert len(levels) > 1 and roots.roots[0] == 3
    vals = _cofactors(f, k, 1, N + 1, roots, plan, np.ones(N, dtype=bool))
    for n in range(1, N + 1):
        v = abs(f(n))
        for p in primes[primes >= 5].tolist():
            while v and v % p == 0:
                v //= p
        assert vals[n - 1] == v, n


# ------------------------------------------------ k-th power cofactors

@pytest.mark.parametrize("k", [2, 3, 4])
def test_object_cofactor_filter_keeps_every_kth_power(k):
    # q^k above 2^63 for q in every residue class of each filter modulus,
    # their neighbours r^k +- 1, products of two primes near 2^40, 0 and 1
    q0 = math.isqrt(1 << 64) if k == 2 else 2 ** (64 // k + 1)
    qs = range(q0, q0 + max(_RESIDUE_MODULI))
    powers = [q ** k for q in qs]
    big = [sympy.nextprime(2 ** 40 + 977 * i) for i in range(8)]
    vals = (powers + [v + 1 for v in powers] + [v - 1 for v in powers]
            + [a * b for a in big for b in big] + [0, 1])
    arr = np.array(vals, dtype=object)
    assert min(powers) > 2 ** 63 and arr.dtype == object
    want = [i for i, v in enumerate(vals)
            if v > 1 and is_perfect_kth_power(v, k)]
    got = _kth_power_cofactors(arr, k).tolist()
    assert got == want
    assert set(range(len(powers))) <= set(got)
    if k == 2:
        assert len(want) == len(powers) + len(big)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_int64_cofactor_root_is_exact(k, monkeypatch):
    # q^k and q^k +- 1 for q at the top of int64 (where one root estimate
    # decides), for q near 2^32 / k-th roots, for small q, and products of
    # two primes near 2^30, against is_perfect_kth_power
    rmax = math.isqrt((1 << 63) - 1) if k == 2 else \
        int(sympy.integer_nthroot((1 << 63) - 1, k)[0])
    qs = [*range(rmax - 40, rmax + 1), *range(2, 200),
          *range(rmax // 3, rmax // 3 + 40)]
    powers = [q ** k for q in qs]
    big = [sympy.nextprime(2 ** 30 + 977 * i) for i in range(6)]
    vals = (powers + [v + 1 for v in powers] + [v - 1 for v in powers]
            + [a * b for a in big for b in big] + [0, 1, (1 << 63) - 1])
    vals = [v for v in vals if v < 1 << 63]
    arr = np.array(vals, dtype=np.int64)
    want = [i for i, v in enumerate(vals)
            if v > 1 and is_perfect_kth_power(v, k)]
    assert _kth_power_cofactors(arr, k).tolist() == want
    monkeypatch.setattr(kfree, "_COFACTOR_CHUNK", 7)
    assert _kth_power_cofactors(arr, k).tolist() == want
    assert len(want) >= len(qs)


# ------------------------------------------------ threshold decomposition

def brute_decomposition(text, k, Y, N, weights=None):
    """(small, large, total) from sympy.factorint: every squarefree d whose
    k-th power divides f(n), with sign (-1)^omega(d) and weight w(n)."""
    small = large = total = 0
    for i, fac in enumerate(_factored(text, N)):
        w = 1 if weights is None else int(weights[i])
        S = [p for p, e in fac.items() if e >= k]
        total += w * (not S)
        for msk in range(1 << len(S)):
            T = [p for j, p in enumerate(S) if msk >> j & 1]
            if math.prod(T) <= Y:
                small += w * (-1) ** len(T)
            else:
                large += w * (-1) ** len(T)
    return small, large, total


def _parts(d):
    return d.small_part, d.large_part, d.total


DECOMPOSE_CASES = [("1,0,1", 2, 2000, (1, 5, 50, 316, 10 ** 6)),
                   ("5,0,0,1", 2, 2000, (1, 10, 300, 10 ** 5)),
                   (BUCKET_CASES[2][0], 3, 1500, (1, 100, 5000, _P1 * 2))]


@pytest.mark.parametrize("text,k,N,Ys", DECOMPOSE_CASES)
def test_decomposition_parts_match_factorint(text, k, N, Ys):
    f = IntPolynomial.parse(text)
    lam = liouville(build_tables(1, N + 1))
    for Y in Ys:
        for w in (None, lam):
            want = brute_decomposition(text, k, Y, N, w)
            assert _parts(decompose_sum(f, k, Y, N, weights=w)) == want, Y
    if text == BUCKET_CASES[2][0]:
        # the designed cube of a bucketed prime sits in the large part
        assert brute_decomposition(text, k, 100, N)[1] != 0


@pytest.mark.parametrize("run", [1, 97, 1000])
def test_decomposition_across_run_edges(run, monkeypatch):
    # runs of 97 and 1000 n cut [1, N] many times, inside and between the
    # groups of hits; runs of 1 hold one n each
    f = IntPolynomial.parse("1,0,1")
    N = 2000 if run > 1 else 400
    lam = liouville(build_tables(1, N + 1))
    rows = [(N, 1), (N // 2 + 3, 10), (1, 1), (N - 1, 200)]
    want = [_parts(decompose_sum(f, 2, Y, N, weights=w))
            for Y in (5, 316) for w in (None, lam)]
    tails = tail_pair_counts(f, 2, rows)
    cubic = tail_pair_counts(IntPolynomial.parse("5,0,0,1"), 2, rows)
    monkeypatch.setattr(sieve, "_RUN", run)
    assert [_parts(decompose_sum(f, 2, Y, N, weights=w))
            for Y in (5, 316) for w in (None, lam)] == want
    assert want[0] == brute_decomposition("1,0,1", 2, 5, N)
    assert tail_pair_counts(f, 2, rows) == tails
    assert tail_pair_counts(IntPolynomial.parse("5,0,0,1"), 2, rows) == cubic
    assert tails == [brute_tail_pairs(f, 2, y, n) for n, y in rows]


def test_decomposition_is_exact_for_any_int64_weights(monkeypatch):
    # weights near +-2^62 and at the ends of int64, whose sums overflow
    # int64 many times over, inside one run and across runs of 97
    f = IntPolynomial.parse("1,0,1")
    N = 2000
    rng = np.random.default_rng(16)
    w = rng.integers(-2 ** 10, 2 ** 10, size=N) + np.where(
        rng.random(N) < 0.5, -2 ** 62, 2 ** 62)
    w[:7] = [2 ** 63 - 1, -2 ** 63, 2 ** 63 - 1, -2 ** 63, 2 ** 62, 1, 0]
    w = w.astype(np.int64)
    want = [brute_decomposition("1,0,1", 2, Y, N, w) for Y in (5, 316)]
    assert abs(want[0][2]) > 2 ** 63
    assert [_parts(decompose_sum(f, 2, Y, N, weights=w))
            for Y in (5, 316)] == want
    monkeypatch.setattr(sieve, "_RUN", 97)
    assert [_parts(decompose_sum(f, 2, Y, N, weights=w))
            for Y in (5, 316)] == want


def test_decomposition_on_object_values_with_large_Y():
    # _BIG's values take the object dtype, and f(1) = 2 q^3 with q far
    # above P0: Y = 2^40 and 2^70 put every d in the small part, Y = q - 1
    # puts q in the large one
    f = IntPolynomial.parse(_BIG)
    N = 100
    for Y in (2 ** 40, 2 ** 70, _Q - 1, _Q):
        assert _parts(decompose_sum(f, 3, Y, N)) == \
            brute_decomposition(_BIG, 3, Y, N)
    assert decompose_sum(f, 3, _Q - 1, N).large_part == -1
    assert tail_pair_count(f, 3, _Q - 1, N) == 1
    assert tail_pair_count(f, 3, 2 ** 40, N) == 0


def test_decomposition_pins_the_benchmark_shape():
    # decompose_sum(x^2 + 1, 2, 1000, N) as the benchmark runs it, two runs
    d = decompose_sum(IntPolynomial.parse("1,0,1"), 2, 1000, 300321)
    assert _parts(d) == (268747, -12, 268735)


def test_decomposition_zero_values_raise(monkeypatch):
    # x^3 - 27 vanishes at 3, and -(x - 1)(x - 300000) at 1 and 300000,
    # two runs apart: the identity needs nonzero values, and the error
    # names every zero before any run is sieved
    f = IntPolynomial.parse("-27,0,0,1")
    for run in (lambda: decompose_sum(f, 2, 10, 100),
                lambda: tail_pair_count(f, 2, 10, 100)):
        with pytest.raises(HypothesisViolation, match=r"f\(n\) = 0 at n in "
                                                       r"\[3\]"):
            run()
    assert decompose_sum(f, 2, 10, 2).total == 2  # the zero lies past N
    g = IntPolynomial.parse("-300000,300001,-1")
    for run in (_RUN, 97):
        monkeypatch.setattr(sieve, "_RUN", run)
        with pytest.raises(HypothesisViolation,
                           match=r"at n in \[1, 300000\]"):
            decompose_sum(g, 2, 10, 300001)
    monkeypatch.undo()
    with pytest.raises(HypothesisViolation, match=r"at n in \[1\]"):
        tail_pair_count(g, 2, 10, 20)


def test_decomposition_never_factors_the_constant():
    # the constant q > 3.3 * 10^24 is a prime beyond factorize's proven
    # primality range; zeros are found without factoring it
    q = sympy.nextprime(10 ** 25)
    f = IntPolynomial.parse(f"{q},1")
    with pytest.raises(ValueError, match="proven witness range"):
        kfree.factorize(q)
    d = decompose_sum(f, 5, 10, 100)
    assert _parts(d) == (96, 0, 96)
    assert d.total == kfree_mask(f, 5, 100).count


def test_decompose_peak_is_flat_in_N(traced_peak):
    # the hits stream one run at a time, so N = 10^6 holds no more than
    # the single run of N = 2.5 * 10^5
    f = IntPolynomial.parse("1,0,1")
    peaks = [traced_peak(lambda: decompose_sum(f, 2, 1000, N))[1]
             for N in (250000, 10 ** 6)]
    assert peaks[1] - peaks[0] < 2 ** 20, peaks
