import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from powerfree import local_roots, modpoly
from powerfree.errors import CapacityError
from powerfree.local_roots import (SCAN_LIMIT, _scan_roots,
                                   batch_root_counts, batch_roots,
                                   count_roots_mod_p, is_bad_prime,
                                   lift_levels, lift_roots, local_root_count,
                                   root_table, roots_mod_p)
from powerfree.poly import IntPolynomial, evaluate_range, profile
from powerfree.sieve import primes_up_to

TEST_POLYS = [
    [0, 1], [1, 0, 1], [0, 1, 1], [2, 0, 0, 1], [5, 0, 0, 1],
    [4, 1, 0, 1], [2, 0, 3, 0, 1], [1, 3, 0, 2], [2, 1, 1],
]


def enum_roots(f, m):
    return [r for r in range(m) if f(r) % m == 0]


def test_roots_mod_p_vs_enumeration():
    for coeffs in TEST_POLYS:
        f = IntPolynomial.from_coeffs(coeffs)
        for p in [2, 3, 5, 7, 11, 13, 101, 1009]:
            assert list(roots_mod_p(f, p)) == enum_roots(f, p), (coeffs, p)
            assert count_roots_mod_p(f, p) == len(enum_roots(f, p))


def test_roots_mod_p_gcd_route_vs_scan_route():
    # above SCAN_LIMIT roots_mod_p takes the gcd route; compare to the scan
    # at two fixed and 12 seeded primes, for sparse and dense f of degree
    # 3-6, full splits of degree 3 and 6, content 3, and lc divisible by p
    rng = random.Random(22)
    primes = primes_up_to(10 ** 5)
    primes = sorted(rng.sample(primes[primes > SCAN_LIMIT].tolist(), 12))
    counts = set()
    for p in [10007, 104729] + primes:
        assert p > SCAN_LIMIT
        for coeffs in ([1, 2, 3, 4, 5], [2, 0, 0, 1], [5, 0, 0, 1],
                       [4, 1, 0, 1], [1, 0, 0, 0, 1], [2, 0, 3, 0, 1],
                       [7, 0, 0, 0, 0, 1], [3, 1, 4, 1, 5, 9, 2],
                       [-6, 11, -6, 1],
                       [720, -1764, 1624, -735, 175, -21, 1],
                       [21, 0, 0, 0, 0, 3],       # 3 (x^5 + 7)
                       [5, 1, 0, 0, 2 * p],       # degree 1 mod p
                       [1, 2, 3, 4, 5, 7 * p]):   # degree 4 mod p
            f = IntPolynomial.from_coeffs(coeffs)
            got = roots_mod_p(f, p)
            assert got == _scan_roots(f, p), (coeffs, p)
            counts.add(len(got))
    assert {0, 1, 2, 3, 6} <= counts


# primes above SCAN_LIMIT on both sides of p = 1/3 (mod 4), and p - 1 of
# high 2-adic valuation (Tonelli-Shanks' long case): 2^16 + 1, 3 * 2^18 + 1
CLOSED_FORM_PRIMES = [2053, 2063, 4099, 4111, 40009, 40031, 65537, 786433]


def _closed_form_polys(p):
    return [[-7, 3], [2, -5], [10 ** 12, 1009], [1, 0, 1], [7, 0, 1],
            [-5, 2, 3], [-2, 0, 1], [3, 1, -2],
            [25 + p, -10, 1],    # disc -4p: the double root 5
            [-p, 0, 1]]          # disc 4p: the double root 0


def test_roots_mod_p_closed_form_vs_scan(monkeypatch):
    # degree <= 2 with p not dividing lc never reaches the gcd split
    def boom(a, e, f, p):
        raise AssertionError(f"ladder run for {f} mod {p}")

    monkeypatch.setattr(modpoly, "_xpow", boom)
    counts = set()
    for p in CLOSED_FORM_PRIMES:
        assert p > SCAN_LIMIT and sympy.isprime(p)
        for coeffs in _closed_form_polys(p):
            f = IntPolynomial.from_coeffs(coeffs)
            got = roots_mod_p(f, p)
            assert got == _scan_roots(f, p), (coeffs, p)
            counts.add(len(got))
        assert roots_mod_p(IntPolynomial.from_coeffs([25 + p, -10, 1]),
                           p) == (5,)
    assert counts == {0, 1, 2}
    assert {p % 4 for p in CLOSED_FORM_PRIMES} == {1, 3}


def test_roots_mod_p_lc_prime_keeps_the_gcd_route():
    # p | lc(f) drops the degree mod p: the closed form does not apply
    for p in CLOSED_FORM_PRIMES[:4] + [65537]:
        for coeffs in ([3, 1, p], [1, 2 * p], [-4, 5, 3 * p]):
            f = IntPolynomial.from_coeffs(coeffs)
            assert roots_mod_p(f, p) == _scan_roots(f, p), (coeffs, p)


def test_lift_roots_small_prime_powers_exhaustive():
    for coeffs in TEST_POLYS:
        f = IntPolynomial.from_coeffs(coeffs)
        for p in [2, 3, 5, 7, 11]:
            pk = p
            k = 1
            while pk <= 10 ** 4:
                data = lift_roots(f, p, k)
                want = enum_roots(f, pk)
                assert len(data) == len(want), (coeffs, p, k)
                assert sorted(data) == want, (coeffs, p, k)
                k += 1
                pk *= p


def test_lift_roots_frozen_quadratic():
    f = IntPolynomial.parse("1,0,1")
    data = lift_roots(f, 5, 2)
    assert sorted(data) == [7, 18]
    assert len(data) == 2
    assert len(lift_roots(f, 2, 2)) == 0
    assert len(lift_roots(f, 3, 4)) == 0


def test_lift_roots_frozen_cubic_table():
    # counts confirmed by full residue enumeration: the bad primes 2 and 3
    # have their single base root die at the square, 31 splits completely
    f = IntPolynomial.parse("2,0,0,1")
    want = {
        (2, 1): 1, (2, 2): 0, (2, 3): 0, (2, 4): 0,
        (3, 1): 1, (3, 2): 0, (3, 3): 0, (3, 4): 0,
        (5, 1): 1, (5, 2): 1, (5, 3): 1,
        (7, 1): 0, (7, 2): 0,
        (31, 1): 3, (31, 2): 3,
    }
    for (p, k), rho in want.items():
        data = lift_roots(f, p, k)
        assert len(data) == rho, (p, k)
        assert sorted(data) == enum_roots(f, p ** k), (p, k)


def test_good_prime_lift_preserves_count():
    f = IntPolynomial.parse("1,0,1")
    for p in [5, 13, 17, 29, 101]:
        base = local_root_count(f, p, 1)
        for k in (2, 3, 4):
            assert local_root_count(f, p, k) == base, (p, k)


def _root_count_by_scan(f, m):
    """#{r mod m : f(r) = 0 mod m}, by Horner over every residue mod m."""
    r = np.arange(m, dtype=np.int64)
    acc = np.zeros(m, dtype=np.int64)
    for c in reversed(f.coeffs):
        acc = (acc * r + c) % m
    return int(np.count_nonzero(acc == 0))


def test_local_root_count_matches_enumeration():
    # singular primes count their last level without listing it; repeated
    # factors, content and a zero derivative mod p are all covered
    polys = ["1,0,2,0,1", "0,0,1,1", "2,4,2", "0,0,0,1", "1,2,1", "3,3",
             "1,0,1", "5,0,0,1", "2,0,3,0,1", "1,3,0,2", "0,1,1"]
    for text in polys:
        f = IntPolynomial.parse(text)
        for p in primes_up_to(59).tolist():
            for k in range(2, 5):
                if p ** k <= 10 ** 6:
                    assert local_root_count(f, p, k) == \
                        _root_count_by_scan(f, p ** k), (text, p, k)


def test_bad_prime_detection():
    f = IntPolynomial.parse("1,0,1")    # disc -4
    assert is_bad_prime(f, 2)
    assert not is_bad_prime(f, 5)
    g = IntPolynomial.parse("2,0,0,1")  # res with derivative 108 = 2^2 3^3
    assert is_bad_prime(g, 2) and is_bad_prime(g, 3)
    assert not is_bad_prime(g, 5)
    h = IntPolynomial.parse("1,3,0,2")  # leading coefficient divisible by 2
    assert is_bad_prime(h, 2)


def test_content_prime_all_residues():
    f = IntPolynomial.parse("2,2,2")    # 2(x^2+x+1): every n works mod 2
    assert count_roots_mod_p(f, 2) == 2
    assert list(roots_mod_p(f, 2)) == [0, 1]


def test_capacity_error_on_exploding_lift(monkeypatch):
    # x^2 mod 2^k has 2^(k - ceil(k/2)) roots; push past the cap
    f = IntPolynomial.parse("0,0,1")
    monkeypatch.setattr(local_roots, "LIFT_ROOT_CAP", 100)
    with pytest.raises(CapacityError):
        lift_roots(f, 2, 50)


def test_lift_levels_match_residue_enumeration():
    # every level of every walk against a residue scan mod p^j <= 5000;
    # x^2 and (x^2+1)^2 branch at the singular primes, x^3+2 dies at 3
    top = 5000
    polys = TEST_POLYS + [[0, 0, 1], [1, 0, 2, 0, 1]]
    for coeffs in polys:
        f = IntPolynomial.from_coeffs(coeffs)
        vals = evaluate_range(f, 0, top)
        assert vals.dtype.kind == "i"
        for p in primes_up_to(top).tolist():
            got = list(lift_levels(f, p, top))
            moduli, pj = [], p
            while pj <= top:
                moduli.append(pj)
                pj *= p
            assert [pj for pj, _ in got] == moduli, (coeffs, p)
            for pj, roots in got:
                assert isinstance(roots, tuple)
                assert list(roots) == np.flatnonzero(vals[:pj] % pj == 0
                                                     ).tolist(), (coeffs, pj)
    sizes = {(text, p): [len(r) for _, r in
                         lift_levels(IntPolynomial.parse(text), p, 10 ** 3)]
             for text, p in [("0,0,1", 2), ("0,0,1", 3), ("1,0,2,0,1", 5),
                             ("2,0,0,1", 3)]}
    assert sizes == {("0,0,1", 2): [1, 2, 2, 4, 4, 8, 8, 16, 16],
                     ("0,0,1", 3): [1, 3, 3, 9, 9, 27],
                     ("1,0,2,0,1", 5): [2, 10, 10, 50],
                     ("2,0,0,1", 3): [1, 0, 0, 0, 0, 0]}


def test_lift_levels_from_a_simple_root():
    # from base=(r,) with f'(r) != 0 mod p each level holds the one lift
    f = IntPolynomial.parse("5,0,0,1")
    der = f.derivative()
    top = 10 ** 18
    for p in primes_up_to(200).tolist():
        for r in roots_mod_p(f, p):
            if der(r) % p == 0:
                continue
            levels = list(lift_levels(f, p, top, (r,)))
            assert [pj for pj, _ in levels] == [
                p ** j for j in range(1, len(levels) + 1)]
            assert levels[-1][0] <= top < levels[-1][0] * p
            for pj, roots in levels:
                assert len(roots) == 1, (p, r, pj)
                assert roots[0] % p == r and f(roots[0]) % pj == 0


def test_lift_levels_stop_at_top(monkeypatch):
    f = IntPolynomial.parse("1,0,1")
    assert [pj for pj, _ in lift_levels(f, 5, 124)] == [5, 25]
    assert [pj for pj, _ in lift_levels(f, 5, 125)] == [5, 25, 125]

    def boom(*args):
        raise AssertionError("roots mod p computed for p above top")

    monkeypatch.setattr(local_roots, "roots_mod_p", boom)
    assert list(lift_levels(f, 7, 6)) == []
    assert list(lift_levels(f, 7, 6, (0,))) == []


def test_lift_roots_k1_keeps_roots_above_cap():
    f = IntPolynomial.parse("3,3")  # 3(x + 1) vanishes identically mod 3
    assert lift_roots(f, 3, 1) == (0, 1, 2)
    assert len(lift_roots(f, 3, 2)) == 3


def test_batch_root_counts_vs_scalar():
    # with (x^2+1)^2, x^2(x+1) and 2(x+1)^2: the batched split counts the
    # distinct roots at singular primes too, so a repeated factor is fine
    primes = primes_up_to(2000)
    for coeffs in TEST_POLYS + [[1, 0, 2, 0, 1], [0, 0, 1, 1], [2, 4, 2]]:
        f = IntPolynomial.from_coeffs(coeffs)
        got = batch_root_counts(f, primes)
        for i, p in enumerate(primes.tolist()):
            assert got[i] == count_roots_mod_p(f, p), (coeffs, p)


def test_batch_root_counts_unfactored_discriminant():
    # the discriminant of this quadratic has a cofactor factorize cannot
    # split; batch_root_counts factors nothing, so it never asks
    f = IntPolynomial.parse("-4999999993,-4999999994,3000000008")
    primes = primes_up_to(1100)
    got = batch_root_counts(f, primes)
    for i, p in enumerate(primes.tolist()):
        assert got[i] == len(_scan_roots(f, p)), p


def roots_at(table, p):
    return table.roots[table.p == p].tolist()


def check_table_layout(table):
    # flat (p, root) pairs sorted by p then root, counts by prime
    key = table.p * (1 << 32) + table.roots
    assert (np.diff(key) > 0).all()
    assert np.isin(table.p, table.primes).all()
    assert np.array_equal(
        table.counts, [int((table.p == p).sum()) for p in table.primes])


def test_batch_roots_vs_scalar():
    primes = primes_up_to(3000)
    f = IntPolynomial.parse("5,0,0,1")
    table = root_table(f, primes)
    check_table_layout(table)
    assert np.array_equal(table.primes, primes)
    for p in primes.tolist():
        assert roots_at(table, p) == enum_roots(f, p), p
    as_dict = batch_roots(f, primes)
    assert {p: r.tolist() for p, r in as_dict.items()} == {
        p: roots_at(table, p) for p in primes.tolist() if roots_at(table, p)}


# squarefree over Q, degrees 1 to 5: negative leading coefficients,
# content 3 and 6, lc divisible by 53, and discriminants divisible by 61,
# 67, 181 and 241, all primes above the batch path's lower cutoff of 50
BATCH_POLYS = [
    "7,-1", "0,1,0,-53", "-18,12,6", "0,-335,201,-3",
    "-244,-244,-731,1,3", "3,0,0,0,0,-3", "-6,-3,0,0,0,-6",
]


def _batch_cases():
    rng = random.Random(5)
    polys = [IntPolynomial.parse(t) for t in BATCH_POLYS]
    while len(polys) < len(BATCH_POLYS) + 12:
        d = rng.randrange(1, 6)
        cs = [rng.randrange(-30, 31) for _ in range(d)]
        cs.append(rng.choice([-5, -2, -1, 1, 4]))
        f = IntPolynomial.from_coeffs(cs)
        if f.degree == d and profile(f).is_squarefree_poly:
            polys.append(f)
    return polys


def test_batch_paths_vs_residue_scan():
    primes = primes_up_to(1100)
    for f in _batch_cases():
        assert profile(f).is_squarefree_poly, f.text()
        counts = batch_root_counts(f, primes)
        # every p > 50 goes through the batched split
        table = root_table(f, primes)
        check_table_layout(table)
        assert np.array_equal(table.counts, counts), f.text()
        for i, p in enumerate(primes.tolist()):
            want = enum_roots(f, p)
            assert roots_at(table, p) == want, (f.text(), p)
            assert counts[i] == len(want), (f.text(), p)


def test_root_table_above_degree_five():
    # the ladder's reduction schedule depends on the degree, and the random
    # cases above stop at degree 5: degrees 6 to 9, negative lc, content 3
    rng = random.Random(29)
    polys = []
    while len(polys) < 6:
        d = 6 + len(polys) % 4
        cs = [rng.randrange(-30, 31) for _ in range(d)]
        cs.append(rng.choice([-7, -2, -1]))
        if math.gcd(*cs) != 1:
            continue
        f = IntPolynomial.from_coeffs([3 * c for c in cs])
        if profile(f).is_squarefree_poly:
            polys.append(f)
    primes = primes_up_to(3000)
    primes = primes[primes > 50]
    for f in polys:
        table = root_table(f, primes)
        check_table_layout(table)
        for p in primes.tolist():
            assert roots_at(table, p) == list(_scan_roots(f, p)), \
                (f.text(), p)


def test_batch_paths_near_int64_bound():
    primes = np.array([2147483549, 2147483563, 2147483579, 2147483587,
                       2147483629, 2147483647], dtype=np.int64)
    for f in [IntPolynomial.parse("5,0,0,1"), IntPolynomial.parse("-6,11,-6,1"),
              IntPolynomial.parse("3,1,4,1,5,-9")]:
        table = root_table(f, primes)
        counts = batch_root_counts(f, primes)
        assert np.array_equal(table.counts, counts), f.text()
        for i, p in enumerate(primes.tolist()):
            got = roots_at(table, p)
            assert got == list(roots_mod_p(f, p)), (f.text(), p)
            assert counts[i] == len(got)
    assert roots_at(root_table(IntPolynomial.parse("-6,11,-6,1"), primes),
                    2147483647) == [1, 2, 3]


def test_batch_roots_stays_off_the_scalar_split(monkeypatch):
    f = IntPolynomial.parse("5,0,0,1")
    primes = primes_up_to(2 * 10 ** 5)
    want = root_table(f, primes)

    def boom(*args, **kwargs):
        raise AssertionError("scalar routine called on the batch path")

    monkeypatch.setattr(modpoly, "split_linear_roots", boom)
    monkeypatch.setattr(modpoly, "_gcd", boom)
    # primes up to 50 are scanned; everything above is batched
    got = root_table(f, primes)
    assert np.array_equal(got.p, want.p)
    assert np.array_equal(got.roots, want.roots)
    assert np.array_equal(got.counts, want.counts)
    assert len(got.roots) > 10 ** 4
    as_dict = batch_roots(f, primes)
    assert sum(len(r) for r in as_dict.values()) == len(want.roots)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=2,
                max_size=5),
       st.sampled_from([(2, 4), (3, 3), (5, 3), (7, 2), (11, 2), (13, 2)]))
def test_lift_roots_random_property(coeffs, pk):
    if all(c == 0 for c in coeffs):
        coeffs = [1, 1]
    if coeffs[-1] == 0:
        coeffs = coeffs[:-1] + [1]
    p, k = pk
    f = IntPolynomial.from_coeffs(coeffs)
    data = lift_roots(f, p, k)
    want = enum_roots(f, p ** k)
    assert sorted(data) == want
    assert len(data) == len(want)


# squarefree, with lc 1009 (the 169th prime, a slow-routed prime in the
# third slice of 64), and (x^2 + 1)^2 (x - 3), whose repeated factor every
# batched lane sees
SLICE_POLYS = ["5,0,0,1", "1,0,1", "-7,2,0,1009", "-3,1,-6,2,-3,1"]


def test_slices_match_the_per_prime_oracle(monkeypatch):
    primes = primes_up_to(3000)
    for coeffs in SLICE_POLYS:
        f = IntPolynomial.parse(coeffs)
        want = root_table(f, primes)
        monkeypatch.setattr(local_roots, "_PRIME_SLICE", 64)
        monkeypatch.setattr(local_roots, "_SPLIT_LANES", 40)
        table = root_table(f, primes)
        counts = batch_root_counts(f, primes)
        monkeypatch.undo()
        check_table_layout(table)
        assert np.array_equal(table.counts, counts), coeffs
        for p in primes.tolist():
            assert roots_at(table, p) == list(roots_mod_p(f, p)), (coeffs, p)
        for got in (table.counts, table.p, table.roots):
            assert got.dtype == np.int64
        assert np.array_equal(want.p, table.p), coeffs
        assert np.array_equal(want.roots, table.roots), coeffs
        assert np.array_equal(want.counts, table.counts), coeffs


def test_root_table_transients_are_flat_in_P(traced_peak):
    # beyond its result root_table holds one slice and the gathered
    # multi-root lanes; all-lanes-at-once transients grew with pi(P)
    f = IntPolynomial.parse("1,0,1")
    extra = []
    for P in (10 ** 6, 4 * 10 ** 6):
        primes = primes_up_to(P)
        t, peak = traced_peak(lambda: root_table(f, primes))
        extra.append(peak - t.counts.nbytes - t.p.nbytes - t.roots.nbytes)
    assert extra[1] < extra[0] + 2 ** 20, extra


def test_root_table_lc_beyond_the_witness_range():
    # lc = 10^25 + 13 lies past factorint's proven primality range; the
    # router finds the primes dividing it as lc mod p = 0, without factoring
    f = IntPolynomial((1, 10 ** 25 + 13))
    primes = primes_up_to(1000)
    table = root_table(f, primes)
    check_table_layout(table)
    for p in primes.tolist():
        assert roots_at(table, p) == list(roots_mod_p(f, p)), p
    assert np.array_equal(batch_root_counts(f, primes), table.counts)


# the closed forms: quadratics (D prime to p, D = 0 at 61 for x^2 - 61,
# and the linear factors of x^2 + x and 3x^2 + 2x - 5) and binomials
# a x^q + c, c = 2 * 53 * 59 vanishing at two primes above the cutoff
CLOSED_POLYS = ["5,0,0,1", "2,0,0,1", "7,0,0,3", "7,0,0,0,0,1", "1,0,1",
                "2,0,1", "0,1,1", "-5,2,3", "6254,0,0,1", "-61,0,1"]


def _ladder_roots(f, primes):
    """(counts, lane primes, roots) of the batched ladder and split over the
    primes above the cutoff that do not divide lc(f)."""
    fast = primes[(primes > 50) & (f.leading % primes != 0)]
    counts, G = modpoly.batch_split_part(list(f.coeffs), fast)
    lanes, roots = modpoly.batch_linear_roots(G, counts, fast)
    return fast, counts, fast[lanes], roots


def test_closed_forms_match_the_ladder(monkeypatch):
    # every prime in (50, 2e5], so both sides of p mod 3, 4, 8 and 9
    primes = primes_up_to(2 * 10 ** 5)
    want = {t: _ladder_roots(IntPolynomial.parse(t), primes)
            for t in CLOSED_POLYS}

    def boom(*args):
        raise AssertionError("ladder run for a closed-form f")

    monkeypatch.setattr(modpoly, "batch_split_part", boom)
    monkeypatch.setattr(modpoly, "batch_linear_roots", boom)
    seen = {}
    for text, (fast, counts, lane_p, roots) in want.items():
        f = IntPolynomial.parse(text)
        assert modpoly.closed_form_exponent(f.coeffs) in (2, f.degree)
        table = root_table(f, primes)
        check_table_layout(table)
        on = np.isin(table.p, fast)
        assert np.array_equal(table.p[on], lane_p), text
        assert np.array_equal(table.roots[on], roots), text
        got = batch_root_counts(f, primes)
        assert np.array_equal(got, table.counts), text
        assert np.array_equal(got[np.isin(primes, fast)], counts), text
        seen[text] = set(counts.tolist())
    assert seen["5,0,0,1"] == {0, 1, 3} and seen["1,0,1"] == {0, 2}
    assert seen["7,0,0,0,0,1"] == {0, 1, 5} and seen["-5,2,3"] == {2}
    assert 1 in seen["-61,0,1"] and 1 in seen["6254,0,0,1"]
    for m, sides in ((3, {1, 2}), (4, {1, 3}), (8, {1, 3, 5, 7}),
                     (9, {1, 2, 4, 5, 7, 8})):
        assert set((primes[primes > 50] % m).tolist()) == sides


# p - 1 of high 2-adic (2^16 + 1, 3 * 2^18 + 1), 3-adic (2 * 3^9 + 1 and
# 8 * 3^10 + 1) and 5-adic (4 * 5^6 + 1, 12 * 5^7 + 1)
# valuation: the long cases of Tonelli-Shanks and its q-th root form
VALUATION_PRIMES = [65537, 786433, 39367, 472393, 62501, 937501]


def test_closed_forms_match_the_scan():
    rng = random.Random(24)
    primes = primes_up_to(10 ** 6)
    seeded = rng.sample(primes[primes > SCAN_LIMIT].tolist(), 12)
    sides = set()
    for p in sorted(seeded) + VALUATION_PRIMES:
        assert sympy.isprime(p)
        sides.add((p % 3, p % 4, p % 8 in (1, 7), p % 9 == 1))
        for text in CLOSED_POLYS + ["-1,0,0,0,0,0,0,1", "3,0,0,0,0,-2"]:
            f = IntPolynomial.parse(text)
            table = root_table(f, np.array([p]))
            assert table.roots.tolist() == list(_scan_roots(f, p)), (text, p)
    assert {s[0] for s in sides} == {1, 2} and {s[1] for s in sides} == {1, 3}
    assert {s[2] for s in sides} == {s[3] for s in sides} == {True, False}


def test_square_roots_match_sqrt_mod_p():
    # x^2 - a has the roots +-sqrt(a): the closed form's square root lane by
    # lane against the scalar Tonelli-Shanks, squares and non-squares alike
    rng = random.Random(2401)
    primes = np.array(sorted(rng.sample(primes_up_to(10 ** 6)[100:].tolist(),
                                        40) + VALUATION_PRIMES[:2]))
    for a in [2, 3, 5, -1, -3, 10 ** 9 + 7] + rng.sample(range(10 ** 6), 8):
        table = root_table(IntPolynomial.from_coeffs([-a, 0, 1]), primes)
        for p in primes.tolist():
            s = modpoly.sqrt_mod_p(a, p)
            want = [] if s is None else sorted({s, (p - s) % p})
            assert roots_at(table, p) == want, (a, p)


def test_cubic_binomial_stays_off_the_ladder(monkeypatch):
    # x^3 + 5 to 10^6: every prime above 50 takes the closed forms
    primes = primes_up_to(10 ** 6)

    def boom(*args):
        raise AssertionError("batch_split_part called for x^3 + 5")

    monkeypatch.setattr(modpoly, "batch_split_part", boom)
    f = IntPolynomial.parse("5,0,0,1")
    table = root_table(f, primes)
    counts = batch_root_counts(f, primes)
    assert np.array_equal(table.counts, counts)
    assert int(counts.sum()) == len(table.roots) > 7 * 10 ** 4
