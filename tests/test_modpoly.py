import itertools
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from powerfree import modpoly
from powerfree.modpoly import (_divmod, _gcd, _xpow, batch_linear_roots,
                               batch_split_part, roots_prime_gcd,
                               split_linear_roots, sqrt_mod_p)
from powerfree.sieve import primes_up_to


def brute_roots(coeffs, p):
    r = np.arange(p, dtype=np.int64)
    v = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        v = (v * r + c) % p
    return np.nonzero(v == 0)[0].tolist()


def test_sqrt_mod_p_all_residues():
    for p in [3, 5, 7, 13, 17, 101, 997, 4999]:
        squares = {(x * x) % p for x in range(p)}
        for a in range(p):
            r = sqrt_mod_p(a, p)
            if a in squares:
                assert r is not None and (r * r) % p == a, (a, p)
            else:
                assert r is None, (a, p)


def test_roots_small_primes_brute():
    polys = [
        [1, 0, 1], [2, 0, 0, 1], [5, 0, 0, 1], [4, 1, 0, 1],
        [0, 1], [0, 1, 1], [2, 1, 1], [1, 2, 3, 4, 5],
        [7, 0, 0, 0, 0, 1], [3, 1, 4, 1, 5, 9, 2],
    ]
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101, 1009]:
        for coeffs in polys:
            if coeffs[-1] % p == 0:
                continue
            want = brute_roots(coeffs, p)
            assert sorted(roots_prime_gcd(coeffs, p)) == want, (coeffs, p)


def test_roots_at_p_2_3_5_match_brute():
    # 2 has no inverse mod 2: the quadratic closed form must not serve p = 2
    assert roots_prime_gcd([0, 1, 1], 2) == [0, 1]
    assert roots_prime_gcd([0, 1, 0, 1], 2) == [0, 1]
    for p in (2, 3, 5):
        for coeffs in itertools.product(range(p), repeat=4):
            want = brute_roots(coeffs, p)
            assert sorted(roots_prime_gcd(list(coeffs), p)) == want, (coeffs, p)
            # the closed forms of degree <= 2 take any g that is nonzero mod p
            if any(coeffs[:3]) and not coeffs[3]:
                got = split_linear_roots(list(coeffs[:3]), p)
                assert got == want, (coeffs, p)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=3,
                max_size=7),
       st.sampled_from([5, 7, 11, 13, 17, 101, 499, 1009]))
def test_roots_random_polys_property(coeffs, p):
    if coeffs[-1] % p == 0:
        coeffs = coeffs[:-1] + [1]
    want = brute_roots(coeffs, p)
    got = sorted(roots_prime_gcd(coeffs, p))
    assert got == want


def test_split_linear_roots_recovers_all():
    # products of distinct linear factors, where the answer is known
    rng = random.Random(7)
    for p in [11, 101, 1009, 104729]:
        roots = sorted(rng.sample(range(p), 5))
        coeffs = [1]
        for r in roots:
            # multiply by (x - r)
            coeffs = [(-r * coeffs[0]) % p] + [
                (coeffs[i - 1] - r * coeffs[i]) % p
                for i in range(1, len(coeffs))] + [coeffs[-1]]
        got = sorted(split_linear_roots(coeffs, p))
        assert got == roots, p


def test_batch_split_part_counts_match_scalar():
    primes = primes_up_to(1500)
    primes = primes[primes > 50]
    for coeffs in [[1, 0, 1], [2, 0, 0, 1], [4, 1, 0, 1], [2, 0, 1, 0, 1],
                   [1, 1, 1, 1, 1]]:
        counts, G = batch_split_part(coeffs, primes)
        assert G.shape == (len(coeffs), len(primes))
        for i, p in enumerate(primes.tolist()):
            want = len(brute_roots(coeffs, p))
            assert counts[i] == want, (coeffs, p)
            g = G[:, i].tolist()
            # the split part is monic of degree count and vanishes exactly
            # on the roots
            assert g[want] == 1 and not any(g[want + 1:]), (coeffs, p)
            assert brute_roots(g, p) == brute_roots(coeffs, p)


def _random_polys(rng, n):
    """Squarefree-over-Q polynomials of degree 1 to 5 with nonzero lc,
    some with negative lc or content > 1."""
    out = []
    while len(out) < n:
        d = rng.randrange(1, 6)
        cs = [rng.randrange(-40, 41) for _ in range(d)] + [
            rng.choice([1, -1, 2, -3, 7])]
        content = rng.choice([1, 1, 3])
        cs = [c * content for c in cs]
        if sympy.Poly(list(reversed(cs)), sympy.symbols("x")).is_sqf:
            out.append(cs)
    return out


def test_batch_linear_roots_vs_brute():
    primes = primes_up_to(1200)
    primes = primes[primes > 50]
    for coeffs in _random_polys(random.Random(11), 25):
        lane_ok = np.array([coeffs[-1] % p != 0 for p in primes.tolist()])
        P = primes[lane_ok]
        counts, G = batch_split_part(coeffs, P)
        lanes, roots = batch_linear_roots(G, counts, P)
        assert np.array_equal(np.bincount(lanes, minlength=len(P)), counts)
        for i, p in enumerate(P.tolist()):
            assert roots[lanes == i].tolist() == brute_roots(coeffs, p), \
                (coeffs, p)


def test_batch_path_near_int64_bound():
    # primes just below 2^31: every product in the ladder, the Euclid and
    # the split must still fit int64
    primes = np.array([2147483647, 2147483629, 2147483587, 2147483579,
                       2147483563, 2147483549], dtype=np.int64)
    for coeffs in [[5, 0, 0, 1], [-6, 11, -6, 1], [2, 0, 1, 0, 1],
                   [-120, 274, -225, 85, -15, 1], [3, -7]]:
        counts, G = batch_split_part(coeffs, primes)
        lanes, roots = batch_linear_roots(G, counts, primes)
        for i, p in enumerate(primes.tolist()):
            got = roots[lanes == i].tolist()
            assert got == sorted(roots_prime_gcd(coeffs, p)), (coeffs, p)
            assert counts[i] == len(got), (coeffs, p)
            assert all(sum(c * r ** j for j, c in enumerate(coeffs)) % p == 0
                       for r in got)
    with pytest.raises(ValueError):
        batch_split_part([1, 0, 1], np.array([2147483659], dtype=np.int64))


NEAR_2_31 = [2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
             2147483549]


def _budget_edges(m):
    """(K, below, above): the primes on both sides of the point where the
    ladder's product budget drops from K to K - 1, for every K a fused
    step of degree m can reach. No slot takes more than 2m - 1 products
    in one step, so from K = 2m - 1 up the step needs no extra reduction;
    K = 2 holds from the K = 3 edge up to the 2^31 cap."""
    out = []
    for K in range(3, 2 * m):
        # r = p - 1 for the last p whose budget is still K
        r = math.isqrt(modpoly._INT64_MAX // K)
        while K * r * r + r > modpoly._INT64_MAX:
            r -= 1
        out.append((K, sympy.prevprime(r + 2), sympy.nextprime(r + 1)))
    return out


def test_product_budget_edges():
    edges = _budget_edges(8)
    for K, below, above in edges:
        assert modpoly._product_budget(below) >= K > \
            modpoly._product_budget(above), (K, below, above)
    for p in [q for _, *pair in edges for q in pair] + NEAR_2_31 + [
            53, 1009, 1048573]:
        b, r = modpoly._product_budget(p), p - 1
        # the largest count of products that still fits an int64 slot
        # holding one residue
        assert b * r * r + r <= 2 ** 63 - 1 < (b + 1) * r * r + r, p
    assert modpoly._product_budget(NEAR_2_31[0]) == 2


def _check_ladder(rng, p, m, lanes=4):
    """_powmod_ladder against _xpow on monic moduli of degree m mod
    p, for x^E and (x + a)^E with E = p and random E. One modulus has
    every lower coefficient 1, so the fold multiplies by p - 1 throughout;
    the others are random."""
    F = [[1] * m] + [[rng.randrange(p) for _ in range(m)]
                     for _ in range(lanes - 1)]
    P = np.full(lanes, p, dtype=np.int64)
    E = np.array([p] + [rng.randrange(1, p) for _ in range(lanes - 1)],
                 dtype=np.int64)
    a = np.array([rng.randrange(p) for _ in range(lanes)], dtype=np.int64)
    for shift in (None, a):
        R = modpoly._powmod_ladder(shift, E, np.array(F, dtype=np.int64).T,
                                   P)
        for i in range(lanes):
            want = _xpow(0 if shift is None else int(a[i]), int(E[i]),
                         F[i] + [1], p)
            got = [int(row[i]) for row in R]
            assert got == want, (p, m, i, shift is not None)


def _ladder_bands():
    """(prime, degree) cases: primes below 2^20 and just below 2^31 at
    every degree 1-8, and the budget edges of degrees 3, 5 and 8."""
    rng = random.Random(21)
    small = sorted({sympy.nextprime(rng.randrange(50, 1 << 20))
                    for _ in range(6)})
    cases = [(p, m) for p in small + NEAR_2_31 for m in range(1, 9)]
    for m in (3, 5, 8):
        cases += [(p, m) for _, *pair in _budget_edges(m) for p in pair]
    return cases


def test_powmod_ladder_matches_scalar_at_budget_edges():
    rng = random.Random(17)
    for p, m in _ladder_bands():
        # one prime per call: the budget comes from the largest lane
        _check_ladder(rng, p, m)


def test_batch_split_part_matches_scalar_at_budget_edges():
    rng = random.Random(19)
    for p, m in _ladder_bands():
        # monic of degree m with up to m planted roots and a random cofactor
        planted = [rng.randrange(p) for _ in range(rng.randrange(m + 1))]
        coeffs = [1]
        for r in planted:
            coeffs = [(-r * coeffs[0]) % p] + [
                (coeffs[i - 1] - r * coeffs[i]) % p
                for i in range(1, len(coeffs))] + [1]
        rest = [rng.randrange(p) for _ in range(m - len(planted))] + [1]
        coeffs = [sum(coeffs[i] * rest[k - i] for i in range(len(coeffs))
                      if 0 <= k - i < len(rest)) % p for k in range(m + 1)]
        counts, G = batch_split_part(coeffs, np.array([p], dtype=np.int64))
        want = len(roots_prime_gcd(coeffs, p))
        assert counts[0] == want, (p, m, coeffs)
        g = G[:, 0].tolist()
        assert g[want] == 1 and not any(g[want + 1:]), (p, m, coeffs)
        for r in planted:
            assert sum(c * pow(r, j, p) for j, c in enumerate(g)) % p == 0


def test_poly_powmod_matches_sympy():
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod
    p = 101
    f = [3, 1, 0, 1]
    fd = [ZZ(c) for c in reversed(f)]  # descending for sympy's gf layer
    for e in [1, 2, 5, p, p * p, 12345, 10 ** 9 + 7]:
        got = _xpow(0, e, f, p)
        want = gf_pow_mod([ZZ(1), ZZ(0)], e, fd, p, ZZ)
        wc = [int(c) % p for c in reversed(want)]
        gc = list(got)
        while gc and gc[-1] == 0:
            gc.pop()
        while wc and wc[-1] == 0:
            wc.pop()
        assert gc == wc, e


def test_poly_gcd_agrees_with_sympy():
    rng = random.Random(3)
    x = sympy.symbols("x")
    for p in [7, 101, 997]:
        for _ in range(25):
            a = [rng.randrange(p) for _ in range(rng.randrange(2, 7))]
            b = [rng.randrange(p) for _ in range(rng.randrange(2, 7))]
            if not any(a) or not any(b):
                continue
            got = _gcd(a, b, p)
            pa = sympy.Poly(list(reversed(a)), x, modulus=p)
            pb = sympy.Poly(list(reversed(b)), x, modulus=p)
            want = pa.gcd(pb)
            wc = [c % p for c in reversed(want.all_coeffs())]
            # _gcd returns monic; sympy's gcd over GF(p) is monic too
            assert got == wc, (a, b, p)


def test_poly_rem_degree_contract():
    p = 13
    a, b = [1, 2, 3, 4, 5], [1, 0, 1]
    q, r = _divmod(a, b, p)
    assert len(r) <= 2

    def ev(cs, x):
        return sum(c * x ** i for i, c in enumerate(cs)) % p

    # remainder agrees with direct evaluation at roots of divisor mod p
    # x^2 + 1 has roots 5, 8 mod 13
    for root in (5, 8):
        assert ev(a, root) == ev(r, root)
    # and a = q b + r at all 13 residues, so as polynomials (deg a < 13)
    for x in range(p):
        assert ev(a, x) == (ev(q, x) * ev(b, x) + ev(r, x)) % p, x


def test_split_linear_roots_starts_at_shift_one(monkeypatch):
    # x^3 + 5 has roots r, r w, r w^2 (w^3 = 1) at the p = 1 (mod 3) where
    # it splits; x^((p-1)/2) takes one value on all three, so the shift
    # a = 0 never splits it and must not run
    ladders = []
    real = modpoly._xpow

    def spy(a, e, f, p):
        ladders.append((a, e, p))
        return real(a, e, f, p)

    monkeypatch.setattr(modpoly, "_xpow", spy)
    split = 0
    for p in primes_up_to(3000).tolist():
        if p % 3 == 1:
            got = roots_prime_gcd([5, 0, 0, 1], p)
            assert got == brute_roots([5, 0, 0, 1], p), p
            split += len(got) == 3
    assert split == 64
    assert any(e == (p - 1) // 2 for _, e, p in ladders)
    assert not [p for a, e, p in ladders if a == 0 and e == (p - 1) // 2]


def test_batch_split_part_skips_inverse_for_monic(monkeypatch):
    calls = []
    real = modpoly._pow_vec

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(modpoly, "_pow_vec", spy)
    primes = primes_up_to(200000)
    primes = primes[primes > 50]
    counts, G = batch_split_part([5, 0, 0, 1], primes)
    # one inverse per call is left: the monic scaling of the gcd
    assert len(calls) == 1
    calls.clear()
    # 3 (x^3 + 5) has the same monic split part, at two inverses per call
    counts3, G3 = batch_split_part([15, 0, 0, 3], primes)
    assert len(calls) == 2
    assert np.array_equal(counts, counts3) and np.array_equal(G, G3)


def test_qth_root_kernel_vs_pow():
    # q-th powers and non-powers at primes with q | p - 1, among them high
    # q-adic valuations of p - 1 and primes just below 2^31: hit must be
    # Euler's criterion, y a q-th root of B and w of multiplicative order q
    rng = random.Random(2402)
    cases = {2: [65537, 786433, 2147483629, 2147483549],
             3: [39367, 472393, 2147483563, 1811939329],
             5: [62501, 937501, 2147483171],
             7: [29, 43, 2147483647]}
    for q, extra in cases.items():
        pool = [p for p in primes_up_to(3 * 10 ** 5).tolist()
                if p > 50 and (p - 1) % q == 0]
        primes = sorted(rng.sample(pool, 40)) + extra
        assert all(sympy.isprime(p) and (p - 1) % q == 0 for p in primes)
        B = [pow(rng.randrange(1, p), q if i % 2 else 1, p)
             for i, p in enumerate(primes)]
        P = np.array(primes, dtype=np.int64)
        hit, y, w = modpoly._qth_root(np.array(B, dtype=np.int64), q, P)
        want = [pow(b, (p - 1) // q, p) == 1 for b, p in zip(B, primes)]
        assert hit.tolist() == want and sum(want) > len(primes) // 2, q
        for b, p, r, u in zip(np.array(B)[hit].tolist(), P[hit].tolist(),
                              y.tolist(), w.tolist()):
            assert pow(r, q, p) == b, (q, p)
            assert u != 1 and pow(u, q, p) == 1, (q, p)


def test_closed_form_exponent_shapes():
    cases = {(5, 0, 0, 1): 3, (1, 0, 1): 2, (0, 1, 1): 2, (3, 5): 2,
             (7, 0, 0, 0, 0, 2): 5, (-1,) + (0,) * 12 + (1,): 13,
             (0, 0, 0, 1): 0,           # c = 0
             (1, 0, 0, 0, 1): 0,        # x^4 + 1, composite degree
             (4, 1, 0, 1): 0,           # not a binomial
             (1,) + (0,) * 8 + (1,): 0}  # x^9 + 1
    for coeffs, q in cases.items():
        assert modpoly.closed_form_exponent(coeffs) == q, coeffs
