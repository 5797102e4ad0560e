from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerfree.poly import (_HORNER_CHUNK, _INT64_MAX, IntPolynomial,
                            coefficient_bound, evaluate_range, fixed_divisor,
                            has_fixed_kth_power, irreducibility_check,
                            max_abs_value, parse_poly_or_product, profile,
                            rational_roots, resultant,
                            resultant_with_derivative)

X = sympy.symbols("x")

POLYS = {
    "x": [0, 1],
    "x2p1": [1, 0, 1],
    "x2px": [0, 1, 1],
    "x3p2": [2, 0, 0, 1],
    "x3p5": [5, 0, 0, 1],
    "x3pxp4": [4, 1, 0, 1],
    "prod": [2, 0, 3, 0, 1],          # (x^2+1)(x^2+2)
    "lc2": [1, 3, 0, 2],              # 2x^3 + 3x + 1
    "x2pxp2": [2, 1, 1],
}


def sym(coeffs):
    return sympy.Poly(list(reversed(coeffs)), X)


def test_parse_text_round_trip():
    for coeffs in POLYS.values():
        f = IntPolynomial.from_coeffs(coeffs)
        assert IntPolynomial.parse(f.text()) == f
        assert list(f.coeffs) == coeffs


def test_parse_rejects_degenerate():
    with pytest.raises(ValueError):
        IntPolynomial.parse("5")
    with pytest.raises(ValueError):
        IntPolynomial.parse("3,0,0")   # top zeros trim to a constant
    with pytest.raises(ValueError):
        IntPolynomial.from_coeffs([0])


def test_evaluation_matches_sympy():
    for coeffs in POLYS.values():
        f = IntPolynomial.from_coeffs(coeffs)
        s = sym(coeffs)
        for n in [-17, -1, 0, 1, 2, 100, 10 ** 6]:
            assert f(n) == int(s.eval(n)), (coeffs, n)


def test_multiplication_matches_sympy():
    a = IntPolynomial.parse("1,0,1")
    b = IntPolynomial.parse("2,0,1")
    assert list((a * b).coeffs) == [2, 0, 3, 0, 1]
    c = IntPolynomial.parse("-1,3")
    assert (a * c)(11) == a(11) * c(11)


def test_derivative_and_content():
    f = IntPolynomial.parse("4,6,0,2")
    assert list(f.derivative().coeffs) == [6, 0, 6]
    assert f.content == 2
    assert IntPolynomial.parse("0,1").content == 1


RES_WITH_DERIV = {
    "x": 1,
    "x2p1": 4,
    "x2px": -1,
    "x3p2": 108,
    "x3p5": 675,
    "x3pxp4": 436,
    "prod": 32,
    "lc2": 648,
    "x2pxp2": 7,
}


def test_resultant_with_derivative_frozen_values():
    for name, want in RES_WITH_DERIV.items():
        f = IntPolynomial.from_coeffs(POLYS[name])
        assert resultant_with_derivative(f) == want, name


def sylvester_resultant(a, b):
    """Definitional oracle: determinant of the Sylvester matrix.

    sympy.resultant gives the same value for both argument orders, which
    cannot be right when both degrees are odd (the swap flips the sign),
    so the determinant is the trustworthy reference.
    """
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = []
    ad = list(reversed(a))
    bd = list(reversed(b))
    for i in range(n):
        rows.append([0] * i + ad + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + bd + [0] * (m - 1 - i))
    return int(sympy.Matrix(rows).det())


def test_resultant_matches_sylvester_on_fixtures():
    items = list(POLYS.values())
    for a in items:
        for b in items:
            fa, fb = IntPolynomial.from_coeffs(a), IntPolynomial.from_coeffs(b)
            assert resultant(fa, fb) == sylvester_resultant(a, b), (a, b)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=2,
                max_size=6),
       st.lists(st.integers(min_value=-30, max_value=30), min_size=2,
                max_size=6))
@example([10 ** 30, -7, 3, -10 ** 30], [-10 ** 30 + 1, 10 ** 29, 10 ** 30])
@example([5, -2, 0, 7], [-12])
def test_resultant_random_matches_sylvester(a, b):
    if a[-1] == 0:
        a = a[:-1] + [1]
    if b[-1] == 0:
        b = b[:-1] + [3]
    fa, fb = IntPolynomial.from_coeffs(a), IntPolynomial.from_coeffs(b)
    assert resultant(fa, fb) == sylvester_resultant(a, b)


def test_resultant_swap_antisymmetry():
    f = IntPolynomial.parse("0,1")
    g = IntPolynomial.parse("2,0,0,1")
    assert resultant(f, g) == 2      # equals g(0)
    assert resultant(g, f) == -2     # product of the roots of g


FIXED_DIVISORS = {
    "x": 1, "x2p1": 1, "x2px": 2, "x3p2": 1, "x3p5": 1,
    "x3pxp4": 2, "prod": 2, "lc2": 1, "x2pxp2": 2,
}


def test_fixed_divisor_frozen_values():
    for name, want in FIXED_DIVISORS.items():
        f = IntPolynomial.from_coeffs(POLYS[name])
        assert fixed_divisor(f) == want, name


def test_fixed_divisor_definition_holds():
    for coeffs in POLYS.values():
        f = IntPolynomial.from_coeffs(coeffs)
        d = fixed_divisor(f)
        assert all(f(n) % d == 0 for n in range(-20, 50))


def test_has_fixed_kth_power():
    # detector covers k-th powers dividing every VALUE; x^2 alone is caught
    # by the squarefree-polynomial hypothesis instead (f(1) = 1 here)
    assert has_fixed_kth_power(IntPolynomial.parse("0,0,1"), 2) is None
    f4 = IntPolynomial.parse("0,0,0,0,4")   # 4x^4: 2^2 divides all values
    assert has_fixed_kth_power(f4, 2) == 2
    assert has_fixed_kth_power(IntPolynomial.parse("0,0,4"), 2) == 2
    assert has_fixed_kth_power(IntPolynomial.parse("1,0,1"), 2) is None
    assert has_fixed_kth_power(IntPolynomial.parse("0,1,1"), 2) is None


def test_bad_primes_frozen():
    def bad_primes(text):
        return profile(IntPolynomial.parse(text)).bad_primes
    assert bad_primes("1,0,1") == (2,)
    assert bad_primes("2,0,0,1") == (2, 3)
    assert bad_primes("5,0,0,1") == (3, 5)
    assert bad_primes("4,1,0,1") == (2, 109)
    assert bad_primes("2,0,3,0,1") == (2,)
    # leading coefficient prime joins the bad set
    assert 2 in bad_primes("1,3,0,2")


def test_coefficient_bound_dominates():
    for coeffs in POLYS.values():
        f = IntPolynomial.from_coeffs(coeffs)
        for m in (1, 10, 1000):
            assert coefficient_bound(f, m) >= abs(f(m))
            assert coefficient_bound(f, m) >= abs(f(-m))


def test_max_abs_value_is_max():
    for coeffs in POLYS.values():
        f = IntPolynomial.from_coeffs(coeffs)
        for N in (1, 10, 257):
            want = max(abs(f(n)) for n in range(1, N + 1))
            assert max_abs_value(f, N) == want, (coeffs, N)


def test_max_abs_value_interior_extremum():
    # -(x-100)^2 + 5: maximum of |f| on [1, 200] is at the edge, but the
    # maximum of f itself is interior; both must be dominated
    f = IntPolynomial.parse("-9995,200,-1")
    want = max(abs(f(n)) for n in range(1, 201))
    assert max_abs_value(f, 200) == want


def test_evaluate_range_object_fallback():
    f = IntPolynomial.parse("0,0,0,0,0,0,0,0,1")  # x^8 overflows int64 fast
    vals = evaluate_range(f, 10 ** 5, 10 ** 5 + 4)
    assert [int(v) for v in vals] == [f(n) for n in range(10 ** 5, 10 ** 5 + 4)]
    g = IntPolynomial.parse("1,0,1")
    small = evaluate_range(g, 1, 6)
    assert small.dtype.kind == "i"
    assert small.tolist() == [g(n) for n in range(1, 6)]


@pytest.mark.parametrize("length", [1, _HORNER_CHUNK - 1, _HORNER_CHUNK,
                                    _HORNER_CHUNK + 1])
def test_evaluate_range_chunks_match_python_ints(length):
    f = IntPolynomial.parse("7,-3,0,2")  # 2x^3 - 3x + 7
    for start in (-(length // 2), 1, _HORNER_CHUNK - 1):
        vals = evaluate_range(f, start, start + length)
        assert vals.dtype == np.int64 and len(vals) == length
        assert vals.tolist() == [f(n) for n in range(start, start + length)]


def test_evaluate_range_near_int64_bound():
    # x^3 - 5 on [m - 2^16 - 1, m]: coefficient_bound(g, m) = m^3 + 5 is the
    # largest that stays <= 2^63 - 1, so the int64 path runs at its limit
    g = IntPolynomial.parse("-5,0,0,1")
    m = sympy.integer_nthroot(_INT64_MAX - 5, 3)[0]
    assert coefficient_bound(g, m) <= _INT64_MAX < coefficient_bound(g, m + 1)
    for lo, hi in ((m - _HORNER_CHUNK - 1, m + 1), (-m, -m + 3)):
        vals = evaluate_range(g, lo, hi)
        assert vals.dtype == np.int64
        assert vals.tolist() == [g(n) for n in range(lo, hi)]
    over = evaluate_range(g, m - 2, m + 2)  # one n past the bound
    assert over.dtype == object
    assert [int(v) for v in over] == [g(n) for n in range(m - 2, m + 2)]


def test_rational_roots():
    f = IntPolynomial.parse("0,1,1")          # x(x+1)
    assert set(rational_roots(f)) == {Fraction(0), Fraction(-1)}
    g = IntPolynomial.parse("-1,0,2")         # 2x^2 - 1: irrational roots
    assert rational_roots(g) == []
    h = IntPolynomial.parse("-1,3")           # 3x - 1
    assert rational_roots(h) == [Fraction(1, 3)]


def test_irreducibility_tiers():
    assert irreducibility_check(IntPolynomial.parse("0,1")) == "proved"
    assert irreducibility_check(IntPolynomial.parse("1,0,1")) == "proved"
    assert irreducibility_check(IntPolynomial.parse("0,1,1")) == "refuted"
    assert irreducibility_check(IntPolynomial.parse("2,0,0,1")) == "proved"
    # a squarefree quartic that splits mod every prime stays inconclusive:
    # splitting mod p never certifies reducibility over the rationals
    assert irreducibility_check(IntPolynomial.parse("2,0,3,0,1")) == "unverified"
    # repeated factor is refuted at any degree
    sq = IntPolynomial.parse("1,0,1") * IntPolynomial.parse("1,0,1")
    assert irreducibility_check(sq) == "refuted"


def test_irreducibility_never_lies():
    # verdicts must agree with sympy whenever they are definite
    import random
    rng = random.Random(11)
    for _ in range(60):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 6))]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        f = IntPolynomial.from_coeffs(coeffs)
        verdict = irreducibility_check(f)
        if verdict == "unverified":
            continue
        spoly = sym(list(coeffs))
        truly = spoly.is_irreducible or f.degree == 1
        assert verdict == ("proved" if truly else "refuted"), coeffs


def test_irreducibility_without_factoring():
    # x^2 + q with q a prime above factorint's proven range: the
    # discriminant -4q is no square, and nothing needs factoring
    q = sympy.nextprime(10 ** 25)
    assert irreducibility_check(IntPolynomial.parse(f"{q},0,1")) == "proved"
    # x^3 + q, x^4 + q and x^3 + x + q: q is too large for the rational-root
    # test, so the good-prime scan decides, and it proves cubics too
    for coeffs in ([q, 0, 0, 1], [q, 0, 0, 0, 1], [q, 1, 0, 1]):
        assert sym(coeffs).is_irreducible
        assert irreducibility_check(IntPolynomial.from_coeffs(coeffs)) == \
            "proved", coeffs
    # x^4 + a x + 1: rational roots can only be +-1, and the good-prime scan
    # tests Res(f, f') * lc(f) mod p instead of factoring the discriminant
    a = sympy.nextprime(10 ** 13)
    f = IntPolynomial.parse(f"1,{a},0,0,1")
    assert irreducibility_check(f) == "proved" and sym([1, a, 0, 0, 1]).is_irreducible
    import random
    rng = random.Random(26)
    big = 10 ** 26
    for _ in range(40):
        coeffs = [rng.randint(-big, big) for _ in range(3)]
        coeffs[2] = coeffs[2] or 1
        if rng.random() < 0.5:  # (u x + v)(s x + t), a split quadratic
            u, v, s_, t = (rng.randint(1, 10 ** 13) for _ in range(4))
            coeffs = [v * t, u * t + v * s_, u * s_]
        f = IntPolynomial.from_coeffs(coeffs)
        truly = sym(list(coeffs)).is_irreducible
        assert irreducibility_check(f) == ("proved" if truly else "refuted"), coeffs


def test_profile_caches_and_aggregates():
    f = IntPolynomial.parse("1,0,1")
    p1 = profile(f)
    p2 = profile(IntPolynomial.parse("1,0,1"))
    assert p1 is p2
    assert p1.degree == 2 and p1.leading == 1
    assert p1.resultant_with_derivative == 4
    assert p1.is_squarefree_poly and p1.bad_primes == (2,)


def test_parse_poly_or_product():
    fs = parse_poly_or_product("1,0,1*2,0,1")
    assert len(fs) == 2
    assert list(fs[0].coeffs) == [1, 0, 1]
    assert list(fs[1].coeffs) == [2, 0, 1]
    single = parse_poly_or_product("1,0,1")
    assert len(single) == 1
