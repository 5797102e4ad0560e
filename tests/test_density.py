import importlib
import math

import pytest
import sympy

from conftest import estermann_constant, legendre, quadratic_pair_constant
from powerfree import local_roots
from powerfree.density import density
from powerfree.errors import HypothesisViolation
from powerfree.kfree import KfreeSieve
from powerfree.local_roots import local_root_count, root_table
from powerfree.poly import IntPolynomial
from powerfree.sieve import primes_up_to

# reference values recomputed with 30-digit arithmetic over enumerated
# local root counts; they pin both the math and the summation order
FROZEN = {
    "twin_1e6": 0.32263414267274587037,
    "estermann_1e5": 0.89484194065697486037,
    "estermann_1e6": 0.89484128524560571931,
    "qpair_1e4": 0.67188935099231654487,
    "qpair_1e6": 0.67187632768349582268,
    "hb_x3p5_k2_P3000": 0.72250455728340547088,
    "br_x3p2_k3_P3000": 0.99074130624647996190,
}
# n(n + 1): n and n + 1 are both squarefree exactly when it is
TWIN = IntPolynomial((0, 1, 1))
# the module; the package's name density is the function
density_module = importlib.import_module("powerfree.density")


def close(a, b, tol=5e-16):
    assert abs(a - b) <= tol * max(1.0, abs(b)), (a, b)


def test_twin_constant_frozen():
    close(density(TWIN, 2, 10 ** 6).value, FROZEN["twin_1e6"])


def test_estermann_constant_frozen():
    close(estermann_constant(10 ** 5).value, FROZEN["estermann_1e5"])
    close(estermann_constant(10 ** 6).value, FROZEN["estermann_1e6"])


def test_quadratic_pair_constant_frozen():
    close(quadratic_pair_constant(10 ** 4).value, FROZEN["qpair_1e4"])
    close(quadratic_pair_constant(10 ** 6).value, FROZEN["qpair_1e6"])


def test_generic_density_frozen_cubics():
    f = IntPolynomial.parse("5,0,0,1")
    close(density(f, 2, 3000).value, FROZEN["hb_x3p5_k2_P3000"])
    g = IntPolynomial.parse("2,0,0,1")
    close(density(g, 3, 3000).value, FROZEN["br_x3p2_k3_P3000"])


def test_dual_route_estermann():
    # the generic evaluator (root counting) and the closed form (p mod 4)
    # must land on the same partial products
    f = IntPolynomial.parse("1,0,1")
    for P in (100, 10 ** 4, 10 ** 5):
        a = density(f, 2, P)
        b = estermann_constant(P)
        close(a.value, b.value, 2e-15)


def test_dual_route_quadratic_pair():
    prod = IntPolynomial.parse("1,0,1") * IntPolynomial.parse("2,0,1")
    for P in (100, 10 ** 4):
        a = density(prod, 2, P)
        b = quadratic_pair_constant(P)
        close(a.value, b.value, 2e-15)


def test_enclosures_nested_and_ordered():
    ops = [
        lambda P: density(TWIN, 2, P),
        lambda P: estermann_constant(P),
        lambda P: quadratic_pair_constant(P),
        lambda P: density(IntPolynomial.parse("5,0,0,1"), 2, P),
        lambda P: density(IntPolynomial.parse("2,0,0,1"), 3, P),
    ]
    for op in ops:
        ref = op(10 ** 5).value
        for P in (10 ** 3, 10 ** 4):
            d = op(P)
            assert d.lower <= d.value <= d.upper
            assert d.lower <= ref <= d.upper, (P, ref, d)
        # tighter cutoff gives a tighter interval
        w3 = op(10 ** 3).upper - op(10 ** 3).lower
        w4 = op(10 ** 4).upper - op(10 ** 4).lower
        assert w4 < w3


def test_density_validates_inputs():
    f = IntPolynomial.parse("5,0,0,1")      # bad primes 3, 5
    with pytest.raises(ValueError):
        density(f, 2, 4)                    # cutoff below a bad prime
    with pytest.raises(ValueError):
        density(f, 1, 100)
    with pytest.raises(HypothesisViolation):
        density(IntPolynomial.parse("1,2,1"), 2, 100)


def test_fixed_kth_power_gives_zero_density():
    # 4x(x+1) is squarefree as a polynomial but 8 divides every value
    d = density(IntPolynomial.parse("0,4,4"), 2, 100)
    assert d.value == 0.0 and d.lower == 0.0 and d.upper == 0.0


def test_legendre_matches_sympy():
    for p in [3, 5, 7, 11, 13, 97, 101]:
        for a in range(-5, 12):
            if a % p == 0:
                assert legendre(a, p) == 0
            else:
                assert legendre(a, p) == sympy.jacobi_symbol(a, p), (a, p)


@pytest.mark.parametrize("text,k", [("5,0,0,1", 2), ("2,0,0,1", 3),
                                    ("4,1,0,1", 2), ("7,0,0,5", 2)])
def test_density_from_mask_roots_is_bit_identical(text, k):
    # 7 + 5x^3 has the prime 5 dividing its leading coefficient
    f = IntPolynomial.parse(text)
    P0, roots, _ = KfreeSieve((f,), k, 10 ** 4).setups[0]
    # P below, at and above the table's bound: above it the remaining
    # primes go through batch_root_counts
    for P in (P0 // 3, P0, 3 * P0):
        a = density(f, k, P)
        b = density(f, k, P, roots)
        assert (a.value, a.lower, a.upper) == (b.value, b.lower, b.upper), P
    with pytest.raises(ValueError):
        density(f, k, P0, root_table(IntPolynomial.parse("1,0,1"),
                                     primes_up_to(100)))


def test_tail_bound_is_sound_against_refinement():
    # value decreases as P grows (factors < 1); lower bound at P must stay
    # below every later refinement
    f = IntPolynomial.parse("1,0,1")
    vals = [density(f, 2, P) for P in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
    for i in range(len(vals) - 1):
        assert vals[i + 1].value <= vals[i].value + 1e-15
        assert vals[i].lower <= vals[-1].value <= vals[i].upper


@pytest.mark.parametrize("text", ["5,0,0,1", "7,0,1"])
def test_density_is_bit_identical_across_slice_edges(text, monkeypatch):
    # 64 primes a slice: pi(311) = 64 and pi(313) = 65 sit on either side
    # of the first edge, and P = 3000 crosses six of them. The reference
    # sums every prime's term as one list; x^2 + 7 has rho(4) = 2 at its
    # singular prime 2
    f = IntPolynomial.parse(text)
    table = root_table(f, primes_up_to(1000))
    monkeypatch.setattr(local_roots, "_PRIME_SLICE", 64)
    monkeypatch.setattr(density_module, "_PRIME_SLICE", 64)
    for P in (311, 313, 3000):
        rho = [(p ** 2, local_root_count(f, p, 2))
               for p in primes_up_to(P).tolist()]
        want = math.exp(math.fsum(math.log1p(-r / q) for q, r in rho if r))
        for roots in (None, table):
            got = density(f, 2, P, roots)
            assert got.value == got.upper == want, (P, roots is None)
            assert got.lower == want * math.exp(-2.0 * f.degree / P)
