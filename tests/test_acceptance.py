"""End-to-end checks of the full pipeline at experiment scale.

Every test states the tolerance it enforces.  Counts pinned as exact
integers come from runs that were cross-checked against brute-force
factorization at 10^4 scale and are checked against the Euler-product
prediction again here, so a drift in either the sieve or the density
code trips the pin.  Two tests are marked strict-xfail: they encode
averages whose measured convergence is logarithmic and provably not yet
inside tolerance at N = 10^7; the reasons carry the measured gaps.

Large artifacts are built once per module, each fixture a pair of the
artifact and the seconds its build took.
"""

import math
import time

import numpy as np
import pytest
import sympy

from powerfree.cli import main as cli_main
from powerfree.density import density
from powerfree.dynamics import (GOLDEN_ROTATION, CyclicRotation,
                                IrrationalRotation, PairObservable,
                                TrigObservable, TwoPointSwap,
                                VectorObservable, orbit_table)
from conftest import (MaskCondition, estermann_constant, liouville,
                      quadratic_pair_constant)
from powerfree.ergodic import (AllIntegers, ProgressionMap, default_j_max,
                               ergodic_average, exponent_fit, omega_histogram)
from powerfree.factorint import factorize
from powerfree.kfree import (decompose_sum, kfree_mask, product_kfree_mask,
                             tail_pair_count, twin_squarefree_range)
from powerfree.local_roots import lift_roots, local_root_count
from powerfree.poly import IntPolynomial, evaluate_range
from powerfree.sieve import build_tables, primes_up_to

N4 = 10 ** 4
N5 = 10 ** 5
N6 = 10 ** 6
N7 = 10 ** 7

X = IntPolynomial.parse("0,1")
QUAD = IntPolynomial.parse("1,0,1")          # x^2 + 1
QUAD_X = IntPolynomial.parse("0,1,1")        # x^2 + x
CUBIC2 = IntPolynomial.parse("2,0,0,1")      # x^3 + 2
CUBIC5 = IntPolynomial.parse("5,0,0,1")      # x^3 + 5
PAIR2 = IntPolynomial.parse("2,0,1")         # x^2 + 2

SMALL_CASES = [(X, 2), (QUAD, 2), (QUAD_X, 2), (CUBIC2, 2), (CUBIC2, 3)]

# exact counts pinned from the validated pipeline (see module docstring)
PINNED_COUNTS = {
    "twin_1e7": 3226343,
    "quad_sqfree_1e5": 89489,
    "quad_sqfree_1e7": 8948417,
    "product_sqfree_1e7": 6718767,
    "cubic5_sqfree_1e6": 722507,
    "cubic2_cubefree_1e6": 990740,
}


def _timed_pair(builder):
    """(builder(), the seconds it took)."""
    t0 = time.perf_counter()
    built = builder()
    return built, time.perf_counter() - t0


@pytest.fixture(scope="module")
def small_masks_pair():
    def build():
        masks = [kfree_mask(f, k, N4) for f, k in SMALL_CASES]
        masks.append(product_kfree_mask([QUAD, PAIR2], 2, N4))
        return masks
    return _timed_pair(build)


@pytest.fixture(scope="module")
def twin_pair():
    return _timed_pair(lambda: twin_squarefree_range(
        1, N7 + 1, primes_up_to(math.isqrt(N7 + 1))))


@pytest.fixture(scope="module")
def quad_sqfree_pair():
    return _timed_pair(lambda: kfree_mask(QUAD, 2, N7))


@pytest.fixture(scope="module")
def product_pair():
    return _timed_pair(lambda: product_kfree_mask([QUAD, PAIR2], 2, N7))


@pytest.fixture(scope="module")
def cubic5_pair():
    return _timed_pair(lambda: kfree_mask(CUBIC5, 2, N6))


@pytest.fixture(scope="module")
def cubic2_pair():
    return _timed_pair(lambda: kfree_mask(CUBIC2, 3, N6))


# ------------------------------------------------- sieve vs factorization


def _brute_bit(value, k):
    if value == 0:
        return False
    return all(e < k for e in factorize(abs(value)).values())


def test_kfree_masks_match_brute_factorization(small_masks_pair):
    masks, build_seconds = small_masks_pair
    polys = [f for f, _ in SMALL_CASES] + [QUAD * PAIR2]
    t0 = time.perf_counter()
    for mask, f in zip(masks, polys):
        expected = np.fromiter(
            (_brute_bit(f(n), mask.k) for n in range(1, N4 + 1)),
            dtype=bool, count=N4)
        assert mask.bits.tobytes() == expected.tobytes(), \
            f"mask mismatch for {f.text()} k={mask.k}"
    total = build_seconds + (time.perf_counter() - t0)
    assert total < 10.0, f"oracle comparison took {total:.1f}s"
    # belt and braces: the factorizer itself against an external oracle
    rng = np.random.default_rng(20260817)
    for f in polys:
        for n in rng.integers(1, N4 + 1, size=60).tolist():
            v = abs(f(n))
            if v:
                assert factorize(v) == dict(sympy.factorint(v))


def test_lifted_roots_match_full_residue_enumeration():
    lim = N5
    primes = primes_up_to(lim).tolist()
    t0 = time.perf_counter()
    direct = [X, QUAD, QUAD_X, CUBIC2]
    val_streams = [(f, evaluate_range(f, 0, lim)) for f in direct]
    for f, vals in val_streams:
        assert vals.dtype.kind == "i"  # stays exact in int64
        for p in primes:
            pk, k = p, 1
            while pk <= lim:
                enum = np.nonzero(vals[:pk] % pk == 0)[0]
                got = lift_roots(f, p, k)
                assert len(got) == len(enum), (f.text(), p, k)
                assert sorted(got) == enum.tolist(), (f.text(), p, k)
                pk *= p
                k += 1
    # the quartic product overflows int64; reduce each factor first
    # ((a mod q)(b mod q) mod q with q <= 10^5 keeps products under 2^63)
    quartic = QUAD * PAIR2
    v1 = evaluate_range(QUAD, 0, lim)
    v2 = evaluate_range(PAIR2, 0, lim)
    for p in primes:
        pk, k = p, 1
        while pk <= lim:
            prod = (v1[:pk] % pk) * (v2[:pk] % pk) % pk
            enum = np.nonzero(prod == 0)[0]
            got = lift_roots(quartic, p, k)
            assert len(got) == len(enum), (p, k)
            assert sorted(got) == enum.tolist(), (p, k)
            pk *= p
            k += 1
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"lift sweep took {dt:.1f}s"


def test_quadratic_root_counts_mod_squares_follow_residue_class():
    assert local_root_count(QUAD, 2, 2) == 0
    for p in primes_up_to(N4)[1:].tolist():
        want = 2 if p % 4 == 1 else 0
        assert local_root_count(QUAD, p, 2) == want, p


def test_threshold_decomposition_is_exact(quad_sqfree_pair):
    mask = quad_sqfree_pair[0]
    tables = build_tables(1, N5 + 1)
    weight_rows = [None, liouville(tables)]
    sqfree_count = int(mask.bits[:N5].sum())
    assert sqfree_count == PINNED_COUNTS["quad_sqfree_1e5"]
    for weights in weight_rows:
        for Y in (10, 50, 316):
            d = decompose_sum(QUAD, 2, Y, N5, weights=weights)
            assert d.small_part + d.large_part == d.total, (Y,)
            if weights is None:
                # the unconditioned total is the plain squarefree count,
                # computed here through a completely different route
                assert d.total == sqfree_count


# ------------------------------------------------------- counts at scale


def test_twin_squarefree_count_tracks_density(twin_pair):
    bits, build_seconds = twin_pair
    assert build_seconds < 60.0, f"twin sieve took {build_seconds:.1f}s"
    c = density(QUAD_X, 2, N6).value  # n(n + 1)
    checkpoints = (N5, N6, N7)
    counts = [int(bits[:n].sum()) for n in checkpoints]
    assert counts[-1] == PINNED_COUNTS["twin_1e7"]
    rel = abs(counts[-1] - c * N7) / (c * N7)
    assert rel < 5e-3, f"relative error {rel:.2e}"
    fit = exponent_fit([(n, cnt - c * n) for n, cnt in zip(checkpoints, counts)])
    assert fit < 0.8, f"error growth exponent {fit:.3f}"


def test_quadratic_squarefree_count_tracks_density(quad_sqfree_pair):
    mask, build_seconds = quad_sqfree_pair
    assert build_seconds < 120.0, f"sieve took {build_seconds:.1f}s"
    assert mask.count == PINNED_COUNTS["quad_sqfree_1e7"]
    c = estermann_constant(N6).value
    rel = abs(mask.count - c * N7) / (c * N7)
    assert rel < 5e-3, f"relative error {rel:.2e}"


def test_cubic_squarefree_count_tracks_density(cubic5_pair):
    mask = cubic5_pair[0]
    assert mask.count == PINNED_COUNTS["cubic5_sqfree_1e6"]
    c = density(CUBIC5, 2, N6).value
    rel = abs(mask.count - c * N6) / (c * N6)
    assert rel < 1e-2, f"relative error {rel:.2e}"


def test_cubic_cubefree_count_tracks_density(cubic2_pair):
    mask = cubic2_pair[0]
    assert mask.count == PINNED_COUNTS["cubic2_cubefree_1e6"]
    c = density(CUBIC2, 3, N6).value
    rel = abs(mask.count - c * N6) / (c * N6)
    assert rel < 1e-2, f"relative error {rel:.2e}"


def test_product_squarefree_count_tracks_density(product_pair):
    mask = product_pair[0]
    assert mask.count == PINNED_COUNTS["product_sqfree_1e7"]
    c = quadratic_pair_constant(N6).value
    rel = abs(mask.count - c * N7) / (c * N7)
    assert rel < 1e-2, f"relative error {rel:.2e}"


# ----------------------------------------------------- ergodic averages


def _swap_orbit(j_max):
    return orbit_table(TwoPointSwap(), PairObservable(1.0, -1.0), 0, j_max)


def test_signed_parity_average_vanishes():
    jm = default_j_max(N7)
    orbit = _swap_orbit(jm)
    # N = 10: the ten parities cancel exactly, by hand: four odd-Omega
    # values below 8 plus 8, against 1, 4, 6, 9, 10
    tiny = omega_histogram(10, j_max=jm)
    assert ergodic_average(tiny, orbit) == 0.0
    for n, bound in ((N6, 5e-3), (N7, 2e-3)):
        hist = omega_histogram(n, j_max=jm)
        avg = ergodic_average(hist, orbit)
        assert abs(avg) < bound, f"|average| = {abs(avg):.2e} at N={n}"


@pytest.mark.xfail(
    strict=True,
    reason="measured average-minus-density is -1.058e-2 at N=10^7 "
    "(-1.607e-2 at 10^5): decaying, but logarithmically slow, and still "
    "a hair past the 1e-2 tolerance at this N; the trend puts the "
    "crossing somewhere past 2*10^7")
def test_rotation_average_over_squarefree_quadratic_reaches_density(
        quad_sqfree_pair):
    mask = quad_sqfree_pair[0]
    jm = default_j_max(N7)
    orbit = orbit_table(IrrationalRotation(GOLDEN_ROTATION),
                        TrigObservable(1.0, ((1, 1.0),)), 0.3, jm)
    c = estermann_constant(N6).value
    residuals = {}
    for n in (N5, N7):
        cond = MaskCondition(mask.bits[:n])
        hist = omega_histogram(n, cond, j_max=jm)
        residuals[n] = ergodic_average(hist, orbit) - c
    assert abs(residuals[N7]) <= abs(residuals[N5]) \
        or max(abs(r) for r in residuals.values()) < 5e-3
    assert abs(residuals[N7]) <= 1e-2, f"residual {residuals[N7]:.4e}"


@pytest.mark.parametrize("m", [
    2,
    pytest.param(3, marks=pytest.mark.xfail(
        strict=True,
        reason="measured residual +1.54e-2 at r=0, N=10^7; the residue "
        "classes mix at a (log N)^(-3/2) rate here, so the 1e-2 "
        "tolerance needs N around 10^9")),
    pytest.param(4, marks=pytest.mark.xfail(
        strict=True,
        reason="measured residuals up to 7.4e-2 at N=10^7; the mixing "
        "rate degrades to 1/log N, hopeless at reachable N")),
])
def test_progression_indicator_averages_equidistribute(m):
    jm = default_j_max(m * N7 + m - 1)
    indicator = VectorObservable(tuple([1.0] + [0.0] * (m - 1)))
    orbit = orbit_table(CyclicRotation(m), indicator, 0, jm)
    for r in range(m):
        hist = omega_histogram(N7, AllIntegers(), ProgressionMap(m, r),
                               j_max=jm)
        resid = ergodic_average(hist, orbit) - 1.0 / m
        assert abs(resid) <= 1e-2, f"m={m} r={r} residual {resid:+.4e}"


def test_signed_average_over_product_squarefree_vanishes(
        product_pair):
    mask = product_pair[0]
    jm = default_j_max(N7)
    cond = MaskCondition(mask.bits)
    hist = omega_histogram(N7, cond, j_max=jm)
    avg = ergodic_average(hist, _swap_orbit(jm))
    assert abs(avg) < 1e-2, f"|average| = {abs(avg):.2e}"


# -------------------------------------------------- tails and intervals


def test_large_divisor_pair_count_grows_sublinearly():
    pts = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        pts.append((n, tail_pair_count(QUAD, 2, int(n ** 0.9), n)))
    counts = [c for _, c in pts]
    assert counts == [0, 1, 1]
    assert exponent_fit(pts) < 1.0


DENSITY_OPS = [
    ("twin", lambda P: density(QUAD_X, 2, P)),
    ("quad", lambda P: estermann_constant(P)),
    ("pair", lambda P: quadratic_pair_constant(P)),
    ("cubic5_k2", lambda P: density(CUBIC5, 2, P)),
    ("cubic2_k3", lambda P: density(CUBIC2, 3, P)),
]


@pytest.mark.parametrize("label,op", DENSITY_OPS, ids=[d[0] for d in DENSITY_OPS])
def test_density_refinement_stays_inside_coarse_intervals(label, op):
    fine = op(N6).value
    for P in (10 ** 3, 10 ** 4):
        coarse = op(P)
        assert coarse.lower <= fine <= coarse.upper, \
            f"{label}: {fine} outside [{coarse.lower}, {coarse.upper}] at P={P}"


# ----------------------------------------------------- thread invariance


def test_thread_count_never_changes_results(tmp_path, monkeypatch):
    # the CLI end to end: identical artifacts from both thread counts
    artifacts = {}
    for threads in (1, 8):
        d = tmp_path / f"t{threads}"
        d.mkdir()
        monkeypatch.chdir(d)
        rc = cli_main(["repro", "browning18", "--out", ".",
                       "--threads", str(threads)])
        assert rc == 0
        artifacts[threads] = {
            name: (d / name).read_bytes()
            for name in ("browning18.csv", "browning18.json")
        }
    assert artifacts[1] == artifacts[8]
