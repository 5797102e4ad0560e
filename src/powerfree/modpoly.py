"""Polynomial arithmetic over prime fields, per-prime and batched.

Coefficient lists are ascending. Per prime, on plain Python ints, a
polynomial mod p is a list of residues with a nonzero top coefficient ([]
for 0), and four private kernels do all the arithmetic: _reduce (mod p and
monic), _divmod, a monic _gcd and _xpow, (x + a)^e mod (f, p).
roots_prime_gcd (the one-prime route of local_roots.roots_mod_p),
split_linear_roots and irreducible_mod_p are built on them, and no other
module builds or reads the lists.

The batched routines find roots mod p for a whole numpy vector of primes
at once, singular ones included, each prime a lane of fixed-shape int64
arrays, which is what makes root collection to p ~ 10^6 affordable:

- batch_split_part runs one Frobenius ladder x^p mod f over all lanes
  (~2 log2(p) small convolutions), then gcd(x^p - x, f) by a vectorized
  pseudo-remainder Euclid that needs no inverse until the final monic
  scaling;
- batch_linear_roots splits those gcds into their roots by equal-degree
  splitting (Cantor-Zassenhaus): lanes grouped by degree, the same ladder
  for (x + a)^((p-1)/2), the same Euclid, an exact vectorized division;
- batch_closed_roots needs neither, for deg f <= 2 and for the binomials
  a x^q + c with q an odd prime: a count is at most one power per lane
  (Euler's criterion), and the roots come from one q-th root kernel,
  _qth_root, generalized Tonelli-Shanks, times the q-th roots of unity.

Every batched value that enters a product is a residue in [0, p), with
p < 2^31, so one product is at most (p - 1)^2 < 2^62. The Euclid, the
exact division and the closed forms reduce after every product, where a
sum or difference of two products stays inside int64; every exponent of
a power is below p. The ladder reduces lazily:
an accumulator absorbs up to _product_budget(max p) products on top of one
residue, which keeps it below 2^63 (the bound and its proof are at
_product_budget).
"""
from __future__ import annotations

import math

import numpy as np

_BATCH_PRIME_CAP = 1 << 31
_INT64_MAX = (1 << 63) - 1


# ---------------------------------------------------------------- per-prime

def _reduce(coeffs, p: int) -> list[int]:
    """coeffs mod p made monic, [] when every coefficient vanishes."""
    a = [c % p for c in coeffs]
    while a and not a[-1]:
        a.pop()
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _divmod(a: list[int], b: list[int], p: int):
    """(quotient, remainder) of a by b over F_p, b with a nonzero top
    coefficient; the remainder is not trimmed: it keeps up to deg b
    coefficients, zero ones included."""
    r, db = a[:], len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db] * inv % p
        if c:
            q[i] = c
            for j in range(db):
                r[i + j] = (r[i + j] - c * b[j]) % p
    return q, r[:db]


def _gcd(a, b, p: int) -> list[int]:
    """Monic gcd of a and b over F_p, [] when both vanish mod p."""
    a, b = _reduce(a, p), _reduce(b, p)
    while b:
        a, b = b, _reduce(_divmod(a, b, p)[1], p)
    return a


def _xpow(a: int, e: int, f: list[int], p: int) -> list[int]:
    """(x + a)^e mod (f, p) as deg f coefficients; f monic of degree d >= 1.

    The scalar twin of _powmod_ladder, one step per bit of e from the top:
    square into 2d - 1 slots, multiply by x + a where the bit is set, fold
    the top slots down through x^d = -(f_0 + ... + f_(d-1) x^(d-1)) and
    reduce each of the d slots left once. Python ints need no product
    budget; zero coefficients of f and of the running power are skipped,
    so a sparse f folds in a few products.
    """
    d = len(f) - 1
    fold = [(j, p - c) for j, c in enumerate(f[:d]) if c]
    r = [1] + [0] * (d - 1)
    for bit in bin(e)[2:]:
        t = [0] * (2 * d - 1)
        for i, ri in enumerate(r):
            if ri:
                t[2 * i] += ri * ri
                twice = ri + ri
                for j in range(i + 1, d):
                    t[i + j] += twice * r[j]
        if bit == "1":
            t.insert(0, 0)  # x t, then + a t
            if a:
                for j in range(2 * d - 1):
                    t[j] += a * t[j + 1]
        for s in range(len(t) - 1, d - 1, -1):
            c = t[s] % p
            if c:
                for j, g in fold:
                    t[s - d + j] += c * g
        r = [c % p for c in t[:d]]
    return r


def sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of a mod odd prime p, or None when a is not a square.

    Tonelli-Shanks with the deterministic least non-residue as generator.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def split_linear_roots(g, p: int) -> list[int]:
    """Sorted roots of g over F_p, g nonzero mod p. Degrees 1 and 2 take the
    closed forms (-g0, or (-b +- s)/2 with s a square root of the
    discriminant: one root when it is 0, none when it is no square), so any
    such g may come in; from degree 3 on, g must be a product of distinct
    linear factors (as any divisor of x^p - x is), split along a
    deterministic shift sequence. At p = 2 both residues are tested."""
    g = _reduce(g, p)
    d = len(g) - 1
    if d <= 0:
        return []
    if p == 2:  # 2 has no inverse there, so no closed form
        return [r for r, v in ((0, g[0]), (1, sum(g))) if v % 2 == 0]
    if d == 1:
        return [(-g[0]) % p]
    if d == 2:
        b, c = g[1], g[0]
        s = sqrt_mod_p(b * b - 4 * c, p)
        if s is None:
            return []
        inv2 = (p + 1) // 2
        return sorted({(-b + s) * inv2 % p, (-b - s) * inv2 % p})
    # degree >= 3: equal-degree splitting by quadratic-residue classes of
    # shifted roots, w = gcd((x + a)^((p-1)/2) - 1, g); the root -a, if any,
    # stays with g / w. The shift a walks 1, 2, 3, ... (a = 0 never splits
    # x^3 + c; see batch_linear_roots) so runs are reproducible
    half = (p - 1) // 2
    for a in range(1, p):
        h = _xpow(a, half, g, p)
        h[0] -= 1
        w = _gcd(g, h, p)
        if 0 < len(w) - 1 < d:
            rest = _divmod(g, w, p)[0]
            return sorted(split_linear_roots(w, p) + split_linear_roots(rest, p))
    raise ArithmeticError(f"splitting stalled mod {p}")  # unreachable for split g


def roots_prime_gcd(coeffs, p: int) -> list[int]:
    """Sorted distinct roots of f over F_p, every residue when f is 0 mod p.
    Up to degree 2 mod p, split_linear_roots' closed forms take f itself;
    a higher degree first keeps its linear part gcd(x^p - x, f)."""
    f = _reduce(coeffs, p)
    if not f:
        return list(range(p))
    if len(f) > 3:
        t = _xpow(0, p, f, p)
        t[1] -= 1
        f = _gcd(f, t, p)
    return split_linear_roots(f, p)


def irreducible_mod_p(coeffs, p: int) -> bool:
    """f mod p irreducible, for p nonsingular (so f mod p is squarefree of
    full degree d): gcd(x^(p^i) - x, f), the product of the irreducible
    factors whose degree divides i, must be 1 for every i <= d/2."""
    f = _reduce(coeffs, p)
    for i in range(1, (len(f) - 1) // 2 + 1):
        t = _xpow(0, p ** i, f, p)
        t[1] -= 1
        if len(_gcd(f, t, p)) > 1:
            return False
    return True


# ------------------------------------------------------------------- batched
#
# A batch is a numpy vector P of primes, one lane per prime. A polynomial
# over the batch is a (rows, n) int64 array whose row j holds the x^j
# coefficients of every lane; lanes may differ in degree (_degrees).


def _pow_vec(base: np.ndarray, expo: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base**expo % mod for int64 vectors (binary ladder)."""
    result = np.ones_like(mod)
    b = base % mod
    e = expo.copy()
    while e.any():
        # multiply every lane, by b where the exponent bit is set and by 1
        # elsewhere: arithmetic, so there is no gather, scatter or branch
        result = result * (1 + (e & 1) * (b - 1)) % mod
        e >>= 1
        b = b * b % mod
    return result


def reduce_coeffs(coeffs, P: np.ndarray) -> np.ndarray:
    """(len(coeffs), n) array of every coefficient mod every prime, exact
    for arbitrary-precision coefficients."""
    out = np.empty((len(coeffs), len(P)), dtype=np.int64)
    for j, c in enumerate(coeffs):
        c = int(c)
        if -(1 << 62) < c < (1 << 62):
            out[j] = np.mod(np.int64(c), P)
        else:
            out[j] = [c % p for p in P.tolist()]
    return out


def _degrees(A: np.ndarray) -> np.ndarray:
    """Per-lane degree of a batched polynomial, -1 for the zero lanes."""
    nz = A != 0
    top = A.shape[0] - 1 - np.argmax(nz[::-1], axis=0)
    return np.where(nz.any(axis=0), top, -1)


def _shift(B: np.ndarray, s: np.ndarray) -> np.ndarray:
    """x^s * B per lane (s >= 0), keeping B's rows; the caller makes sure
    nothing is shifted out."""
    rows = np.arange(B.shape[0])[:, None] - s
    out = np.take_along_axis(B, np.maximum(rows, 0), axis=0)
    out[rows < 0] = 0
    return out


def _product_budget(pmax: int) -> int:
    """How many products of two residues mod p <= pmax an int64 accumulator
    may absorb on top of one residue before it must be reduced.

    A residue is in [0, p), so one product of two is at most (pmax - 1)^2.
    An accumulator that holds one residue and K products, all nonnegative,
    is at most (pmax - 1) + K (pmax - 1)^2, and this returns the largest K
    for which that is at most 2^63 - 1. For pmax < 2^31 it is at least 2:
    2 (2^31 - 2)^2 + 2^31 - 2 = 2^63 - 2^34 + 2^31 + 6 < 2^63 - 1, so a
    doubled product always fits on top of a residue. For pmax <= 2^29 it
    is at least 32. One ladder step of degree m puts at most 2m - 1
    products into a slot (the middle one: m from the square, m - 1 from
    the fold), so there one reduction per slot and step is enough for
    every m <= 16; near 2^31 the same loop reduces after almost every term.
    """
    r = pmax - 1
    return (_INT64_MAX - r) // (r * r)


def _powmod_ladder(a, E: np.ndarray, F: np.ndarray, P: np.ndarray) -> list:
    """(x + a)^E mod F per lane, as m rows of coefficients.

    F holds the m lower coefficients of a monic modulus of degree m >= 1;
    a is a vector of shifts, or None for x^E. Left-to-right binary ladder
    over the bits of E.max(), one fused step per bit:

    - square R into 2m - 1 slots, m(m+1)/2 products with the cross terms
      doubled;
    - fold the top slots down through x^m = sum_j G_j x^j, G = -F mod p,
      reducing each top slot t only before it multiplies G;
    - multiply by x + a on the lanes whose bit is set (an arithmetic
      select, no branch per lane);
    - reduce each of the m output coefficients once.

    Lazy reduction. R, G, a and every t are residues, and each term added
    to a slot is one product of two of them (counted twice for a doubled
    cross term), so every slot is nonnegative. A slot that would pass
    K = _product_budget(P.max()) products is first reduced in place, back
    to one residue, so no slot exceeds (p - 1) + K (p - 1)^2 <= 2^63 - 1.
    On set lanes the output is t G_j + (slot j - 1) + a (slot j): for x^E
    slot j - 1 takes one more product within the budget, for (x + a)^E the
    slots are reduced first and the sum is at most (p - 1) + 2 (p - 1)^2.
    That is 2m reductions per bit for x^E and 3m - 1 for (x + a)^E,
    against m(2m - 1) + m for reducing after every product.
    """
    m, n = F.shape
    K = _product_budget(int(P.max()))
    G = (-F) % P
    held = [0] * (2 * m - 1)

    def absorb(T, s, term, w=1):
        # T[s] += term, a sum of w products; T[s] is the step's own array
        if T[s] is None:
            T[s], held[s] = term, w
            return
        if held[s] + w > K:
            np.remainder(T[s], P, out=T[s])
            held[s] = 0
        T[s] += term
        held[s] += w

    R = [np.ones(n, dtype=np.int64)] + [np.zeros(n, dtype=np.int64)
                                        for _ in range(m - 1)]
    for i in range(int(E.max()).bit_length() - 1, -1, -1):
        T = [None] * (2 * m - 1)
        for j in range(m):
            absorb(T, 2 * j, R[j] * R[j])
        for j in range(1, m):
            twice = R[j] + R[j]
            for k in range(j):
                absorb(T, j + k, R[k] * twice, 2)
        for s in range(2 * m - 2, m - 1, -1):
            t = T[s] % P
            for j in range(m):
                absorb(T, s - m + j, t * G[j])
        t = T[m - 1] % P
        if a is None:
            # the slots below the top take one more product on set lanes
            for j in range(m - 1):
                if held[j] + 1 > K:
                    np.remainder(T[j], P, out=T[j])
            keep = T[:m - 1] + [t]
        else:
            # a multiplies every slot, so all of them become residues
            keep = [T[j] % P for j in range(m - 1)] + [t]
        bit = (E >> i) & 1
        R = []
        for j in range(m):
            up = t * G[j]
            if j:
                up += keep[j - 1]
            if a is not None:
                up += a * keep[j]
            R.append((keep[j] + bit * (up - keep[j])) % P)
    return R


def _gcd_vec(A: np.ndarray, B: np.ndarray, P: np.ndarray):
    """Monic gcd of A and B per lane, and its degree; A nonzero in every lane.

    Euclid by pseudo-remainder steps A <- lc(B) A - lc(A) x^(deg A - deg B) B,
    each of which lowers deg A and needs no inverse; lanes swap A and B when
    deg A < deg B and stop once B is zero. One inverse per lane makes the
    result monic at the end.
    """
    A, B = A.copy(), B.copy()
    da, db = _degrees(A), _degrees(B)
    cols = np.arange(A.shape[1])
    while True:
        live = db >= 0
        if not live.any():
            break
        swap = live & (da < db)
        if swap.any():
            A[:, swap], B[:, swap] = B[:, swap], A[:, swap]
            da, db = np.where(swap, db, da), np.where(swap, da, db)
            live = db >= 0
        la = A[da, cols]
        lb = B[np.maximum(db, 0), cols]
        s = np.where(live, da - db, 0)
        step = (lb * A - la * _shift(B, s)) % P
        A = np.where(live, step, A)
        da = np.where(live, _degrees(A), da)
    inv = _pow_vec(A[da, cols], P - 2, P)
    return A * inv % P, da


def _divexact_vec(A: np.ndarray, m: int, B: np.ndarray, k: np.ndarray,
                  P: np.ndarray) -> np.ndarray:
    """A / B per lane, A of degree m, B monic of degree k per lane and
    dividing A exactly (checked: the remainder must vanish)."""
    R, Q = A.copy(), np.zeros_like(A)
    cols = np.arange(A.shape[1])
    for t in range(m, 0, -1):
        on = t >= k
        s = np.where(on, t - k, 0)
        c = np.where(on, R[t], 0)
        Q[s, cols] = np.where(on, c, Q[s, cols])
        R = (R - c * _shift(B, s)) % P
    if R.any():
        raise ArithmeticError("inexact batched division")
    return Q


def batch_split_part(coeffs, primes: np.ndarray):
    """For each prime p (vector), the monic product of the distinct linear
    factors of f mod p, i.e. gcd(x^p - x, f).

    Returns (counts, G): counts[i] is the number of distinct roots of f mod
    primes[i], and column i of the (d+1, n) int64 array G holds the
    ascending coefficients of that gcd (the constant 1 where counts[i] = 0).
    x^p mod f comes from one ladder over all lanes, the gcd from the
    vectorized pseudo-remainder Euclid.

    Requires every p to exceed max(3, |lc|'s prime divisors): callers route
    tiny primes and divisors of the leading coefficient to the scan path.
    All lanes run at once, so the caller bounds their number and with it the
    int64 temporaries (local_roots passes one slice of _PRIME_SLICE primes).
    """
    P = np.asarray(primes, dtype=np.int64)
    d = len(coeffs) - 1
    if not len(P):
        return np.zeros(0, dtype=np.int64), np.zeros((d + 1, 0), dtype=np.int64)
    if int(P.max()) >= _BATCH_PRIME_CAP:
        raise ValueError("batch path caps primes at 2^31")
    C = reduce_coeffs(coeffs, P)
    # f made monic; at lc(f) = 1 it already is, so no Fermat inverse
    Fm = C if coeffs[-1] == 1 else C * _pow_vec(C[d], P - 2, P) % P
    H = np.zeros_like(Fm)
    H[:d] = _powmod_ladder(None, P, Fm[:d], P)
    # h = x^p - x, with x itself reduced mod the monic f (nontrivial for
    # d = 1, where x = -F[0] in the quotient ring)
    if d == 1:
        H[0] = (H[0] + Fm[0]) % P
    else:
        H[1] = (H[1] - 1) % P
    G, counts = _gcd_vec(Fm, H, P)
    return counts, G


def batch_linear_roots(G: np.ndarray, counts: np.ndarray, primes: np.ndarray):
    """Roots of the split parts from batch_split_part, for all lanes at once.

    Returns (lanes, roots), two int64 vectors sorted by lane and then by
    root: roots[j] is a root mod primes[lanes[j]]. Batched Cantor-Zassenhaus
    (equal-degree splitting of a product of distinct linear factors): lanes
    are grouped by the degree m of their current factor g. For m = 1 the
    root is -g0. For m >= 2, h = (x + a)^((p-1)/2) mod g comes from the
    same ladder as x^p mod f, w = gcd(h - 1, g) collects the roots r with
    r + a a nonzero square, and a lane with 0 < deg w < m splits into w and
    g / w; either way its shift a moves to a + 1. The shift sequence
    1, 2, 3, ... per factor makes every run reproducible, and for odd p a
    shift separating two given roots turns up long before a reaches p. It
    skips a = 0, which never splits x^3 + c or x^2 + 1: their split roots
    are r times roots of unity that are squares mod p, so x^((p-1)/2)
    takes one value on all of them.

    Every factor of a product is a residue below p < 2^31, so each product
    is below 2^62; the Euclid and the division keep a product minus another
    inside int64, and the ladder's accumulators stay inside the budget
    proved at _product_budget.
    """
    P_all = np.asarray(primes, dtype=np.int64)
    rows = G.shape[0]
    found_lanes = [np.zeros(0, dtype=np.int64)]
    found_roots = [np.zeros(0, dtype=np.int64)]
    lane = np.nonzero(counts > 0)[0]
    polys, degs = G[:, lane], counts[lane]
    shift = np.ones(len(lane), dtype=np.int64)
    while len(lane):
        lin = degs == 1
        found_lanes.append(lane[lin])
        found_roots.append((-polys[0, lin]) % P_all[lane[lin]])
        nxt = []  # (lanes, factors padded to G's rows, degrees, shifts)
        for m in np.unique(degs[~lin]).tolist():
            sel = degs == m
            ln, g, a = lane[sel], polys[:m + 1, sel], shift[sel]
            P = P_all[ln]
            if (a >= P).any():
                raise ArithmeticError("batched splitting stalled")
            H = np.zeros_like(g)
            H[:m] = _powmod_ladder(a, (P - 1) // 2, g[:m], P)
            H[0] = (H[0] - 1) % P
            w, k = _gcd_vec(g, H, P)
            ok = (k > 0) & (k < m)
            q = _divexact_vec(g[:, ok], m, w[:, ok], k[ok], P[ok])
            for on, part, dp in ((ok, w[:, ok], k[ok]), (ok, q, m - k[ok]),
                                 (~ok, g[:, ~ok], degs[sel][~ok])):
                nxt.append((ln[on], np.pad(part, ((0, rows - m - 1), (0, 0))),
                            dp, a[on] + 1))
        if not nxt:
            break
        lane, polys, degs, shift = (np.concatenate(c, axis=-1)
                                    for c in zip(*nxt))
    lanes = np.concatenate(found_lanes)
    roots = np.concatenate(found_roots)
    order = np.lexsort((roots, lanes))
    return lanes[order], roots[order]


# -------------------------------------------------------------- closed forms
#
# Two shapes of f need no ladder: deg f <= 2, and the binomials a x^q + c
# with q an odd prime and c != 0. In a lane where p does not divide lc(f),
# both come down to one q-th root y of a residue B, and the roots are
# (h + y w^j) g for j < q, w a primitive q-th root of unity:
#
# - c2 x^2 + c1 x + c0: q = 2, B = c1^2 - 4 c0 c2, h = -c1, g = 1/(2 c2);
# - c1 x + c0: B = 0, h = -c0, g = 1/c1;
# - a x^q + c: (a x)^q = -c a^(q-1), so B = -c a^(q-1), h = 0, g = 1/a.
#
# B = 0 gives the one root h g. When q does not divide p - 1, y -> y^q is
# a bijection of F_p, so there is again one root, y = B^(q^-1 mod (p - 1)).
# Otherwise there are q roots when B^((p-1)/q) = 1 (Euler's criterion),
# and none when not. Counting takes at most that one power per lane.


def closed_form_exponent(coeffs) -> int:
    """The q of the closed forms for f: 2 when deg f <= 2, q when f is
    a x^q + c with q an odd prime and c != 0, and 0 for every other f."""
    d = len(coeffs) - 1
    if d <= 2:
        return 2
    binomial = coeffs[0] != 0 and not any(coeffs[1:d])
    return d if binomial and d % 2 and _next_prime(d - 1) == d else 0


def _next_prime(n: int) -> int:
    """The least prime above n, by trial division (n is small here)."""
    n += 1
    while any(n % k == 0 for k in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def _inverse_mod(q: int, m: np.ndarray) -> np.ndarray:
    """q^-1 mod m per lane, for the prime q and every m >= 1 prime to q.

    It is v = (k m + 1) / q with k = -m^-1 mod q: q divides k m + 1, so v
    is an integer, q v = 1 + k m = 1 (mod m), and k < q makes v <= m. With
    q and m below 2^31, k m < 2^62.
    """
    inverses = np.array([0] + [pow(i, -1, q) for i in range(1, q)],
                        dtype=np.int64)
    k = (-inverses[m % q]) % q
    return (k * m + 1) // q


def _pow_small(x: np.ndarray, n: int, P: np.ndarray) -> np.ndarray:
    """x^n mod P per lane for one exponent n >= 1, by square and multiply
    over the bits of n; each product is of two residues, below 2^62."""
    r = x
    for bit in bin(n)[3:]:
        r = r * r % P
        if bit == "1":
            r = r * x % P
    return r


def _pow_q(x: np.ndarray, n: np.ndarray, q: int, P: np.ndarray):
    """x^(q^n) mod P per lane, for n >= 0 per lane: n q-th powers, each
    over the lanes that still need one."""
    x, lane, r = x.copy(), np.flatnonzero(n > 0), 0
    while len(lane):
        x[lane] = _pow_small(x[lane], q, P[lane])
        r += 1
        lane = lane[n[lane] > r]
    return x


def _qth_root(B: np.ndarray, q: int, P: np.ndarray):
    """(hit, y, w) for q prime dividing every p - 1 and every B nonzero:
    hit marks the lanes where B is a q-th power mod p. On those lanes, in
    order, y^q = B and w is a primitive q-th root of unity.

    Generalized Tonelli-Shanks (Adleman, Manders and Miller, FOCS 1977).
    Write p - 1 = q^s t with t prime to q; the q-Sylow subgroup S of F_p^*
    is cyclic of order q^s. With v = q^-1 mod t = (k t + 1)/q and u =
    B^(v-1), y = u B has y^q = B e, where e = u^q B^(q-1) = (B^t)^k. As k
    is prime to q, e has the order of B^t in S, so B^((p-1)/q) = 1, B is a
    q-th power, exactly when e^(q^(s-1)) = 1: one full power per lane.

    For the roots, the first of the small bases z = 2, 3, 5, 7, ... with
    z^((p-1)/q) != 1 in a lane makes C = z^t a generator of S and w =
    C^(q^(s-1)); only primes are tried, since a product of q-th powers is
    one, so the least non-residue is prime. Each round
    keeps C of order q^m with e in the group of C^q, and w = C^(q^(m-1)).
    While e != 1, let q^i be its order (i < m): e^(q^(i-1)) = w^j for one
    j in [1, q). With b = C^(q^(m-i-1)), of order q^(i+1), and d =
    b^(q-j), y d moves e to e d^q, whose q^(i-1)-th power is w^j w^(q-j) =
    1; C becomes b^q and m becomes i. So at most s - 1 rounds run, each of
    small powers only. At s = 1, e = 1 at once, and for q = 2 w = -1 needs
    no search. Every exponent is below p and every product is of two
    residues, below 2^62.
    """
    t, s = P - 1, np.zeros_like(P)
    while (div := t % q == 0).any():
        t[div] //= q
        s[div] += 1
    u = _pow_vec(B, _inverse_mod(q, t) - 1, P)
    e = _pow_small(u, q, P) * _pow_small(B, q - 1, P) % P
    hit = _pow_q(e, s - 1, q, P) == 1
    P, t, s, e = P[hit], t[hit], s[hit], e[hit]
    y = u[hit] * B[hit] % P
    C, w = np.zeros_like(P), P - 1
    lane = np.arange(len(P)) if q > 2 else np.flatnonzero(s > 1)
    z = 2
    while len(lane):
        if z >= int(P[lane].min()):
            raise ArithmeticError(f"no {q}-th power non-residue found")
        cz = _pow_vec(np.full(len(lane), z), t[lane], P[lane])
        wz = _pow_q(cz, s[lane] - 1, q, P[lane])
        new = wz != 1
        C[lane[new]], w[lane[new]] = cz[new], wz[new]
        lane, z = lane[~new], _next_prime(z)
    L = np.flatnonzero(s > 1)
    PL, m, C, wL, e = P[L], s[L], C[L], w[L], e[L]
    for _ in range(int(s.max(initial=1))):
        keep = e != 1
        L, PL, m, C, wL, e = (x[keep] for x in (L, PL, m, C, wL, e))
        if not len(L):
            return hit, y, w
        # the order q^i of e, and a = e^(q^(i-1)), one q-th power a step
        a, i, cur, step = e, np.zeros_like(L), e, 0
        while (i == 0).any():
            step += 1
            nxt = _pow_small(cur, q, PL)
            new = (i == 0) & (nxt == 1)
            a, i = np.where(new, cur, a), np.where(new, step, i)
            cur = nxt
        # a has order q, so a = w^j for one j in [1, q)
        j, wj = np.zeros_like(L), wL
        for k in range(1, q):
            j[a == wj] = k
            wj = wj * wL % PL
        b = _pow_q(C, m - i - 1, q, PL)
        d = _pow_vec(b, q - j, PL)
        y[L] = y[L] * d % PL
        C = _pow_small(b, q, PL)
        e = e * _pow_small(d, q, PL) % PL
        m = i
    raise ArithmeticError(f"{q}-th roots did not converge in s - 1 rounds")


def batch_closed_roots(coeffs, q: int, primes: np.ndarray, roots: bool = True):
    """Roots mod p of f for every p in primes by the closed forms, for
    q = closed_form_exponent(coeffs) != 0 and every p odd, below 2^31 and
    prime to lc(f), as local_roots routes them.

    Returns (counts, found): counts[i] is the number of distinct roots mod
    primes[i]. With roots, found holds them flat, lane by lane, ascending
    within each lane; without, found is None and a lane costs at most one
    power. Every factor of a product is a residue, so a product is below
    2^62; the discriminant subtracts 4 (c0 c2 mod p) < 2^33 from one.
    """
    P = np.asarray(primes, dtype=np.int64)
    d = len(coeffs) - 1
    C = reduce_coeffs(coeffs, P)
    if d == 2:
        B = (C[1] * C[1] - 4 * (C[0] * C[2] % P)) % P
        h, a = -C[1], 2 * C[2] % P
    elif d == 1:
        B, h, a = np.zeros_like(P), -C[0], C[1]
    else:
        a, h = C[d], np.zeros_like(P)
        B = -C[0] if coeffs[-1] == 1 else -C[0] * _pow_small(a, q - 1, P)
        B %= P
    one = (B == 0) | ((P - 1) % q != 0)
    many = np.flatnonzero(~one)
    Pm, counts = P[many], np.ones_like(P)
    if not roots:
        # Euler's criterion, the one power of a lane
        counts[many] = np.where(_pow_vec(B[many], (Pm - 1) // q, Pm) == 1,
                                q, 0)
        return counts, None
    hit, y, w = _qth_root(B[many], q, Pm)
    counts[many] = np.where(hit, q, 0)
    g = a if (a == 1).all() else _pow_vec(a, P - 2, P)
    found = np.empty(int(counts.sum()), dtype=np.int64)
    start = np.cumsum(counts) - counts
    # one root: y = 0 where B = 0, else q does not divide p - 1
    o = np.flatnonzero(one)
    yo, Po = B[o], P[o]
    on = yo != 0
    yo[on] = _pow_vec(yo[on], _inverse_mod(q, Po[on] - 1), Po[on])
    found[start[o]] = (h[o] + yo) % Po * g[o] % Po
    full = many[hit]
    Pf = P[full]
    R = np.empty((q, len(full)), dtype=np.int64)
    for j in range(q):
        R[j] = (h[full] + y) % Pf * g[full] % Pf
        y = y * w % Pf
    R.sort(axis=0)
    found[start[full] + np.arange(q)[:, None]] = R
    return counts, found
