"""Roots and root counts of integer polynomials modulo prime powers.

One router and one walk. _routed_slices sends the tiny primes and those
dividing lc(f) to roots_mod_p, one at a time, for both batched entry points
(root_table and batch_root_counts). Every other p, singular or not, takes
a batched path chosen by the shape of f alone: the closed forms of
modpoly.batch_closed_roots when deg f <= 2 or f = a x^q + c (q an odd
prime, c != 0), else gcd(x^p - x, f), which lists each distinct root once.
Neither factors anything, lc(f) included. Every lift mod p^j is
lift_levels, one Hensel walk: a root has exactly one child where f' does
not vanish mod p, else none or p. Every root this module hands back has
been re-verified by evaluating f exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modpoly
from .errors import CapacityError
from .factorint import is_prime
from .poly import IntPolynomial, profile

# crossover between the O(p) residue scan and the O(deg^2 log p) gcd
# split: the scan only wins while p is small, and tiny p must stay on it
# (the equal-degree splitter needs odd p well past the degree)
SCAN_LIMIT = 2048
LIFT_ROOT_CAP = 10 ** 6
_SCAN_HARD_CAP = 1 << 26  # a residue scan beyond this would stall


def is_bad_prime(f: IntPolynomial, p: int) -> bool:
    prof = profile(f)  # Res(f, f') = 0 when f has a repeated factor
    return (prof.resultant_with_derivative * prof.leading) % p == 0


def _certify(f: IntPolynomial, m: int, roots) -> None:
    for r in roots:
        if f(r) % m != 0:
            raise AssertionError(f"uncertified root {r} mod {m} for {f.text()}")


def _horner_mod(coeffs, n: np.ndarray, m) -> np.ndarray:
    """f(n) mod m elementwise, for int64 n in [0, m) and coefficients
    already reduced mod m (ints, or rows of per-lane residues). Every step
    reduces, so with m < 2^31 a step's value stays below 2^62 + 2^31."""
    acc = np.zeros(len(n), dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * n + c) % m
    return acc


def _scan_roots(f: IntPolynomial, p: int) -> tuple[int, ...]:
    """All roots mod p by evaluating every residue (vectorized)."""
    if p > _SCAN_HARD_CAP:
        raise CapacityError(f"residue scan at p={p} is out of range")
    acc = _horner_mod([c % p for c in f.coeffs],
                      np.arange(p, dtype=np.int64), p)
    return tuple(int(r) for r in np.nonzero(acc == 0)[0])


def roots_mod_p(f: IntPolynomial, p: int) -> tuple[int, ...]:
    """Sorted distinct roots of f mod p.

    Small p (up to SCAN_LIMIT) uses a full residue scan; above it,
    modpoly.roots_prime_gcd takes the closed forms up to degree 2 mod p,
    and from degree 3 on splits gcd(x^p - x, f), the product of the linear
    factors, by deterministic equal-degree splitting. Either way, each
    root is re-checked by exact evaluation.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if all(c % p == 0 for c in f.coeffs):
        # f vanishes identically mod p; every residue is a root
        if p > _SCAN_HARD_CAP:
            raise CapacityError(f"f is 0 mod {p}: root set too large to list")
        return tuple(range(p))
    if p <= SCAN_LIMIT:
        roots = _scan_roots(f, p)
    else:
        roots = tuple(modpoly.roots_prime_gcd(f.coeffs, p))
    _certify(f, p, roots)
    return roots


def count_roots_mod_p(f: IntPolynomial, p: int) -> int:
    """Number of distinct roots of f mod p: p when f vanishes mod p (a set
    too large for roots_mod_p to list at large p), else len(roots_mod_p)."""
    if all(c % p == 0 for c in f.coeffs) and is_prime(p):
        return p
    return len(roots_mod_p(f, p))


def lift_levels(f: IntPolynomial, p: int, top: int, base=None):
    """Yield (p^j, sorted roots of f mod p^j) for every p^j <= top, from the
    roots mod p or from base, some of them. Nothing runs when p > top.

    With f(r) = c0 p^j + O(p^(j+1)) along a root r fixed mod p^j, the
    children mod p^(j+1) solve c0 + t f'(r) = 0 (mod p): one child when
    f'(r) != 0 mod p, else none or p. Each new level is re-verified by
    exact evaluation. The walk is lazy, so a caller that bounds the number
    of residues checks each level before asking for the next.
    """
    if p > top:
        return
    level = roots_mod_p(f, p) if base is None else tuple(sorted(base))
    der, pj = f.derivative(), p
    while True:
        yield pj, level
        if pj * p > top:
            return
        nxt = []
        for r in level:
            c0 = (f(r) // pj) % p
            c1 = der(r) % p
            if c1 != 0:
                t = (-c0 * pow(c1, p - 2, p)) % p
                nxt.append(r + t * pj)
            elif c0 == 0:
                nxt.extend(r + t * pj for t in range(p))
            # c1 == 0 and c0 != 0: no lift from this branch
        pj *= p
        level = tuple(sorted(nxt))
        _certify(f, pj, level)


def lift_roots(f: IntPolynomial, p: int, k: int) -> tuple[int, ...]:
    """Sorted roots of f mod p^k, the last level of lift_levels(f, p, p^k);
    a lifted level of more than 8 LIFT_ROOT_CAP residues raises
    CapacityError."""
    if k < 1:
        raise ValueError("k >= 1 required")
    for pj, roots in lift_levels(f, p, p ** k):
        if pj > p and len(roots) > 8 * LIFT_ROOT_CAP:
            raise CapacityError(f"lift of {f.text()} at p={p} exceeded "
                                f"{8 * LIFT_ROOT_CAP} residues")
    return roots


def local_root_count(f: IntPolynomial, p: int, k: int) -> int:
    """rho_f(p^k): distinct roots of f mod p^k. At a good prime every root
    lifts uniquely, so it is the count mod p. A singular one walks only to
    p^(k-1) and counts the last level without listing it: for k >= 2,
    f(r + t p^(k-1)) = f(r) + t p^(k-1) f'(r) mod p^k, so a root r mod
    p^(k-1) has one child if p does not divide f'(r), else p children if
    p^k | f(r) and none otherwise."""
    if k < 1:
        raise ValueError("k >= 1 required")
    if k == 1 or not is_bad_prime(f, p):
        return count_roots_mod_p(f, p)
    der, pk = f.derivative(), p ** k
    return sum(1 if der(r) % p else p if f(r) % pk == 0 else 0
               for r in lift_roots(f, p, k - 1))


_BATCH_MIN_PRIME = 50
# primes per routing, Frobenius ladder and certification step, so every
# temporary of a pass over the primes is one slice wide (batch_split_part
# runs its ladder over all the lanes it is given at once)
_PRIME_SLICE = 1 << 13
# multi-root lanes per batch_linear_roots call: a call has a fixed cost of
# a few tens of ms (one ladder per splitting round, whatever its width), so
# these lanes are gathered across slices
_SPLIT_LANES = 1 << 14


def _routed_slices(f: IntPolynomial, primes: np.ndarray, roots: bool = False):
    """The one prime router of root_table and batch_root_counts.

    Yields (lo, P, slow, counts, found, G) for each slice P = primes[lo:lo
    + _PRIME_SLICE]. slow marks the primes left to the one-prime path: p <=
    _BATCH_MIN_PRIME and the p dividing lc(f), which include those dividing
    the content; they are found as lc mod p = 0, so nothing is factored.
    Every other p keeps f of full degree mod p, and counts are over
    P[~slow]. The route depends on the shape of f alone:

    - deg f <= 2, or f = a x^q + c with q an odd prime and c != 0: the
      closed forms of modpoly.batch_closed_roots, with found the roots of
      P[~slow], flat and ascending within each lane (None unless roots is
      set), and G None;
    - every other f: batch_split_part's gcd(x^p - x, f), which lists each
      distinct root once, singular p or not, with G its gcds and found None.
    """
    if f.degree < 1:
        raise ValueError("degree >= 1 required")
    q = modpoly.closed_form_exponent(f.coeffs)
    for lo in range(0, len(primes), _PRIME_SLICE):
        P = primes[lo:lo + _PRIME_SLICE]
        slow = ((P <= _BATCH_MIN_PRIME)
                | (modpoly.reduce_coeffs([f.leading], P)[0] == 0))
        if q:
            counts, found = modpoly.batch_closed_roots(f.coeffs, q, P[~slow],
                                                       roots)
            yield lo, P, slow, counts, found, None
        else:
            counts, G = modpoly.batch_split_part(list(f.coeffs), P[~slow])
            yield lo, P, slow, counts, None, G


def batch_root_counts(f: IntPolynomial, primes: np.ndarray) -> np.ndarray:
    """rho_f(p) for every p in primes (sorted ascending), vectorized.

    The slow primes of _routed_slices are counted one at a time; the rest,
    singular ones included, come from the closed-form counts (at most one
    power per prime) or from the batched split, whose gcds are held for
    one slice at a time next to the int64 result. Nothing is factored, so
    f need not be squarefree.
    """
    primes = np.asarray(primes, dtype=np.int64)
    out = np.zeros(len(primes), dtype=np.int64)
    for lo, P, slow, counts, *_ in _routed_slices(f, primes):
        part = out[lo:lo + len(P)]
        part[slow] = [count_roots_mod_p(f, p) for p in P[slow].tolist()]
        part[~slow] = counts
    return out


def _certify_batch(f: IntPolynomial, primes: np.ndarray, counts: np.ndarray,
                   lanes: np.ndarray, roots: np.ndarray) -> None:
    """Per-lane root counts must equal counts, roots within a lane must be
    distinct, and f(r) = 0 mod p by _horner_mod (r < p < 2^31)."""
    if not np.array_equal(np.bincount(lanes, minlength=len(primes)), counts):
        raise AssertionError(f"batched split lost roots of {f.text()}")
    if ((lanes[1:] == lanes[:-1]) & (roots[1:] <= roots[:-1])).any():
        raise AssertionError(f"batched split repeated a root of {f.text()}")
    P = primes[lanes]
    acc = _horner_mod(modpoly.reduce_coeffs(f.coeffs, primes)[:, lanes],
                      roots, P)
    bad = np.flatnonzero(acc)
    if len(bad):
        j = int(bad[0])
        raise AssertionError(f"uncertified batch root {int(roots[j])} mod "
                             f"{int(P[j])} for {f.text()}")


@dataclass(frozen=True)
class RootTable:
    """Roots of poly mod p for every prime queried, in flat form.

    primes holds the queried primes, ascending, and counts[i] = rho(primes[i])
    (zero when there are no roots). p and roots are parallel int64 vectors
    sorted by (p, root): roots[j] is a root of poly mod p[j], each root once.
    """

    poly: IntPolynomial
    primes: np.ndarray
    counts: np.ndarray
    p: np.ndarray
    roots: np.ndarray


def _place(out: np.ndarray, offsets: np.ndarray, counts: np.ndarray,
           roots: np.ndarray) -> None:
    """Write lane i's counts[i] roots, flat in roots lane by lane, to out
    from offsets[i] on: root j is number j - (roots of the lanes before
    it) of its lane."""
    pos = np.repeat(offsets - (np.cumsum(counts) - counts), counts)
    pos += np.arange(len(roots))
    out[pos] = roots


def _split_gathered(f: IntPolynomial, gathered: list, out: np.ndarray) -> None:
    """Split the gathered multi-root lanes, (G, counts, primes, offsets)
    column blocks, by one batch_linear_roots call; certify the roots and
    write each lane's, ascending, to out from its offset on."""
    G, counts, P, offsets = (np.concatenate(c, axis=-1)
                             for c in zip(*gathered))
    gathered.clear()
    lanes, roots = modpoly.batch_linear_roots(G, counts, P)
    _certify_batch(f, P, counts, lanes, roots)
    _place(out, offsets, counts, roots)


def root_table(f: IntPolynomial, primes: np.ndarray) -> RootTable:
    """Roots of f mod p for many primes (sorted ascending) at once.

    One slice of _PRIME_SLICE primes at a time; the slow primes of
    _routed_slices go through roots_mod_p. When deg f <= 2 or f = a x^q + c
    (q an odd prime, c != 0), the fast lanes get their roots, ascending,
    from the closed forms: a q-th root by generalized Tonelli-Shanks, times
    the q-th roots of unity, or the one root where q does not divide
    p - 1. Every other f gets gcd(x^p - x, f) for its fast lanes, whose
    count is the lane's number of roots: a lane with one root gives it at
    once as -G_0 mod p, and the lanes with more are gathered across slices
    and split by batch_linear_roots (batched equal-degree splitting) about
    _SPLIT_LANES at a time, since a split call has a fixed cost of its
    own. Either way each lane's root count must match, and every root is
    re-verified by exact evaluation of f mod p, a slice or a split at a
    time.

    The roots go straight to their place in the result, which grows by
    one slice at a time: each prime's place follows from the counts of the
    primes before it. So beyond the result a pass holds one slice and at
    most about _SPLIT_LANES gathered lanes.
    """
    primes = np.asarray(primes, dtype=np.int64)
    counts = np.zeros(len(primes), dtype=np.int64)
    roots = np.zeros(0, dtype=np.int64)
    total, gathered = 0, []
    for lo, P, slow, fast_counts, found, G in _routed_slices(f, primes,
                                                            roots=True):
        c = counts[lo:lo + len(P)]
        fast = P[~slow]
        c[~slow] = fast_counts
        slow_roots = [roots_mod_p(f, p) for p in P[slow].tolist()]
        c[slow] = [len(r) for r in slow_roots]
        offsets = total + np.cumsum(c) - c
        total += int(c.sum())
        # a realloc of the one buffer: no second copy of the result exists
        roots.resize(total, refcheck=False)
        for start, r in zip(offsets[slow].tolist(), slow_roots):
            roots[start:start + len(r)] = r
        offsets = offsets[~slow]
        if G is None:
            lanes = np.repeat(np.arange(len(fast)), fast_counts)
            _certify_batch(f, fast, fast_counts, lanes, found)
            _place(roots, offsets, fast_counts, found)
            continue
        one = fast_counts == 1
        single = (-G[0, one]) % fast[one]
        _certify_batch(f, fast[one], fast_counts[one],
                       np.arange(len(single)), single)
        roots[offsets[one]] = single
        many = fast_counts > 1
        if many.any():
            gathered.append((G[:, many], fast_counts[many], fast[many],
                             offsets[many]))
        if sum(len(g[1]) for g in gathered) >= _SPLIT_LANES:
            _split_gathered(f, gathered, roots)
    if gathered:
        _split_gathered(f, gathered, roots)
    return RootTable(f, primes, counts, np.repeat(primes, counts), roots)


def batch_roots(f: IntPolynomial, primes: np.ndarray) -> dict[int, np.ndarray]:
    """{p: sorted int64 roots of f mod p} for the primes that have roots,
    a dict view of root_table(f, primes) for callers that want one."""
    t = root_table(f, primes)
    starts = np.flatnonzero(np.diff(t.p, prepend=-1))
    return dict(zip(t.p[starts].tolist(), np.split(t.roots, starts[1:])))
