"""Roots and root counts of integer polynomials modulo prime powers.

One router and one walk. _batch_route sends the tiny primes and those
dividing lc(f) to roots_mod_p, one at a time, for both batched entry points
(root_table and batch_root_counts); every other p, singular or not, takes
the batched gcd(x^p - x, f), which lists each distinct root once. Every
lift mod p^j is lift_levels, one Hensel walk: a root has exactly one child
where f' does not vanish mod p, else none or p. Every root this module
hands back has been re-verified by evaluating f exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modpoly
from .errors import CapacityError
from .factorint import factorize, is_prime
from .poly import IntPolynomial, profile

# crossover between the O(p) residue scan and the O(deg^2 log p) gcd
# split: the scan only wins while p is small, and tiny p must stay on it
# (the equal-degree splitter needs odd p well past the degree)
SCAN_LIMIT = 2048
LIFT_ROOT_CAP = 10 ** 6
_SCAN_HARD_CAP = 1 << 26  # a residue scan beyond this would stall


@dataclass(frozen=True)
class LocalRootData:
    """Distinct roots of f modulo p^k; roots is None when the count
    exceeded the requested cap and only rho was kept."""

    p: int
    k: int
    rho: int
    roots: tuple[int, ...] | None

    @property
    def modulus(self) -> int:
        return self.p ** self.k


def is_bad_prime(f: IntPolynomial, p: int) -> bool:
    prof = profile(f)  # Res(f, f') = 0 when f has a repeated factor
    return (prof.resultant_with_derivative * prof.leading) % p == 0


def _certify(f: IntPolynomial, m: int, roots) -> None:
    for r in roots:
        if f(r) % m != 0:
            raise AssertionError(f"uncertified root {r} mod {m} for {f.text()}")


def _scan_roots(f: IntPolynomial, p: int) -> tuple[int, ...]:
    """All roots mod p by evaluating every residue (vectorized, lazy
    reduction: two Horner steps keep values below p^3 < 2^63 for p <= 2e6)."""
    if p > _SCAN_HARD_CAP:
        raise CapacityError(f"residue scan at p={p} is out of range")
    n = np.arange(p, dtype=np.int64)
    cs = [c % p for c in f.coeffs]
    acc = np.full(p, cs[-1], dtype=np.int64)
    pending = 0
    for c in reversed(cs[:-1]):
        acc = acc * n + c
        pending += 1
        if pending == 2:
            acc %= p
            pending = 0
    if pending:
        acc %= p
    return tuple(int(r) for r in np.nonzero(acc == 0)[0])


def roots_mod_p(f: IntPolynomial, p: int) -> tuple[int, ...]:
    """Sorted distinct roots of f mod p.

    Small p (up to SCAN_LIMIT) uses a full residue scan. Larger p splits
    the linear part of f mod p: gcd(x^p - x, f) collects the roots as a
    product of linear factors, and deterministic equal-degree splitting
    extracts them. Either way each root is re-checked by exact evaluation.
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
        roots = tuple(sorted(modpoly.roots_prime_gcd(list(f.coeffs), p)))
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


def _lifted(f: IntPolynomial, p: int, k: int, cap: int) -> tuple[int, ...]:
    """Roots of f mod p^k, the last level of lift_levels(f, p, p^k); a
    lifted level of more than 8 cap residues raises CapacityError."""
    for pj, roots in lift_levels(f, p, p ** k):
        if pj > p and len(roots) > 8 * cap:
            raise CapacityError(f"lift of {f.text()} at p={p} exceeded "
                                f"{8 * cap} residues")
    return roots


def lift_roots(f: IntPolynomial, p: int, k: int, cap: int = LIFT_ROOT_CAP) -> LocalRootData:
    """Roots of f mod p^k, the last level of lift_levels(f, p, p^k).

    For k >= 2 a root list longer than cap is counted but elided, and a
    lifted level of more than 8 cap residues raises CapacityError.
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    roots = _lifted(f, p, k, cap)
    rho = len(roots)
    return LocalRootData(p, k, rho, roots if k == 1 or rho <= cap else None)


def local_root_count(f: IntPolynomial, p: int, k: int) -> int:
    """rho_f(p^k): distinct roots of f mod p^k. At a good prime every root
    lifts uniquely, so it is the count mod p. A singular one walks only to
    p^(k-1) and counts the last level without listing it: for k >= 2,
    f(r + t p^(k-1)) = f(r) + t p^(k-1) f'(r) mod p^k, so a root r mod
    p^(k-1) has one child if p does not divide f'(r), else p children if
    p^k | f(r) and none otherwise."""
    if k == 1 or not is_bad_prime(f, p):
        return count_roots_mod_p(f, p)
    der, pk = f.derivative(), p ** k
    return sum(1 if der(r) % p else p if f(r) % pk == 0 else 0
               for r in _lifted(f, p, k - 1, LIFT_ROOT_CAP))


_BATCH_MIN_PRIME = 50


def _batch_route(f: IntPolynomial, primes: np.ndarray):
    """The one prime router of root_table and batch_root_counts.

    Returns (primes as int64, slow, counts, G). slow marks the primes left
    to the one-prime path: p <= _BATCH_MIN_PRIME and the p dividing lc(f),
    which include those dividing the content. Every other p keeps f of full
    degree mod p, so gcd(x^p - x, f) lists each distinct root once, singular
    p or not: counts and G are batch_split_part's over those primes.
    """
    primes = np.asarray(primes, dtype=np.int64)
    slow = primes <= _BATCH_MIN_PRIME
    lc = abs(profile(f).leading)
    if lc > 1:
        slow |= np.isin(primes, list(factorize(lc)))
    counts, G = modpoly.batch_split_part(list(f.coeffs), primes[~slow])
    return primes, slow, counts, G


def batch_root_counts(f: IntPolynomial, primes: np.ndarray) -> np.ndarray:
    """rho_f(p) for every p in primes (sorted ascending), vectorized.

    The slow primes of _batch_route are counted one at a time; the rest,
    singular ones included, come from the batched split. Nothing is
    factored beyond lc(f), so f need not be squarefree.
    """
    primes, slow, counts, _ = _batch_route(f, primes)
    out = np.zeros(len(primes), dtype=np.int64)
    out[slow] = [count_roots_mod_p(f, p) for p in primes[slow].tolist()]
    out[~slow] = counts
    return out


def _certify_batch(f: IntPolynomial, primes: np.ndarray, counts: np.ndarray,
                   lanes: np.ndarray, roots: np.ndarray) -> None:
    """Per-lane root counts must equal counts, roots within a lane must be
    distinct, and f(r) = 0 mod p by an exact int64 Horner scheme (r < p <
    2^31 keeps every product below 2^62)."""
    if not np.array_equal(np.bincount(lanes, minlength=len(primes)), counts):
        raise AssertionError(f"batched split lost roots of {f.text()}")
    if ((lanes[1:] == lanes[:-1]) & (roots[1:] <= roots[:-1])).any():
        raise AssertionError(f"batched split repeated a root of {f.text()}")
    C = modpoly.reduce_coeffs(f.coeffs, primes)[:, lanes]
    P = primes[lanes]
    acc = np.zeros(len(roots), dtype=np.int64)
    for c in C[::-1]:
        acc = (acc * roots + c) % P
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


def root_table(f: IntPolynomial, primes: np.ndarray) -> RootTable:
    """Roots of f mod p for many primes (sorted ascending) at once.

    The slow primes of _batch_route go through roots_mod_p one at a time.
    The rest stay in numpy throughout: batch_split_part gives gcd(x^p - x,
    f) for every lane, and batch_linear_roots splits those gcds into roots
    by batched equal-degree splitting. Each lane's root count must match
    the degree of its gcd, and every root is re-verified by exact
    evaluation of f mod p.
    """
    primes, slow, counts, G = _batch_route(f, primes)
    fast = primes[~slow]
    lanes, roots = modpoly.batch_linear_roots(G, counts, fast)
    _certify_batch(f, fast, counts, lanes, roots)
    ps, rs = [fast[lanes]], [roots]
    for p in primes[slow].tolist():
        found = roots_mod_p(f, p)
        ps.append(np.full(len(found), p, dtype=np.int64))
        rs.append(np.asarray(found, dtype=np.int64))
    p, roots = np.concatenate(ps), np.concatenate(rs)
    # each prime's roots arrive sorted, so a stable sort on p suffices
    order = np.argsort(p, kind="stable")
    p, roots = p[order], roots[order]
    counts = np.bincount(np.searchsorted(primes, p), minlength=len(primes))
    return RootTable(f, primes, counts, p, roots)


def batch_roots(f: IntPolynomial, primes: np.ndarray) -> dict[int, np.ndarray]:
    """{p: sorted int64 roots of f mod p} for the primes that have roots,
    a dict view of root_table(f, primes) for callers that want one."""
    t = root_table(f, primes)
    starts = np.flatnonzero(np.diff(t.p, prepend=-1))
    return dict(zip(t.p[starts].tolist(), np.split(t.roots, starts[1:])))
