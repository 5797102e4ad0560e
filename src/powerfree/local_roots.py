"""Roots and root counts of integer polynomials modulo prime powers.

Two regimes. At a prime p where the reduction of f stays squarefree of
full degree ("good": p does not divide Res(f, f') * lc(f)), every root mod
p lifts uniquely by Newton's method, so the count mod p^k equals the count
mod p. At the finitely many singular primes the lift can branch or die;
those are walked level by level with exact integer arithmetic. Every root
this module hands back has been re-verified by evaluating f exactly.
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
    """Distinct roots of f modulo p^k.

    roots is None when the count exceeded the requested cap and only rho
    was kept. is_bad records whether p is singular for f.
    """

    p: int
    k: int
    rho: int
    roots: tuple[int, ...] | None
    is_bad: bool

    @property
    def modulus(self) -> int:
        return self.p ** self.k


def is_bad_prime(f: IntPolynomial, p: int) -> bool:
    prof = profile(f)
    if not prof.is_squarefree_poly:
        return True
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


def roots_mod_p(f: IntPolynomial, p: int, scan_limit: int = SCAN_LIMIT) -> tuple[int, ...]:
    """Sorted distinct roots of f mod p.

    Small p (up to scan_limit) uses a full residue scan. Larger p splits
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
    if p <= scan_limit:
        roots = _scan_roots(f, p)
    else:
        roots = tuple(sorted(modpoly.roots_prime_gcd(list(f.coeffs), p)))
    _certify(f, p, roots)
    return roots


def count_roots_mod_p(f: IntPolynomial, p: int) -> int:
    """Number of distinct roots of f mod p: p when f vanishes mod p (a set
    too large for roots_mod_p to list at large p), else len(roots_mod_p)."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if all(c % p == 0 for c in f.coeffs):
        return p
    return len(roots_mod_p(f, p))


def hensel_lifts(f: IntPolynomial, der: IntPolynomial, r: int, p: int,
                 top: int) -> list[int]:
    """[r_1, r_2, ...] over the p^j <= top for a simple root r in [0, p) of
    f mod p (der = f', f'(r) != 0 mod p): r_j in [0, p^j) is the only root
    of f mod p^j above r. One Newton step per level, with 1 / f'(r) mod p."""
    inv = pow(der(r) % p, p - 2, p)
    out, pj = [], p
    while pj <= top:
        out.append(r)
        r += (-(f(r) // pj) * inv) % p * pj
        pj *= p
    return out


def lift_roots(f: IntPolynomial, p: int, k: int, cap: int = LIFT_ROOT_CAP) -> LocalRootData:
    """Roots of f mod p^k by Hensel lifting.

    Good primes lift each root mod p uniquely (simple Newton step per
    level, using the inverse of f'(root) mod p). Singular primes branch:
    with f(r) = c0 * p^j + O(p^(j+1)) along r fixed mod p^j, the children
    mod p^(j+1) solve c0 + t f'(r) = 0 (mod p), giving one child, none, or
    p of them. Root lists longer than cap are counted but elided.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if k < 1:
        raise ValueError("k >= 1 required")
    bad = is_bad_prime(f, p)
    base = roots_mod_p(f, p)
    if k == 1:
        return LocalRootData(p, 1, len(base), base, bad)

    m = p ** k
    if not bad:
        der = f.derivative()
        roots = tuple(sorted(hensel_lifts(f, der, r0, p, m)[-1] for r0 in base))
        _certify(f, m, roots)
        if len(roots) > cap:
            return LocalRootData(p, k, len(roots), None, bad)
        return LocalRootData(p, k, len(roots), roots, bad)

    der = f.derivative()
    level = list(base)
    pj = p
    for _ in range(k - 1):
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
        level = nxt
        pj *= p
        if len(level) > 8 * cap:
            raise CapacityError(
                f"lift of {f.text()} at p={p} exceeded {8 * cap} residues"
            )
    rho = len(level)
    if rho > cap:
        return LocalRootData(p, k, rho, None, bad)
    roots = tuple(sorted(level))
    _certify(f, m, roots)
    return LocalRootData(p, k, rho, roots, bad)


def local_root_count(f: IntPolynomial, p: int, k: int) -> int:
    """rho_f(p^k): distinct roots of f mod p^k.

    At good primes this is the count mod p for every k >= 1; singular
    primes go through the full lift.
    """
    if k == 1:
        return count_roots_mod_p(f, p)
    if not is_bad_prime(f, p):
        return count_roots_mod_p(f, p)
    return lift_roots(f, p, k).rho


_BATCH_MIN_PRIME = 50


def batch_root_counts(f: IntPolynomial, primes: np.ndarray) -> np.ndarray:
    """rho_f(p) for every p in primes (sorted ascending), vectorized.

    Primes that are tiny or singular (they include the divisors of lc(f))
    are handled one at a time; the rest go through batch_split_part.
    """
    primes = np.asarray(primes, dtype=np.int64)
    out = np.zeros(len(primes), dtype=np.int64)
    prof = profile(f)
    if not prof.is_squarefree_poly:
        raise ValueError("repeated factor: counts are not well defined per prime")
    slow = (primes <= _BATCH_MIN_PRIME) | np.isin(primes, prof.bad_primes)
    idx_slow = np.nonzero(slow)[0]
    for i in idx_slow.tolist():
        out[i] = count_roots_mod_p(f, int(primes[i]))
    idx_fast = np.nonzero(~slow)[0]
    if len(idx_fast):
        out[idx_fast], _ = modpoly.batch_split_part(list(f.coeffs),
                                                    primes[idx_fast])
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

    Primes up to _BATCH_MIN_PRIME, and any dividing lc(f) or the content,
    go through roots_mod_p one at a time. The rest stay in numpy
    throughout: batch_split_part gives gcd(x^p - x, f) for every lane, and
    batch_linear_roots splits those gcds into roots by batched equal-degree
    splitting. Each lane's root count must match the degree of its gcd, and
    every root is re-verified by exact evaluation of f mod p.
    """
    primes = np.asarray(primes, dtype=np.int64)
    prof = profile(f)
    special = abs(prof.leading * prof.content)
    slow = primes <= _BATCH_MIN_PRIME
    if special > 1:
        slow |= np.isin(primes, list(factorize(special)))
    ps, rs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for p in primes[slow].tolist():
        found = roots_mod_p(f, p)
        ps.append(np.full(len(found), p, dtype=np.int64))
        rs.append(np.asarray(found, dtype=np.int64))
    fast = primes[~slow]
    if len(fast):
        counts, G = modpoly.batch_split_part(list(f.coeffs), fast)
        lanes, roots = modpoly.batch_linear_roots(G, counts, fast)
        _certify_batch(f, fast, counts, lanes, roots)
        ps.append(fast[lanes])
        rs.append(roots)
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
