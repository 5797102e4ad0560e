"""Euler products for the density of k-free polynomial values.

The density of {n : f(n) is k-free} is prod over primes of
(1 - rho_f(p^k) / p^k), with rho_f the local root count. Truncating the
product at P leaves a computable error: for good primes p > P the local
count is at most deg f, so the missing log mass is below
2 deg f / ((k-1) P^(k-1)) once every singular prime is inside the cutoff.
Each constant here therefore comes with certified lower/upper enclosure,
not just a point value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation
from .local_roots import (_PRIME_SLICE, RootTable, batch_root_counts,
                          local_root_count)
from .poly import IntPolynomial, has_fixed_kth_power, profile
from .sieve import primes_up_to


@dataclass(frozen=True)
class DensityResult:
    """Truncated Euler product with a certified enclosure.

    value is the partial product over p <= P; the full product sits in
    [lower, value] (dropping factors < 1 only decreases it).
    """

    value: float
    lower: float
    upper: float
    P: int
    k: int
    degree: int
    bad_primes: tuple[int, ...]


def density(f: IntPolynomial, k: int, P: int,
            roots: RootTable | None = None) -> DensityResult:
    """prod_{p <= P} (1 - rho_f(p^k)/p^k) with a rigorous tail bound.

    Preconditions enforced: k >= 2; f squarefree as a polynomial (else the
    product is meaningless and HypothesisViolation is raised); P at least
    the largest singular prime (else ValueError says how far to raise it);
    P^k > 2 deg f so the tail bound's log expansion is valid. A fixed k-th
    power divisor short-circuits to the exact answer 0. The singular primes
    come from factoring Res(f, f') * lc(f); when factorint cannot prove a
    cofactor prime (above 3.3*10^24) that ValueError propagates, exit 2 on
    the command line, though kfree_mask on the same f works.

    roots, a RootTable of f such as the one KfreeSieve sets up per factor,
    supplies rho_p at the good primes it covers; the others go through
    batch_root_counts, and each singular p through local_root_count, which
    walks its roots to p^(k-1) and counts their children mod p^k.
    The counts agree either way and fsum is correctly rounded, so the value
    is bit for bit the same with or without it. fsum takes the terms from
    a generator, one slice of _PRIME_SLICE primes at a time, so a slice's
    counts and Python floats are all it holds beyond the prime table; as
    fsum's result does not depend on the order of its terms, the singular
    primes' terms simply come last.
    """
    if k < 2:
        raise ValueError("k >= 2 required")
    prof = profile(f)
    if not prof.is_squarefree_poly:
        raise HypothesisViolation(
            f"{f.text()} has a repeated factor; the k-free density is 0 "
            f"and the local product does not converge to it"
        )
    bad = prof.bad_primes or ()
    if has_fixed_kth_power(f, k) is not None:
        return DensityResult(0.0, 0.0, 0.0, P, k, f.degree, bad)
    if bad and max(bad) > P:
        raise ValueError(
            f"P={P} is below the largest singular prime {max(bad)}; "
            f"the tail bound needs all singular primes inside the cutoff"
        )
    d = f.degree
    if P ** k <= 2 * d:
        raise ValueError(f"P^k must exceed 2*deg={2 * d} for the tail bound")

    if roots is not None and roots.poly != f:
        raise ValueError(f"root table of {roots.poly.text()} passed "
                         f"for {f.text()}")
    singular = []
    for p in sorted(bad):
        rho = local_root_count(f, p, k)
        pk = p ** k
        if rho == pk:
            return DensityResult(0.0, 0.0, 0.0, P, k, d, bad)
        if rho:
            singular.append(math.log1p(-rho / pk))
    primes = primes_up_to(P)

    def logs():
        for lo in range(0, len(primes), _PRIME_SLICE):
            good = primes[lo:lo + _PRIME_SLICE]
            good = good[~np.isin(good, bad)]
            counts = np.zeros(len(good), dtype=np.int64)
            known = np.zeros(len(good), dtype=bool)
            if roots is not None:
                idx = np.searchsorted(roots.primes, good)
                known = idx < len(roots.primes)
                known[known] = roots.primes[idx[known]] == good[known]
                counts[known] = roots.counts[idx[known]]
            if not known.all():
                counts[~known] = batch_root_counts(f, good[~known])
            nz = counts > 0
            for p, rho in zip(good[nz].tolist(), counts[nz].tolist()):
                yield math.log1p(-rho / p ** k)
        yield from singular

    value = math.exp(math.fsum(logs()))
    # good p > P have rho(p^k) = rho(p) <= d and d/p^k <= 1/2, so
    # -log(1 - x) <= 2x gives tail log mass <= 2d sum_{m>P} m^-k
    tail = 2.0 * d / ((k - 1) * P ** (k - 1))
    return DensityResult(value, value * math.exp(-tail), value, P, k, d, bad)

