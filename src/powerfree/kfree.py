"""Sieves for k-free polynomial values and the tail sums that certify them.

The mask sieve marks every n in [1, N] whose value f(n) is k-free (no
prime to the k-th power divides it). Primes up to P0 = ceil(max|f|^(1/(k+1)))
are divided out at the residue classes where p | f(n). Why one exact k-th
root test per cofactor c then finishes the job: every prime factor of c
exceeds P0 and c <= max|f| <= P0^(k+1), so Omega(c) <= k, and a prime q with
q^k | c forces c = q^k. The same sieve gives S(n) = {p : p^k | f(n)} for the
threshold decomposition, so neither needs factorization.

Products of coprime factors get per-factor masks plus an exact correction
at the finitely many primes dividing a pairwise resultant, the only places
where exponents from different factors can combine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityResult
from .errors import CapacityError, HypothesisViolation
from .factorint import factorize, integer_nth_root, is_perfect_kth_power
from .local_roots import LIFT_ROOT_CAP, RootTable, lift_levels, root_table
from .poly import (IntPolynomial, evaluate_range, has_fixed_kth_power,
                   max_abs_value, profile, resultant)
from .sieve import (DEFAULT_SEGMENT, _pool_map, _runs, _squarefree_segment,
                    primes_up_to)

ROOT_LIMIT = 2 * 10 ** 6
_INT64_MAX = (1 << 63) - 1
_COFACTOR_CHUNK = 1 << 14
# moduli of the object path's k-th power residue filter; for k = 2 about
# 0.8 % of random values are squares modulo all four
_RESIDUE_MODULI = (64, 63, 65, 11)
# primes above this hit a default segment at most 256 times per root, so
# their hits are gathered into one vectorized pass (_divide_out_roots)
_BUCKET_MIN_PRIME = 4096
_HIT_CHUNK = 1 << 13
# (p, root) pairs above _BUCKET_MIN_PRIME whose hits one step of a run builds
_PAIR_SLICE = 1 << 14


@dataclass(frozen=True)
class KfreeMask:
    """Indicator of k-free values of f on [1, N]; bits[n - 1] is n's flag.

    zero_hits lists the n with f(n) = 0 (never k-free; 0 is divisible by
    everything). prime_bound is the sieving bound P0 actually used.
    """

    poly: IntPolynomial
    k: int
    N: int
    bits: np.ndarray
    zero_hits: tuple[int, ...]
    prime_bound: int

    @property
    def count(self) -> int:
        return int(self.bits.sum())


def sieve_prime_bound(f: IntPolynomial, k: int, N: int) -> int:
    """Smallest P0 with P0^(k+1) >= max|f| on [1, N]: sieving below P0
    leaves cofactors whose only k-th-power risk is being one exactly."""
    m = max_abs_value(f, N)
    if m == 0:
        return 2
    r = integer_nth_root(m, k + 1)
    p0 = r if r ** (k + 1) >= m else r + 1
    return max(p0, 2)


def _check_sieve_hypotheses(f: IntPolynomial, k: int) -> None:
    if k < 2:
        raise ValueError("k >= 2 required (k-free needs a power to exclude)")
    if not profile(f).is_squarefree_poly:
        raise HypothesisViolation(
            f"{f.text()} has a repeated factor; its values are never "
            f"k-free beyond finitely many n"
        )
    p = has_fixed_kth_power(f, k)
    if p is not None:
        raise HypothesisViolation(
            f"{p}^{k} divides every value of {f.text()}; the k-free set is empty"
        )


def _divide_out(vals: np.ndarray, seg_bits: np.ndarray, off: int, p: int,
                k: int, record=None) -> None:
    """Divide the full p-part out of vals[off::p]; clear seg_bits where the
    exponent reaches k. record(positions, primes) hooks exponent >= k.

    This serves the singular roots. The sl > 0 guard matters: a zero value
    of f sits at a root position of every prime and stays 0, which every p
    divides, so without the guard it would loop forever. The first test
    runs in chunks of _COFACTOR_CHUNK, so its remainder copy stays small
    next to vals even at p = 2.
    """
    sl = vals[off::p]
    sl //= p
    cur = np.concatenate([np.flatnonzero((c % p == 0) & (c > 0)) + s
                          for s in range(0, len(sl), _COFACTOR_CHUNK)
                          for c in [sl[s:s + _COFACTOR_CHUNK]]])
    e = 2
    while len(cur):
        sl[cur] //= p
        if e == k:
            pos = off + cur * p
            seg_bits[pos] = False
            if record is not None:
                record(pos, np.full(len(pos), p, dtype=np.int64))
        e += 1
        sub = sl[cur]
        cur = cur[(sub % p == 0) & (sub > 0)]


def _divide_out_hits(vals: np.ndarray, seg_bits: np.ndarray, pos: np.ndarray,
                     pr: np.ndarray, k: int, record=None) -> None:
    """_divide_out for scattered hits: pr[j] divides vals[pos[j]], and each
    (position, prime) pair occurs once, but a position may repeat with
    different primes.

    np.floor_divide.at is unbuffered, so a repeated position is divided by
    each of its primes in turn; that stays exact because distinct primes are
    coprime, so q | v still holds after v is divided by p. Each round keeps
    only the hits whose prime still divides, as in _divide_out.
    """
    if vals.dtype == object:
        pr = pr.astype(object)  # Python-int division, no int64 overflow
    np.floor_divide.at(vals, pos, pr)
    e = 1
    while True:
        v = vals[pos]
        live = (v % pr == 0) & (v > 0)
        pos, pr = pos[live], pr[live]
        if not len(pos):
            return
        np.floor_divide.at(vals, pos, pr)
        e += 1
        if e == k:
            seg_bits[pos] = False
            if record is not None:
                record(pos, pr.astype(np.int64, copy=False))


def _signed_inverse(p: int) -> int | None:
    """p^-1 mod 2^64 as a signed int64 for odd p, None for p = 2."""
    if p == 2:
        return None
    inv = pow(p, -1, 1 << 64)
    return inv - ((inv >> 63) << 64)


def _lift_plan(f: IntPolynomial, roots: RootTable, height: int) -> list:
    """One entry per (p, r) pair of roots with p <= _BUCKET_MIN_PRIME, in
    table order: None at a singular root (f'(r) = 0 mod p, as at every p
    dividing the content), else (_signed_inverse(p), the Hensel lifts r_j
    of r mod p^j for every p^j <= height = max|f| on [1, N]). The lifts are
    unique, so v_p(f(n)) for n = r (mod p) is the number of levels n
    matches: a nonzero |f(n)| <= height matches none with p^j > height, and
    a zero value, matching them all, stops at the same bound."""
    split = int(np.searchsorted(roots.p, _BUCKET_MIN_PRIME, side="right"))
    der = f.derivative()
    return [(_signed_inverse(p),
             [lv[0] for _, lv in lift_levels(f, p, height, (r,))])
            if der(r) % p else None
            for p, r in zip(roots.p[:split].tolist(),
                            roots.roots[:split].tolist())]


def _divide_out_lifted(vals: np.ndarray, seg_bits: np.ndarray, a: int,
                       p: int, inv: int | None, lifts: list, k: int,
                       record=None) -> None:
    """_divide_out for a simple root with the lifts of _lift_plan: level j
    divides the class of r_j mod p^j by p once, and level k clears
    seg_bits there. A level that misses the segment ends the walk, since
    every later class lies inside it. On the int64 path an odd p multiplies
    by inv = p^-1 mod 2^64 as a signed int64: for 0 <= v < 2^63 with p | v
    the wrapping product is v / p. p = 2 (inv None) and object dtype
    floor-divide."""
    m = len(vals)
    if vals.dtype == object:
        inv = None
    pj = 1
    for j, rj in enumerate(lifts, 1):
        pj *= p
        off = (rj - a) % pj
        if off >= m:
            return
        sl = vals[off::pj]
        if inv is None:
            sl //= p
        else:
            sl *= inv
        if j == k:
            seg_bits[off::pj] = False
            if record is not None:
                pos = np.arange(off, m, pj, dtype=np.int64)
                record(pos, np.full(len(pos), p, dtype=np.int64))


def _divide_out_roots(vals: np.ndarray, seg_bits: np.ndarray, a: int,
                      roots: RootTable, plan: list, k: int,
                      record=None) -> None:
    """Divide every prime of roots fully out of vals, which holds |f(n)|
    for n in [a, a + len(vals)); clear seg_bits where an exponent reaches k.

    Primes up to _BUCKET_MIN_PRIME take strided slices, one walk per root:
    _divide_out_lifted on plan's levels at a simple root, _divide_out at a
    singular one. Above it a root hits a segment only a few times, so all
    hits of the larger (p, root) pairs are built at once with np.repeat, in
    groups of about _HIT_CHUNK hits to bound the transient arrays, and
    divided by _divide_out_hits (the bucket sieve of Oliveira e Silva,
    Herzog and Pardi, Math. Comp. 83, 2014). Hits reaching exponent k go to
    record in ascending prime order for each position. The larger pairs
    are taken _PAIR_SLICE at a time, so a slice's offsets, hit counts and
    groups are all a run holds beyond vals, however many roots there are.
    """
    m = len(vals)
    split = len(plan)
    for p, r, lift in zip(roots.p[:split].tolist(),
                          roots.roots[:split].tolist(), plan):
        if lift is not None:
            _divide_out_lifted(vals, seg_bits, a, p, *lift, k, record)
            continue
        off = (r - a) % p
        if off < m:
            _divide_out(vals, seg_bits, off, p, k, record)
    for lo in range(split, len(roots.p), _PAIR_SLICE):
        _divide_out_pairs(vals, seg_bits, a, roots.p[lo:lo + _PAIR_SLICE],
                          roots.roots[lo:lo + _PAIR_SLICE], k, record)


def _divide_out_pairs(vals: np.ndarray, seg_bits: np.ndarray, a: int,
                      P: np.ndarray, R: np.ndarray, k: int,
                      record=None) -> None:
    """The bucketed part of _divide_out_roots for the (p, root) pairs
    (P[i], R[i]), all with p > _BUCKET_MIN_PRIME."""
    m = len(vals)
    off = (R - a) % P
    inside = off < m
    P, off = P[inside], off[inside]
    if not len(P):
        return
    cnt = (m - 1 - off) // P + 1
    ends = np.cumsum(cnt)
    cuts = np.searchsorted(ends, np.arange(_HIT_CHUNK, int(ends[-1]),
                                           _HIT_CHUNK), side="right")
    bounds = [0, *np.unique(cuts).tolist(), len(P)]
    for s, e in zip(bounds[:-1], bounds[1:]):
        if s == e:
            continue
        c = cnt[s:e]
        first = np.cumsum(c) - c
        pr = np.repeat(P[s:e], c)
        # hit t of pair i sits at off_i + (t - first_i) p_i
        pos = np.arange(len(pr), dtype=np.int64)
        pos *= pr
        pos += np.repeat(off[s:e] - first * P[s:e], c)
        _divide_out_hits(vals, seg_bits, pos, pr, k, record)


def _kth_power_cofactors(vals: np.ndarray, k: int) -> np.ndarray:
    """Positions i with vals[i] = r^k for an integer r >= 2.

    Once every p <= P0 is divided out, these are exactly the cofactors
    divisible by a k-th prime power, and r is that prime (module docstring).
    The int64 test runs in chunks of _COFACTOR_CHUNK positions, so its
    float copies stay small next to the segment. Its root estimate r is
    rint(sqrt(v)) for k = 2, rint(cbrt(v)) for k = 3 and rint(v ** (1/k))
    above, capped at the largest r with r^k < 2^63, and v is a k-th power
    iff r^k = v. That r is exact: for v = q^k < 2^63 the float of v is v (1
    + d) with |d| <= 2^-53; sqrt is correctly rounded, cbrt is good to a few
    ulps, and power also carries the rounding of 1/k, a relative ln(v)/k
    2^-53 < 2^-49. So the estimate is q (1 + e) with |e| < 2^-48, and q <
    2^32 puts it within 2^-16 of q, far inside the 1/2 that rint needs.

    Object values first pass a residue filter, one Python remainder each by
    the product of _RESIDUE_MODULI, and only those that are k-th power
    residues modulo each of them take the exact is_perfect_kth_power test.
    Nothing is lost: if v = r^k then v mod m = (r mod m)^k mod m.
    """
    if vals.dtype == object:
        idx = np.flatnonzero(vals > 1)
        res = (vals[idx] % math.prod(_RESIDUE_MODULI)).astype(np.int64)
        for m in _RESIDUE_MODULI:
            keep = np.isin(res % m, [pow(x, k, m) for x in range(m)])
            idx, res = idx[keep], res[keep]
        return np.array([i for i in idx.tolist()
                         if is_perfect_kth_power(int(vals[i]), k)],
                        dtype=np.intp)
    rmax = integer_nth_root(_INT64_MAX, k)
    root = {2: np.sqrt, 3: np.cbrt}.get(k, lambda x: np.power(x, 1.0 / k))
    found = [np.zeros(0, dtype=np.intp)]
    for s in range(0, len(vals), _COFACTOR_CHUNK):
        idx = np.flatnonzero(vals[s:s + _COFACTOR_CHUNK] > 1) + s
        v = vals[idx]
        r = np.rint(root(v.astype(np.float64))).astype(np.int64)
        np.minimum(r, rmax, out=r)
        hit = r ** k == v
        found.append(idx[hit])
    return np.concatenate(found)


def _cofactors(f: IntPolynomial, k: int, a: int, b: int, roots: RootTable,
               plan: list, seg_bits: np.ndarray, record=None) -> np.ndarray:
    """|f(n)| for n in [a, b) with every prime of roots divided fully out
    by _divide_out_roots, which calls record and leaves seg_bits set where
    no such prime reaches exponent k. A zero of f stays 0 (a 1 would become
    p^-1 mod 2^64 at a lifted level); every other value stays >= 1."""
    vals = evaluate_range(f, a, b)
    vals = np.abs(vals, out=vals)
    seg_bits[:] = True  # after the evaluation's temporaries are freed
    _divide_out_roots(vals, seg_bits, a, roots, plan, k, record)
    return vals


def collect_sieve_roots(f: IntPolynomial, P0: int,
                 root_limit: int = ROOT_LIMIT) -> RootTable:
    """Roots of f mod every prime p <= P0. Raises CapacityError when P0
    exceeds root_limit."""
    if P0 > root_limit:
        raise CapacityError(
            f"sieve needs roots mod all p <= {P0}, above the configured "
            f"limit {root_limit}; raise root_limit if you mean it"
        )
    return root_table(f, primes_up_to(P0))


def _sieve_setup(f: IntPolynomial, k: int, N: int,
                 root_limit: int = ROOT_LIMIT) -> tuple[int, RootTable, list]:
    """(P0, roots mod every p <= P0, their _lift_plan) for f on [1, N]."""
    P0 = sieve_prime_bound(f, k, N)
    roots = collect_sieve_roots(f, P0, root_limit)
    return P0, roots, _lift_plan(f, roots, max_abs_value(f, N))


class KfreeSieve:
    """Set-up of the k-free sieve of a product of pairwise coprime factors
    on [1, N], made once before any range is sieved: _sieve_setup's (P0,
    roots, plan) per factor, and per prime p dividing a pairwise resultant
    the (p^j, residues v) with p^j | g(n) iff n = v (mod p^j), for every
    factor g and p^j <= max|g|. Raises HypothesisViolation for a repeated
    factor or a fixed k-th power divisor of the product, and CapacityError
    when a P0 exceeds root_limit or a correction level has too many roots.
    """

    def __init__(self, factors, k: int, N: int,
                 root_limit: int = ROOT_LIMIT):
        self.factors, self.k, self.N = tuple(factors), k, N
        if not self.factors:
            raise ValueError("at least one factor required")
        self.poly = self.factors[0]
        for g in self.factors[1:]:
            self.poly = self.poly * g
        _check_sieve_hypotheses(self.poly, k)
        if N < 1:
            raise ValueError("N >= 1 required")
        self.setups = [_sieve_setup(g, k, N, root_limit) for g in self.factors]
        shared: set[int] = set()
        for i, g in enumerate(self.factors):
            for h in self.factors[i + 1:]:
                r = resultant(g, h)
                if r == 0:
                    raise HypothesisViolation(f"factors {g.text()} and "
                                              f"{h.text()} share a common "
                                              f"factor")
                shared.update(factorize(abs(r)) if abs(r) > 1 else ())
        self.corrections = []
        for p in sorted(shared):
            levels = []
            for g in self.factors:
                for pj, roots in lift_levels(g, p, max_abs_value(g, N)):
                    if len(roots) > LIFT_ROOT_CAP:
                        raise CapacityError(f"correction mod {pj} has "
                                            f"{len(roots)} residues")
                    levels.append((pj, roots))
            self.corrections.append(levels)


def kfree_range(sv: KfreeSieve, a: int, b: int, out: np.ndarray) -> list[int]:
    """Write into out[n - a] whether the product of sv's factors is k-free
    at n, for n in [a, b) inside [1, sv.N]; returns the n where a factor
    vanishes.

    Each factor is sieved on its own and the flags are ANDed. That misses
    only primes whose exponents in two different factors add up to k; any
    such prime divides a pairwise resultant, so the exponents of those few
    primes are added up exactly over their lifted residue classes.
    """
    zeros: set[int] = set()
    for i, (g, (_, roots, plan)) in enumerate(zip(sv.factors, sv.setups)):
        seg = out if i == 0 else np.empty(b - a, dtype=bool)
        vals = _cofactors(g, sv.k, a, b, roots, plan, seg)
        hit = np.flatnonzero(vals == 0)
        zeros.update((hit + a).tolist())
        seg[hit] = False
        seg[_kth_power_cofactors(vals, sv.k)] = False
        del vals  # before the next factor evaluates its own
        if i:
            out &= seg
    for levels in sv.corrections:
        exp = np.zeros(b - a, dtype=np.uint16)
        for pj, residues in levels:
            for v in residues:
                exp[(v - a) % pj::pj] += 1
        out[exp >= sv.k] = False
    return sorted(zeros)


def kfree_mask(f: IntPolynomial, k: int, N: int, *,
               segment_size: int = DEFAULT_SEGMENT, threads: int = 1,
               root_limit: int = ROOT_LIMIT) -> KfreeMask:
    """Exact k-free indicator for f on [1, N]: product_kfree_mask of one
    factor, raising as KfreeSieve."""
    return product_kfree_mask((f,), k, N, segment_size=segment_size,
                              threads=threads, root_limit=root_limit)


def product_kfree_mask(factors, k: int, N: int, *,
                       segment_size: int = DEFAULT_SEGMENT, threads: int = 1,
                       root_limit: int = ROOT_LIMIT) -> KfreeMask:
    """k-free indicator for the product of pairwise coprime factors on
    [1, N], by kfree_range in the runs of checkpoint_counts. Deterministic
    for any thread count and segment size: workers write disjoint slices."""
    sv = KfreeSieve(factors, k, N, root_limit)
    bits = np.zeros(N, dtype=bool)

    def flags(s: int, e: int):
        out = bits[s - 1:e - 1]
        return out, kfree_range(sv, s, e, out)

    _, zeros = checkpoint_counts(flags, N, [N], segment_size=segment_size,
                                 threads=threads)
    return KfreeMask(sv.poly, k, N, bits, tuple(zeros),
                     max(P0 for P0, _, _ in sv.setups))


def checkpoint_counts(flags, N: int, checkpoints, *,
                      segment_size: int = DEFAULT_SEGMENT,
                      threads: int = 1) -> tuple[list[int], list[int]]:
    """(counts, marks): counts[i] is the number of flagged n <= checkpoints
    [i], and marks the ascending n that flags reported, over all of [1, N].

    flags(s, e) returns the bool flags of the n in [s, e) and a list of n
    to report (the zeros of f, for kfree_range). One pass over [1, N] in
    segments of segment_size on the thread pool, each taken in runs of at
    most _RUN n, so per thread nothing longer than a run is held; counts
    are summed per checkpoint interval, the same for any thread count and
    segment size. Checkpoints must ascend inside [1, N].
    """
    cps = [int(n) for n in checkpoints]
    if not cps or cps[-1] > N or any(a >= b for a, b in zip([0, *cps], cps)):
        raise ValueError(f"checkpoints {cps} do not ascend inside [1, {N}]")
    cuts = [0, *cps] + ([N] if cps[-1] < N else [])

    def segment(a: int):
        counts, marks = np.zeros(len(cuts) - 1, dtype=np.int64), []
        for s, e, parts in _runs(a, min(a + segment_size, N + 1), cuts):
            bits, found = flags(s, e)
            marks += found
            for c, i, j in parts:
                counts[c] += np.count_nonzero(bits[i:j])
        return counts, marks

    counts, marks = np.zeros(len(cuts) - 1, dtype=np.int64), []
    for c, found in _pool_map(segment, range(1, N + 1, segment_size),
                              threads):
        counts += c
        marks += found
    return np.cumsum(counts)[:len(cps)].tolist(), marks


def twin_squarefree_range(a: int, b: int, primes: np.ndarray) -> np.ndarray:
    """Flags of the n in [a, b) with n and n + 1 both squarefree, given
    every prime up to isqrt(b)."""
    sq = _squarefree_segment(a, b + 1, primes)
    return sq[:-1] & sq[1:]


@dataclass(frozen=True)
class CountRow:
    N: int
    count: int
    target: float
    abs_error: float
    rel_error: float


def count_kfree(checkpoints, counts, density_result) -> list[CountRow]:
    """Rows of the counts at checkpoints against the density prediction
    target = c * N; density_result is a DensityResult or a float."""
    c = density_result.value if isinstance(density_result, DensityResult) \
        else float(density_result)
    rows = []
    for n, cnt in zip(checkpoints, counts):
        target = c * n
        abs_err = cnt - target
        rel = abs(abs_err) / target if target > 0 else math.nan
        rows.append(CountRow(int(n), cnt, target, abs_err, rel))
    return rows


def _integer_zeros(f: IntPolynomial, N: int) -> list[int]:
    """The n in [1, N] with f(n) = 0, ascending, for N < 2^20.

    Such an n divides the lowest nonzero coefficient c, so n <= c. The n
    with c mod n = 0 are found a run at a time by Horner's rule on c's
    base-2^31 digits (every step stays below 2^52), and each is checked
    exactly. Nothing is factored, so c may be any size.
    """
    c = abs(next(x for x in f.coeffs if x))
    digits = [c >> s & (2 ** 31 - 1) for s in range(0, c.bit_length(), 31)]
    zeros = []
    for s, e, _ in _runs(1, min(N, c) + 1, [0, N]):
        n = np.arange(s, e, dtype=np.int64)
        rem = np.zeros(e - s, dtype=np.int64)
        for d in reversed(digits):
            rem <<= 31
            rem += d
            rem %= n
        zeros += [m for m in n[rem == 0].tolist() if f(m) == 0]
    return zeros


def _kth_power_hits(f: IntPolynomial, k: int, N: int):
    """Yield (s, e, n, primes) for the runs [s, e) of at most _RUN n that
    tile [1, N]: every pair (n, p) in the run with p prime and p^k | f(n),
    once each, as two int64 arrays sorted by n and then by p. A run holds
    its values and hits only; nothing N-long is built.

    Exact: after every p <= P0 is divided out with full exponent tracking,
    each cofactor c has only prime factors > P0 and c <= max|f| <= P0^(k+1),
    so Omega(c) <= k and a prime q with q^k | c forces c = q^k. Raises, as
    the first item is asked for and before any run is sieved, CapacityError
    when P0 exceeds ROOT_LIMIT and HypothesisViolation when f vanishes at
    an n in [1, N] (_integer_zeros).
    """
    _, roots, plan = _sieve_setup(f, k, N)
    zeros = _integer_zeros(f, N)
    if zeros:
        raise HypothesisViolation(
            f"f(n) = 0 at n in {zeros[:5]}: the k-free decomposition "
            f"identity needs nonzero values"
        )
    for s, e, _ in _runs(1, N + 1, [0, N]):
        hits = []
        vals = _cofactors(f, k, s, e, roots, plan,
                          np.empty(e - s, dtype=bool),
                          lambda pos, primes: hits.append((pos, primes)))
        idx = _kth_power_cofactors(vals, k)
        hits.append((idx.astype(np.int64),
                     np.array([integer_nth_root(int(v), k)
                               for v in vals[idx].tolist()], dtype=np.int64)))
        del vals
        pos, primes = (np.concatenate(a) for a in zip(*hits))
        order = np.lexsort((primes, pos))
        yield s, e, pos[order] + s, primes[order]


def _subset_products(n: np.ndarray, primes: np.ndarray):
    """Yield (rows, D, signs) per set size |S(n)| = s among the hits of one
    run (_kth_power_hits): rows are the n with that size, ascending, and
    D[i, t] = prod(T) over the 2^s subsets T of S(rows[i]), with signs[t] =
    (-1)^|T|; column 0 is the empty subset, d = 1.

    No product overflows: d^k | f(n) != 0 gives d^k <= max|f| <= P0^(k+1),
    so d <= P0^(3/2) < 2^32 for P0 <= ROOT_LIMIT. The same bound keeps s
    below 10, as the product of the first ten primes exceeds 2^32.
    """
    first = np.flatnonzero(np.diff(n, prepend=0))
    size = np.diff(first, append=len(n))
    for s in np.unique(size).tolist():
        at = first[size == s]
        D, signs = np.ones((len(at), 1), dtype=np.int64), np.ones(1, np.int64)
        for j in range(s):
            D = np.hstack([D, D * primes[at + j, None]])
            signs = np.concatenate([signs, -signs])
        yield n[at], D, signs


def _exact_sum(w: np.ndarray, take=None, signs=None) -> int:
    """sum(w) as a Python int, or with take a (len(w), m) bool matrix and m
    signs the signed sum of its column sums of w over the marked rows, for
    int64 w of at most _RUN entries. Exact: w = hi 2^32 + lo with |hi| <=
    2^31 and 0 <= lo < 2^32, so every int64 sum of hi or lo stays below
    2^18 2^32 = 2^50."""
    hi, lo = w >> 32, w & 0xFFFFFFFF
    if take is None:
        return (int(hi.sum()) << 32) + int(lo.sum())
    return sum(sg * ((h << 32) + g) for sg, h, g in
               zip(signs.tolist(), (hi @ take).tolist(), (lo @ take).tolist()))


@dataclass(frozen=True)
class SumDecomposition:
    """Inclusion-exclusion split of a weighted k-free count at threshold Y.

    small_part sums mu(d) a(n) over squarefree d <= Y with d^k | f(n);
    large_part the same over d > Y; their sum telescopes to the weighted
    count of k-free values, exactly, term by term.
    """

    Y: int
    N: int
    small_part: int
    large_part: int
    total: int


def decompose_sum(f: IntPolynomial, k: int, Y: int, N: int,
                  weights=None) -> SumDecomposition:
    """Compute both halves of the threshold decomposition independently.

    The d ranging over products of primes in S(n) = {p : p^k | f(n)} makes
    each half a subset sum with sign (-1)^|T|; the identity small + large =
    total is not assumed here, both sides are computed and returned.
    Capped at N <= 10^6. Integer weights only, so everything is exact.

    The sums stream over the runs of _kth_power_hits, O(run) in memory
    beyond the caller's weights. Each run's sums are taken by _exact_sum,
    exact for any int64 weights, and added up as Python ints; d <= Y is
    exact for any Y, since every d is below 2^32 (_subset_products).
    """
    if N > 10 ** 6:
        raise CapacityError("decompose_sum caps N at 10^6")
    if N < 1 or Y < 1:
        raise ValueError("N >= 1 and Y >= 1 required")
    _check_sieve_hypotheses(f, k)
    if weights is not None:
        weights = np.asarray(weights)
        if not np.issubdtype(weights.dtype, np.integer):
            raise TypeError("weights must be integers for an exact identity")
        if len(weights) != N:
            raise ValueError("need one weight per n in [1, N]")
    Y64 = min(Y, _INT64_MAX)
    small = large = total = 0
    for s, e, n, primes in _kth_power_hits(f, k, N):
        run = None if weights is None else weights[s - 1:e - 1].astype(
            np.int64)
        total += e - s if run is None else _exact_sum(run)
        for rows, D, signs in _subset_products(n, primes):
            w = np.ones(len(rows), np.int64) if run is None else run[rows - s]
            below = D <= Y64
            # n with S(n) empty contribute only the empty subset, d = 1 <= Y
            total -= _exact_sum(w)
            small += _exact_sum(w, below, signs)
            large += _exact_sum(w, ~below, signs)
    return SumDecomposition(Y, N, small + total, large, total)


def tail_pair_count(f: IntPolynomial, k: int, Y: int, N: int) -> int:
    """Number of pairs (n, d): n <= N, d > Y squarefree, d^k | f(n).

    This is the term count behind the large part of the decomposition (all
    signs dropped), the quantity whose smallness makes truncation at Y
    work. Capped at N <= 10^5.
    """
    return tail_pair_counts(f, k, [(N, Y)])[0]


def tail_pair_counts(f: IntPolynomial, k: int, rows) -> list[int]:
    """tail_pair_count(f, k, Y, N) for each (N, Y) in rows, from one pass
    of _kth_power_hits up to the largest N. Capped at N <= 10^5."""
    rows = list(rows)
    top = max(n for n, _ in rows)
    if top > 10 ** 5:
        raise CapacityError("tail_pair_count caps N at 10^5")
    if min(n for n, _ in rows) < 1 or min(y for _, y in rows) < 1:
        raise ValueError("N >= 1 and Y >= 1 required")
    _check_sieve_hypotheses(f, k)
    counts = [0] * len(rows)
    for _, _, n, primes in _kth_power_hits(f, k, top):
        for at, D, _ in _subset_products(n, primes):
            for i, (N, Y) in enumerate(rows):
                # Y >= 1, so the empty subset (d = 1) is never counted
                m = int(np.searchsorted(at, N, side="right"))
                counts[i] += int(np.count_nonzero(D[:m] > min(Y, _INT64_MAX)))
    return counts
