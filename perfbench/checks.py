"""Output checks of the benchmark, computed apart from the program.

Every reference here comes from code of this file or from sympy, never from
an earlier output of powerfree: a smallest-prime-factor Omega sieve, brute
sympy.factorint counts, brute residue scans, and a sieve of n^2 + c built
from sympy.sqrt_mod. The only calls into powerfree are the ones under test
(the local root counts behind each Euler product). References are computed
once per benchmark invocation; `seed` picks the sampled primes and n.

check(name, files, refs, params) returns the list of failed checks of one
operation from the bytes of its artifacts; an empty list means it passed.
Checks that do not read an artifact (the local root counts, the sieve
against factorint) run once per invocation; their failures, kept under
refs["<operation>_once"], count against every round of that operation.
"""
from __future__ import annotations

import csv
import io
import json
import random

import numpy as np
import sympy


# ------------------------------------------------------------ references

def omega_table(limit: int) -> np.ndarray:
    """Omega(n) for 0 <= n <= limit (entries 0 and 1 are 0), uint8.

    Smallest prime factors below sqrt(limit) fit in uint16; n with none is
    prime. Omega(n) = Omega(n / spf(n)) + 1 is filled in chunks [a, b) with
    b <= 2a, so every n / spf(n) <= n / 2 < a is already known.
    """
    spf = np.zeros(limit + 1, dtype=np.uint16)
    for p in range(2, int(limit ** 0.5) + 1):
        if spf[p] == 0:
            s = spf[p * p::p]
            s[s == 0] = p
    om = np.zeros(limit + 1, dtype=np.uint8)
    a = 2
    while a <= limit:
        b = min(2 * a, a + (1 << 22), limit + 1)
        n = np.arange(a, b, dtype=np.int64)
        sp = spf[a:b].astype(np.int64)
        prime = sp == 0
        sp[prime] = 1
        om[a:b] = np.where(prime, 1, om[n // sp] + 1)
        a = b
    return om


def _value(coeffs, n: int) -> int:
    return sum(c * n ** i for i, c in enumerate(coeffs))


def brute_kfree(factors, k: int, n: int) -> bool:
    """Is every factor's value at n k-free, by sympy.factorint. For pairwise
    coprime values this is k-freeness of the product."""
    return all(max(sympy.factorint(abs(_value(c, n))).values(), default=0) < k
               for c in factors)


def brute_tail_pairs(coeffs, k: int, Y: int, N: int) -> int:
    """#{(n, d) : n <= N, d > Y squarefree, d^k | f(n)}, by factorint."""
    pairs = 0
    for n in range(1, N + 1):
        S = [p for p, e in sympy.factorint(abs(_value(coeffs, n))).items()
             if e >= k]
        for mask in range(1, 1 << len(S)):
            d = 1
            for j, p in enumerate(S):
                if mask >> j & 1:
                    d *= p
            pairs += d > Y
    return pairs


def square_divisible(c: int, N: int) -> np.ndarray:
    """bad[n] for 0 <= n <= N: some p^2 divides n^2 + c (c > 0). That needs
    p^2 <= N^2 + c and n = r mod p^2 for a root r of x^2 + c mod p^2."""
    bad = np.zeros(N + 1, dtype=bool)
    for p in sympy.primerange(2, int((N * N + c) ** 0.5) + 1):
        if p > 2 and pow(-c % p, (p - 1) // 2, p) != 1:
            continue  # -c is no square mod p (p does not divide c here)
        q = p * p
        for r in sympy.sqrt_mod(-c % q, q, all_roots=True):
            bad[r::q] = True
    return bad


def brute_rho(coeffs, m: int) -> int:
    """#{x mod m : f(x) = 0 mod m}, by evaluating every residue."""
    x = np.arange(m, dtype=np.int64)
    acc = np.zeros(m, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return int((acc == 0).sum())


def rho_sample(coeffs, k: int, P: int, rng: random.Random) -> list[str]:
    """The program's local root counts against brute scans.

    rho_f(p) from batch_root_counts, the path density() takes, on 12
    seeded primes <= P (tiny, scan-range and batch-range ones), and
    rho_f(p^k) from local_root_count at seeded primes <= 13.
    """
    import powerfree

    f = powerfree.IntPolynomial(tuple(coeffs))
    primes = list(sympy.primerange(2, P + 1))
    small = [p for p in primes if p <= 13]
    mid = [p for p in primes if 13 < p <= 10 ** 4]
    sample = sorted(rng.sample(small, 2) + rng.sample(mid, 4)
                    + rng.sample(primes[len(small) + len(mid):], 6))
    errors = []
    got = powerfree.batch_root_counts(f, np.array(sample, dtype=np.int64))
    for p, g in zip(sample, got.tolist()):
        want = brute_rho(coeffs, p)
        if g != want:
            errors.append(f"rho({p}) = {g}, brute scan gives {want}")
    for p in rng.sample(small, 2):
        g = powerfree.local_root_count(f, p, k)
        want = brute_rho(coeffs, p ** k)
        if g != want:
            errors.append(f"rho({p}^{k}) = {g}, brute scan gives {want}")
    return errors


X2_1, X2_2 = (1, 0, 1), (2, 0, 1)
QUARTIC = (2, 0, 3, 0, 1)  # (x^2 + 1)(x^2 + 2)
HB17, BROWNING18 = (5, 0, 0, 1), (2, 0, 0, 1)


def references(workload: str, params: dict, seed: int) -> dict:
    rng = random.Random(seed)
    refs: dict = {}
    if workload == "ergodic-wide":
        n0, N = params["cor42_first"], params["thm31_N"]
        om = omega_table(4 * N + 3)
        refs["thm31"] = {}
        for m in (2, 3, 4):
            for r in range(m):
                vals = om[m + r:m * N + r + 1:m]
                refs["thm31"][m, r] = int((vals % m == 0).sum())
        sel = ~(square_divisible(1, n0) | square_divisible(2, n0))[1:]
        liouville = 1 - 2 * (om[1:n0 + 1].astype(np.int64) & 1)
        refs["cor42"] = (int(sel.sum()), int(liouville[sel].sum()))
        # the (n^2+1)(n^2+2) sieve itself, against factorint at seeded n
        refs["cor42_once"] = [
            f"sieve says {bool(sel[n - 1])} at n={n}, factorint disagrees"
            for n in rng.sample(range(1, n0 + 1), 1000)
            if brute_kfree((X2_1, X2_2), 2, n) != sel[n - 1]]
        refs["cor42_once"] += rho_sample(QUARTIC, 2, params["P"], rng)
    elif workload == "cubic-roots":
        n0, s = params["count_first"], params["eftail_first"]
        refs["hb17"] = sum(brute_kfree((HB17,), 2, n)
                           for n in range(1, n0 + 1))
        refs["browning18"] = sum(brute_kfree((BROWNING18,), 3, n)
                                 for n in range(1, n0 + 1))
        refs["eftail"] = brute_tail_pairs(HB17, 2, int(s ** 0.9), s)
        refs["hb17_once"] = rho_sample(HB17, 2, params["P"], rng)
        refs["browning18_once"] = rho_sample(BROWNING18, 3, params["P"], rng)
    elif workload == "quad-decompose":
        N = params["N"]
        refs["decompose"] = N - int(square_divisible(1, N)[1:].sum())
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return refs


# ---------------------------------------------------------------- checks

def _rows(text: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text.decode())))


def _count_checks(name: str, k: int, files: dict, refs: dict,
                  params: dict) -> list[str]:
    meta = json.loads(files[f"{name}.json"])
    d = meta["density"]
    row = meta["results"]["rows"][0]
    errors = list(refs[f"{name}_once"])
    if not d["lower"] <= d["value"] <= d["upper"]:
        errors.append(f"density enclosure {d['lower']} <= {d['value']} "
                      f"<= {d['upper']} fails")
    if (d["k"], d["P"]) != (k, params["P"]):
        errors.append(f"density for k={d['k']}, P={d['P']}")
    if row["N"] != params["count_first"] or row["count"] != refs[name]:
        errors.append(f"count({row['N']}) = {row['count']}, brute count "
                      f"at {params['count_first']} is {refs[name]}")
    if row["target"] != d["value"] * row["N"]:
        errors.append(f"target {row['target']} is not density * N")
    return errors


def check(name: str, files: dict, refs: dict, params: dict) -> list[str]:
    """Failed checks of operation `name` given its artifacts {file: bytes}."""
    if name == "cor42":
        row = json.loads(files["cor42.json"])["results"]["rows"][0]
        n0 = params["cor42_first"]
        selected, liouville_sum = refs["cor42"]
        errors = list(refs["cor42_once"])
        if (row["N"], row["selected"]) != (n0, selected):
            errors.append(f"selected({row['N']}) = {row['selected']}, brute "
                          f"count at {n0} is {selected}")
        if row["average"] != liouville_sum / n0:
            errors.append(f"average({n0}) = {row['average']}, the Liouville "
                          f"sum gives {liouville_sum / n0}")
        return errors
    if name == "thm31":
        rows = json.loads(files["thm31.json"])["results"]["rows"]
        N = params["thm31_N"]
        got = {(r["m"], r["r"]): r for r in rows}
        if set(got) != set(refs["thm31"]):
            return [f"thm31 rows {sorted(got)}"]
        return [f"thm31 (m={m}, r={r}): selected {got[m, r]['selected']}, "
                f"average {got[m, r]['average']}; the Omega sieve gives "
                f"{N}, {c / N}"
                for (m, r), c in refs["thm31"].items()
                if (got[m, r]["selected"], got[m, r]["average"]) != (N, c / N)]
    if name == "hb17":
        return _count_checks("hb17", 2, files, refs, params)
    if name == "browning18":
        return _count_checks("browning18", 3, files, refs, params)
    if name == "eftail":
        row = _rows(files["eftail.csv"])[0]
        s = params["eftail_first"]
        want = (s, int(s ** 0.9), refs["eftail"])
        got = (int(row["N"]), int(row["Y"]), int(row["pairs"]))
        return [] if got == want else [f"eftail (N, Y, pairs) = {got}, "
                                       f"brute enumeration gives {want}"]
    if name == "decompose":
        d = json.loads(files["decompose.json"])
        errors = []
        if d["small_part"] + d["large_part"] != d["total"]:
            errors.append(f"small {d['small_part']} + large {d['large_part']}"
                          f" != total {d['total']}")
        if (d["N"], d["Y"], d["total"]) != (params["N"], params["Y"],
                                            refs["decompose"]):
            errors.append(f"total({d['N']}) = {d['total']}, the n^2+1 sieve "
                          f"gives {refs['decompose']} at {params['N']}")
        return errors
    raise ValueError(f"unknown operation {name!r}")
