"""Exact integer polynomials and the profile data the sieves need.

Coefficients are ascending (coeffs[i] multiplies x^i) and arbitrary
precision throughout; nothing here rounds. The profile of a polynomial
collects what the rest of the package keys on: whether f has a repeated
factor (resultant of f and f' vanishes), the primes where reduction mod p
is singular, the fixed divisor gcd(f(0), ..., f(d)), and an irreducibility
tier that is advisory only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import modpoly
from .factorint import factorize, prime_factors

_INT64_MAX = (1 << 63) - 1
_HORNER_CHUNK = 1 << 14


@dataclass(frozen=True)
class IntPolynomial:
    """Nonzero polynomial with integer coefficients, ascending order."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] == 0:
            raise ValueError("zero polynomial or unstripped leading zeros")
        if any(not isinstance(c, int) for c in self.coeffs):
            raise TypeError("coefficients must be ints")

    @classmethod
    def from_coeffs(cls, seq) -> "IntPolynomial":
        cs = [int(c) for c in seq]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise ValueError("zero polynomial is not supported")
        return cls(tuple(cs))

    @classmethod
    def parse(cls, text: str) -> "IntPolynomial":
        """Parse ascending comma-separated coefficients, e.g. "1,0,1".

        Constant polynomials are rejected here: the sieves and densities all
        need degree >= 1, and a bare constant in a CLI flag is almost always
        a typo.
        """
        try:
            parts = [int(t.strip()) for t in text.split(",")]
        except ValueError as e:
            raise ValueError(f"bad polynomial text {text!r}: {e}") from None
        f = cls.from_coeffs(parts)
        if f.degree == 0:
            raise ValueError(f"polynomial {text!r} has degree 0")
        return f

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def content(self) -> int:
        return math.gcd(*self.coeffs) if len(self.coeffs) > 1 else abs(self.coeffs[0])

    def __call__(self, n: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial.from_coeffs(out)

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            raise ValueError("derivative of a constant is the zero polynomial")
        return IntPolynomial.from_coeffs(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


def coefficient_bound(f: IntPolynomial, m: int) -> int:
    """An upper bound for |f(n)| over |n| <= m (sum of |c_i| m^i)."""
    m = max(1, abs(int(m)))
    return sum(abs(c) * m ** i for i, c in enumerate(f.coeffs))


def max_abs_value(f: IntPolynomial, N: int) -> int:
    """Exact max of |f(n)| over integers 1 <= n <= N.

    Between real critical points |f| is monotone, so the integer max sits at
    an endpoint or next to a critical point; candidates come from the float
    roots of f' with a +-2 safety window, then get evaluated exactly.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    cands = {1, N}
    if f.degree >= 2:
        der = f.derivative()
        rts = np.roots([float(c) for c in reversed(der.coeffs)])
        for z in rts:
            if abs(z.imag) <= 1e-6 * (1.0 + abs(z.real)):
                base = math.floor(z.real)
                for t in range(base - 2, base + 3):
                    if 1 <= t <= N:
                        cands.add(t)
    return max(abs(f(t)) for t in cands)


def evaluate_range(f: IntPolynomial, start: int, stop: int) -> np.ndarray:
    """f(n) for n in [start, stop): int64 when a coefficient bound certifies
    no overflow, else an exact object array. Only the int64 result spans
    the range: its Horner steps run in chunks of _HORNER_CHUNK n."""
    if stop <= start:
        return np.zeros(0, dtype=np.int64)
    m = max(abs(start), abs(stop - 1))
    if coefficient_bound(f, m) <= _INT64_MAX:
        acc = np.empty(stop - start, dtype=np.int64)
        for s in range(start, stop, _HORNER_CHUNK):
            n = np.arange(s, min(s + _HORNER_CHUNK, stop), dtype=np.int64)
            out = acc[s - start:s - start + len(n)]
            out[:] = f.coeffs[-1]
            for c in reversed(f.coeffs[:-1]):
                out *= n
                out += c
        return acc
    n = np.arange(start, stop, dtype=object)
    acc = np.full(stop - start, f.coeffs[-1], dtype=object)
    for c in reversed(f.coeffs[:-1]):
        acc = acc * n + c
    return acc


def fixed_divisor(f: IntPolynomial) -> int:
    """gcd(f(0), f(1), ..., f(d)): divides f(n) for every integer n, and by
    the finite-difference argument equals the gcd over all of them."""
    g = 0
    for t in range(f.degree + 1):
        g = math.gcd(g, f(t))
        if g == 1:
            return 1
    return g


def has_fixed_kth_power(f: IntPolynomial, k: int) -> int | None:
    """Smallest prime p with p^k dividing the fixed divisor, or None."""
    if k < 1:
        raise ValueError("k >= 1 required")
    g = fixed_divisor(f)
    if g <= 1:
        return None
    for p, e in sorted(factorize(g).items()):
        if e >= k:
            return p
    return None


def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Res(f, g), exact: the determinant of the Sylvester matrix, by
    fraction-free Gaussian elimination with row swaps (Bareiss, Math. Comp.
    22, 1968).

    Standard sign convention: Res(f, g) = lc(f)^deg(g) * prod g(alpha) over
    the roots alpha of f (with multiplicity). Each step keeps only the
    block below and right of its pivot. By Sylvester's identity every entry
    of that block is a minor of the row-permuted matrix, so each division
    by the previous pivot is exact and no fraction is ever formed.
    """
    m, n = f.degree, g.degree
    if m + n == 0:
        return 1
    a, b = list(f.coeffs[::-1]), list(g.coeffs[::-1])
    M = ([[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
         + [[0] * i + b + [0] * (m - 1 - i) for i in range(m)])
    sign, prev = 1, 1
    while len(M) > 1:
        piv = next((i for i, row in enumerate(M) if row[0]), None)
        if piv is None:
            return 0
        if piv:
            M[0], M[piv] = M[piv], M[0]
            sign = -sign
        top = M[0]
        M = [[(top[0] * x - row[0] * y) // prev
              for x, y in zip(row[1:], top[1:])] for row in M[1:]]
        prev = top[0]
    return sign * M[0][0]


def resultant_with_derivative(f: IntPolynomial) -> int:
    """Res(f, f'); zero exactly when f has a repeated factor."""
    if f.degree == 0:
        raise ValueError("degree >= 1 required")
    return resultant(f, f.derivative())


def rational_roots(f: IntPolynomial) -> list[Fraction]:
    """All rational roots, in lowest terms, by the rational root theorem
    with exact integer verification."""
    cs = f.coeffs
    roots: list[Fraction] = []
    low = 0
    while cs[low] == 0:
        low += 1
    if low > 0:
        roots.append(Fraction(0))
    a0 = abs(cs[low])
    ad = abs(cs[-1])
    d = f.degree

    def divisors(n: int) -> list[int]:
        ds = [1]
        for p, e in factorize(n).items():
            ds = [x * p ** j for x in ds for j in range(e + 1)]
        return ds

    for num in divisors(a0):
        for den in divisors(ad):
            if math.gcd(num, den) != 1:
                continue
            for s in (1, -1):
                # f(s*num/den) = 0 iff sum c_i (s num)^i den^(d-i) = 0
                tot = sum(c * (s * num) ** i * den ** (d - i) for i, c in enumerate(cs))
                if tot == 0:
                    roots.append(Fraction(s * num, den))
    return sorted(set(roots))


_IRRED_PRIME_SCAN = 100


def irreducibility_check(f: IntPolynomial) -> str:
    """Advisory tier: "proved", "refuted", or "unverified".

    Degree 1 is proved. Degrees 2 and 3 are irreducible over Q exactly when
    they have no rational root; for degree 2 that is a discriminant which is
    no perfect square, so nothing is factored. For degree >= 4 a repeated
    factor or a rational root refutes; otherwise the check looks for a
    prime p < 100, nonsingular for f (not dividing Res(f, f') * lc(f)), with
    f mod p irreducible (no factor of degree <= d/2, detected through
    gcd(x^(p^i) - x, f) being trivial for i <= d/2), which proves
    irreducibility of the primitive part; failing all that the answer is
    "unverified". The rational-root test is only a shortcut: when lc(f) or
    the lowest nonzero coefficient cannot be factored, a cubic goes to the
    scan too. Reducible polynomials without rational roots, e.g. products
    of two irreducible quadratics, land in "unverified".
    """
    if f.degree == 0:
        raise ValueError("degree >= 1 required")
    pp = f  # irreducibility over Q ignores content
    if pp.content > 1:
        pp = IntPolynomial.from_coeffs([c // pp.content for c in pp.coeffs])
    d = pp.degree
    if d == 1:
        return "proved"
    prof = profile(pp)
    if not prof.is_squarefree_poly:
        return "refuted"
    if d == 2:
        c, b, a = pp.coeffs
        disc = b * b - 4 * a * c
        return "refuted" if disc >= 0 and math.isqrt(disc) ** 2 == disc else "proved"
    try:
        roots = rational_roots(pp)
    except ValueError:  # a factor past factorint's range: the scan decides
        roots = None
    if roots:
        return "refuted"
    if d == 3 and roots is not None:
        return "proved"
    bad = prof.resultant_with_derivative * prof.leading
    from .sieve import primes_up_to  # local import avoids a cycle at load

    for p in primes_up_to(_IRRED_PRIME_SCAN).tolist():
        if bad % p and modpoly.irreducible_mod_p(pp.coeffs, p):
            return "proved"
    return "unverified"


@dataclass(frozen=True)
class PolyProfile:
    """Hypothesis data for one polynomial, computed once and cached.

    bad_primes and irreducibility factor integers that grow with the
    coefficients (the discriminant, lc and f(0)), so each is computed on
    first use only. The sieve reads just is_squarefree_poly; density, rho
    and the hypothesis reports read the rest, and there a discriminant too
    large to factor stays an error.
    """

    poly: IntPolynomial
    degree: int
    leading: int
    content: int
    fixed_divisor: int
    resultant_with_derivative: int
    is_squarefree_poly: bool

    @cached_property
    def bad_primes(self) -> tuple[int, ...] | None:
        """Primes dividing Res(f, f') * lc(f); None when not squarefree."""
        if not self.is_squarefree_poly:
            return None
        return prime_factors(abs(self.resultant_with_derivative * self.leading))

    @cached_property
    def irreducibility(self) -> str:
        return irreducibility_check(self.poly)


@lru_cache(maxsize=256)
def profile(f: IntPolynomial) -> PolyProfile:
    res = resultant_with_derivative(f)
    return PolyProfile(
        poly=f,
        degree=f.degree,
        leading=f.leading,
        content=f.content,
        fixed_divisor=fixed_divisor(f),
        resultant_with_derivative=res,
        is_squarefree_poly=res != 0,
    )


def parse_poly_or_product(text: str) -> tuple[IntPolynomial, ...]:
    """Parse "1,0,1" as one factor or "1,0,1*2,0,1" as a factored product."""
    return tuple(IntPolynomial.parse(part) for part in text.split("*"))
