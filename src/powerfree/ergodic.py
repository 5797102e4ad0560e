"""Averages of g(T^(Omega(a(n))) x) over sieved index sets.

The pipeline: an argument map a(n) (an arithmetic progression, the
identity being ProgressionMap(1, 0), or a Beatty sequence
floor(alpha n + beta)), a condition selecting which n count (all, k-free
values of a product of polynomials, or twin squarefree pairs), then a
histogram of Omega(a(n)) over the selected n. Any orbit average collapses
to a dot product against that histogram, so convergence studies across
many checkpoints reuse one pass of sieve work.

A condition has selector(N), which makes the set-up for [1, N], so its
errors come before any pass, and returns select(s, e): the flags of the n
in [s, e) as a bool array, or None when every n counts. density(P, N) is
the predicted share of selected n.

The histograms stream: the argument axis is sieved one window of
sieve._WINDOW n at a time, and every map is non-decreasing, so the n whose
arguments fall in a window form one contiguous range. The condition gives
its bits for that range on demand, and windows hand back integer
histograms only, so memory is O(window).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kfree, sieve
from .density import density
from .dynamics import OrbitTable
from .poly import IntPolynomial
from .sieve import _omega_segment, _runs, primes_up_to


# ---------------------------------------------------------------- maps

@dataclass(frozen=True)
class ProgressionMap:
    """n -> m n + r with m >= 1, r >= 0."""

    m: int
    r: int

    def __post_init__(self):
        if self.m < 1 or self.r < 0:
            raise ValueError("m >= 1 and r >= 0 required")

    def map_values(self, n: np.ndarray) -> np.ndarray:
        return self.m * n + self.r

    def max_argument(self, N: int) -> int:
        return self.m * N + self.r

    def first_index(self, A: int) -> int:
        return max(1, -((self.r - A) // self.m))

    def window_index(self, lo: int, hi: int, A: int) -> slice:
        start = self.m * lo + self.r - A
        return slice(start, start + self.m * (hi - lo), self.m)


@dataclass(frozen=True)
class BeattyMap:
    """n -> floor(alpha n + beta), requiring alpha > 0 and alpha + beta >= 1
    so every argument is a positive integer.

    Floats are treated as the exact rationals they are. The fast path
    computes alpha*n + beta in double precision; any value within a few ulp
    of an integer is recomputed in exact Fraction arithmetic, so boundary
    cases floor correctly.
    """

    alpha: float | Fraction
    beta: float | Fraction = 0.0

    def __post_init__(self):
        a = Fraction(self.alpha)
        b = Fraction(self.beta)
        if a <= 0 or a + b < 1:
            raise ValueError("alpha > 0 and alpha + beta >= 1 required")

    def map_values(self, n: np.ndarray) -> np.ndarray:
        a, b = float(self.alpha), float(self.beta)
        t = a * n.astype(np.float64) + b
        out = np.floor(t).astype(np.int64)
        sus = np.nonzero(np.abs(t - np.rint(t)) <= 8.0 * np.spacing(np.abs(t) + 1.0))[0]
        if len(sus):
            ae, be = Fraction(self.alpha), Fraction(self.beta)
            for i in sus.tolist():
                out[i] = math.floor(ae * int(n[i]) + be)
        return out

    def max_argument(self, N: int) -> int:
        return math.floor(Fraction(self.alpha) * N + Fraction(self.beta))

    def first_index(self, A: int) -> int:
        # floor(alpha n + beta) >= A exactly when n >= (A - beta) / alpha
        return max(1, math.ceil((A - Fraction(self.beta))
                                / Fraction(self.alpha)))

    def window_index(self, lo: int, hi: int, A: int) -> np.ndarray:
        return self.map_values(np.arange(lo, hi, dtype=np.int64)) - A


# ---------------------------------------------------------- conditions

class AllIntegers:
    """Every n counts."""

    def selector(self, N: int):
        return lambda s, e: None

    def density(self, P: int, N: int) -> float:
        return 1.0


class ProductKfree:
    """n counts when the product of the factors is k-free at n."""

    def __init__(self, factors, k: int):
        self.factors = tuple(factors)
        self.k = k
        self._expanded = self.factors[0]
        for g in self.factors[1:]:
            self._expanded = self._expanded * g

    def selector(self, N: int):
        sv = kfree.KfreeSieve(self.factors, self.k, N)

        def select(s: int, e: int) -> np.ndarray:
            out = np.empty(e - s, dtype=bool)
            kfree.kfree_range(sv, s, e, out)
            return out
        return select

    def density(self, P: int, N: int) -> float:
        return density(self._expanded, self.k, P).value


class TwinSquarefree:
    """n counts when n and n+1 are both squarefree."""

    def selector(self, N: int):
        primes = primes_up_to(math.isqrt(N + 1))
        return lambda s, e: kfree.twin_squarefree_range(s, e, primes)

    def density(self, P: int, N: int) -> float:
        # n and n + 1 are both squarefree exactly when n(n + 1) is
        return density(IntPolynomial((0, 1, 1)), 2, P).value


# ---------------------------------------------------------- histograms

@dataclass(frozen=True)
class OmegaHistogram:
    """counts[j] = #{selected n <= N : Omega(a(n)) = j}."""

    counts: np.ndarray
    N: int
    selected: int

    @property
    def j_max(self) -> int:
        return len(self.counts) - 1


def default_j_max(max_arg: int) -> int:
    """Omega(m) <= log2(m), so 1 + floor(log2(max arg)) always suffices."""
    return 1 + int(math.log2(max(2, max_arg)))


def _interval_counts(N: int, argmaps, condition, cuts,
                     j_max: int) -> np.ndarray:
    """counts[i, c, j] = #{selected n in (cuts[c], cuts[c + 1]] :
    Omega(argmaps[i](n)) = j}, for ascending cuts from 0 to N.

    One pass over the argument axis [1, max argument] in windows of
    sieve._WINDOW n. A window takes Omega from the window sieve, and each
    map selects and gathers it over the n with a(n) in the window in runs
    of at most _RUN n, so the condition's flags, the gathered Omega and
    np.bincount's intp copy of it stay one run long, whatever the map's
    slope.
    """
    top = max(am.max_argument(N) for am in argmaps)
    primes = primes_up_to(math.isqrt(top))
    select = condition.selector(N)
    width = j_max + 1
    out = np.zeros((len(argmaps), len(cuts) - 1, width), dtype=np.int64)
    window = sieve._WINDOW
    for A in range(1, top + 1, window):
        B = min(A + window, top + 1)
        omega = _omega_segment(A, B, primes)
        for i, am in enumerate(argmaps):
            hi = min(am.first_index(B), N + 1)
            for s, e, parts in _runs(am.first_index(A), hi, cuts):
                om = omega[am.window_index(s, e, A)]
                sel = select(s, e)
                for c, a, b in parts:
                    h = np.bincount(om[a:b] if sel is None
                                    else om[a:b][sel[a:b]], minlength=width)
                    if len(h) > width:
                        raise ValueError(f"j_max={j_max} too small: "
                                         f"saw Omega={len(h) - 1}")
                    out[i, c] += h
    return out


def omega_histograms(N: int, argmaps, condition=None, *,
                     j_max: int | None = None) -> list[OmegaHistogram]:
    """Histograms of Omega(a(n)) over the selected n <= N, one per map a in
    argmaps, from a single sieve pass over the largest argument window.

    All share j_max, by default enough for the largest argument. The
    condition's bits come per map run, so a sieved condition (k-free
    values, a product, twin squarefree) is sieved once per map:
    len(argmaps) passes over [1, N]. No repro experiment combines several
    maps with a sieved condition.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    argmaps = list(argmaps)
    if not argmaps:
        raise ValueError("need at least one argument map")
    condition = condition if condition is not None else AllIntegers()
    if j_max is None:
        j_max = default_j_max(max(am.max_argument(N) for am in argmaps))
    counts = _interval_counts(N, argmaps, condition, [0, N], j_max)
    return [OmegaHistogram(c[0], N, int(c[0].sum())) for c in counts]


def omega_histogram(N: int, condition=None, argmap=None, *,
                    j_max: int | None = None) -> OmegaHistogram:
    """Histogram of Omega over mapped arguments of the selected n <= N."""
    argmap = argmap if argmap is not None else ProgressionMap(1, 0)
    return omega_histograms(N, [argmap], condition, j_max=j_max)[0]


def ergodic_average(hist: OmegaHistogram, orbit: OrbitTable) -> float:
    """(1/N) sum over selected n of g(T^(Omega(a(n))) x), as a dot product."""
    if orbit.j_max < hist.j_max and hist.counts[orbit.j_max + 1:].any():
        raise ValueError("orbit table shorter than observed Omega range")
    j = min(orbit.j_max, hist.j_max) + 1
    return float(np.dot(hist.counts[:j].astype(np.float64), orbit.values[:j])) / hist.N


# -------------------------------------------------------- convergence

@dataclass(frozen=True)
class ReportRow:
    N: int
    selected: int
    average: float
    target: float
    residual: float


def convergence_report(system, observable, x, *, N_values, condition=None,
                       argmap=None, P: int = 10 ** 6) -> list[ReportRow]:
    """Ergodic averages at several N against the predicted limit.

    The limit is (density of the condition) * (space mean of g): the sieve
    controls how often n is selected, the unique ergodicity of the system
    spreads the orbit uniformly. One streamed pass to max(N) serves all
    rows.
    """
    from .dynamics import orbit_table

    condition = condition if condition is not None else AllIntegers()
    argmap = argmap if argmap is not None else ProgressionMap(1, 0)
    Ns = sorted(int(v) for v in N_values)
    if not Ns or Ns[0] < 1:
        raise ValueError("need positive checkpoints")
    # before the pass, so an error fails fast
    dens = condition.density(P, Ns[-1])
    jm = default_j_max(argmap.max_argument(Ns[-1]))
    counts = np.cumsum(_interval_counts(
        Ns[-1], [argmap], condition, [0] + Ns, jm)[0], axis=0)
    orb = orbit_table(system, observable, x, jm)
    target = dens * orb.mean
    rows = []
    for Ni, c in zip(Ns, counts):
        hist = OmegaHistogram(c, Ni, int(c.sum()))
        avg = ergodic_average(hist, orb)
        rows.append(ReportRow(Ni, hist.selected, avg, target, avg - target))
    return rows


def exponent_fit(points) -> float:
    """Least-squares slope of log|err| against log N.

    points: iterable of (N, err). Errors are clamped below at 1 before the
    log so zero rows do not blow up (all-1 errors fit slope 0 as expected);
    the fully degenerate all-zero case returns -inf as a sentinel.
    """
    pts = [(int(n), abs(float(e))) for n, e in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    ns = [p[0] for p in pts]
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError("N values must be strictly increasing")
    if all(e == 0.0 for _, e in pts):
        return -math.inf
    xs = np.log([float(n) for n, _ in pts])
    ys = np.log([max(e, 1.0) for _, e in pts])
    xm, ym = xs.mean(), ys.mean()
    return float(((xs - xm) * (ys - ym)).sum() / ((xs - xm) ** 2).sum())
