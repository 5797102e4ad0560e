"""Uniquely ergodic model systems and precomputed orbit tables.

The averages in this package evaluate an observable g along the orbit of a
point x under iterates T^j with j = Omega(m) for m running over a sieved
set. Since Omega stays below log2 of the largest argument, only a short
orbit prefix is ever needed; orbit_table materializes it once.

Systems: the two-point swap, rotation on m points, and the irrational
circle rotation (closed-form angles, so the J-th iterate carries no
accumulated rounding).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

J_MAX_CAP = 128
GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi, badly approximable


@dataclass(frozen=True)
class TwoPointSwap:
    """T(x) = 1 - x on {0, 1}; unique invariant measure is fair coin."""

    states: int = 2


@dataclass(frozen=True)
class CyclicRotation:
    """T(x) = x + 1 mod m on {0, ..., m-1}; uniform measure."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m >= 1 required")


@dataclass(frozen=True)
class IrrationalRotation:
    """T(x) = x + alpha mod 1 on [0, 1); alpha must be irrational for
    unique ergodicity (callers pass e.g. GOLDEN_ROTATION; a float is of
    course rational, the model is the rotation it approximates)."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha in (0, 1) required")


@dataclass(frozen=True)
class PairObservable:
    """g on {0, 1} given by two values."""

    g0: float
    g1: float

    @property
    def mean(self) -> float:
        return 0.5 * (self.g0 + self.g1)

    def value_at(self, x: int) -> float:
        return self.g1 if x else self.g0


@dataclass(frozen=True)
class VectorObservable:
    """g on {0, ..., m-1} given by a value vector."""

    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        return math.fsum(self.values) / len(self.values)

    def value_at(self, x: int) -> float:
        return self.values[x % len(self.values)]


@dataclass(frozen=True)
class TrigObservable:
    """Finite trigonometric polynomial c + sum a_h cos(2 pi h x) + sum
    b_h sin(2 pi h x); its mean over the circle is c exactly."""

    constant: float = 0.0
    cos_terms: tuple[tuple[int, float], ...] = ()
    sin_terms: tuple[tuple[int, float], ...] = ()

    @property
    def mean(self) -> float:
        return self.constant

    def value_at(self, x: float) -> float:
        out = self.constant
        for h, a in self.cos_terms:
            out += a * math.cos(2.0 * math.pi * h * x)
        for h, b in self.sin_terms:
            out += b * math.sin(2.0 * math.pi * h * x)
        return out


@dataclass(frozen=True)
class OrbitTable:
    """values[j] = g(T^j x) for j = 0..j_max, plus the space mean of g."""

    values: np.ndarray
    mean: float
    j_max: int

    def __post_init__(self):
        if len(self.values) != self.j_max + 1:
            raise ValueError("values length must be j_max + 1")


def orbit_table(system, observable, x, j_max: int) -> OrbitTable:
    """Tabulate g(T^j x) for j <= j_max.

    For the circle rotation the angle x + j*alpha is evaluated in closed
    form per j (one rounding each, no drift).
    """
    if not 0 <= j_max <= J_MAX_CAP:
        raise ValueError(f"j_max in [0, {J_MAX_CAP}] required")
    js = np.arange(j_max + 1)
    if isinstance(system, TwoPointSwap):
        if not isinstance(observable, PairObservable):
            raise TypeError("TwoPointSwap pairs with PairObservable")
        if x not in (0, 1):
            raise ValueError("x must be 0 or 1")
        vals = np.where((js + x) % 2 == 1, observable.g1, observable.g0)
        return OrbitTable(vals.astype(np.float64), observable.mean, j_max)
    if isinstance(system, CyclicRotation):
        if not isinstance(observable, VectorObservable):
            raise TypeError("CyclicRotation pairs with VectorObservable")
        if len(observable.values) != system.m:
            raise ValueError("observable length must equal m")
        if not (isinstance(x, (int, np.integer)) and 0 <= x < system.m):
            raise ValueError("x must be an integer state in [0, m)")
        vv = np.asarray(observable.values, dtype=np.float64)
        return OrbitTable(vv[(js + x) % system.m], observable.mean, j_max)
    if isinstance(system, IrrationalRotation):
        if not isinstance(observable, TrigObservable):
            raise TypeError("IrrationalRotation pairs with TrigObservable")
        if not 0.0 <= x < 1.0:
            raise ValueError("x in [0, 1) required")
        vals = np.empty(j_max + 1, dtype=np.float64)
        for j in range(j_max + 1):
            ang = math.fmod(x + j * system.alpha, 1.0)
            vals[j] = observable.value_at(ang)
        return OrbitTable(vals, observable.mean, j_max)
    raise TypeError(f"unknown system {system!r}")
