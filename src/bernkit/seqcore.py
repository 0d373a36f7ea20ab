"""Exact base sequences: Stirling numbers of both kinds, harmonic numbers,
factorials and binomial coefficients.

All rational values are `fractions.Fraction` instances in lowest terms.
Tables are filled row by row on demand and entries are write-once, so
repeated queries are cheap and results never change.
"""

from __future__ import annotations

import math
from fractions import Fraction


class StirlingTables:
    """Memoized triangles for Stirling numbers of both kinds.

    ``s2[n][k]`` holds the number of partitions of an n-set into k blocks,
    ``s1[n][k]`` the unsigned count of n-permutations with k cycles
    (coefficient of x^k in the rising factorial x(x+1)...(x+n-1)).
    A table instance is intended to be confined to one thread; the
    module-level default is enough for typical use.
    """

    def __init__(self) -> None:
        self._s2: list[list[int]] = [[1]]
        self._s1: list[list[int]] = [[1]]
        self._fact: list[int] = [1]

    def _grow(self, n: int) -> None:
        while len(self._s2) <= n:
            m = len(self._s2)
            prev2 = self._s2[m - 1]
            prev1 = self._s1[m - 1]
            row2 = [0] * (m + 1)
            row1 = [0] * (m + 1)
            for k in range(1, m + 1):
                row2[k] = k * (prev2[k] if k < m else 0) + prev2[k - 1]
                row1[k] = (m - 1) * (prev1[k] if k < m else 0) + prev1[k - 1]
            self._s2.append(row2)
            self._s1.append(row1)

    def stirling2(self, n: int, k: int) -> int:
        if n < 0 or k < 0:
            raise ValueError("stirling2 requires n, k >= 0")
        if k > n:
            return 0
        self._grow(n)
        return self._s2[n][k]

    def stirling1(self, n: int, k: int) -> int:
        if n < 0 or k < 0:
            raise ValueError("stirling1 requires n, k >= 0")
        if k > n:
            return 0
        self._grow(n)
        return self._s1[n][k]

    def factorial(self, n: int) -> int:
        if n < 0:
            raise ValueError("factorial requires n >= 0")
        while len(self._fact) <= n:
            self._fact.append(self._fact[-1] * len(self._fact))
        return self._fact[n]


class HarmonicCache:
    """Partial sums H_n = sum 1/i and H_n^(m) = sum 1/i^m, memoized."""

    def __init__(self) -> None:
        self._h: list[Fraction] = [Fraction(0)]
        self._hm: dict[int, list[Fraction]] = {}  # m -> [H_0^(m), H_1^(m), ...]

    def harmonic(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("harmonic requires n >= 0")
        while len(self._h) <= n:
            i = len(self._h)
            self._h.append(self._h[-1] + Fraction(1, i))
        return self._h[n]

    def harmonic_gen(self, n: int, m: int) -> Fraction:
        if n < 0 or m < 1:
            raise ValueError("harmonic_gen requires n >= 0 and m >= 1")
        if m == 1:
            return self.harmonic(n)
        h = self._hm.setdefault(m, [Fraction(0)])
        while len(h) <= n:
            i = len(h)
            h.append(h[-1] + Fraction(1, i**m))
        return h[n]


_TABLES = StirlingTables()
_HARMONIC = HarmonicCache()


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind {n,k}; 0 when k > n."""
    return _TABLES.stirling2(n, k)


def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind [n,k]; 0 when k > n."""
    return _TABLES.stirling1(n, k)


def factorial(n: int) -> int:
    return _TABLES.factorial(n)


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0."""
    return _HARMONIC.harmonic(n)


def harmonic_gen(n: int, m: int) -> Fraction:
    """Generalized harmonic number H_n^(m) = sum_{i=1..n} 1/i^m."""
    return _HARMONIC.harmonic_gen(n, m)


def binom(x: Fraction | int, k: int) -> Fraction:
    """Binomial coefficient x(x-1)...(x-k+1)/k! for rational x.

    With x = a/b this is prod_{i<k} (a - i*b) / (b^k k!): the numerator is one
    integer product, so the Fraction is normalised once."""
    if k < 0:
        raise ValueError("binom requires k >= 0")
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    num = 1
    for i in range(k):
        num *= a - i * b
    return Fraction(num, b**k * factorial(k))


def binom_int(n: int, k: int) -> int:
    """Integer binomial coefficient, defined for negative n as well."""
    if k < 0:
        raise ValueError("binom_int requires k >= 0")
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)
