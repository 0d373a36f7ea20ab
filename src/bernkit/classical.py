"""Bernoulli and Euler numbers/polynomials, Cauchy numbers of the first
kind, and the harmonic-weighted Stirling transform.

Bernoulli convention is fixed at B_1 = -1/2 throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fps import Egf
from .seqcore import (binom, binom_int, factorial, harmonic, memo,
                      next_stirling1_row, stirling2, stirling2_transform)


_BERN: list[Fraction] = memo([Fraction(1)])
# Brent & Harvey's TangentNumbers recurrence (arXiv:1108.0286), one column at
# a time: _TAN[i] is t_j after pass i + 1 for j = len(_TAN), so _TAN[-1] is
# the tangent number T_j, and len(_TAN) == (len(_BERN) - 1) // 2.
_TAN: list[int] = memo([])
_EULER2: list[int] = memo([1])  # e_n = 2^n E_n(0), an integer
_EULER_POLYS: list[Egf] = memo([Egf([1])])
_CAUCHY1: list[Fraction] = memo([Fraction(1)])
_CAUCHY1_ROW: list[int] = memo([1])  # [k,j] for k = len(_CAUCHY1) - 1


def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, from the integer tangent numbers:
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), and B_n = 0 at odd n > 1.
    Each new B_2k costs O(k) integer operations and no division."""
    if n < 0:
        raise ValueError("bernoulli requires n >= 0")
    while len(_BERN) <= n:
        m = len(_BERN)
        if m % 2:
            _BERN.append(Fraction(-1, 2) if m == 1 else Fraction(0))
            continue
        # passes 1..j-1 carry column j-1 to column j; pass j doubles
        j, v = m // 2, 0
        for i in range(j - 1):
            v = _TAN[i] = (j - 1 - i) * _TAN[i] + (j + 1 - i) * v
        _TAN.append(2 * v if _TAN else 1)
        four_j = 1 << m
        _BERN.append(Fraction((-1) ** (j - 1) * m * _TAN[-1],
                              four_j * (four_j - 1)))
    return _BERN[n]


def bernoulli_sum(n: int) -> Fraction:
    """sum_{j<=n} B_j."""
    return sum((bernoulli(j) for j in range(n + 1)), Fraction(0))


def bernoulli_reciprocal_sum(n: int) -> Fraction:
    """sum_{j<=n} B_j / (n - j + 1)."""
    return sum((bernoulli(j) / (n - j + 1) for j in range(n + 1)), Fraction(0))


def worpitzky_bernoulli(n: int) -> Fraction:
    """B_n from the alternating Stirling sum sum_k (-1)^k {n,k} k!/(k+1)."""
    if n < 1:
        raise ValueError("worpitzky_bernoulli requires n >= 1")
    return stirling2_transform(
        n, lambda k: (-1) ** k * Fraction(factorial(k), k + 1))


def bernoulli_poly(n: int) -> Egf:
    """B_n(x) = sum_j C(n,j) B_j x^(n-j), as an Egf of order n."""
    if n < 0:
        raise ValueError("bernoulli_poly requires n >= 0")
    return Egf([binom_int(n, i) * bernoulli(n - i) for i in range(n + 1)])


def bernoulli_poly_at(n: int, x) -> Fraction:
    return bernoulli_poly(n)(x)


def euler_poly(n: int) -> Egf:
    """E_n(x) by the recurrence E_n(x) = x^n - (1/2) sum_{j<n} C(n,j) E_j(x),
    as an Egf of order n."""
    if n < 0:
        raise ValueError("euler_poly requires n >= 0")
    while len(_EULER_POLYS) <= n:
        m = len(_EULER_POLYS)
        acc = [Fraction(0)] * m
        for j, e in enumerate(_EULER_POLYS):
            c = binom_int(m, j)
            for i, a in enumerate(e.coeffs):
                if a:
                    acc[i] += c * a
        _EULER_POLYS.append(Egf([-a / 2 for a in acc] + [1]))
    return _EULER_POLYS[n]


def euler_number(n: int) -> Fraction:
    """E_n = E_n(0), from the integers e_n = 2^n E_n(0): e_0 = 1 and
    e_n = -sum_{j<n} C(n,j) 2^(n-1-j) e_j, which is the x = 0 value of the
    Euler polynomial recurrence scaled by 2^n. O(n) integer operations per
    new n, independent of euler_poly."""
    if n < 0:
        raise ValueError("euler_number requires n >= 0")
    while len(_EULER2) <= n:
        m = len(_EULER2)
        s, c = 0, 1  # c = C(m, j)
        for j, e in enumerate(_EULER2):
            if e:
                s += (c * e) << (m - 1 - j)
            c = c * (m - j) // (j + 1)
        _EULER2.append(-s)
    return Fraction(_EULER2[n], 1 << n)


def euler_at_one(n: int) -> Fraction:
    return euler_poly(n)(1)


def cauchy1(k: int) -> Fraction:
    """Cauchy number of the first kind via the signed Stirling sum
    c_k = sum_{j<=k} (-1)^(k-j) [k,j] / (j+1) over one working row of [k,j],
    summed in integers over lcm(1..k+1) and memoised."""
    if k < 0:
        raise ValueError("cauchy1 requires k >= 0")
    while len(_CAUCHY1) <= k:
        m = len(_CAUCHY1)
        _CAUCHY1_ROW[:] = next_stirling1_row(_CAUCHY1_ROW)
        d = math.lcm(*range(2, m + 2))
        _CAUCHY1.append(Fraction(
            sum((-1) ** (m - j) * s * (d // (j + 1))
                for j, s in enumerate(_CAUCHY1_ROW)), d))
    return _CAUCHY1[k]


def cauchy1_integral(k: int) -> Fraction:
    """Oracle route: k! times the integral of binom(x,k) over [0,1]. The
    integer coefficients of x(x-1)...(x-k+1) are multiplied out one linear
    factor at a time, independently of the Stirling step cauchy1 reads."""
    if k < 0:
        raise ValueError("cauchy1_integral requires k >= 0")
    coeffs = [1]
    for i in range(k):
        coeffs = [a - i * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return sum((Fraction(c, j + 1) for j, c in enumerate(coeffs)), Fraction(0))


def hw(n: int, x) -> Fraction:
    """Harmonic-weighted Stirling transform sum_k {n,k} binom(x,k) k! H_k.

    With x = a/b, k! b^k binom(x,k) and lcm(1..n) H_k (k <= n) are
    integers, so the sum is taken in integers over b^n lcm(1..n) and
    normalised once."""
    if n < 1:
        raise ValueError("hw requires n >= 1")
    x = Fraction(x)
    b = x.denominator
    d = math.lcm(*range(1, n + 1))
    total, b_k = 0, 1  # b_k = b^k
    for k in range(1, n + 1):
        b_k *= b
        c, h = binom(x, k), harmonic(k)
        total += (stirling2(n, k) * c.numerator
                  * (factorial(k) * b_k // c.denominator) * b ** (n - k)
                  * h.numerator * (d // h.denominator))
    return Fraction(total, b**n * d)
