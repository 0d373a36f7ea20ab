"""Bernoulli numbers and polynomials, Euler numbers E_n = E_n(0), Cauchy
numbers of the first kind, and the harmonic-weighted Stirling transform.

Bernoulli convention is fixed at B_1 = -1/2 throughout. The Euler
polynomials have one route, the series 2e^{xt}/(e^t+1) in `fps`
(`named_series("euler-poly-egf", n, x=x)`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import seqcore
from .fps import Egf
from .seqcore import (binom, binom_int, factorial, memo, ratsum, stirling2,
                      stirling2_transform)


_BERN: list[Fraction] = memo([Fraction(1)])
# Brent & Harvey's TangentNumbers recurrence (arXiv:1108.0286), one column at
# a time: _TAN[i] is t_j after pass i + 1 for j = len(_TAN), so _TAN[-1] is
# the tangent number T_j, and len(_TAN) == (len(_BERN) - 1) // 2.
_TAN: list[int] = memo([])
_BERN_SUM: list[Fraction] = memo([Fraction(1)])  # sum_{j<=n} B_j
_BERN_RECIP: dict[int, Fraction] = memo({})  # n -> sum_{j<=n} B_j/(n-j+1)
_EULER2: list[int] = memo([1])  # e_n = 2^n E_n(0), an integer
_EULER_SUM: list[int] = memo([1])  # sum_{j<=n} e_j 2^(n-j) = 2^n sum E_j(0)
_CAUCHY1: list[Fraction] = memo([Fraction(1)])
# T_j = L [k,j] / (j+1) for k = len(_CAUCHY1) - 1 and L = lcm(1..k+1), an
# integer since j + 1 divides L; the last entry is T_k = L / (k+1)
_CAUCHY1_ROW: list[int] = memo([1])
# x = a/b -> [F_0, F_1, ...], F_k = k! b^k binom(x,k) = prod_{i<k} (a - i b)
_HW_FALLING: dict[Fraction, list[int]] = memo({})


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
    """sum_{j<=n} B_j (0 for n < 0), read off a memoised running prefix:
    each new n costs one exact Fraction addition."""
    if n < 0:
        return Fraction(0)
    bernoulli(n)
    while len(_BERN_SUM) <= n:
        _BERN_SUM.append(_BERN_SUM[-1] + _BERN[len(_BERN_SUM)])
    return _BERN_SUM[n]


def bernoulli_reciprocal_sum(n: int) -> Fraction:
    """sum_{j<=n} B_j / (n - j + 1) over the nonzero B_j, one `ratsum`,
    memoised per n (0 for n < 0)."""
    if n < 0:
        return Fraction(0)
    if n not in _BERN_RECIP:
        bernoulli(n)
        _BERN_RECIP[n] = ratsum((b.numerator, b.denominator * (n - j + 1))
                                for j, b in enumerate(_BERN[:n + 1]) if b)
    return _BERN_RECIP[n]


def _worpitzky_weight(k: int) -> Fraction:
    return (-1) ** k * Fraction(factorial(k), k + 1)


def worpitzky_bernoulli(n: int) -> Fraction:
    """B_n from the alternating Stirling sum sum_k (-1)^k {n,k} k!/(k+1)."""
    if n < 1:
        raise ValueError("worpitzky_bernoulli requires n >= 1")
    return stirling2_transform(n, _worpitzky_weight)


def bernoulli_poly(n: int) -> Egf:
    """B_n(x) = sum_j C(n,j) B_j x^(n-j), as an Egf of order n."""
    if n < 0:
        raise ValueError("bernoulli_poly requires n >= 0")
    return Egf([binom_int(n, i) * bernoulli(n - i) for i in range(n + 1)])


def bernoulli_poly_at(n: int, x) -> Fraction:
    return bernoulli_poly(n)(x)


def euler_number(n: int) -> Fraction:
    """E_n = E_n(0), from the integers e_n = 2^n E_n(0): e_0 = 1 and
    e_n = -sum_{j<n} C(n,j) 2^(n-1-j) e_j, which is the recurrence
    E_n(x) = x^n - (1/2) sum_{j<n} C(n,j) E_j(x) at x = 0, scaled by 2^n.
    O(n) integer operations per new n. It shares no code with the series
    route named_series("euler-poly-egf", n, x=0), which checks it."""
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


def euler_sum(n: int) -> Fraction:
    """sum_{j<=n} E_j(0) = S_n / 2^n, with the integers
    S_n = sum_{j<=n} e_j 2^(n-j) kept as the running S_n = 2 S_(n-1) + e_n
    over euler_number's table of e_j = 2^j E_j(0)."""
    if n < 0:
        raise ValueError("euler_sum requires n >= 0")
    euler_number(n)
    while len(_EULER_SUM) <= n:
        _EULER_SUM.append(2 * _EULER_SUM[-1] + _EULER2[len(_EULER_SUM)])
    return Fraction(_EULER_SUM[n], 1 << n)


def cauchy1(k: int) -> Fraction:
    """Cauchy number of the first kind via the signed Stirling sum
    c_k = sum_{j<=k} (-1)^(k-j) [k,j] / (j+1), memoised.

    One scaled working row T_j = L [m,j] / (j+1), with L = lcm(1..m+1), is
    carried from m - 1 to m by the first-kind step
    [m,j] = (m-1) [m-1,j] + [m-1,j-1], which becomes
    T_j <- (m-1) T_j + j T_(j-1) / (j+1), an exact division since j + 1
    divides L. When m + 1 is a power of the prime q, L grows by q and the
    row is multiplied by q first. Then c_m = sum_j (-1)^(m-j) T_j / L:
    small-integer products and exact divisions only, and one Fraction per
    new m (Merlini, Sprugnoli & Verri, "The Cauchy numbers", Discrete
    Math. 306, 2006)."""
    if k < 0:
        raise ValueError("cauchy1 requires k >= 0")
    while len(_CAUCHY1) <= k:
        m, row = len(_CAUCHY1), _CAUCHY1_ROW
        q = (m + 1) // math.gcd(m * row[-1], m + 1)  # m * T_(m-1) = old L
        if q > 1:
            row = [q * t for t in row]
        row = [(m - 1) * a + j * b // (j + 1)
               for j, (a, b) in enumerate(zip(row + [0], [0] + row))]
        _CAUCHY1_ROW[:] = row
        total = sum(row[m::-2]) - sum(row[m - 1::-2])
        _CAUCHY1.append(Fraction(total, (m + 1) * row[-1]))
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

    With x = a/b, F_k = k! b^k binom(x,k) = prod_{i<k} (a - i b) and
    d H_k, d = lcm(1..n), are integers. The F_k are kept per x and grow by
    appending, each new one read once from binom(x, k); d H_k is carried
    as the running sum of d // k. Row n of S2 is read once per call, after
    one stirling2 call fills the triangle to it. The sum over b^n d is one
    Horner pass in b, total <- total b + {n,k} F_k d H_k, normalised
    once."""
    if n < 1:
        raise ValueError("hw requires n >= 1")
    x = Fraction(x)
    b = x.denominator
    falling = _HW_FALLING.setdefault(x, [1])
    while len(falling) <= n:
        k = len(falling)
        c = binom(x, k)
        falling.append(c.numerator * (factorial(k) * b**k // c.denominator))
    stirling2(n, 0)  # fills the S2 triangle to row n
    row = seqcore._S2[n]
    d = math.lcm(*range(1, n + 1))
    total = dh = 0  # dh = d H_k
    for k in range(1, n + 1):
        dh += d // k
        total = total * b + row[k] * falling[k] * dh
    return Fraction(total, b**n * d)
