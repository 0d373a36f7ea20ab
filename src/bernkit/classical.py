"""Bernoulli numbers and polynomials, Euler numbers E_n = E_n(0), Cauchy
numbers of the first kind, and the harmonic-weighted Stirling transform.

Bernoulli convention is fixed at B_1 = -1/2 throughout. The Euler
polynomials have one route, the series 2e^{xt}/(e^t+1) in `fps`
(`named_series("euler-poly-egf", n, x=x)`). B_n and E_n come by additions
only, off one working row each of two Seidel triangles that share no code:
the Genocchi triangle, `_GENOCCHI`, and the boustrophedon, `_SEIDEL`. Each
checks the other's tangent numbers. The Cauchy numbers c_k = int_0^1 (x)_k
dx step one anti-diagonal of the moments int_0^1 x^r (x)_m dx, by
small-integer products and additions, and read no Stirling triangle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from . import seqcore
from .fps import Egf
from .seqcore import (binom, binom_int, factorial, memo, ratsum,
                      stirling2_transform)


_BERN: list[Fraction] = memo([Fraction(1)])
# a row of Seidel's Genocchi triangle, right to left after a 0 sentinel:
# _GENOCCHI[1] = |G_2j| for j = (len(_BERN) + 1) // 2 = len(_GENOCCHI) - 1
_GENOCCHI: list[int] = memo([0, 1])
_BERN_SUM: list[Fraction] = memo([Fraction(1)])  # sum_{j<=n} B_j
_BERN_RECIP: dict[int, Fraction] = memo({})  # n -> sum_{j<=n} B_j/(n-j+1)
_EULER2: list[int] = memo([1])  # e_n = 2^n E_n(0), an integer
# row len(_EULER2) - 1 of the Seidel-Entringer-Arnold triangle, whose last
# entry is the zigzag number A_n
_SEIDEL: list[int] = memo([1])
_EULER_SUM: list[int] = memo([1])  # sum_{j<=n} e_j 2^(n-j) = 2^n sum E_j(0)
_CAUCHY1: list[Fraction] = memo([Fraction(1)])
# the anti-diagonal D_m = L I_(k-m)(m), m = 0..k, of the moments
# I_r(m) = int_0^1 x^r (x)_m dx, for k = len(_CAUCHY1) - 1 and
# L = lcm(1..k+1): integers, since I_r(m) is a sum of integers over j + r + 1
# <= k + 1. The first entry is D_0 = L / (k+1), the last D_k = L c_k
_CAUCHY1_ROW: list[int] = memo([1])


def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, and B_n = 0 at odd n > 1, from the Genocchi
    numbers: B_2j = (-1)^(j-1) |G_2j| / (2 (4^j - 1)). Each new B_2j steps
    Seidel's row by a prefix-sum and a suffix-sum pass (Dumont & Viennot,
    Ann. Discrete Math. 6, 1980): O(j) additions and no division."""
    if n < 0:
        raise ValueError("bernoulli requires n >= 0")
    while len(_BERN) <= n:
        m = len(_BERN)
        if m % 2:
            _BERN.append(Fraction(-1, 2) if m == 1 else Fraction(0))
            continue
        g = _GENOCCHI[1]  # |G_m|
        # each pass pops what it reads, up to the sentinel: one row is live
        row = [0]
        row.extend(accumulate(iter(_GENOCCHI.pop, 0)))
        row.append(row[-1])
        _GENOCCHI.append(0)
        _GENOCCHI.extend(accumulate(iter(row.pop, 0)))
        _BERN.append(Fraction(g if m & 2 else -g, 2 * ((1 << m) - 1)))
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
    """E_n = E_n(0), from the integers e_n = 2^n E_n(0): e_0 = 1, e_n = 0 at
    even n >= 2, and e_(2k-1) = (-1)^k A_(2k-1), where the zigzag number
    A_(2k-1) is the tangent number T_k. Seidel's boustrophedon carries one
    working row of the Seidel-Entringer-Arnold triangle from n - 1 to n as
    the running sums of the reversed row, starting from 0; its last entry
    is A_n (Millar, Sloane & Young, "A new operation on sequences: the
    boustrophedon transform", J. Combin. Theory Ser. A 76, 1996). O(n)
    integer additions per new n and no multiplication. It shares no code
    with `bernoulli`'s Genocchi triangle, `_GENOCCHI`, nor with the series
    route named_series("euler-poly-egf", n, x=0); both check it."""
    if n < 0:
        raise ValueError("euler_number requires n >= 0")
    while len(_EULER2) <= n:
        m = len(_EULER2)
        # a list's slice assignment reads the whole iterator first
        _SEIDEL[:] = accumulate(reversed(_SEIDEL), initial=0)
        _EULER2.append((-1) ** ((m + 1) // 2) * _SEIDEL[-1] if m % 2 else 0)
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
    """Cauchy number of the first kind c_k = int_0^1 (x)_k dx, with
    (x)_k = x(x-1)...(x-k+1), memoised (Merlini, Sprugnoli & Verri, "The
    Cauchy numbers", Discrete Math. 306, 2006).

    The moments I_r(m) = int_0^1 x^r (x)_m dx obey
    I_r(m) = I_(r+1)(m-1) - (m-1) I_r(m-1), with I_r(0) = 1/(r+1) and
    c_m = I_0(m). One anti-diagonal D_m = L I_(n-1-m)(m), m < n, scaled by
    L = lcm(1..n), steps to the next as D'_0 = L'/(n+1) and
    D'_m = D'_(m-1) - (m-1) D_(m-1); when n + 1 is a power of the prime q,
    L' = q L and the old entries are multiplied by q first. Then
    c_n = D'_n / L': small-integer products and additions only, one
    division and one Fraction per new n."""
    if k < 0:
        raise ValueError("cauchy1 requires k >= 0")
    while len(_CAUCHY1) <= k:
        n, row = len(_CAUCHY1), _CAUCHY1_ROW
        lcm = n * row[0]  # L = n D_0
        q = (n + 1) // math.gcd(lcm, n + 1)
        if q > 1:
            row, lcm = [q * d for d in row], q * lcm
        row = list(accumulate((-m * d for m, d in enumerate(row)),
                              initial=lcm // (n + 1)))
        _CAUCHY1_ROW[:] = row
        _CAUCHY1.append(Fraction(row[-1], lcm))
    return _CAUCHY1[k]


def cauchy1_integral(k: int) -> Fraction:
    """Oracle route: k! times the integral of binom(x,k) over [0,1]. The
    integer coefficients of x(x-1)...(x-k+1) are multiplied out one linear
    factor at a time, which cauchy1's moment anti-diagonal never forms."""
    if k < 0:
        raise ValueError("cauchy1_integral requires k >= 0")
    coeffs = [1]
    for i in range(k):
        coeffs = [a - i * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return sum((Fraction(c, j + 1) for j, c in enumerate(coeffs)), Fraction(0))


def hw(n: int, x) -> Fraction:
    """Harmonic-weighted Stirling transform sum_k {n,k} binom(x,k) k! H_k.

    With x = a/b, F_k = k! b^k binom(x,k) = prod_{i<k} (a - i b) and
    d H_k, d = lcm(1..n), are integers. The F_k are read from binom's
    falling row for x, `seqcore._FALLING[x]`, after one binom(x, n) call
    grows it to F_n; d H_k is carried as the running sum of d // k. Row n
    of S2 is read once per call, through `seqcore._stirling2_row`. The sum
    over b^n d is one Horner pass in b,
    total <- total b + {n,k} F_k d H_k, normalised once."""
    if n < 1:
        raise ValueError("hw requires n >= 1")
    if type(x) is not Fraction:  # Fraction(x) would ask an ABC isinstance
        x = Fraction(x)
    b = x.denominator
    binom(x, n)  # grows the falling row for x to F_n
    falling = seqcore._FALLING[x]
    row = seqcore._stirling2_row(n)
    d = math.lcm(*range(1, n + 1))
    total = dh = 0  # dh = d H_k
    for k in range(1, n + 1):
        dh += d // k
        total = total * b + row[k] * falling[k] * dh
    return Fraction(total, b**n * d)
