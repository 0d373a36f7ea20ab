"""Truncated formal power series over exact rationals.

Coefficients are stored as ordinary (OGF) coefficients; `egf(n)` multiplies
by n! for the exponential view. Series are immutable and all operations are
pure, so values can be shared freely. `Egf` is the package's one coefficient
vector: a polynomial of degree n (such as a Bernoulli or Euler polynomial)
is an `Egf` of order n, evaluated exactly by calling it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .seqcore import binom, factorial

RatLike = Fraction | int


class Egf:
    """A power series truncated at a fixed order, exact coefficients."""

    # _ints: (d, [d * c for c in coeffs]), d the lcm of the coefficients'
    # denominators, filled by the first call or product that needs it
    __slots__ = ("coeffs", "_ints")

    def __init__(self, coeffs: list[RatLike] | tuple[RatLike, ...]):
        if not coeffs:
            raise ValueError("series needs at least the constant term")
        self.coeffs: tuple[Fraction, ...] = tuple(
            c if type(c) is Fraction else Fraction(c) for c in coeffs)
        self._ints: tuple[int, list[int]] | None = None

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        """Ordinary coefficient of t^n."""
        return self.coeffs[n]

    def egf(self, n: int) -> Fraction:
        """Exponential coefficient: n! times the ordinary coefficient."""
        return self.coeffs[n] * factorial(n)

    def _scaled(self) -> tuple[int, list[int]]:
        """(d, [d c_i]): the coefficients over their lcm d, kept once."""
        if self._ints is None:
            d = math.lcm(*(c.denominator for c in self.coeffs))
            self._ints = d, [c.numerator * (d // c.denominator)
                             for c in self.coeffs]
        return self._ints

    def __call__(self, x: RatLike) -> Fraction:
        """Exact value of the truncated polynomial at t = x, by one integer
        Horner pass: with x = a/b and the coefficients c_i over their lcm d,
        it is sum_i (d c_i) a^i b^(order-i) / (d b^order)."""
        d, ints = self._scaled()
        x = Fraction(x)
        a, b = x.numerator, x.denominator
        acc, b_i = 0, 1  # b_i = b^i after i coefficients
        for r in reversed(ints):
            acc = acc * a + r * b_i
            b_i *= b
        return Fraction(acc * b, d * b_i)  # b_i = b^(order+1) here

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Egf) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Egf({[str(c) for c in self.coeffs]})"

    @staticmethod
    def zero(order: int) -> "Egf":
        return Egf([Fraction(0)] * (order + 1))

    @staticmethod
    def one(order: int) -> "Egf":
        return Egf([Fraction(1)] + [Fraction(0)] * order)

    @staticmethod
    def identity(order: int) -> "Egf":
        """The series t."""
        c = [Fraction(0)] * (order + 1)
        if order >= 1:
            c[1] = Fraction(1)
        return Egf(c)


def _common_order(a: Egf, b: Egf) -> int:
    return min(a.order, b.order)


def add(a: Egf, b: Egf) -> Egf:
    n = _common_order(a, b)
    return Egf([a.coeffs[i] + b.coeffs[i] for i in range(n + 1)])


def sub(a: Egf, b: Egf) -> Egf:
    n = _common_order(a, b)
    return Egf([a.coeffs[i] - b.coeffs[i] for i in range(n + 1)])


def scale(a: Egf, c: RatLike) -> Egf:
    c = Fraction(c)
    return Egf([x * c for x in a.coeffs])


def mul(a: Egf, b: Egf) -> Egf:
    """The product truncated at the smaller order. Each operand is taken
    over its coefficients' lcm (da, db), the convolution is summed in
    integers, skipping zero entries, and each output coefficient is one
    Fraction over da db."""
    n = _common_order(a, b)
    da, ia = a._scaled()
    db, ib = b._scaled()
    out = [0] * (n + 1)
    for i, x in enumerate(ia[: n + 1]):
        if x:
            for k, y in enumerate(ib[: n + 1 - i], i):
                if y:
                    out[k] += x * y
    d = da * db
    return Egf([Fraction(c, d) for c in out])


def inv(a: Egf) -> Egf:
    """Multiplicative inverse; requires a nonzero constant term."""
    if a.coeffs[0] == 0:
        raise ValueError("cannot invert a series with zero constant term")
    n = a.order
    out = [Fraction(0)] * (n + 1)
    out[0] = 1 / a.coeffs[0]
    for k in range(1, n + 1):
        s = Fraction(0)
        for i in range(1, k + 1):
            s += a.coeffs[i] * out[k - i]
        out[k] = -s / a.coeffs[0]
    return Egf(out)


def log1p_series(f: Egf) -> Egf:
    """log(1 + f) for f with zero constant term."""
    if f.coeffs[0] != 0:
        raise ValueError("log1p_series requires zero constant term")
    n = f.order
    one_plus = Egf([Fraction(1)] + list(f.coeffs[1:]))
    # log(1+f)' = f'/(1+f); integrate coefficientwise.
    deriv = mul(Egf([(i + 1) * f.coeffs[i + 1] for i in range(n)] + [Fraction(0)]),
                inv(one_plus))
    out = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        out[k] = deriv.coeffs[k - 1] / k
    return Egf(out)


def sqrt_one_minus_4t(order: int) -> Egf:
    """Binomial series for (1-4t)^(1/2)."""
    return Egf([binom(Fraction(1, 2), k) * (-4) ** k for k in range(order + 1)])


def exp_t(order: int, rate: RatLike = 1) -> Egf:
    """e^(rate*t)."""
    rate = Fraction(rate)
    return Egf([rate**n / factorial(n) for n in range(order + 1)])


def _stirling2_egf(order: int, k: int) -> Egf:
    em1 = sub(exp_t(order), Egf.one(order))
    power = em1 if k else Egf.one(order)
    for _ in range(k - 1):
        power = mul(power, em1)
    return scale(power, Fraction(1, factorial(k)))


def _harmonic_ogf(order: int) -> Egf:
    t = Egf.identity(order)
    geom = inv(sub(Egf.one(order), t))
    return mul(scale(log1p_series(scale(t, -1)), -1), geom)


def _harmonic_sq_ogf(order: int) -> Egf:
    t = Egf.identity(order)
    geom = inv(sub(Egf.one(order), t))
    ln = log1p_series(scale(t, -1))
    dilog = Egf([0] + [Fraction(1, k * k) for k in range(1, order + 1)])
    return mul(add(dilog, mul(ln, ln)), geom)


def _central_binomial_harmonic_ogf(order: int) -> Egf:
    g = sqrt_one_minus_4t(order)
    # 2/g * ln((1+g)/(2g)); the argument has constant term 1.
    arg = mul(add(Egf.one(order), g), inv(scale(g, 2)))
    ln = log1p_series(sub(arg, Egf.one(order)))
    return mul(scale(inv(g), 2), ln)


def _euler_poly_egf(order: int, x: RatLike) -> Egf:
    denom = add(exp_t(order), Egf.one(order))
    return mul(scale(exp_t(order, x), 2), inv(denom))


def _poly_bernoulli_egf(order: int, p: int, x: RatLike) -> Egf:
    # Li_p(u)/u = sum_{k>=0} u^k/(k+1)^p with u = 1-e^{-t}, times e^{xt}.
    # row[k] is the integer c^k_n = n! [t^n] u^k, zero for k > n. Since
    # u' = 1 - u, (u^k)' = k(u^{k-1} - u^k), so c^k_{n+1} = k(c^{k-1}_n - c^k_n)
    # from c^0_0 = 1. The weights 1/(k+1)^p are the integers d // (k+1)^p
    # over d = lcm((k+1)^p), so each coefficient is one integer sum over
    # d n!. A build is O(order^2) integer steps whatever p is, and divides
    # by u without an inverse. It forms no power of u and reads no Stirling
    # table: stirling_sum_oracle checks it.
    d = math.lcm(*range(1, order + 2)) ** p
    weights = [d // (k + 1) ** p for k in range(order + 1)]
    row = [1]
    coeffs = []
    for n in range(order + 1):
        coeffs.append(Fraction(sum(map(operator.mul, weights, row)),
                               d * factorial(n)))
        row = [0, *(k * (row[k - 1] - row[k]) for k in range(1, n + 1)),
               (n + 1) * row[n]]
    return mul(Egf(coeffs), exp_t(order, x))


_SERIES = {
    "stirling2-egf": lambda order, k, p, x: _stirling2_egf(order, k),
    "harmonic-ogf": lambda order, k, p, x: _harmonic_ogf(order),
    "harmonic-squared-ogf": lambda order, k, p, x: _harmonic_sq_ogf(order),
    "central-binomial-harmonic-ogf":
        lambda order, k, p, x: _central_binomial_harmonic_ogf(order),
    "euler-poly-egf": lambda order, k, p, x: _euler_poly_egf(order, x),
    "polybern": lambda order, k, p, x: _poly_bernoulli_egf(order, p, x),
}

SERIES_NAMES = tuple(_SERIES)


def named_series(name: str, order: int, *, k: int = 1, p: int = 2,
                 x: RatLike = 0) -> Egf:
    """Catalog of the generating functions used by the identity suite.

    stirling2-egf            (e^t-1)^k / k!
    harmonic-ogf             -ln(1-t)/(1-t), coefficients H_n
    harmonic-squared-ogf     Li_2(t)/(1-t) + ln^2(1-t)/(1-t), coefficients H_n^2
    central-binomial-harmonic-ogf   coefficients C(2n,n) H_n
    euler-poly-egf           2 e^{xt}/(e^t+1), EGF coefficients E_n(x)
    polybern                 Li_p(1-e^{-t})/(1-e^{-t}) e^{xt}
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if name not in _SERIES:
        raise KeyError(f"unknown series {name!r}")
    return _SERIES[name](order, k, p, x)
