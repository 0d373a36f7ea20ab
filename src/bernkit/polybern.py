"""The poly-Bernoulli numbers and polynomials via exact truncated series.

The EGF Li_p(1-e^{-t})/(1-e^{-t}) e^{xt} is expanded per (p, x) pair and
its EGF coefficients are cached. A request past the cached order rebuilds
the series at order max(n, 2 * cached order), so an ascending walk to N
builds O(log N) series instead of N; the coefficient list only ever grows.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable

from . import fps
from .seqcore import factorial, memo, stirling2_transform

_CACHE: dict[tuple[int, Fraction], list[Fraction]] = memo({})


def _series_coeffs(p: int, x: Fraction, order: int) -> list[Fraction]:
    key = (p, x)
    have = _CACHE.get(key)
    if have is None or len(have) <= order:
        cached = len(have) - 1 if have else 0
        series = fps.named_series("polybern", max(order, 2 * cached, 1),
                                  p=p, x=x)
        _CACHE[key] = [series.egf(n) for n in range(series.order + 1)]
    return _CACHE[key]


def poly_bernoulli(n: int, p: int, x=0) -> Fraction:
    """n-th EGF coefficient of Li_p(1-e^{-t})/(1-e^{-t}) e^{xt}."""
    if n < 0 or p < 1:
        raise ValueError("poly_bernoulli requires n >= 0 and p >= 1")
    return _series_coeffs(p, Fraction(x), n)[n]


def dibernoulli(n: int) -> Fraction:
    """Di-Bernoulli number (polylog order 2, x = 0)."""
    return poly_bernoulli(n, 2, 0)


def dibernoulli_at_one(n: int) -> Fraction:
    return poly_bernoulli(n, 2, 1)


@functools.cache
def _oracle_weight(p: int) -> Callable[[int], Fraction]:
    """The weight (-1)^m m! / (m+1)^p, one function object per p, kept for
    the life of the process so that every oracle call at the same p reads
    one memoised transform column."""
    def weight(m: int) -> Fraction:
        return Fraction((-1) ** m * factorial(m), (m + 1) ** p)
    return weight


def stirling_sum_oracle(n: int, p: int) -> Fraction:
    """Cross-check route for the x = 0 numbers:
    sum_m (-1)^(m+n) m! {n,m} / (m+1)^p.

    Kept as a test oracle only; the series route above is the primary
    computation.
    """
    if n < 0 or p < 1:
        raise ValueError("oracle requires n >= 0 and p >= 1")
    return (-1) ** n * stirling2_transform(n, _oracle_weight(p))
