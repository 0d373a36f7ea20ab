"""Exact base sequences: Stirling numbers of both kinds, harmonic numbers,
factorials and binomial coefficients, the Stirling transform, and `ratsum`,
the one exact sum of integer fractions num/den.

All rational values are `fractions.Fraction` instances in lowest terms.
Tables are module-level lists filled row by row on demand, and entries are
write-once, so repeated queries are cheap and results never change. The
tables are for single-threaded use: growing them is not locked. Each
Stirling triangle grows alone, by its own kind's next-row step. The
Stirling transform keeps one integer column per weight, the one table here
whose entries change: it is rescaled when its common denominator grows,
and it is keyed weakly, so a column dies with its weight.
Every memo table of the package is declared through `memo`; `clear_memos`
resets all.
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, TypeVar
from weakref import WeakKeyDictionary

_T = TypeVar("_T", bound=list | dict | WeakKeyDictionary)
_MEMOS: list[tuple] = []  # (table, a copy of its cold contents)


def memo(cold: _T) -> _T:
    """Register the module-level memo table `cold` and return it."""
    _MEMOS.append((cold, copy.deepcopy(cold)))
    return cold


def clear_memos() -> None:
    """Put every registered table back to its cold contents, in place and
    all at once, so no table is reset apart from its working state."""
    for table, cold in _MEMOS:
        table.clear()
        fill = table.extend if isinstance(table, list) else table.update
        fill(copy.deepcopy(cold))


_S2: list[list[int]] = memo([[1]])  # _S2[n][k] = {n,k}
_S1: list[list[int]] = memo([[1]])  # _S1[n][k] = [n,k]
_FACT: list[int] = memo([1])
_H: list[Fraction] = memo([Fraction(0)])
_HM: dict[int, list[Fraction]] = memo({})  # m >= 2 -> [H_0^(m), H_1^(m), ...]
# weight -> [d, [d weight(k) for k = 1, 2, ...]], d the lcm of the
# denominators of the weights read so far
_TRANSFORM_COLUMNS: WeakKeyDictionary[Callable, list] = memo(
    WeakKeyDictionary())


def next_stirling1_row(row: list[int]) -> list[int]:
    """Row n of [n,k] from row n - 1: [n,k] = (n-1) [n-1,k] + [n-1,k-1]."""
    return [(len(row) - 1) * a + b for a, b in zip(row + [0], [0] + row)]


def next_stirling2_row(row: list[int]) -> list[int]:
    """Row n of {n,k} from row n - 1: {n,k} = k {n-1,k} + {n-1,k-1}."""
    return [k * a + b for k, (a, b) in enumerate(zip(row + [0], [0] + row))]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind {n,k}: the number of partitions
    of an n-set into k blocks; 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 requires n, k >= 0")
    if k > n:
        return 0
    while len(_S2) <= n:
        _S2.append(next_stirling2_row(_S2[-1]))
    return _S2[n][k]


def stirling2_transform(n: int, weight: Callable[[int], Fraction | int]
                        ) -> Fraction:
    """The Stirling transform sum_{k=0..n} {n,k} weight(k) (Bernstein &
    Sloane, "Some canonical sequences of integers", 1995).

    weight must be a pure function of k and weakly referenceable. Its
    values are kept per weight as one integer column d weight(k), k = 1,
    2, ..., over d, the lcm of their denominators. weight(k) is read once,
    only where {n,k} != 0 (so weight(0) only at n = 0, and then on every
    call), as the column grows by appending; a new denominator that does
    not divide d rescales the column once. A weight that raises leaves the
    column as it was. The table holds each weight weakly: its column goes
    when the weight does (or at `clear_memos()`). The sum is one dot
    product of the column with row n of S2, normalised once."""
    if n == 0:  # row 0, whose one nonzero is {0,0}
        return Fraction(weight(0))
    stirling2(n, 0)
    column = _TRANSFORM_COLUMNS.setdefault(weight, [1, []])
    d, ints = column
    while len(ints) < n:
        w = weight(len(ints) + 1)
        grow = w.denominator // math.gcd(d, w.denominator)
        if grow > 1:
            ints[:] = [grow * v for v in ints]
            d = column[0] = d * grow
        ints.append(w.numerator * (d // w.denominator))
    return Fraction(sum(map(mul, _S2[n][1:], ints)), d)


def ratsum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """The exact sum of num/den over the integer pairs (num, den) of
    `terms` (Fraction(0) for none), summed in integers over the lcm of the
    dens and normalised once (Knuth, TAOCP Vol. 2, section 4.5.1). The lcm
    d grows as the pairs are read: a den that does not divide d rescales
    the running sum once, as a Stirling transform column is rescaled. A
    zero den raises ZeroDivisionError."""
    total, d = 0, 1
    for num, den in terms:
        if d % den:
            grow = den // math.gcd(d, den)
            total *= grow
            d *= grow
        total += num * (d // den)
    return Fraction(total, d)


def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind [n,k]: the coefficient of
    x^k in the rising factorial x(x+1)...(x+n-1); 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("stirling1 requires n, k >= 0")
    if k > n:
        return 0
    while len(_S1) <= n:
        _S1.append(next_stirling1_row(_S1[-1]))
    return _S1[n][k]


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial requires n >= 0")
    while len(_FACT) <= n:
        _FACT.append(_FACT[-1] * len(_FACT))
    return _FACT[n]


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0."""
    if n < 0:
        raise ValueError("harmonic requires n >= 0")
    while len(_H) <= n:
        _H.append(_H[-1] + Fraction(1, len(_H)))
    return _H[n]


def harmonic_gen(n: int, m: int) -> Fraction:
    """Generalized harmonic number H_n^(m) = sum_{i=1..n} 1/i^m."""
    if n < 0 or m < 1:
        raise ValueError("harmonic_gen requires n >= 0 and m >= 1")
    if m == 1:
        return harmonic(n)
    h = _HM.setdefault(m, [Fraction(0)])
    while len(h) <= n:
        h.append(h[-1] + Fraction(1, len(h) ** m))
    return h[n]


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
