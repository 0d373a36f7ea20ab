"""Reduction of exact rationals modulo an odd prime (or its square) and the
prime-congruence catalog.

Every sum is evaluated exactly first (running prefix sums and integer sums
over one denominator, kept in `classical`) and only then reduced; individual
terms may carry the prime in a denominator that cancels in aggregate.

Residues (`Residue`), statement results (`CongruenceResult`), catalog
entries (`CongruenceEntry`) and the sweep's `identities.Report` are
immutable tuple values; a residue is range-checked whenever it is
constructed. `prime_sweep` adapts the sweep policy `identities._sweep`.

`rational_mod` dispatches on the exact type of its argument, int, then
integer pair (tuple), then Fraction, before any `isinstance`: Fraction's
metaclass is `abc.ABCMeta`, so `isinstance(r, Fraction)` of anything that
is not exactly a Fraction is an ABC check, and most statements of a sweep
(STIRP's and VSC's) are ints and pairs. STIRP reads row p of S2 once per
prime, through `seqcore._stirling2_row`, and `check_congruence` tests each
p for primality once per process.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from typing import Callable, NamedTuple

from .classical import (bernoulli, bernoulli_reciprocal_sum, bernoulli_sum,
                        cauchy1, euler_sum)
from .identities import Report, _sweep
from .seqcore import _stirling2_row, factorial, harmonic


class DenominatorDivisibleByP(ArithmeticError):
    """The reduced denominator shares a factor with the modulus prime."""


class Residue(namedtuple("Residue", "value modulus")):
    """A residue class, value mod modulus, with 0 <= value < modulus.
    Immutable; every construction is range-checked, `_make` and `_replace`
    included."""
    __slots__ = ()

    def __new__(cls, value: int, modulus: int):
        if not 0 <= value < modulus:
            raise ValueError("residue out of range")
        return tuple.__new__(cls, (value, modulus))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.value} (mod {self.modulus})"


def rational_mod(r, modulus: int, p: int) -> Residue:
    """Reduce a rational modulo the prime p or p^2 via the modular inverse of
    its denominator. Raises DenominatorDivisibleByP when the reduction is
    ill-posed. The rational may also be an integer pair (num, den), read as
    num/den: when p does not divide den it is reduced as it stands, which
    is exact, since every common factor is then a unit mod p and mod p^2;
    otherwise it goes through Fraction(num, den), which cancels the common
    factors of p.

    The argument is dispatched on its exact type, int, then tuple, then
    Fraction, so none of these makes an ABC check; bool and subclasses of
    int reduce as an int, and anything else, a subclass of Fraction
    included, goes through Fraction(r)."""
    if modulus not in (p, p * p):
        raise ValueError("modulus must be p or p^2")
    kind = type(r)
    if kind is int:  # denominator 1, which p never divides
        return Residue(r % modulus, modulus)
    if kind is tuple:
        num, den = r
        if den % p:
            return Residue(num * pow(den, -1, modulus) % modulus, modulus)
        r = Fraction(num, den)
    elif kind is not Fraction:
        if isinstance(r, int):  # bool, or a subclass of int
            return Residue(r % modulus, modulus)
        r = Fraction(r)
    if r.denominator % p == 0:
        raise DenominatorDivisibleByP(
            f"denominator {r.denominator} divisible by {p} for value {r}")
    value = r.numerator * pow(r.denominator, -1, modulus) % modulus
    return Residue(value, modulus)


class CongruenceResult(NamedTuple):
    id: str
    p: int
    label: str
    lhs: Residue
    rhs: Residue
    passed: bool


class CongruenceEntry(NamedTuple):
    """One catalog entry: its statements at an odd prime p, each an
    (lhs, rhs, modulus, label) tuple, and the least p they hold for."""
    statements: Callable[[int], list[tuple]]
    min_p: int = 3


def _c1sq(p: int) -> list[tuple]:
    s = p * bernoulli_sum(p)
    # consistency chain: the mod-p^2 statement implies C1
    return [(s, factorial(p - 1), p * p, ""), (s, -1, p, "implies C1")]


def _vsc(p: int) -> list[tuple]:
    statements = []
    for j in range(1, p + 1):
        b = bernoulli(2 * j)
        statements.append(((p * b.numerator, b.denominator),  # p B_2j
                           -1 if (2 * j) % (p - 1) == 0 else 0, p, f"j={j}"))
    return statements


CATALOG: dict[str, CongruenceEntry] = {
    "C1": CongruenceEntry(lambda p: [(p * bernoulli_sum(p), -1, p, "")]),
    "C2": CongruenceEntry(lambda p: [(euler_sum(p), Fraction(3, 2), p, "")]),
    "C3": CongruenceEntry(lambda p: [(
        p * bernoulli_reciprocal_sum(p), -1, p, "")]),
    "C4": CongruenceEntry(lambda p: [(bernoulli_sum(p - 3), -1, p, "")], min_p=5),
    "C1SQ": CongruenceEntry(_c1sq),
    "C3SQ": CongruenceEntry(lambda p: [(p * bernoulli_reciprocal_sum(p),
                                        Fraction(-p, 2) - cauchy1(p), p * p, "")]),
    "GLAISHER": CongruenceEntry(lambda p: [(
        factorial(p - 1), -p + p * bernoulli(p - 1), p * p, "")]),
    "BABBAGE": CongruenceEntry(lambda p: [(harmonic(p - 1), 0, p, "")]),
    "VSC": CongruenceEntry(_vsc),
    # p*c_(p-1) is blind to errors prime to p; the kill tests need c_p, C3SQ
    "CP1": CongruenceEntry(lambda p: [(cauchy1(p), 1, p, "c_p"),
                                      (p * cauchy1(p - 1), 1, p, "p*c_(p-1)")]),
    "STIRP": CongruenceEntry(lambda p: [
        (s, 0, p, f"k={k}") for k, s in enumerate(_stirling2_row(p)[2:p], 2)]),
}

CONGRUENCE_IDS = tuple(CATALOG)


@functools.lru_cache(maxsize=None, typed=True)  # 5 and 5.0 apart
def _is_odd_prime(p: int) -> bool:
    return p >= 3 and all(p % q for q in range(2, math.isqrt(p) + 1))


def check_congruence(id: str, p: int) -> list[CongruenceResult]:
    """Evaluate one catalog entry at an odd prime; multi-statement entries
    (C1SQ, VSC, CP1, STIRP) yield one result per statement. Each distinct
    (rhs, modulus) is reduced once per call: VSC's p statements have two
    right sides, STIRP's p - 2 one."""
    if id not in CATALOG:
        raise KeyError(f"unknown congruence id {id!r}")
    entry = CATALOG[id]
    if not _is_odd_prime(p):
        raise ValueError("p must be an odd prime")
    if p < entry.min_p:
        raise ValueError(f"{id} requires p >= {entry.min_p}")
    results, reduced = [], {}
    for lhs, rhs, modulus, label in entry.statements(p):
        lr = rational_mod(lhs, modulus, p)
        rr = reduced.get((rhs, modulus))
        if rr is None:
            rr = reduced[rhs, modulus] = rational_mod(rhs, modulus, p)
        results.append(CongruenceResult(id, p, label, lr, rr, lr == rr))
    return results


def odd_primes_upto(p_max: int) -> list[int]:
    if p_max < 3:
        raise ValueError("p_max must be >= 3")
    sieve = bytearray([1]) * (p_max + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(p_max**0.5) + 1):
        if sieve[i]:
            sieve[i * i:: i] = b"\x00" * len(range(i * i, p_max + 1, i))
    return [i for i in range(3, p_max + 1) if sieve[i]]


def prime_sweep(ids=CONGRUENCE_IDS, p_max: int = 101) -> Report:
    """Sweep each entry over the odd primes to p_max, a prime per
    `identities._sweep` unit, into one report; a prime below an entry's
    least p is noted as skipped. Every id is checked before any prime."""
    ids = tuple(ids)
    if unknown := [id for id in ids if id not in CATALOG]:
        raise KeyError(f"unknown congruence id {unknown[0]!r}")
    primes = odd_primes_upto(p_max)
    reports, notes = [], []
    for id in ids:
        min_p = CATALOG[id].min_p
        notes += [f"skipped: {id} at p={p}: requires p >= {min_p}"
                  for p in primes if p < min_p]

        def evaluate(p: int, sides: list, id: str = id) -> tuple[int, list]:
            results = check_congruence(id, p)
            return len(results), [({"p": p, "case": r.label}, r.lhs, r.rhs)
                                  for r in results if not r.passed]
        reports.append(_sweep(
            id, [p for p in primes if p >= min_p], evaluate,
            lambda p, id=id: (f"{id} at p={p}", {"p": p, "case": ""}), notes))
    return Report("congruence", sum(rep.cases for rep in reports),
                  [f for rep in reports for f in rep.failures], notes)
