"""Reduction of exact rationals modulo an odd prime (or its square) and the
prime-congruence catalog.

Every sum is evaluated exactly first (running prefix sums and integer sums
over one denominator, kept in `classical`) and only then reduced; individual
terms may carry the prime in a denominator that cancels in aggregate.

Residues (`Residue`), statement results (`CongruenceResult`), catalog
entries (`CongruenceEntry`) and the sweep's `identities.Report` are
immutable tuple values; a residue is range-checked whenever it is
constructed.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Callable, NamedTuple

from .classical import (bernoulli, bernoulli_reciprocal_sum, bernoulli_sum,
                        cauchy1, euler_sum)
from .identities import Report
from .seqcore import factorial, harmonic, stirling2


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
    ill-posed."""
    if modulus not in (p, p * p):
        raise ValueError("modulus must be p or p^2")
    if isinstance(r, int):  # denominator 1, which p never divides
        return Residue(r % modulus, modulus)
    if not isinstance(r, Fraction):
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
    return [(p * bernoulli(2 * j), -1 if (2 * j) % (p - 1) == 0 else 0, p,
             f"j={j}") for j in range(1, p + 1)]


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
    "CP1": CongruenceEntry(lambda p: [(cauchy1(p), 1, p, "c_p"),
                                      (p * cauchy1(p - 1), 1, p, "p*c_(p-1)")]),
    "STIRP": CongruenceEntry(lambda p: [(stirling2(p, k), 0, p, f"k={k}")
                                        for k in range(2, p)]),
}

CONGRUENCE_IDS = tuple(CATALOG)


def check_congruence(id: str, p: int) -> list[CongruenceResult]:
    """Evaluate one catalog entry at an odd prime; multi-statement entries
    (C1SQ, VSC, CP1, STIRP) yield one result per statement."""
    if id not in CATALOG:
        raise KeyError(f"unknown congruence id {id!r}")
    entry = CATALOG[id]
    if p < 3 or not all(p % q for q in range(2, math.isqrt(p) + 1)):
        raise ValueError("p must be an odd prime")
    if p < entry.min_p:
        raise ValueError(f"{id} requires p >= {entry.min_p}")
    results = []
    for lhs, rhs, modulus, label in entry.statements(p):
        lr = rational_mod(lhs, modulus, p)
        rr = rational_mod(rhs, modulus, p)
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
    """Run each catalog entry over all odd primes up to p_max, collecting
    every failure. An entry that raises at a prime counts as one failed
    case, with a note naming the exception. Every id is checked before any
    prime is swept."""
    ids = tuple(ids)
    if unknown := [id for id in ids if id not in CATALOG]:
        raise KeyError(f"unknown congruence id {unknown[0]!r}")
    cases, failures, notes = 0, [], []
    primes = odd_primes_upto(p_max)
    for id in ids:
        min_p = CATALOG[id].min_p
        for p in primes:
            if p < min_p:
                notes.append(f"skipped: {id} at p={p}: requires p >= {min_p}")
                continue
            try:
                results = check_congruence(id, p)
            except Exception as exc:  # one broken case must not end the sweep
                cases += 1
                notes.append(f"{id} at p={p}: {type(exc).__name__}: {exc}")
                failures.append({"id": id, "params": {"p": p, "case": ""},
                                 "lhs": None, "rhs": None})
                continue
            cases += len(results)
            failures += [{"id": id, "params": {"p": p, "case": res.label},
                          "lhs": res.lhs, "rhs": res.rhs}
                         for res in results if not res.passed]
    return Report("congruence", cases, failures, notes)
