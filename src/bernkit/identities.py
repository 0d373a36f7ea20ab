"""Catalog of the verified identities and the range-sweep harness.

Each catalog entry carries an explicit case generator (the domain predicate
made concrete), a left side computed by direct summation over the base
sequences, and a right side computed through the cached closed forms, so a
transcription slip on either side surfaces as a sweep failure. Both sides
take a case's parameters as keywords: `entry.lhs(**params)`. The two sides
of every entry share only seqcore primitives, so an error in one route
cannot cancel. `tests/test_identities.py` checks this by recording which
functions each side reaches.

The paper's convolution sum_k (-1)^(k-j) {n,k} [k,j] weight(k) has two
routes. `_calB_row` reads it as the coefficients of the polynomial
sum_k {n,k} weight(k) x(x-1)...(x-k+1), summed by one Horner pass in
integers over one denominator, reads no first-kind number, and memoises
the row j = 0..n as a list of Fractions; MAIN's left side, REDUCTION's
left side and the right side of POLYX_COEFFS index it with the default
weight H_k, and GEN_WORPITZKY's left side with weight 1/k. `_calB` sums one
entry directly, as the Stirling transform of (-1)^k [k,j] weight(k), and
reads no row memo: REDUCTION's right side uses it, so that identity's two
sides do not share the convolution. Agoh's polynomial
sum_j (C(n,j) - 1) B_j / j x^(n-j) is the `fps.Egf` `_bern_row(n)`, and
REC16's, with C(n,j) + 1, is `_bern_row(n, 1)`. MAIN's right side and
POLYX_COEFFS's left side read one coefficient; AGOH, AGOH_ALT, POLYX,
AGOH_M1, AGOH_COMBINE and REC16 evaluate it at one or two points. The row
stays a list so that MAIN and POLYX_COEFFS reach `Egf` on one side only.
The Stirling transform `seqcore.stirling2_transform` serves one side of
WORPITZKY, H1, H2, K3SPECIAL and HSQ_BRIDGE (left, through
`worpitzky_bernoulli` or `_hsq_sum`), and of CUMSUM, EQ14, REDUCTION and
HW_CAUCHY (right, through `worpitzky_bernoulli`, `_hsq_sum`, `_calB` or
directly). Each of its weights is a module-level function (`_h1_weight`,
`_h2_weight`, `_k3_weight`, `_hsq_weight`, `_cauchy_h_weight` and
`classical._worpitzky_weight`) or one cached object per (weight, j)
(`_calB_weight`), so every case of an id reads the one integer column that
the transform keeps per weight, and each weight is computed once per k.

The direct sums whose terms have unlike denominators add them with
`seqcore.ratsum`, in integers over their lcm and normalised once, instead
of one Fraction operation per term; each is still term by term.

The records `IdentityCase`, `SweepBounds`, `IdentityEntry` and `Report` are
immutable tuple values (`typing.NamedTuple`), like `congr`'s; change one
with `_replace`. `_sweep` holds the sweep policy of both catalogs, and
`verify_identity` and `congr.prime_sweep` are adapters over it.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .classical import (bernoulli, bernoulli_reciprocal_sum, bernoulli_sum,
                        cauchy1, euler_number, hw, worpitzky_bernoulli)
from .fps import Egf
from .polybern import dibernoulli, dibernoulli_at_one
from .seqcore import (binom_int, factorial, harmonic, harmonic_gen, memo,
                      ratsum, stirling1, stirling2, stirling2_transform)

Params = dict[str, int | Fraction]


class IndeterminateRHS(ArithmeticError):
    """Raised when a right side is of the form 0 * B_0/0 (MAIN at j = n)."""


class IdentityCase(NamedTuple):
    id: str
    params: Params


class Report(NamedTuple):
    """Outcome of a sweep, built once when the sweep ends. Each failure is
    a dict {"id", "params", "lhs", "rhs"} holding raw values: a Fraction, a
    Residue, or None where a side could not be evaluated."""
    id: str
    cases: int
    failures: list[dict]
    notes: list[str]

    @property
    def passed(self) -> bool:
        # an empty domain is not a pass
        return self.cases > 0 and not self.failures


class SweepBounds(NamedTuple):
    """Parameter ranges for a verification sweep."""
    n_max: int = 40
    m_max: int = 20
    j_min: int = 0
    j_max: int | None = None
    rand_count: int = 10
    seed: int = 20240826
    include_j_equals_n: bool = False

    def j_range(self, lo: int, hi: int) -> range:
        lo = max(lo, self.j_min)
        if self.j_max is not None:
            hi = min(hi, self.j_max)
        return range(lo, hi + 1)


def _rng(bounds: SweepBounds, id: str) -> random.Random:
    return random.Random(f"{bounds.seed}:{id}")


def _rand_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-24, 24), rng.randint(1, 12))
        if q != 0 or not nonzero:
            return q


@functools.cache
def _calB_weight(weight: Callable[[int], Fraction], j: int
                 ) -> Callable[[int], Fraction]:
    """The weight (-1)^k [k,j] weight(k), one function object per
    (weight, j), kept for the life of the process so that every `_calB`
    call at j reads one memoised transform column. weight(k) is read only
    where [k,j] != 0. The sign is a negation on parity and the product one
    Fraction, with no int-times-Fraction operator (an ABC check each)."""
    def column_weight(k: int) -> Fraction:
        s = stirling1(k, j)
        if not s:
            return 0
        w = weight(k)
        return Fraction(-s * w.numerator if k % 2 else s * w.numerator,
                        w.denominator)
    return column_weight


def _calB(n: int, j: int,
          weight: Callable[[int], Fraction] = harmonic) -> Fraction:
    """Direct summation of sum_k (-1)^(k-j) {n,k} [k,j] weight(k), by
    default with weight(k) = H_k, as the Stirling transform
    (-1)^j sum_k {n,k} (-1)^k [k,j] weight(k). Reads no row memo and
    every [k,j] it needs, so it stays a route independent of `_calB_row`."""
    total = stirling2_transform(n, _calB_weight(weight, j))
    return -total if j % 2 else total


def _reciprocal(k: int) -> Fraction:
    # GEN_WORPITZKY's weight, defined once so that its rows share one memo key
    return Fraction(1, k)


# (weight, n) -> [_calB(n, j, weight) for j in 0..n]
_CALB_ROWS: dict[tuple[Callable, int], list[Fraction]] = memo({})


def _calB_row(n: int, weight: Callable[[int], Fraction] = harmonic
              ) -> list[Fraction]:
    """The row j = 0..n of the convolution `_calB(n, j, weight)`, memoised
    per (weight, n): the x^j coefficients of sum_k {n,k} weight(k)
    x(x-1)...(x-k+1), since sum_j (-1)^(k-j) [k,j] x^j is that falling
    factorial (Graham, Knuth & Patashnik, Concrete Mathematics, 2nd ed.,
    section 6.1). One Horner pass P <- d {n,k} weight(k) + (x - k) P, for
    k = n down to 0, sums it in integers over d, the lcm of the
    denominators of weight(k) (a divisor of lcm(1..n) for H_k and 1/k), and
    each weight(k) is read once per row, where {n,k} != 0."""
    key = (weight, n)
    if key not in _CALB_ROWS:
        ws = {k: weight(k) for k in range(n + 1) if stirling2(n, k)}
        d = math.lcm(*(w.denominator for w in ws.values()))
        poly: list[int] = []
        for k in range(n, -1, -1):
            w = ws.get(k, 0)  # {n,k} = 0 where weight(k) is not read
            poly = [a - k * b for a, b in zip([0] + poly, poly + [0])]
            poly[0] += stirling2(n, k) * w.numerator * (d // w.denominator)
        _CALB_ROWS[key] = [Fraction(c, d) for c in poly]
    return _CALB_ROWS[key]


# The weights of the Stirling transforms, each one module-level function so
# that every call with it reads one memoised column
def _hsq_weight(k: int) -> Fraction:
    return (-1) ** k * factorial(k) * harmonic(k) ** 2


def _hsq_sum(n: int) -> Fraction:
    # (-1)^(n-k) = (-1)^n (-1)^k
    total = stirling2_transform(n, _hsq_weight)
    return -total if n % 2 else total


# --- per-identity lhs/rhs evaluators ---------------------------------------

def _main_rhs(n: int, j: int) -> Fraction:
    if j == n:
        raise IndeterminateRHS(
            "RHS (binom(n,n)-1)*B_0/0 is indeterminate at j=n; LHS equals H_n")
    return _bern_row(n).coeff(j)


def _gen_worpitzky_lhs(n: int, j: int) -> Fraction:
    return _calB_row(n, _reciprocal)[j]


def _bern_term(N: int, j: int) -> Fraction:
    # C(N,j) B_(N+1-j) / (N+1-j), built as one Fraction
    k = N + 1 - j
    b = bernoulli(k)
    return Fraction(binom_int(N, j) * b.numerator, k * b.denominator)


def _h1_weight(k: int) -> Fraction:
    return (-1) ** (k - 1) * factorial(k - 1) * harmonic(k)


def _h1_lhs(n: int) -> Fraction:
    return stirling2_transform(n, _h1_weight)


def _h2_weight(k: int) -> Fraction:
    return (-1) ** k * factorial(k - 1) * harmonic(k - 1) * harmonic(k)


def _h2_lhs(n: int) -> Fraction:
    return stirling2_transform(n, _h2_weight)


def _k3_weight(k: int) -> Fraction:
    return ((-1) ** (k - 1) * factorial(k - 1)
            * (harmonic(k - 1) ** 2 - harmonic_gen(k - 1, 2)) * harmonic(k))


def _k3_lhs(n: int) -> Fraction:
    return stirling2_transform(n, _k3_weight)


_BERN_ROWS: dict[tuple[int, int], Egf] = memo({})


def _bern_row(n: int, shift: int = -1) -> Egf:
    """sum_{j=1..n} (C(n,j) + shift) B_j / j x^(n-j) as an Egf of order n
    (0 at x^n), memoised per (n, shift), each coefficient built as one
    Fraction. Shift -1 is Agoh's polynomial, and shift +1 REC16's."""
    if (n, shift) not in _BERN_ROWS:
        coeffs = []
        for i in range(n):
            b = bernoulli(n - i)
            coeffs.append(Fraction((binom_int(n, n - i) + shift) * b.numerator,
                                   (n - i) * b.denominator))
        _BERN_ROWS[n, shift] = Egf(coeffs + [0])
    return _BERN_ROWS[n, shift]


def _polyx_coeff_rhs(n: int, coeff: int) -> Fraction:
    # x^coeff coefficient of hw(n, x) - H_n x^n as a polynomial in x, since
    # k! binom(x, k) = sum_i (-1)^(k-i) [k,i] x^i
    c = _calB_row(n)[coeff]
    return c - harmonic(n) if coeff == n else c


def _polyx_rhs(n: int, x: Fraction) -> Fraction:
    # hw(n, x) - H_n x^n
    h, hn = hw(n, x), harmonic(n)
    return ratsum(((h.numerator, h.denominator),
                   (-hn.numerator * x.numerator**n,
                    hn.denominator * x.denominator**n)))


# (n, m) -> _agoh_sum(n, m), read by the right sides of AGOH and AGOH_ALT
_AGOH_RHS: dict[tuple[int, int], Fraction] = memo({})


def _agoh_rhs(n: int, m: int) -> Fraction:
    if (n, m) not in _AGOH_RHS:
        _AGOH_RHS[n, m] = _agoh_sum(n, m)
    return _AGOH_RHS[n, m]


def _agoh_sum(n: int, m: int) -> Fraction:
    # m^n (H_m - H_n) - sum_{j=1..m} (m-j)^n / j
    hm, hn, mn = harmonic(m), harmonic(n), m**n
    return ratsum([(mn * hm.numerator, hm.denominator),
                   (-mn * hn.numerator, hn.denominator),
                   *((-(m - j) ** n, j) for j in range(1, m + 1))])


def _agoh_eq11_lhs(m: int, z: Fraction) -> Fraction:
    # with z - 1 = a/b, sum_{k<=m} C(m,k) H_k (z-1)^k is one integer over
    # d b^m, d = lcm(1..m): one Horner pass in b,
    # acc <- acc b + C(m,k) (d H_k) a^k, with d H_k carried as the running
    # sum of d // k (H_0 = 0)
    a, b = z.numerator - z.denominator, z.denominator
    d = math.lcm(*range(1, m + 1))
    acc = dh = 0
    a_k = 1  # a^k
    for k in range(1, m + 1):
        dh += d // k
        a_k *= a
        acc = acc * b + binom_int(m, k) * dh * a_k
    return Fraction(acc, d * b**m)


def _agoh_eq11_rhs(m: int, z: Fraction) -> Fraction:
    # H_m z^m - sum_{k<m} z^k / (m-k), with z = a/b
    z, hm = Fraction(z), harmonic(m)
    a, b = z.numerator, z.denominator
    return ratsum([(hm.numerator * a**m, hm.denominator * b**m),
                   *((-a**k, b**k * (m - k)) for k in range(m))])


def _rec16_euler_lhs(n: int) -> Fraction:
    # sum_{j=1..n} (C(n,j) + 1) E_(j-1) / 2
    return ratsum(((binom_int(n, j) + 1) * e.numerator, 2 * e.denominator)
                  for j, e in enumerate(map(euler_number, range(n)), 1))


def _bpint_lhs(n: int) -> Fraction:
    # sum_{j<=n} C(n,j) B_j / (n-j+1)
    return ratsum((binom_int(n, j) * b.numerator, (n - j + 1) * b.denominator)
                  for j, b in enumerate(map(bernoulli, range(n + 1))))


def _hockey_lhs(n: int, j: int) -> Fraction:
    # sum_{k<j} C(n-k, j-k), term by term from k = j - 1 down: each term is
    # the one before times (n-k)/(j-k), an exact division
    total, term = 0, 1  # term = C(n-j, 0)
    for k in range(j - 1, -1, -1):
        term = term * (n - k) // (j - k)
        total += term
    return Fraction(total)


def _cauchy_h_weight(k: int) -> Fraction:
    return cauchy1(k) * harmonic(k)


def _hw_cauchy_rhs(n: int) -> Fraction:
    return 1 - (n + 1) * stirling2_transform(n, _cauchy_h_weight)


def _convention_note(bounds: SweepBounds) -> str:
    """Brute-force finding for Eq-(4)-style identity on the n-j=1 line, where
    the right side reduces to B_1."""
    lhs = [_gen_worpitzky_lhs(n, n - 1)
           for n in range(2, min(bounds.n_max, 30) + 1)]
    total = len(lhs)
    plus, minus = lhs.count(Fraction(1, 2)), lhs.count(Fraction(-1, 2))
    if not total:
        verdict = "no case on this line was checked"
    elif plus == total:
        verdict = "the +1/2 convention is required on this line"
    elif minus == total:
        verdict = "the -1/2 convention is required on this line"
    else:
        verdict = "neither convention closes every case on this line"
    return (f"n-j=1 subdomain, direct summation for n<=30: B_1=+1/2 closes the "
            f"identity in {plus}/{total} cases, B_1=-1/2 in {minus}/{total}; "
            f"{verdict}")


# --- case generators --------------------------------------------------------

def _cases_n(lo: int):
    def gen(b: SweepBounds) -> Iterable[Params]:
        return ({"n": n} for n in range(lo, b.n_max + 1))
    return gen


def _cases_main(b: SweepBounds) -> Iterable[Params]:
    for n in range(1, b.n_max + 1):
        top = n if b.include_j_equals_n else n - 1
        for j in b.j_range(0, top):
            yield {"n": n, "j": j}


def _cases_gen_worpitzky(b: SweepBounds) -> Iterable[Params]:
    for n in range(3, b.n_max + 1):
        for j in b.j_range(1, n - 2):
            yield {"n": n, "j": j}


def _cases_polyx(b: SweepBounds) -> Iterable[Params]:
    rng = _rng(b, "POLYX")
    for n in range(1, b.n_max + 1):
        for _ in range(b.rand_count):
            yield {"n": n, "x": _rand_rational(rng, nonzero=True)}


def _cases_polyx_coeffs(b: SweepBounds) -> Iterable[Params]:
    for n in range(1, b.n_max + 1):
        for i in range(n + 1):
            yield {"n": n, "coeff": i}


def _cases_nm(b: SweepBounds) -> Iterable[Params]:
    for n in range(1, b.n_max + 1):
        for m in range(1, b.m_max + 1):
            yield {"n": n, "m": m}


def _cases_eq11(b: SweepBounds) -> Iterable[Params]:
    rng = _rng(b, "AGOH_EQ11")
    for m in range(1, b.m_max + 1):
        for _ in range(b.rand_count):
            yield {"m": m, "z": _rand_rational(rng)}


def _cases_nj(j_lo: int):
    def gen(b: SweepBounds) -> Iterable[Params]:
        for n in range(1, b.n_max + 1):
            for j in b.j_range(j_lo, n):
                yield {"n": n, "j": j}
    return gen


def _cases_stirl20(b: SweepBounds) -> Iterable[Params]:
    for k in range(1, b.n_max + 1):
        for part in (1, 2):
            yield {"k": k, "part": part}


# --- catalog ----------------------------------------------------------------

class IdentityEntry(NamedTuple):
    """One identity: its domain, its case generator, and its two sides,
    each called with a case's parameters as keywords."""
    domain: str
    cases: Callable[[SweepBounds], Iterable[Params]]
    lhs: Callable[..., Fraction]
    rhs: Callable[..., Fraction]
    note: Callable[[SweepBounds], str] | None = None


# Layer functions and shared helpers are called from lambdas, never stored
# bare, so that every call goes through a module-level name that a tracer
# can rebind.
CATALOG: dict[str, IdentityEntry] = {
    "MAIN": IdentityEntry(
        "1 <= n <= n_max, 0 <= j <= n-1",
        _cases_main, lambda n, j: _calB_row(n)[j], _main_rhs,
        note=lambda b: "j=n excluded: RHS (binom(n,n)-1)*B_0/0 is "
                       "indeterminate; LHS there equals H_n"),
    "WORPITZKY": IdentityEntry(
        "1 <= n <= n_max", _cases_n(1), lambda n: worpitzky_bernoulli(n),
        lambda n: bernoulli(n)),
    "GEN_WORPITZKY": IdentityEntry(
        "3 <= n <= n_max, 1 <= j <= n-2",
        _cases_gen_worpitzky, _gen_worpitzky_lhs,
        lambda n, j: _bern_term(n - 1, j),
        note=_convention_note),
    "H1": IdentityEntry(
        "2 <= n <= n_max", _cases_n(2), _h1_lhs, lambda n: bernoulli(n - 1)),
    "H2": IdentityEntry(
        "2 <= n <= n_max", _cases_n(2), _h2_lhs,
        lambda n: Fraction(n + 1, 2) * bernoulli(n - 2)),
    "K3SPECIAL": IdentityEntry(
        "4 <= n <= n_max", _cases_n(4), _k3_lhs,
        lambda n: Fraction(n**2 + 2, 3) * bernoulli(n - 3)),
    "POLYX": IdentityEntry(
        "1 <= n <= n_max, random nonzero rational x",
        _cases_polyx,
        lambda n, x: _bern_row(n)(x),
        _polyx_rhs),
    "POLYX_COEFFS": IdentityEntry(
        "1 <= n <= n_max, coefficientwise in x",
        _cases_polyx_coeffs, lambda n, coeff: _bern_row(n).coeff(coeff),
        _polyx_coeff_rhs),
    "AGOH": IdentityEntry(
        "1 <= n <= n_max, 1 <= m <= m_max", _cases_nm,
        lambda n, m: _bern_row(n)(m),
        lambda n, m: _agoh_rhs(n, m)),
    "AGOH_ALT": IdentityEntry(
        "1 <= n <= n_max, 1 <= m <= m_max", _cases_nm,
        # sum_j (-1)^j c_j m^(n-j) = (-1)^n sum_j c_j (-m)^(n-j)
        lambda n, m: -_bern_row(n)(-m) if n % 2 else _bern_row(n)(-m),
        # the memoised sum AGOH computed; a Fraction plus an int adds into
        # its numerator without normalising again
        lambda n, m: _agoh_rhs(n, m) + m ** (n - 1) * (n - 1)),
    "AGOH_M1": IdentityEntry(
        "1 <= n <= n_max", _cases_n(1),
        lambda n: -_bern_row(n)(-1) if n % 2 else _bern_row(n)(-1),
        lambda n: n - harmonic(n)),
    "AGOH_COMBINE": IdentityEntry(
        "1 <= n <= n_max", _cases_n(1),
        # sum_j c_j (1 - 2^-j), and sum_j c_j 2^-j = 2^-n sum_j c_j 2^(n-j)
        lambda n: _bern_row(n)(1) - _bern_row(n)(2) / 2**n,
        lambda n: Fraction(1 - 2 ** (n - 1), 2**n)),
    "REC16": IdentityEntry(
        "1 <= n <= n_max", _cases_n(1),
        # sum_j c_j (1 - 2^j), and sum_j c_j 2^j = 2^n sum_j c_j 2^-(n-j)
        lambda n: _bern_row(n, 1)(1) - 2**n * _bern_row(n, 1)(Fraction(1, 2)),
        lambda n: Fraction(1)),
    "REC16_EULER": IdentityEntry(
        "1 <= n <= n_max", _cases_n(1),
        _rec16_euler_lhs, lambda n: Fraction(1)),
    "AGOH_EQ11": IdentityEntry(
        "1 <= m <= m_max, random rational z",
        _cases_eq11, _agoh_eq11_lhs, _agoh_eq11_rhs),
    "CUMSUM": IdentityEntry(
        "2 <= n <= n_max", _cases_n(2), lambda n: bernoulli_sum(n),
        lambda n: (dibernoulli_at_one(n) + worpitzky_bernoulli(n)
                   - dibernoulli(n) - 1)),
    "EQ14": IdentityEntry(
        "1 <= n <= n_max", _cases_n(1), lambda n: bernoulli_sum(n),
        lambda n: (_hsq_sum(n) + worpitzky_bernoulli(n) + (n == 1) + n
                   - n * n - 1)),
    "HSQ_BRIDGE": IdentityEntry(
        "1 <= n <= n_max", _cases_n(1), lambda n: _hsq_sum(n),
        lambda n: dibernoulli_at_one(n) - dibernoulli(n) + n * (n - 1)),
    "HOCKEY": IdentityEntry(
        "1 <= j <= n <= n_max", _cases_nj(1),
        _hockey_lhs,
        lambda n, j: Fraction(binom_int(n + 1, j) - 1)),
    "REDUCTION": IdentityEntry(
        "1 <= j <= n <= n_max", _cases_nj(1),
        lambda n, j: _calB_row(n + 1)[j],
        lambda n, j: _calB(n, j - 1) + _bern_term(n, j)),
    "STIRL20": IdentityEntry(
        "1 <= k <= n_max, parts 1 and 2", _cases_stirl20,
        lambda k, part: Fraction(stirling1(k, part)),
        lambda k, part: (Fraction(factorial(k - 1))
                         * (1 if part == 1 else harmonic(k - 1)))),
    "BPINT": IdentityEntry(
        "2 <= n <= n_max", _cases_n(2),
        _bpint_lhs, lambda n: Fraction(0)),
    "HW_CAUCHY": IdentityEntry(
        "1 <= n <= n_max", _cases_n(1),
        lambda n: bernoulli_reciprocal_sum(n), _hw_cauchy_rhs),
}

IDENTITY_IDS = tuple(CATALOG)


def eval_identity(case: IdentityCase) -> tuple[Fraction, Fraction]:
    """Evaluate both sides of one identity case exactly."""
    entry = CATALOG[case.id]
    return entry.lhs(**case.params), entry.rhs(**case.params)


# side values compared by numerator and denominator: Fraction.__eq__ asks
# isinstance(other, numbers.Rational), an ABC check, on every case
_EXACT = (int, Fraction)


def _sweep(id: str, units: Iterable, evaluate: Callable, where: Callable,
           notes: list[str]) -> Report:
    """The sweep policy of both catalogs. `evaluate(unit, sides)` returns a
    unit's case count and the (params, lhs, rhs) of each failing case, and
    writes each side into `sides` as it reaches it. A unit that raises is
    one failed case, kept with `where(unit)`'s params and the sides it
    reached, and noted after `where(unit)`'s text."""
    cases, failures = 0, []
    for unit in units:
        sides = [None, None]
        try:
            count, failed = evaluate(unit, sides)
        except Exception as exc:  # one broken case must not end the sweep
            text, params = where(unit)
            notes.append(f"{text}: {exc}" if isinstance(exc, IndeterminateRHS)
                         else f"{text}: {type(exc).__name__}: {exc}")
            count, failed = 1, [(params, *sides)]
        cases += count
        for params, lhs, rhs in failed:
            failures.append({"id": id, "params": params, "lhs": lhs, "rhs": rhs})
    return Report(id, cases, failures, notes)


def verify_identity(id: str, bounds: SweepBounds | None = None) -> Report:
    """Sweep one identity's declared domain by `_sweep`, a case per unit.
    Sides that are exactly int or Fraction are compared by numerator and
    denominator, any others by `!=`; a right side of None fails."""
    if id not in CATALOG:
        raise KeyError(f"unknown identity {id!r}")
    bounds = bounds or SweepBounds()
    entry = CATALOG[id]
    notes = [entry.note(bounds)] if entry.note else []
    domain = list(entry.cases(bounds))
    if domain and domain[0]:
        # every case of one id has the same parameter names, so this is the
        # order of tuple(sorted(params.items()))
        domain.sort(key=operator.itemgetter(*sorted(domain[0])))

    def evaluate(params: Params, sides: list) -> tuple:
        sides[0] = lhs = entry.lhs(**params)
        sides[1] = rhs = entry.rhs(**params)
        if type(lhs) in _EXACT and type(rhs) in _EXACT:
            failed = (lhs.numerator != rhs.numerator
                      or lhs.denominator != rhs.denominator)
        else:
            failed = rhs is None or lhs != rhs
        return (1, [(params, lhs, rhs)]) if failed else (1, ())
    return _sweep(id, domain, evaluate, lambda params: (params, params), notes)


def verify_all(bounds: SweepBounds | None = None,
               ids: Iterable[str] = IDENTITY_IDS) -> list[Report]:
    ids = tuple(ids)  # every id is checked before any is swept
    if unknown := [id for id in ids if id not in CATALOG]:
        raise KeyError(f"unknown identity {unknown[0]!r}")
    return [verify_identity(id, bounds) for id in ids]
