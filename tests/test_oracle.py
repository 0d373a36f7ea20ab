"""Cross-checks against sympy, an implementation written independently of
bernkit. Skipped when sympy is not installed."""

from fractions import Fraction

import pytest

from bernkit import classical, fps, seqcore

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402
from sympy.polys.ring_series import (rs_log, rs_mul,  # noqa: E402
                                     rs_series_inversion)
from sympy.polys.rings import ring  # noqa: E402


def _q(r) -> Fraction:
    """A sympy rational (Rational or a ground-domain QQ element) as a
    Fraction."""
    return Fraction(int(r.numerator), int(r.denominator))


def test_bernoulli_matches_sympy(cold):
    # sympy's B_1 is +1/2, bernkit's -1/2, so that one sign is flipped
    want = [_q(sympy.bernoulli(n)) for n in range(201)]
    want[1] = -want[1]
    assert [classical.bernoulli(n) for n in range(201)] == want
    assert [classical.worpitzky_bernoulli(n)
            for n in range(1, 121)] == want[1:121]


def test_euler_at_zero_matches_sympy(cold):
    # E_n(0) = -2 (2^(n+1) - 1) B_(n+1) / (n+1), from sympy's Bernoulli
    # numbers with B_1 = -1/2; sympy.euler(n, 0), the Euler polynomial
    # E_n(x) at x = 0, is slow past n = 40, so it checks the first values
    # directly (sympy.euler(n) alone is the secant number)
    b = [_q(sympy.bernoulli(n)) for n in range(202)]
    b[1] = -b[1]
    want = [-2 * (2 ** (n + 1) - 1) * b[n + 1] / (n + 1) for n in range(201)]
    assert want[:41] == [_q(sympy.euler(n, 0)) for n in range(41)]
    assert [classical.euler_number(n) for n in range(201)] == want


def test_harmonic_and_its_ogf_match_sympy(cold):
    want = [_q(sympy.harmonic(n)) for n in range(201)]
    assert [seqcore.harmonic(n) for n in range(201)] == want
    # -ln(1-t)/(1-t) expanded by sympy's ring series, to t^60
    order = 60
    want = want[:order + 1]
    _, t = ring("t", sympy.QQ)
    series = rs_mul(-rs_log(1 - t, t, order + 1),
                    rs_series_inversion(1 - t, t, order + 1), t, order + 1)
    assert [_q(series.coeff(t**n)) for n in range(order + 1)] == want
    assert list(fps.named_series("harmonic-ogf", order).coeffs) == want


def test_stirling_triangles_match_sympy(cold):
    for n in range(61):
        for k in range(n + 1):
            assert seqcore.stirling1(n, k) == stirling(n, k, kind=1)
            assert seqcore.stirling2(n, k) == stirling(n, k, kind=2)


def test_harmonic_gen_matches_sympy(cold):
    want = [_q(sympy.harmonic(n, 2)) for n in range(81)]
    assert [seqcore.harmonic_gen(n, 2) for n in range(81)] == want


def test_binom_matches_sympy(cold):
    for x in (Fraction(1, 2), Fraction(-7, 3), 5):
        want = [_q(sympy.binomial(sympy.Rational(x), k)) for k in range(60)]
        assert [seqcore.binom(x, k) for k in range(60)] == want, x


def test_bernoulli_poly_at_matches_sympy(cold):
    # B_n(x) at an int and at a Fraction x, which Egf.__call__ reads as
    # they stand; sympy's B_1(x) is x - 1/2 too
    for x in (3, Fraction(-2, 5)):
        want = [_q(sympy.bernoulli(n, sympy.Rational(x))) for n in range(31)]
        assert [classical.bernoulli_poly_at(n, x) for n in range(31)] == want
