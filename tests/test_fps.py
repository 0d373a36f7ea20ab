from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bernkit import fps
from bernkit.classical import hw
from bernkit.fps import (Egf, add, exp_t, inv, log1p_series, mul,
                         named_series, scale, sub)
from bernkit.seqcore import binom_int, factorial, harmonic, stirling2


def test_mul_basic():
    one_plus_t = Egf([1, 1, 0, 0])
    one_minus_t = Egf([1, -1, 0, 0])
    assert mul(one_plus_t, one_minus_t) == Egf([1, 0, -1, 0])


def test_mul_exp_squared():
    e = exp_t(12)
    sq = mul(e, e)
    for n in range(13):
        assert sq.coeff(n) == Fraction(2**n, factorial(n))


def test_scale_zero():
    assert scale(exp_t(6), 0) == Egf.zero(6)


def test_add_sub_roundtrip():
    a = Egf([1, 2, 3])
    b = Egf([5, -1, Fraction(1, 3)])
    assert sub(add(a, b), b) == a


def test_truncation_to_min_order():
    assert mul(Egf([1, 1, 1]), Egf([1, 1])).order == 1


def test_log_of_exp_minus_one():
    order = 24
    f = sub(exp_t(order), Egf.one(order))
    assert log1p_series(f) == Egf.identity(order)


# Property tests over the kernels the sweeps use: small-denominator
# rational coefficients, orders <= 12.
_rationals = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6))


def _series(constant=_rationals, min_order=0):
    return st.builds(lambda c, tail: Egf([c, *tail]), constant,
                     st.lists(_rationals, min_size=min_order, max_size=12))


def _derivative(a: Egf) -> Egf:
    return Egf([(i + 1) * a.coeffs[i + 1] for i in range(a.order)])


@given(_series(constant=_rationals.filter(bool)))
def test_inv_is_multiplicative_inverse(a):
    assert mul(inv(a), a) == Egf.one(a.order)


@given(_series(), _series(), _series())
def test_mul_commutative_and_associative(a, b, c):
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(_series(constant=st.just(Fraction(0)), min_order=1))
def test_log1p_derivative(f):
    # (1 + f) log(1 + f)' = f', exact through order f.order - 1
    one_plus = add(Egf.one(f.order), f)
    assert mul(one_plus, _derivative(log1p_series(f))) == _derivative(f)


def test_inv_requires_unit():
    with pytest.raises(ValueError):
        inv(Egf.identity(4))


def test_egf_accessor():
    e = exp_t(8)
    assert all(e.egf(n) == 1 for n in range(9))


def test_exact_evaluation():
    assert Egf([Fraction(1, 3), 0, 1])(Fraction(1, 2)) == Fraction(7, 12)


# coefficient lists of an order drawn uniformly from 0..30, mixing ints,
# Fractions and zeros
_coeff_lists = st.integers(0, 30).flatmap(lambda order: st.lists(
    st.one_of(st.integers(-50, 50), _rationals, st.just(0)),
    min_size=order + 1, max_size=order + 1))


@given(_coeff_lists,
       st.lists(st.one_of(st.integers(-30, 30), _rationals), max_size=4))
def test_call_matches_fraction_horner(coeffs, xs):
    # the first call fills the integer form, the later calls on the same
    # Egf reuse it
    a = Egf(coeffs)
    for x in [0, *xs, -7]:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        value = a(x)
        assert type(value) is Fraction and value == acc


class _Int(int):
    pass


class _Fraction(Fraction):
    pass


@given(_coeff_lists, st.integers(-30, 30), _rationals)
def test_call_at_any_input_type_matches_fraction(coeffs, n, q):
    # an exact int or Fraction is read as it stands and anything else goes
    # through Fraction(x) first; both give the value at Fraction(x)
    a = Egf(coeffs)
    for x in (n, q, "1/3", 0.5, Decimal("0.25"), True, _Int(n),
              _Fraction(q)):
        value = a(x)
        assert type(value) is Fraction and value == a(Fraction(x)), x


@given(_coeff_lists, _coeff_lists, st.booleans())
def test_mul_matches_fraction_schoolbook(ca, cb, called):
    # unequal orders truncate to the smaller one; when `called`, the left
    # operand's integer form is the one its Horner call filled
    a, b = Egf(ca), Egf(cb)
    if called:
        a(3)
    n = min(len(ca), len(cb)) - 1
    want = [sum((Fraction(ca[i]) * cb[k - i] for i in range(k + 1)),
                Fraction(0)) for k in range(n + 1)]
    got = mul(a, b)
    assert got.order == n and list(got.coeffs) == want
    assert all(type(c) is Fraction for c in got.coeffs)


def test_equality_requires_same_order():
    assert Egf([1, 2]) != Egf([1, 2, 0])


class TestNamedSeries:
    def test_stirling2_egf_k1(self):
        s = named_series("stirling2-egf", 8, k=1)
        em1 = sub(exp_t(8), Egf.one(8))
        assert s == em1

    def test_stirling2_egf_matches_table(self):
        for k in range(25):
            s = named_series("stirling2-egf", 24, k=k)
            for n in range(25):
                assert s.egf(n) == stirling2(n, k)

    def test_harmonic_ogf(self):
        s = named_series("harmonic-ogf", 32)
        for k in range(33):
            assert s.coeff(k) == harmonic(k)

    def test_harmonic_squared_ogf(self):
        s = named_series("harmonic-squared-ogf", 32)
        for k in range(33):
            assert s.coeff(k) == harmonic(k) ** 2

    def test_central_binomial_harmonic(self):
        s = named_series("central-binomial-harmonic-ogf", 16)
        for k in range(17):
            assert s.coeff(k) == binom_int(2 * k, k) * harmonic(k)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named_series("nope", 4)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            named_series("harmonic-ogf", 0)


def test_hw_half_generating_function():
    # sum_n hw(n,-1/2) (-2t)^n/n! = 2 e^t ln((e^t+1)/2), truncated
    order = 24
    lhs = Egf([Fraction(0)] + [
        hw(n, Fraction(-1, 2)) * Fraction((-2) ** n, factorial(n))
        for n in range(1, order + 1)])
    argument = scale(add(exp_t(order), Egf.one(order)), Fraction(1, 2))
    rhs = mul(scale(exp_t(order), 2),
              log1p_series(sub(argument, Egf.one(order))))
    assert lhs == rhs


def test_sqrt_one_minus_4t_squares_back():
    order = 20
    g = fps.sqrt_one_minus_4t(order)
    sq = mul(g, g)
    expect = Egf([1, -4] + [0] * (order - 1))
    assert sq == expect
