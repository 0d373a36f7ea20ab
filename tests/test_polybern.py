import functools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bernkit import classical, fps, seqcore
from bernkit.classical import bernoulli, bernoulli_poly_at
from bernkit.polybern import (dibernoulli, dibernoulli_at_one, poly_bernoulli,
                              stirling_sum_oracle)
from bernkit.seqcore import clear_memos, factorial, harmonic, stirling2


def test_oracle_validated_against_series_route():
    # the Stirling-sum cross-check must agree with the series expansion
    # before anything else trusts it
    for p in (1, 2, 3):
        for n in range(41):
            assert poly_bernoulli(n, p, 0) == stirling_sum_oracle(n, p)


def test_order_one_collapses_to_bernoulli_polynomials():
    for x in (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)):
        for n in range(31):
            assert poly_bernoulli(n, 1, x) == bernoulli_poly_at(n, x + 1)


def _power_sum_route(order, p, x):
    # sum_{k>=0} u^k/(k+1)^p with u = 1-e^{-t}, one power of u at a time,
    # times e^{xt}: a route that never divides by u, as a reference
    u = fps.sub(fps.Egf.one(order), fps.exp_t(order, -1))
    out = power = fps.Egf.one(order)
    for k in range(1, order + 1):
        power = fps.mul(power, u)
        out = fps.add(out, fps.scale(power, Fraction(1, (k + 1) ** p)))
    return fps.mul(out, fps.exp_t(order, x))


@pytest.mark.parametrize("p, x, order", [
    (p, x, order)
    for p, x in [(1, 0), (2, 0), (2, 1), (3, Fraction(-3, 2)), (5, Fraction(1, 2))]
    for order in (8, 32)] + [(2, 1, 64), (3, Fraction(-24, 11), 100),
                             (40, 0, 12), (1000, 5, 6)])
def test_series_matches_power_sum_route(p, x, order):
    assert (fps.named_series("polybern", order, p=p, x=x)
            == _power_sum_route(order, p, x))


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(1, 16),
       st.builds(Fraction, st.integers(-24, 24), st.integers(1, 12)))
def test_series_matches_power_sum_route_property(p, order, x):
    assert (fps.named_series("polybern", order, p=p, x=x)
            == _power_sum_route(order, p, x))


def test_series_reads_no_stirling_or_bernoulli_route(monkeypatch):
    # stirling_sum_oracle (a Stirling transform) checks this builder, and
    # HSQ_BRIDGE sets it against _hsq_sum (another): the builder must
    # reach none of those routes, nor classical.bernoulli (CUMSUM's left
    # side), under any name a bernkit module binds them to.
    want = fps.named_series("polybern", 40, p=3, x=Fraction(-3, 2))
    routes = (seqcore.stirling1, seqcore.stirling2,
              seqcore.stirling2_transform, classical.bernoulli)

    def checked_route(*args, **kwargs):
        raise AssertionError("the polybern builder read a checked route")

    for name, module in list(sys.modules.items()):
        if name == "bernkit" or name.startswith("bernkit."):
            for attr, value in list(vars(module).items()):
                if any(value is route for route in routes):
                    monkeypatch.setattr(module, attr, checked_route)
    assert fps.named_series("polybern", 40, p=3, x=Fraction(-3, 2)) == want


def test_build_cost_in_series_products_does_not_grow_with_order(monkeypatch):
    # a build costs O(order^2) through a fixed number of series products;
    # forming each power of u by a product would make it O(order^3)
    calls = []
    mul = fps.mul
    monkeypatch.setattr(fps, "mul", lambda a, b: calls.append(1) or mul(a, b))

    def products(order):
        calls.clear()
        fps.named_series("polybern", order, p=2, x=1)
        return len(calls)

    assert products(16) == products(100)


def test_constant_term():
    for p in (1, 2, 3, 5):
        assert poly_bernoulli(0, p, 0) == 1


def test_dibernoulli_basics():
    assert dibernoulli(0) == 1
    assert dibernoulli(1) == Fraction(1, 4)
    assert dibernoulli_at_one(0) == 1


def test_validation():
    with pytest.raises(ValueError):
        poly_bernoulli(-1, 2)
    with pytest.raises(ValueError):
        poly_bernoulli(3, 0)


def _hsq_sum(n):
    return sum(((-1) ** (n - k) * stirling2(n, k) * factorial(k)
                * harmonic(k) ** 2 for k in range(1, n + 1)), Fraction(0))


def test_harmonic_square_bridge():
    for n in range(1, 41):
        assert _hsq_sum(n) == dibernoulli_at_one(n) - dibernoulli(n) + n * (n - 1)


def test_cumulative_bernoulli_sum():
    for n in range(2, 61):
        lhs = sum((bernoulli(j) for j in range(n + 1)), Fraction(0))
        assert lhs == dibernoulli_at_one(n) + bernoulli(n) - dibernoulli(n) - 1


def test_cumulative_sum_spot_n2():
    lhs = sum(bernoulli(j) for j in range(3))
    assert lhs == Fraction(2, 3)
    assert lhs == dibernoulli_at_one(2) + bernoulli(2) - dibernoulli(2) - 1


@pytest.mark.parametrize("p", [1, 2, 3])
def test_values_are_independent_of_request_order(cold, monkeypatch, p):
    # named_series is pure, so walks that build the same order share it
    monkeypatch.setattr(fps, "named_series", functools.cache(fps.named_series))
    ns = list(range(61))
    rest = [n for n in ns if n not in (7, 60)]
    random.Random(p).shuffle(rest)
    for x in (Fraction(0), Fraction(1), Fraction(-3, 2)):
        series = fps.named_series("polybern", 60, p=p, x=x)
        want = {n: series.egf(n) for n in ns}
        for walk in (ns, ns[::-1], [7, 60, *rest]):
            clear_memos()
            assert {n: poly_bernoulli(n, p, x) for n in walk} == want


def test_ascending_requests_build_logarithmically_many_series(polybern_builds):
    for n in range(1, 65):
        poly_bernoulli(n, 2, 0)
    assert len(polybern_builds) <= 7
    assert max(polybern_builds) < 2 * 64
