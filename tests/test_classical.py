import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernkit import classical, fps, seqcore
from bernkit.classical import (bernoulli, bernoulli_poly, bernoulli_poly_at,
                               cauchy1, cauchy1_integral, euler_number, hw,
                               worpitzky_bernoulli)
from bernkit.congr import odd_primes_upto, prime_sweep
from bernkit.fps import Egf
from bernkit.identities import SweepBounds, verify_identity
from bernkit.seqcore import (binom_int, clear_memos, harmonic,
                             stirling2_transform)


class TestBernoulli:
    def test_printed_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)

    def test_odd_vanish(self):
        assert bernoulli(7) == 0
        assert all(bernoulli(2 * n + 1) == 0 for n in range(1, 30))

    def test_b12(self):
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_defining_recurrence(self):
        for n in range(1, 60):
            assert sum(binom_int(n + 1, j) * bernoulli(j)
                       for j in range(n + 1)) == 0

    def test_route_equality_with_worpitzky(self):
        for n in range(1, 101):
            assert bernoulli(n) == worpitzky_bernoulli(n)

    def test_matches_fraction_recurrence(self):
        # reference: the defining recurrence sum_j C(n+1,j) B_j = 0 in Fraction
        ref = [Fraction(1)]
        for m in range(1, 301):
            ref.append(-sum(binom_int(m + 1, j) * ref[j] for j in range(m))
                       / (m + 1))
        assert [bernoulli(n) for n in range(301)] == ref

    def test_cache_independent_of_request_order(self, cold):
        def values(walk):
            clear_memos()
            for n in walk:
                bernoulli(n)
            # the table grows to the largest index asked for, no further
            assert len(classical._BERN) == max(walk) + 1
            return [bernoulli(n) for n in range(301)]

        cold = values([300])
        assert values(range(301)) == cold
        assert values([7, 250, 3]) == cold
        # VSC's walk: B_2j for j <= p, over the odd primes p <= 151
        vsc = [2 * j for p in odd_primes_upto(151) for j in range(1, p + 1)]
        assert values(vsc) == cold

    def test_perturbed_genocchi_row_is_caught(self, cold):
        # one wrong entry of the working row, past |G_22| at its head,
        # enters every |G_2j| from j = 12 on, and WORPITZKY's independent
        # Stirling route catches each of those B_2j
        bernoulli(20)
        classical._GENOCCHI[4] += 1
        report = verify_identity("WORPITZKY", SweepBounds(n_max=40))
        assert [f["params"]["n"] for f in report.failures] == list(
            range(24, 41, 2))

    def test_worpitzky_small(self):
        assert worpitzky_bernoulli(1) == Fraction(-1, 2)
        assert worpitzky_bernoulli(2) == Fraction(1, 6)
        assert worpitzky_bernoulli(3) == 0


class TestBernoulliPoly:
    def test_degree_two(self):
        assert bernoulli_poly(2) == Egf([Fraction(1, 6), -1, 1])
        assert bernoulli_poly_at(2, 1) == Fraction(1, 6)

    def test_value_at_zero(self):
        for n in range(41):
            assert bernoulli_poly_at(n, 0) == bernoulli(n)

    def test_reflection(self):
        # (-1)^n B_n(-x) = B_n(x) + n x^(n-1) at n=3, x=2
        assert -bernoulli_poly_at(3, -2) == bernoulli_poly_at(3, 2) + 12
        for n in range(1, 15):
            for x in (Fraction(1, 2), 2, -3):
                x = Fraction(x)
                assert ((-1) ** n * bernoulli_poly_at(n, -x)
                        == bernoulli_poly_at(n, x) + n * x ** (n - 1))


def euler_tangent_mismatches(k_max):
    """The k <= k_max at which e_(2k-1) = 2^(2k-1) E_(2k-1)(0) differs from
    (-1)^k T_k, with the tangent number T_k read off B_2k as
    (-1)^(k-1) B_2k 4^k (4^k - 1) / (2k) (DLMF 24.4)."""
    bad = []
    for k in range(1, k_max + 1):
        four_k = 4**k
        t_k = (-1) ** (k - 1) * bernoulli(2 * k) * four_k * (four_k - 1)
        t_k /= 2 * k
        if euler_number(2 * k - 1) * 2 ** (2 * k - 1) != (-1) ** k * t_k:
            bad.append(k)
    return bad


class TestEuler:
    def test_even_numbers_vanish(self):
        assert euler_number(0) == 1
        assert all(euler_number(2 * m) == 0 for m in range(1, 25))

    def test_first_four_sum(self):
        assert sum(euler_number(j) for j in range(4)) == Fraction(3, 4)

    def test_at_one_vs_bernoulli(self):
        # E_k(1) = -E_k(0) = 2(2^(k+1)-1) B_(k+1)/(k+1); fails at k=0
        # (E_0 is the constant 1), holds from k=1 on (DLMF 24.4). Three
        # independent routes: the series 2e^t/(e^t+1) gives E_k(1),
        # euler_number Seidel's boustrophedon for 2^k E_k(0), bernoulli
        # Seidel's Genocchi triangle.
        at_one = fps.named_series("euler-poly-egf", 40, x=1)
        assert at_one.egf(1) == -euler_number(1) == Fraction(1, 2)
        for k in range(1, 41):
            closed = 2 * (2 ** (k + 1) - 1) * bernoulli(k + 1) / (k + 1)
            assert at_one.egf(k) == -euler_number(k) == closed

    def test_tangent_numbers_match_bernoulli(self):
        # euler_number's boustrophedon and bernoulli's Genocchi triangle
        # (two Seidel triangles that share no code) reach the tangent
        # numbers by different algorithms
        assert euler_tangent_mismatches(300) == []
        assert all(euler_number(n) == 0 for n in range(2, 601, 2))

    def test_tangent_check_kills_perturbed_tables(self, cold):
        bernoulli(20)
        classical._GENOCCHI[4] += 1  # every B_2k from k = 12 on is wrong
        assert euler_tangent_mismatches(30) == list(range(12, 31))
        clear_memos()
        euler_number(20)
        classical._EULER2[9] += 1  # e_9 alone: no later e_n reads it
        assert euler_tangent_mismatches(30) == [5]
        clear_memos()
        euler_number(20)
        classical._SEIDEL[3] += 1  # row 20: every later row is carried from it
        assert euler_tangent_mismatches(30) == list(range(11, 31))

    def test_matches_poly_route(self):
        # the series 2/(e^t+1) by inversion, which reads no classical code
        series = fps.named_series("euler-poly-egf", 150, x=0)
        for n in range(151):
            assert euler_number(n) == series.egf(n)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="euler_number requires n >= 0"):
            euler_number(-1)

    def test_doubled_values_integral(self):
        for m in range(61):
            v = 2**m * euler_number(m)
            assert v.denominator == 1

    def test_poly_matches_series_oracle(self):
        # E_n(x) = sum_k C(n,k) E_k(0) x^(n-k), from the recurrence's values
        # at x = 0, against the series 2e^{xt}/(e^t+1) at x
        for x in (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2, 3)):
            series = fps.named_series("euler-poly-egf", 20, x=x)
            for n in range(21):
                expanded = sum((binom_int(n, k) * euler_number(k)
                                * x ** (n - k) for k in range(n + 1)),
                               Fraction(0))
                assert expanded == series.egf(n)


# every k <= 150 whose step rescales cauchy1's anti-diagonal: lcm(1..k+1)
# grows, as k + 1 is a prime power
RESCALES = [k for k in range(1, 151)
            if math.lcm(*range(1, k + 2)) > math.lcm(*range(1, k + 1))]


@functools.cache
def cauchy1_oracle(k):
    return cauchy1_integral(k)


class TestCauchy:
    def test_values(self):
        assert cauchy1(0) == 1
        assert cauchy1(1) == Fraction(1, 2)
        assert cauchy1(2) == Fraction(-1, 6)

    def test_matches_integral_oracle(self, cold):
        # a descending walk, as `compute cauchy1` asks, from an empty memo
        for k in range(40, -1, -1):
            assert cauchy1(k) == cauchy1_integral(k)
        # the table grows to the largest k asked for, no further
        assert len(classical._CAUCHY1) == 41

    @settings(max_examples=40, deadline=None)
    @given(ks=st.lists(st.integers(0, 150), min_size=1, max_size=8))
    @example(ks=RESCALES)
    @example(ks=RESCALES[::-1])
    @example(ks=[127, 126, 128, 6, 7, 5])
    @example(ks=[0])
    def test_any_request_order_matches_integral_oracle(self, ks):
        # requests in any order, from cold and again after clear_memos, read
        # the integral oracle's values, across the steps that rescale the
        # anti-diagonal (k + 1 a prime power); the table and its row end at
        # the largest k asked
        for _ in range(2):
            clear_memos()
            assert [cauchy1(k) for k in ks] == [cauchy1_oracle(k) for k in ks]
            assert len(classical._CAUCHY1) == max(ks) + 1
            assert len(classical._CAUCHY1_ROW) == max(ks) + 1

    @staticmethod
    def failures_after_perturbing(entry, delta):
        # fill to k = 10, change one entry of the anti-diagonal, then sweep
        # what reads c_k past 10: HW_CAUCHY's Bernoulli side, CP1 and C3SQ
        cauchy1(10)
        classical._CAUCHY1_ROW[entry] += delta
        report = verify_identity("HW_CAUCHY", SweepBounds(n_max=30))
        identity = [f["params"]["n"] for f in report.failures]
        report = prime_sweep(("CP1", "C3SQ"), 61)
        return identity, [(f["id"], f["params"]["p"], f["params"]["case"])
                          for f in report.failures]

    def test_perturbed_working_row_is_caught(self, cold):
        # the row holds D_m = L I_(10-m)(m) with L = lcm(1..11); D_3 + L/4
        # corrupts every later c_k. HW_CAUCHY catches each of them; CP1's
        # c_p statement misses p = 59 alone (the wrong c_59 still reads
        # 1 mod 59), and C3SQ, mod p^2, catches every p
        primes = [p for p in odd_primes_upto(61) if p >= 11]
        identity, congruences = self.failures_after_perturbing(
            3, math.lcm(*range(1, 12)) // 4)
        assert identity == list(range(11, 31))
        assert congruences == (
            [("CP1", p, "c_p") for p in primes if p != 59]
            + [("C3SQ", p, "") for p in primes])

    def test_perturbed_lcm_entry_is_caught(self, cold):
        # D_0 = L / 11 is where the step reads L from, and it enters the step
        # through L alone: D_0 + 1 reads L + 11 = 11 * 2521. The wrong c_11
        # is c_11 + (1/12 - c_11) / 2521, a multiple of 11^2 off, so p = 11
        # passes CP1 and C3SQ; every later c_k is caught
        primes = [p for p in odd_primes_upto(61) if p >= 13]
        identity, congruences = self.failures_after_perturbing(0, 1)
        assert identity == list(range(11, 31))
        assert congruences == ([("CP1", p, "c_p") for p in primes]
                               + [("C3SQ", p, "") for p in primes])


class TestHw:
    def test_x_one(self):
        assert all(hw(n, 1) == 1 for n in range(1, 20))

    def test_direct_values(self):
        assert hw(2, 2) == 5
        assert hw(2, Fraction(-1, 2)) == Fraction(5, 8)

    def test_closed_integer_route(self):
        def hw_closed_integer(n, m):
            # H_m m^n - sum_{j=1..m} (m-j)^n / j, at positive integer m
            return harmonic(m) * Fraction(m) ** n - sum(
                (Fraction((m - j) ** n, j) for j in range(1, m + 1)),
                Fraction(0))

        assert hw_closed_integer(2, 2) == 5
        assert hw_closed_integer(3, 2) == 11
        for n in range(1, 13):
            assert hw_closed_integer(n, 1) == 1
            for m in range(1, 8):
                assert hw_closed_integer(n, m) == hw(n, m)

    @settings(max_examples=40, deadline=None)
    @given(n_max=st.integers(1, 40), a=st.integers(-24, 24),
           b=st.integers(1, 12), descending=st.booleans())
    @example(n_max=40, a=0, b=1, descending=True)
    @example(n_max=40, a=7, b=1, descending=False)
    @example(n_max=40, a=-13, b=1, descending=True)
    @example(n_max=40, a=-17, b=7, descending=False)
    def test_matches_fraction_transform(self, n_max, a, b, descending):
        # reference: the Stirling transform of k! binom(x,k) H_k, with
        # k! binom(x,k) = x(x-1)...(x-k+1) multiplied out in Fractions, apart
        # from binom's falling row. Each walk starts cold, is repeated on the
        # warm row with another x's row grown in between, and runs again
        # after clear_memos; compute walks n downward.
        x = Fraction(a, b)
        falling = [Fraction(1)]
        for i in range(n_max):
            falling.append(falling[-1] * (x - i))
        walk = range(n_max, 0, -1) if descending else range(1, n_max + 1)
        want = [stirling2_transform(n, lambda k: falling[k] * harmonic(k))
                for n in walk]
        for _ in range(2):
            clear_memos()
            assert [hw(n, x) for n in walk] == want
            hw(n_max + 3, x + 1)
            assert [hw(n, x) for n in walk] == want
            assert len(seqcore._FALLING[x]) == n_max + 1

    def test_perturbed_falling_row_is_caught(self, cold):
        # F_10 = 10! b^10 binom(x,10) plus 1 at x = -2 fails exactly the
        # POLYX cases with that x and n >= 10, which read F_10 and the
        # entries that binom grows from it; its case at n = 8 reads F_1..F_8
        # only
        x = Fraction(-2)
        hw(10, x)
        seqcore._FALLING[x][10] += 1
        report = verify_identity("POLYX", SweepBounds(n_max=16))
        assert [(f["params"]["n"], f["params"]["x"])
                for f in report.failures] == [(n, x) for n in range(10, 14)]

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            hw(0, 1)


def test_agoh_harmonic_equality():
    # sum_k C(m,k) H_k (z-1)^k = H_m z^m - sum_k z^k/(m-k)
    rng = random.Random(5)
    for m in range(1, 21):
        for _ in range(10):
            z = Fraction(rng.randint(-15, 15), rng.randint(1, 9))
            lhs = sum(binom_int(m, k) * harmonic(k) * (z - 1) ** k
                      for k in range(1, m + 1))
            rhs = harmonic(m) * z**m - sum(z**k / Fraction(m - k)
                                           for k in range(m))
            assert lhs == rhs


def test_polynomials_are_egfs_of_order_n():
    # degree n with leading coefficient 1, so no trailing zero to trim
    for n in range(31):
        poly = bernoulli_poly(n)
        assert isinstance(poly, Egf)
        assert poly.order == n and poly.coeffs[-1] == 1


def test_oracle_routes_do_not_read_the_checked_routes(cold, monkeypatch):
    # cauchy1_integral checks cauchy1 (a Stirling sum), and the series
    # 2e^{xt}/(e^t+1) checks euler_number: neither may call the route it
    # checks.
    cauchy = [cauchy1_integral(k) for k in range(25)]
    euler = fps.named_series("euler-poly-egf", 24, x=0).coeffs

    def checked_route(*args):
        raise AssertionError("oracle route called the route it checks")

    monkeypatch.setattr(seqcore, "stirling1", checked_route)
    monkeypatch.setattr(classical, "cauchy1", checked_route)
    monkeypatch.setattr(classical, "euler_number", checked_route)
    clear_memos()
    assert [cauchy1_integral(k) for k in range(25)] == cauchy
    assert fps.named_series("euler-poly-egf", 24, x=0).coeffs == euler


@pytest.fixture(scope="module")
def direct_sums():
    """For n <= 300: c_n by the integral oracle, and each prefix sum the
    congruence catalog reads re-summed from j = 0, one Fraction per term."""
    ns = range(301)
    b = [bernoulli(j) for j in ns]
    e = [euler_number(j) for j in ns]
    return {
        "cauchy1": [cauchy1_integral(n) for n in ns],
        "bernoulli_sum": [sum(b[:n + 1], Fraction(0)) for n in ns],
        "euler_sum": [sum(e[:n + 1], Fraction(0)) for n in ns],
        "bernoulli_reciprocal_sum": [
            sum((b[j] / (n - j + 1) for j in range(n + 1)), Fraction(0))
            for n in ns],
    }


@pytest.mark.parametrize("walk", [range(301), range(300, -1, -1)],
                         ids=["ascending", "descending"])
def test_cold_walks_match_direct_sums(cold, direct_sums, walk):
    # each route fills its own table from cold, whichever way it is walked
    for name, direct in direct_sums.items():
        clear_memos()
        route = getattr(classical, name)
        assert [route(n) for n in walk] == [direct[n] for n in walk], name
    assert classical.bernoulli_sum(-1) == 0
    assert classical.bernoulli_reciprocal_sum(-1) == 0
