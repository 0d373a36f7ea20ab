import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from bernkit import congr
from bernkit.congr import (DenominatorDivisibleByP, Residue, check_congruence,
                           odd_primes_upto, prime_sweep, rational_mod)
from bernkit.seqcore import harmonic


class TestRationalMod:
    def test_examples(self):
        assert rational_mod(Fraction(-1, 2), 3, 3) == Residue(1, 3)
        assert rational_mod(Fraction(3, 4), 3, 3) == Residue(0, 3)

    def test_denominator_divisible(self):
        with pytest.raises(DenominatorDivisibleByP):
            rational_mod(Fraction(1, 3), 3, 3)

    def test_modulus_validation(self):
        # an int is reduced directly, but only after the modulus is checked
        for r in (Fraction(1, 2), 0, 5, -5, 2**300, (1, 2)):
            with pytest.raises(ValueError):
                rational_mod(r, 15, 3)

    def test_square_modulus(self):
        assert rational_mod(Fraction(1, 2), 25, 5) == Residue(13, 5 * 5)

    @given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
    def test_multiplicative(self, a, b):
        p = 7
        if a.denominator % p == 0 or b.denominator % p == 0:
            return
        ra = rational_mod(a, p, p).value
        rb = rational_mod(b, p, p).value
        assert rational_mod(a * b, p, p).value == ra * rb % p

    @given(st.sampled_from([3, 5, 7, 11]), st.booleans(),
           st.fractions(max_denominator=50), st.fractions(max_denominator=50))
    def test_ring_homomorphism(self, p, square, a, b):
        # + and * are preserved modulo p and p^2 for denominators prime to p
        assume(a.denominator % p and b.denominator % p)
        m = p * p if square else p
        ra = rational_mod(a, m, p).value
        rb = rational_mod(b, m, p).value
        assert rational_mod(a + b, m, p).value == (ra + rb) % m
        assert rational_mod(a * b, m, p).value == ra * rb % m

    @given(st.one_of(st.integers(max_value=-1), st.just(0),
                     st.integers(min_value=2**256 + 1, max_value=2**320)),
           st.sampled_from([3, 5, 7, 11, 151]), st.booleans())
    def test_int_fast_path_matches_fraction(self, n, p, square):
        m = p * p if square else p
        assert rational_mod(n, m, p) == rational_mod(Fraction(n), m, p)

    @given(st.sampled_from([3, 5, 7, 11, 151]), st.booleans(),
           st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool),
           st.integers(0, 3), st.integers(0, 3), st.integers(1, 60))
    @example(5, True, 7, 3, 2, 2, 6)
    @example(5, True, 7, 3, 2, 1, 1)
    @example(5, False, 0, -3, 0, 3, 1)
    @example(3, True, -2, 9, 1, 0, 2)
    def test_pair_matches_fraction(self, p, square, num, den, a, b, unit):
        # the pair (num p^a u, den p^b u), with common factors of p, of p^2
        # and prime to p, reduces as its Fraction does, and raises exactly
        # when that Fraction's denominator is divisible by p
        m = p * p if square else p
        pair = (num * p**a * unit, den * p**b * unit)
        want = Fraction(*pair)
        if want.denominator % p:
            assert rational_mod(pair, m, p) == rational_mod(want, m, p)
        else:
            with pytest.raises(DenominatorDivisibleByP):
                rational_mod(pair, m, p)

    def test_pair_with_zero_denominator(self):
        for pair in ((0, 0), (3, 0), (1, 0)):
            with pytest.raises(ZeroDivisionError):
                rational_mod(pair, 9, 3)


def test_residue_range_enforced():
    with pytest.raises(ValueError):
        Residue(7, 5)
    r = Residue(1, 3)
    for make in (lambda: r._replace(value=7), lambda: Residue._make((7, 5)),
                 lambda: Residue(-1, 3)):
        with pytest.raises(ValueError):
            make()


def test_value_types():
    r = Residue(1, 3)
    with pytest.raises(AttributeError):
        r.value = 2
    assert r == Residue(1, 3) and hash(r) == hash(Residue(1, 3))
    assert repr(r) == "Residue(value=1, modulus=3)"
    assert str(r) == "1 (mod 3)"
    assert congr.CongruenceResult._fields == (
        "id", "p", "label", "lhs", "rhs", "passed")
    (res,) = check_congruence("C1", 5)
    with pytest.raises(AttributeError):
        res.passed = False


def test_odd_primes():
    assert odd_primes_upto(20) == [3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        odd_primes_upto(2)


class TestCatalog:
    def test_c1_at_3(self):
        (res,) = check_congruence("C1", 3)
        assert res.lhs == Residue(2, 3) == res.rhs
        assert res.passed

    def test_c4_at_5(self):
        (res,) = check_congruence("C4", 5)
        assert res.lhs == Residue(4, 5)
        assert res.passed

    def test_c4_below_5_rejected(self):
        with pytest.raises(ValueError):
            check_congruence("C4", 3)

    def test_c2_at_3(self):
        (res,) = check_congruence("C2", 3)
        assert res.lhs == Residue(0, 3) == res.rhs
        assert res.passed

    def test_babbage_at_5(self):
        assert harmonic(4) == Fraction(25, 12)
        (res,) = check_congruence("BABBAGE", 5)
        assert res.lhs == Residue(0, 5)
        assert res.passed

    def test_vsc_both_branches(self):
        results = check_congruence("VSC", 7)
        hit = {res.label: res for res in results}
        assert hit["j=3"].rhs.value == 6     # (p-1) | 2j
        assert hit["j=1"].rhs.value == 0
        assert all(res.passed for res in results)

    def test_cp1_sub_cases(self):
        results = check_congruence("CP1", 11)
        assert [res.label for res in results] == ["c_p", "p*c_(p-1)"]
        assert all(res.passed for res in results)

    def test_stirp(self):
        results = check_congruence("STIRP", 11)
        assert len(results) == 9  # k = 2 .. p-1
        assert all(res.passed for res in results)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            check_congruence("NOPE", 5)

    def test_composite_p_rejected(self, cold):
        for p in (1, 2, 4, 9, 15, 25, 121, 961):
            with pytest.raises(ValueError):
                check_congruence("C1", p)
        # accepted at exactly the sieve's primes
        primes = set(odd_primes_upto(2003))
        for p in range(2004):
            try:
                (res,) = check_congruence("BABBAGE", p)
            except ValueError:
                assert p not in primes
            else:
                assert p in primes and res.passed


def test_sweep_small():
    report = prime_sweep(p_max=31)
    assert report.passed
    assert report.cases > 0
    assert "skipped: C4 at p=3: requires p >= 5" in report.notes


def test_sweep_deterministic():
    a = prime_sweep(("C1", "BABBAGE"), 23)
    b = prime_sweep(("C1", "BABBAGE"), 23)
    assert (a.cases, a.failures, a.notes) == (b.cases, b.failures, b.notes)


def test_sweep_records_raising_case_and_continues(monkeypatch):
    # H_(p-1) + 1/p has p in its denominator, so BABBAGE cannot be reduced
    monkeypatch.setattr(congr, "harmonic", lambda n: harmonic(n) + Fraction(1, n + 1))
    report = prime_sweep(("BABBAGE", "C1"), 13)
    assert report.cases == 10
    assert report.failures == [
        {"id": "BABBAGE", "params": {"p": p, "case": ""}, "lhs": None, "rhs": None}
        for p in (3, 5, 7, 11, 13)]
    assert len(report.notes) == 5
    assert all("DenominatorDivisibleByP" in note for note in report.notes)


def test_c1sq_implies_c1():
    results = check_congruence("C1SQ", 7)
    assert [res.rhs.modulus for res in results] == [49, 7]
    assert results[1].label == "implies C1"
    assert results[1].lhs == check_congruence("C1", 7)[0].lhs
    assert all(res.passed for res in results)


def test_sweep_to_401():
    # per odd prime p: 2p + 9 statements (VSC has p, STIRP p - 2, C1SQ and
    # CP1 two each), less C4 at p = 3
    report = prime_sweep(p_max=401)
    assert report.failures == []
    assert report.cases == 29273
    assert report.notes == ["skipped: C4 at p=3: requires p >= 5"]


@pytest.mark.slow
def test_sweep_to_1009_within_limit():
    start = time.monotonic()
    report = prime_sweep(p_max=1009)
    elapsed = time.monotonic() - start
    assert report.failures == []
    assert report.cases == 155779
    assert elapsed < 60, f"prime_sweep(p_max=1009) took {elapsed:.1f}s"
