import gc
import math
import random
import re
from fractions import Fraction
from weakref import WeakKeyDictionary

import pytest
from hypothesis import example, given, strategies as st

from bernkit import classical, identities, polybern, seqcore
from bernkit.identities import IdentityCase, eval_identity
from bernkit.seqcore import (binom, binom_int, clear_memos, factorial,
                             harmonic, harmonic_gen, stirling1, stirling2,
                             stirling2_transform)


def count_set_partitions(n, k):
    """Brute-force oracle: partitions of {0..n-1} into k nonempty blocks."""
    def rec(i, blocks):
        if i == n:
            return 1 if len(blocks) == k else 0
        total = 0
        for b in blocks:
            b.append(i)
            total += rec(i + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([i])
            total += rec(i + 1, blocks)
            blocks.pop()
        return total
    return rec(0, []) if n else (1 if k == 0 else 0)


def count_cycle_permutations(n, k):
    """Brute-force oracle: permutations of n elements with exactly k cycles."""
    import itertools
    total = 0
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for i in range(n):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        if cycles == k:
            total += 1
    return total


class TestStirling2:
    def test_diagonal(self):
        assert all(stirling2(n, n) == 1 for n in range(12))

    def test_3_2_matches_enumeration(self):
        assert count_set_partitions(3, 2) == 3
        assert stirling2(3, 2) == 3

    def test_5_3(self):
        assert stirling2(5, 3) == 25
        assert stirling2(5, 3) % 5 == 0

    @pytest.mark.parametrize("n", range(7))
    def test_small_triangle_matches_enumeration(self, n):
        for k in range(n + 2):
            assert stirling2(n, k) == count_set_partitions(n, k)

    def test_above_diagonal_zero(self):
        assert stirling2(4, 7) == 0

    def test_edge_rows(self):
        assert stirling2(0, 0) == 1
        assert all(stirling2(n, 0) == 0 for n in range(1, 10))
        assert all(stirling2(n, 1) == 1 for n in range(1, 10))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stirling2(-1, 0)


class TestStirling1:
    def test_4_1(self):
        assert stirling1(4, 1) == 6
        assert count_cycle_permutations(4, 1) == 6

    def test_diagonal(self):
        assert all(stirling1(n, n) == 1 for n in range(12))

    def test_3_2_matches_enumeration(self):
        assert stirling1(3, 2) == 3 == count_cycle_permutations(3, 2)

    @pytest.mark.parametrize("n", range(7))
    def test_small_triangle_matches_enumeration(self, n):
        for k in range(n + 1):
            assert stirling1(n, k) == count_cycle_permutations(n, k)

    def test_row_sums_are_factorials(self):
        for n in range(41):
            assert sum(stirling1(n, k) for k in range(n + 1)) == factorial(n)

    def test_first_two_columns(self):
        # [k,1] = (k-1)! and [k,2] = (k-1)! H_(k-1)
        for k in range(1, 41):
            assert stirling1(k, 1) == factorial(k - 1)
            assert stirling1(k, 2) == factorial(k - 1) * harmonic(k - 1)

    def test_third_column_harmonic_form(self):
        for k in range(3, 41):
            expected = (Fraction(factorial(k - 1), 2)
                        * (harmonic(k - 1) ** 2 - harmonic_gen(k - 1, 2)))
            assert stirling1(k, 3) == expected


def test_each_triangle_grows_alone(cold):
    # each kind appends rows only to its own triangle, and cauchy1 advances
    # a scaled working row of [k,j] instead of filling either triangle
    classical.cauchy1(300)
    assert (len(seqcore._S1), len(seqcore._S2)) == (1, 1)
    stirling2(40, 3)
    assert (len(seqcore._S1), len(seqcore._S2)) == (1, 41)
    stirling1(30, 3)
    assert (len(seqcore._S1), len(seqcore._S2)) == (31, 41)


def test_every_memo_table_is_registered_and_cleared():
    # each table's contents at import, written out independently of memo
    cold = {"_S2": [[1]], "_S1": [[1]], "_FACT": [1], "_H": [Fraction(0)],
            "_HM": {}, "_TRANSFORM_COLUMNS": {}, "_BERN": [Fraction(1)],
            "_TAN": [],
            "_BERN_SUM": [Fraction(1)], "_BERN_RECIP": {}, "_EULER2": [1],
            "_EULER_SUM": [1],
            "_CAUCHY1": [Fraction(1)], "_CAUCHY1_ROW": [1], "_HW_FALLING": {},
            "_CALB_ROWS": {}, "_BERN_ROWS": {}, "_AGOH_RHS": {},
            "_CACHE": {}}
    tables = [(name, value)
              for mod in (seqcore, classical, identities, polybern)
              for name, value in vars(mod).items()
              if re.fullmatch(r"_[A-Z0-9_]+", name)
              and isinstance(value, (list, dict, WeakKeyDictionary))
              and value is not seqcore._MEMOS]
    assert sorted(name for name, _ in tables) == sorted(cold)
    registered = [table for table, _ in seqcore._MEMOS]
    assert all(any(v is t for t in registered) for _, v in tables)
    classical.bernoulli(60)
    classical.bernoulli_sum(30)
    classical.bernoulli_reciprocal_sum(30)
    classical.euler_number(30)
    classical.euler_sum(30)
    classical.cauchy1(30)
    classical.hw(12, Fraction(-3, 5))
    classical.worpitzky_bernoulli(12)
    stirling1(30, 0)
    stirling2(30, 0)
    harmonic_gen(30, 3)
    eval_identity(IdentityCase("MAIN", {"n": 12, "j": 5}))
    eval_identity(IdentityCase("AGOH", {"n": 12, "m": 3}))
    eval_identity(IdentityCase("REDUCTION", {"n": 12, "j": 3}))
    polybern.poly_bernoulli(20, 2, 1)
    assert all(value != cold[name] for name, value in tables)
    clear_memos()
    assert dict(tables) == cold


def rising_factorial(x, n):
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


def test_rising_factorial_expansion():
    rng = random.Random(7)
    for n in range(1, 21):
        for _ in range(20):
            x = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
            total = sum(stirling1(n, k) * x**k for k in range(n + 1))
            assert total == rising_factorial(x, n)


def test_stirling_inversion():
    rng = random.Random(11)
    for n in range(1, 16):
        for _ in range(10):
            x = Fraction(rng.randint(-20, 20), rng.randint(1, 8))
            total = sum((-1) ** (n - k) * stirling2(n, k) * rising_factorial(x, k)
                        for k in range(n + 1))
            assert total == x**n


class TestStirling2Transform:
    def test_powers_from_falling_factorials(self):
        # x^n = sum_k {n,k} k! binom(x, k), with binom as an independent route
        rng = random.Random(20240826)
        for n in range(41):
            for _ in range(3):
                x = Fraction(rng.randint(-24, 24), rng.randint(1, 12))
                assert stirling2_transform(
                    n, lambda k: factorial(k) * binom(x, k)) == x**n

    @given(values=st.integers(0, 40).flatmap(lambda n: st.lists(st.one_of(
               st.integers(-50, 50), st.just(0),
               st.builds(Fraction, st.integers(-24, 24), st.integers(1, 12))),
               min_size=n + 1, max_size=n + 1)))
    @example(values=[Fraction(7, 3)])
    @example(values=[1, 2, 3])
    def test_matches_fraction_fold(self, values):
        # weight(k) = values[k] for k <= n: int, Fraction and zero weights;
        # n = 0 is drawn too
        n = len(values) - 1
        want = Fraction(0)
        for k in range(n + 1):
            want += stirling2(n, k) * values[k]
        got = stirling2_transform(n, lambda k: values[k])
        assert type(got) is Fraction and got == want

    def test_weight_is_read_only_where_stirling2_is_nonzero(self):
        assert stirling2_transform(4, lambda k: Fraction(1, k)) == (
            Fraction(1) + Fraction(7, 2) + Fraction(6, 3) + Fraction(1, 4))

    def test_weight_exception_propagates(self):
        def weight(k):
            if k == 3:
                raise ZeroDivisionError("probe")
            return Fraction(1, k)

        with pytest.raises(ZeroDivisionError, match="probe"):
            stirling2_transform(5, weight)

    def test_n_zero_is_weight_of_zero(self):
        # {0,0} = 1 is row 0's one nonzero, and weight(0) is read on every
        # call at n = 0, never kept
        reads = []

        def weight(k):
            reads.append(k)
            return Fraction(7, 3) + k

        assert stirling2_transform(0, weight) == Fraction(7, 3)
        assert stirling2_transform(0, weight) == Fraction(7, 3)
        assert reads == [0, 0]
        assert stirling2_transform(0, lambda k: 1) == 1

    @given(data=st.data())
    def test_one_weight_object_across_n_in_any_order(self, data):
        # one weight object for every call, so each call after the first
        # reads, and may grow, the column that the earlier calls left
        values = data.draw(st.lists(st.one_of(
            st.integers(-50, 50), st.just(0),
            st.builds(Fraction, st.integers(-24, 24), st.integers(1, 12))),
            min_size=1, max_size=41))
        ns = data.draw(st.lists(st.integers(0, len(values) - 1), min_size=1,
                                max_size=8))
        reads = []

        def weight(k):
            reads.append(k)
            return values[k]

        for n in ns:
            want = Fraction(0)
            for k in range(n + 1):
                want += stirling2(n, k) * values[k]
            got = stirling2_transform(n, weight)
            assert type(got) is Fraction and got == want, (ns, n)
        # weight(k) is read once per k > 0, up to the largest n, and
        # weight(0) once per call at n = 0
        assert sorted(k for k in reads if k) == list(range(1, max(ns) + 1))
        assert reads.count(0) == ns.count(0)

    def test_weight_raising_at_three_leaves_later_calls_correct(self):
        # weight(3) raises the first time it is read, as an interrupted
        # read would: the column keeps k = 1, 2 over d = 2, and later calls
        # grow it past k = 3, rescaling it at k = 3, 4, 5, ...
        raised = []

        def weight(k):
            if k == 3 and not raised:
                raised.append(k)
                raise ZeroDivisionError("probe")
            return Fraction(1, k)

        def fold(n):
            return sum((stirling2(n, k) * Fraction(1, k)
                        for k in range(1, n + 1)), Fraction(0))

        assert stirling2_transform(2, weight) == fold(2)
        with pytest.raises(ZeroDivisionError, match="probe"):
            stirling2_transform(6, weight)
        assert seqcore._TRANSFORM_COLUMNS[weight] == [2, [2, 1]]
        for n in (6, 2, 9, 3, 1):
            assert stirling2_transform(n, weight) == fold(n), n


    def test_a_column_dies_with_its_weight(self, cold):
        # one-shot lambdas leave no column once dropped
        def scaled(c):
            return lambda k: Fraction(c, k)

        kept = scaled(1)
        for c in range(2, 40):
            assert stirling2_transform(9, scaled(c)) == (
                c * stirling2_transform(9, kept))
        gc.collect()
        assert list(seqcore._TRANSFORM_COLUMNS) == [kept]


class TestRatsum:
    # dens drawn from the divisors of 720 share factors often, so the
    # running lcm both grows and is reused
    @given(st.lists(st.tuples(
        st.integers(-10**30, 10**30),
        st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 45, 720])
        | st.integers(-10**6, 10**6).filter(bool))))
    @example([])  # Fraction(0)
    @example([(-1, 6), (1, 4), (-1, 12)])
    @example([(3, -4), (1, 6)])
    def test_matches_fraction_fold(self, terms):
        got = seqcore.ratsum(iter(terms))
        want = sum((Fraction(num, den) for num, den in terms), Fraction(0))
        assert type(got) is Fraction and got == want
        # in lowest terms, with a positive denominator
        assert got.denominator > 0
        assert math.gcd(got.numerator, got.denominator) == 1

    @pytest.mark.parametrize("terms", [[(1, 0)], [(1, 2), (3, 0)],
                                       [(0, 0), (1, 3)]])
    def test_zero_den_raises(self, terms):
        with pytest.raises(ZeroDivisionError):
            seqcore.ratsum(terms)


def test_hockey_stick():
    for n in range(1, 41):
        for j in range(1, n + 1):
            lhs = sum(binom_int(n - k, j - k) for k in range(j))
            assert lhs == binom_int(n + 1, j) - 1


class TestHarmonic:
    def test_values(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(2) == Fraction(3, 2)
        assert harmonic(3) == Fraction(11, 6)

    @given(st.integers(min_value=1, max_value=400))
    def test_difference(self, n):
        assert harmonic(n) - harmonic(n - 1) == Fraction(1, n)

    def test_generalized(self):
        assert harmonic_gen(3, 1) == harmonic(3)
        assert harmonic_gen(2, 2) == Fraction(5, 4)
        assert harmonic_gen(0, 5) == 0

    @given(st.integers(min_value=0, max_value=60),
           st.integers(min_value=1, max_value=4))
    def test_generalized_is_partial_sum(self, n, m):
        assert harmonic_gen(n, m) == sum(
            (Fraction(1, i**m) for i in range(1, n + 1)), Fraction(0))

    def test_generalized_deep_cold_cache(self, cold):
        h = harmonic_gen(5000, 2)
        assert h - harmonic_gen(4999, 2) == Fraction(1, 5000**2)
        assert harmonic_gen(5000, 2) is h

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic(-1)
        with pytest.raises(ValueError):
            harmonic_gen(3, 0)


class TestBinom:
    def test_half_negative(self):
        for k in range(12):
            expected = Fraction((-1) ** k * math.comb(2 * k, k), 4**k)
            assert binom(Fraction(-1, 2), k) == expected
        assert binom(Fraction(-1, 2), 2) == Fraction(3, 8)

    def test_k_zero(self):
        assert binom(Fraction(22, 7), 0) == 1

    def test_integer_agreement(self):
        assert binom(5, 2) == 10
        for n in range(-6, 12):
            for k in range(8):
                assert binom(n, k) == binom_int(n, k)

    def test_matches_fraction_product_route(self):
        # reference: multiply Fraction factors one at a time, divide by k!
        def fraction_product(x, k_max):
            num = Fraction(1)
            for k in range(k_max + 1):
                yield num / factorial(k)
                num *= Fraction(x) - k

        rng = random.Random(5)
        xs = [Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**3))
              for _ in range(60)]
        xs += [0, 1, -1, 7, Fraction(0), Fraction(1), Fraction(-1),
               Fraction(7), Fraction(1, 2), Fraction(-5, 3)]
        for x in xs:
            for k, want in enumerate(fraction_product(x, 120)):
                got = binom(x, k)
                assert type(got) is Fraction and got == want, (x, k)

    @given(st.integers(min_value=0, max_value=30),
           st.integers(min_value=0, max_value=30))
    def test_matches_math_comb(self, n, k):
        assert binom_int(n, k) == math.comb(n, k)
