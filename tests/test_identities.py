import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernkit import classical, fps, identities, polybern, seqcore
from bernkit.congr import prime_sweep
from bernkit.identities import (CATALOG, IDENTITY_IDS, IdentityCase,
                                IndeterminateRHS, SweepBounds, eval_identity,
                                verify_all, verify_identity)
from bernkit.seqcore import clear_memos


class TestEvalIdentity:
    def test_main_spot_values(self):
        lhs, rhs = eval_identity(IdentityCase("MAIN", {"n": 2, "j": 1}))
        assert lhs == rhs == Fraction(-1, 2)
        lhs, rhs = eval_identity(IdentityCase("MAIN", {"n": 3, "j": 2}))
        assert lhs == rhs == Fraction(-1)

    def test_main_j_zero(self):
        for n in range(1, 10):
            lhs, rhs = eval_identity(IdentityCase("MAIN", {"n": n, "j": 0}))
            assert lhs == rhs == 0

    def test_main_j_equals_n_indeterminate(self):
        with pytest.raises(IndeterminateRHS):
            eval_identity(IdentityCase("MAIN", {"n": 4, "j": 4}))

    def test_rec16_spot(self):
        lhs, rhs = eval_identity(IdentityCase("REC16", {"n": 1}))
        assert lhs == rhs == 1

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            eval_identity(IdentityCase("NOPE", {}))


class TestSweeps:
    def test_main_full(self):
        report = verify_identity("MAIN", SweepBounds(n_max=40))
        assert report.passed
        assert report.cases == sum(range(1, 41))
        assert any("j=n excluded" in note for note in report.notes)

    def test_main_with_j_equals_n_included(self):
        report = verify_identity(
            "MAIN", SweepBounds(n_max=8, include_j_equals_n=True))
        assert len(report.failures) == 8
        assert all(f["rhs"] is None for f in report.failures)
        assert any("indeterminate" in note for note in report.notes)

    @pytest.mark.parametrize("id", [i for i in IDENTITY_IDS if i != "MAIN"])
    def test_catalog_passes_moderate_range(self, id):
        report = verify_identity(id, SweepBounds(n_max=25, m_max=12,
                                                 rand_count=4))
        assert report.passed, report.failures[:3]

    def test_gen_worpitzky_convention_note(self):
        report = verify_identity("GEN_WORPITZKY", SweepBounds(n_max=30))
        assert report.passed
        note = next(n for n in report.notes if "n-j=1" in n)
        assert "+1/2" in note and "29/29" in note

    @pytest.mark.parametrize("n_max, lhs, verdict", [
        (1, None, "; no case on this line was checked"),
        (6, Fraction(-1, 2), "; the -1/2 convention is required on this line"),
        (6, Fraction(0), "; neither convention closes every case on this line"),
    ])
    def test_convention_note_follows_the_counts(self, monkeypatch, n_max, lhs,
                                                verdict):
        if lhs is not None:
            monkeypatch.setattr(identities, "_gen_worpitzky_lhs",
                                lambda n, j: lhs)
        note = identities._convention_note(SweepBounds(n_max=n_max))
        assert note.endswith(verdict)
        assert "+1/2 convention" not in note

    def test_j_bounds_restrict_domain(self):
        full = verify_identity("HOCKEY", SweepBounds(n_max=10))
        narrow = verify_identity("HOCKEY", SweepBounds(n_max=10, j_min=2,
                                                       j_max=3))
        assert narrow.cases < full.cases

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            verify_identity("NOPE")

    def test_deterministic(self):
        b = SweepBounds(n_max=10, rand_count=5)
        a = verify_identity("POLYX", b)
        c = verify_identity("POLYX", b)
        assert (a.cases, a.failures, a.notes) == (c.cases, c.failures, c.notes)

    def test_collects_all_failures(self, monkeypatch):
        entry = CATALOG["H1"]
        monkeypatch.setitem(
            CATALOG, "H1",
            entry._replace(rhs=lambda **p: entry.rhs(**p) + 1))
        report = verify_identity("H1", SweepBounds(n_max=10))
        assert len(report.failures) == report.cases == 9

    def test_raising_case_is_recorded_and_sweep_continues(self, monkeypatch):
        entry = CATALOG["H1"]

        def rhs(n):
            if n == 5:
                raise ZeroDivisionError("probe")
            return entry.rhs(n=n)

        monkeypatch.setitem(CATALOG, "H1", entry._replace(rhs=rhs))
        report = verify_identity("H1", SweepBounds(n_max=10))
        assert report.cases == 9
        assert report.failures == [{"id": "H1", "params": {"n": 5},
                                    "lhs": entry.lhs(n=5), "rhs": None}]
        assert report.notes == ["{'n': 5}: ZeroDivisionError: probe"]

    def test_verify_all_covers_catalog(self):
        reports = verify_all(SweepBounds(n_max=8, m_max=4, rand_count=2))
        assert [r.id for r in reports] == list(IDENTITY_IDS)
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("id", ["MAIN", "POLYX"])
    def test_failures_come_in_parameter_order(self, monkeypatch, id):
        # every case fails, so the failures list the whole domain in the
        # order of tuple(sorted(params.items())): by value, in name order.
        # MAIN has two int parameters and POLYX a Fraction one; both are
        # generated in another order.
        entry = CATALOG[id]
        monkeypatch.setitem(
            CATALOG, id, entry._replace(rhs=lambda **p: entry.rhs(**p) + 1))
        bounds = SweepBounds(n_max=9, rand_count=4)
        generated = list(entry.cases(bounds))
        expected = sorted(generated, key=lambda p: tuple(sorted(p.items())))
        assert expected != generated
        report = verify_identity(id, bounds)
        assert report.cases == len(expected)
        assert [f["params"] for f in report.failures] == expected

    def test_j_min_past_n_max_gives_no_case(self):
        # an empty domain is not a pass
        bounds = SweepBounds(n_max=5, j_min=6)
        empty = ("MAIN", "GEN_WORPITZKY", "HOCKEY", "REDUCTION")
        for id in empty:
            report = verify_identity(id, bounds)
            assert (report.cases, report.failures) == (0, []), id
            assert not report.passed, id
        reports = verify_all(bounds)
        assert [r.id for r in reports if not r.cases] == list(empty)
        assert [r.id for r in reports if not r.passed] == list(empty)
        for id, bounds in (("MAIN", SweepBounds(n_max=0)),
                           ("POLYX", SweepBounds(rand_count=0))):
            report = verify_identity(id, bounds)
            assert report.cases == 0 and not report.passed, id
        # C4 holds from p = 5 on, so p <= 3 gives it no case
        report = prime_sweep(("C4",), p_max=3)
        assert report.cases == 0 and not report.passed

    def test_records_are_values(self):
        with pytest.raises(AttributeError):
            SweepBounds().n_max = 5
        narrowed = SweepBounds(n_max=5)._replace(m_max=3)
        assert (narrowed.n_max, narrowed.m_max) == (5, 3)
        # each sweep collects into lists of its own, never a shared default
        a = verify_identity("H1", SweepBounds(n_max=4))
        b = verify_identity("H1", SweepBounds(n_max=4))
        assert a.failures == b.failures == []
        assert a.failures is not b.failures and a.notes is not b.notes


@pytest.mark.slow
def test_verify_all_to_n_200_within_limit():
    start = time.monotonic()
    reports = verify_all(SweepBounds(n_max=200))
    elapsed = time.monotonic() - start
    assert all(r.cases for r in reports)
    assert [r.failures for r in reports if r.failures] == []
    assert elapsed < 60, f"verify_all(n_max=200) took {elapsed:.1f}s"


@pytest.mark.slow
def test_verify_all_to_n_300_within_limit(cold):
    # the whole catalog from cold tables: `verify all --n-max 300` took
    # 22.6-29.6 CPU s in one process on 2 vCPUs (Python 3.11.7, six runs),
    # so the limit is 3x the slowest run
    start = time.monotonic()
    reports = verify_all(SweepBounds(n_max=300))
    elapsed = time.monotonic() - start
    assert all(r.cases for r in reports)
    assert sum(r.cases for r in reports) == 245144
    assert [r.failures for r in reports if r.failures] == []
    assert elapsed < 90, f"verify_all(n_max=300) took {elapsed:.1f}s"


@pytest.mark.slow
def test_transform_ids_to_n_200_within_limit(cold):
    # the eight ids with a side that reads seqcore.stirling2_transform, from
    # cold tables: 0.41-0.49 CPU s on 2 vCPUs (Python 3.11.7), so the limit
    # is 10x that
    ids = ("WORPITZKY", "H1", "H2", "K3SPECIAL", "HSQ_BRIDGE", "CUMSUM",
           "EQ14", "HW_CAUCHY")
    start = time.monotonic()
    reports = verify_all(SweepBounds(n_max=200), ids)
    elapsed = time.monotonic() - start
    assert all(r.cases for r in reports)
    assert [r.failures for r in reports if r.failures] == []
    assert elapsed < 5, f"the transform ids to n_max=200 took {elapsed:.1f}s"


def test_disjoint_routes_spot():
    # lhs is a fresh direct summation, rhs goes through the cached closed
    # forms; a deliberate probe confirms the two sides are not aliases
    lhs, rhs = eval_identity(IdentityCase("WORPITZKY", {"n": 12}))
    assert lhs == rhs == Fraction(-691, 2730)


def _sides_reached(entry):
    """The code objects of the bernkit functions that the left and the
    right side of `entry` reach over all cases at small bounds: every
    function of classical, fps (Egf's methods included), polybern and
    identities, and of seqcore only the shared sums `stirling2_transform`
    and `ratsum`, not the table lookups. Each side starts from emptied memo
    tables, so that the routes behind the tables are reached too whichever
    tests ran first. Any previous profiler is put back afterwards."""
    cases = list(entry.cases(SweepBounds(n_max=6, m_max=3, rand_count=2)))
    kept = {seqcore.stirling2_transform.__code__, seqcore.ratsum.__code__}
    sides = []

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if (event == "call" and module.startswith("bernkit.")
                and (module != "bernkit.seqcore" or frame.f_code in kept)):
            sides[-1].add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for part in (entry.lhs, entry.rhs):
            clear_memos()
            sides.append(set())
            for params in cases:
                part(**params)
    finally:
        sys.setprofile(previous)
    return sides


@pytest.mark.parametrize("id", IDENTITY_IDS)
def test_sides_share_no_route(cold, id):
    lhs, rhs = _sides_reached(CATALOG[id])
    assert lhs and rhs
    assert lhs & rhs == set()


def test_shared_helper_is_reported(cold):
    # both sides call an identities helper that no hand-kept list named
    entry = CATALOG["AGOH_EQ11"]._replace(
        lhs=lambda m, z: identities._agoh_eq11_rhs(m, z))
    lhs, rhs = _sides_reached(entry)
    assert identities._agoh_eq11_rhs.__code__ in lhs & rhs


def test_evaluators_are_not_bare_layer_functions():
    # The perfbench tracer sees a call only through a rebound module name;
    # a layer function stored bare in an entry would be called past it.
    layers = {mod.__name__ for mod in (classical, fps, polybern, seqcore)}
    for id, entry in CATALOG.items():
        for part in (entry.lhs, entry.rhs):
            assert part.__module__ not in layers, (id, part)


def test_perturbed_bernoulli_is_caught(cold):
    # CUMSUM and EQ14 read B_n on their left sides only, so a wrong B_40
    # fails them at n = 40 instead of cancelling
    classical.bernoulli(40)
    classical._BERN[40] += 1
    for id in ("CUMSUM", "EQ14"):
        report = verify_identity(id, SweepBounds(n_max=40))
        assert [f["params"]["n"] for f in report.failures] == [40], id


# The primitive x id kill matrix: one entry of a filled memo table plus 1
# must fail exactly these ids of both catalogs at small bounds. The B and
# c_n rows are the perturbed-table tests above and in test_classical.py.
@pytest.mark.parametrize("fill, table, path, n_max, killed", [
    (lambda: seqcore.stirling2(11, 0), seqcore._S2, (11, 4), 16,
     "MAIN WORPITZKY GEN_WORPITZKY H1 H2 K3SPECIAL POLYX POLYX_COEFFS CUMSUM "
     "EQ14 HSQ_BRIDGE REDUCTION HW_CAUCHY STIRP"),
    # the row kernel reads no [k,j], so only _calB's weights and STIRL20
    # read S1
    (lambda: seqcore.stirling1(11, 0), seqcore._S1, (11, 2), 16,
     "REDUCTION STIRL20"),
    (lambda: seqcore.harmonic(10), seqcore._H, (10,), 16,
     "MAIN H1 H2 K3SPECIAL POLYX POLYX_COEFFS AGOH AGOH_ALT AGOH_M1 EQ14 "
     "HSQ_BRIDGE REDUCTION STIRL20 HW_CAUCHY BABBAGE"),
    (lambda: seqcore.harmonic_gen(8, 2), seqcore._HM, (2, 8), 16,
     "K3SPECIAL"),
    (lambda: seqcore.factorial(10), seqcore._FACT, (10,), 16,
     "WORPITZKY H1 H2 K3SPECIAL CUMSUM EQ14 HSQ_BRIDGE STIRL20 C1SQ GLAISHER"),
    (lambda: classical.euler_number(9), classical._EULER2, (9,), 16,
     "REC16_EULER C2"),
    # Seidel's working row, at row 9: every later e_n is carried from it
    (lambda: classical.euler_number(9), classical._SEIDEL, (4,), 16,
     "REC16_EULER C2"),
    # every later prefix sum is carried from the wrong one; C1 reads
    # p * (sum + 1), which is unchanged mod p, so only C1SQ's mod-p^2
    # statement catches it at p = 11
    (lambda: classical.bernoulli_sum(10), classical._BERN_SUM, (10,), 16,
     "CUMSUM EQ14 C4 C1SQ"),
    (lambda: classical.euler_sum(9), classical._EULER_SUM, (9,), 16, "C2"),
    # C3 reads p * (sum + 1), unchanged mod p, so only C3SQ's mod-p^2
    # statement catches it at p = 11
    (lambda: classical.bernoulli_reciprocal_sum(11), classical._BERN_RECIP,
     (11,), 16, "HW_CAUCHY C3SQ"),
    # REDUCTION's right side alone reads the direct convolution's columns:
    # d (-1)^4 [4,1] H_4 plus 1 fails it at n >= 4, j - 1 = 1
    (lambda: identities._calB(11, 1), seqcore._TRANSFORM_COLUMNS,
     (identities._calB_weight(seqcore.harmonic, 1), 1, 3), 16,
     "REDUCTION"),
    # only hw reads binom's falling row for x = 16/9; it draws POLYX cases at
    # n = 5, 16, 16, and F_6 is read only by the two at n = 16
    (lambda: classical.hw(10, Fraction(16, 9)), seqcore._FALLING,
     (Fraction(16, 9), 6), 16, "POLYX"),
    # n_max = 10: past order 10, CUMSUM's walk rebuilds the (2, x) series
    # and replaces the perturbed list before HSQ_BRIDGE reads it
    (lambda: polybern.poly_bernoulli(10, 2, 0), polybern._CACHE,
     ((2, 0), 10), 10, "CUMSUM HSQ_BRIDGE"),
    (lambda: polybern.poly_bernoulli(10, 2, 1), polybern._CACHE,
     ((2, 1), 10), 10, "CUMSUM HSQ_BRIDGE"),
    # one Stirling-transform column per weight, shared by every id that
    # reads it: d (-1)^4 4!/5 plus 1 fails every case at n >= 4 of the ids
    # that read worpitzky_bernoulli, and d 4! H_4^2 plus 1 those of _hsq_sum
    (lambda: classical.worpitzky_bernoulli(11), seqcore._TRANSFORM_COLUMNS,
     (classical._worpitzky_weight, 1, 3), 16, "WORPITZKY CUMSUM EQ14"),
    (lambda: identities._hsq_sum(11), seqcore._TRANSFORM_COLUMNS,
     (identities._hsq_weight, 1, 3), 16, "EQ14 HSQ_BRIDGE"),
], ids=["S2", "S1", "H", "HM", "FACT", "EULER2", "SEIDEL", "BERN_SUM",
        "EULER_SUM", "BERN_RECIP", "TRANSFORM_CALB", "HW_FALLING",
        "polybern-x0", "polybern-x1", "TRANSFORM_WORPITZKY",
        "TRANSFORM_HSQ"])
def test_perturbed_table_is_caught(cold, fill, table, path, n_max, killed):
    fill()
    for key in path[:-1]:
        table = table[key]
    table[path[-1]] += 1
    assert failing_ids(n_max) == set(killed.split())


def failing_ids(n_max):
    """The ids of both catalogs that fail at the kill matrix's bounds."""
    reports = [*verify_all(SweepBounds(n_max=n_max, m_max=6, rand_count=3)),
               prime_sweep(p_max=31)]
    return {f["id"] for r in reports for f in r.failures}


def test_perturbed_s2_working_row_is_caught(cold, monkeypatch):
    # with S2_ROWS = 8 the small sweep reads S2 past the kept rows. A
    # restart rebuilds the working row from row 8, so a wrong {9,4} lives
    # until the first request below the working row: MAIN, the first id to
    # read S2, walks up from it, and POLYX_COEFFS and REDUCTION read
    # MAIN's _calB rows
    monkeypatch.setattr(seqcore, "S2_ROWS", 8)
    seqcore.stirling2(9, 0)
    seqcore._S2_TOP[0][4] += 1
    assert failing_ids(16) == {"MAIN", "POLYX_COEFFS", "REDUCTION"}


def test_calB_columns_stay_bounded(cold):
    # one weight object per (weight, j), so one transform column per j - 1
    # = 0..N-1 that a second sweep reads again; a weight built per call
    # would add a cold column on every call
    code = identities._calB_weight(seqcore.harmonic, 0).__code__

    def columns():
        return {weight for weight in seqcore._TRANSFORM_COLUMNS
                if getattr(weight, "__code__", None) is code}

    bounds = SweepBounds(n_max=12)
    assert verify_identity("REDUCTION", bounds).passed
    first = columns()
    assert 0 < len(first) <= 12
    assert verify_identity("REDUCTION", bounds).passed
    assert columns() == first


def test_transform_weights_vanish_below_their_old_bounds():
    # the transform sums from k = 0, and H2's, K3SPECIAL's and _calB's
    # callers once started at 2, 3 and j: the terms skipped were zero
    assert identities._h2_weight(1) == 0
    assert identities._k3_weight(1) == identities._k3_weight(2) == 0
    for weight in (seqcore.harmonic, identities._reciprocal):
        for j in range(13):
            column_weight = identities._calB_weight(weight, j)
            assert [column_weight(k) for k in range(j)] == [0] * j, j


class TestRowKernels:
    @pytest.mark.parametrize("weight", [seqcore.harmonic,
                                        identities._reciprocal])
    def test_calB_row_matches_direct_sum(self, cold, weight):
        for n in range(61):
            if n == 0 and weight is identities._reciprocal:
                # {0,0} [0,0] / 0: both routes divide by zero
                with pytest.raises(ZeroDivisionError):
                    identities._calB(0, 0, weight)
                with pytest.raises(ZeroDivisionError):
                    identities._calB_row(0, weight)
                continue
            row = identities._calB_row(n, weight)
            assert len(row) == n + 1
            for j in range(n + 1):
                assert row[j] == identities._calB(n, j, weight)

    def test_calB_row_reads_no_first_kind_number(self, cold):
        # the row is a falling-factorial polynomial summed by Horner, so
        # S1 stays cold; only _calB's weights read it
        identities._calB_row(40)
        identities._calB_row(40, identities._reciprocal)
        assert len(seqcore._S1) == 1

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), m=st.integers(1, 20), a=st.integers(-24, 24),
           b=st.integers(1, 12))
    def test_horner_matches_weighted_sum(self, n, m, a, b):
        x = Fraction(a, b)

        def weighted(weight, shift=-1):
            # sum_{j=1..n} (C(n,j) + shift) B_j/j weight(j), term by term
            coeffs = identities._bern_row(n, shift).coeffs
            return sum((c * weight(j)
                        for j, c in zip(range(n, 0, -1), coeffs)), Fraction(0))

        assert identities._bern_row(n)(x) == weighted(lambda j: x ** (n - j))
        lhs = {id: entry.lhs for id, entry in CATALOG.items()}
        # integer m, both signs, as AGOH and AGOH_ALT read it
        assert lhs["AGOH"](n=n, m=a) == weighted(lambda j: a ** (n - j))
        assert lhs["AGOH_ALT"](n=n, m=a) == weighted(
            lambda j: (-1) ** j * a ** (n - j))
        assert lhs["AGOH_M1"](n=n) == weighted(lambda j: (-1) ** j)
        assert lhs["AGOH_COMBINE"](n=n) == weighted(
            lambda j: 1 - Fraction(1, 2**j))
        assert lhs["REC16"](n=n) == weighted(lambda j: 1 - 2**j, shift=1)
        assert lhs["AGOH_EQ11"](m=m, z=x) == sum(
            (seqcore.binom_int(m, k) * seqcore.harmonic(k) * (x - 1) ** k
             for k in range(m + 1)), Fraction(0))

    def test_agoh_right_sides_match_fraction_sums(self):
        # the right sides as they read with one Fraction per term
        H = seqcore.harmonic

        def agoh(n, m):
            return Fraction(m) ** n * (H(m) - H(n)) - sum(
                (Fraction((m - j) ** n, j) for j in range(1, m + 1)),
                Fraction(0))

        def eq11(m, z):
            z = Fraction(z)
            return H(m) * z**m - sum((z**k / (m - k) for k in range(m)),
                                     Fraction(0))

        for n in range(61):
            for m in range(21):
                got = identities._agoh_rhs(n, m)
                assert type(got) is Fraction and got == agoh(n, m), (n, m)
        zs = [0, 1, -1, 5, Fraction(1, 2), Fraction(-7, 3), Fraction(24, 11),
              Fraction(-1, 12), Fraction(13, 6)]
        for m in range(21):
            for z in zs:
                got = identities._agoh_eq11_rhs(m, z)
                assert type(got) is Fraction and got == eq11(m, z), (m, z)

    def test_one_fraction_sides_match_fraction_chains(self):
        # each side that sums in integers over one denominator equals the
        # Fraction chain it replaced, written out as it read before, and
        # HOCKEY's running product equals its sum of binomials
        B, E = classical.bernoulli, classical.euler_number
        C, H = seqcore.binom_int, seqcore.harmonic
        lhs = {id: entry.lhs for id, entry in CATALOG.items()}
        rhs = {id: entry.rhs for id, entry in CATALOG.items()}

        def agoh(n, m):
            L = math.lcm(*range(1, m + 1))
            return m**n * (H(m) - H(n)) - Fraction(
                sum((m - j) ** n * (L // j) for j in range(1, m + 1)), L)

        def check(got, want, case):
            assert type(got) is Fraction and got == want, case

        rng = random.Random(26)
        zs = [0, 1] + [identities._rand_rational(rng) for _ in range(12)]
        xs = [x for x in zs[1:] if x][:5]
        for n in range(81):
            for shift in (-1, 1):
                assert identities._bern_row(n, shift).coeffs == fps.Egf(
                    [(C(n, n - i) + shift) * B(n - i) / (n - i)
                     for i in range(n)] + [0]).coeffs, ("row", n, shift)
            for j in range(1, n + 1):
                check(lhs["HOCKEY"](n=n, j=j),
                      Fraction(sum(math.comb(n - k, j - k) for k in range(j))),
                      ("HOCKEY", n, j))
            for x in xs if n else ():
                check(rhs["POLYX"](n=n, x=x),
                      classical.hw(n, x) - H(n) * Fraction(x) ** n,
                      ("POLYX", n, x))
            check(lhs["REC16_EULER"](n=n),
                  sum(((C(n, j) + 1) * E(j - 1) / 2 for j in range(1, n + 1)),
                      Fraction(0)), ("REC16_EULER", n))
            check(lhs["BPINT"](n=n),
                  sum((C(n, j) * B(j) / (n - j + 1) for j in range(n + 1)),
                      Fraction(0)), ("BPINT", n))
            for j in range(n + 1):
                check(identities._bern_term(n, j),
                      C(n, j) * B(n + 1 - j) / (n + 1 - j), ("B-term", n, j))
            for j in range(n):
                check(rhs["GEN_WORPITZKY"](n=n, j=j),
                      C(n - 1, j) * B(n - j) / (n - j), ("GEN_WORPITZKY", n, j))
            for j in range(1, n + 1):
                check(rhs["REDUCTION"](n=n, j=j),
                      (identities._calB(n, j - 1)
                       + C(n, j) * B(n + 1 - j) / (n + 1 - j)),
                      ("REDUCTION", n, j))
            for m in range(31):
                check(rhs["AGOH"](n=n, m=m), agoh(n, m), ("AGOH", n, m))
                if n:
                    check(rhs["AGOH_ALT"](n=n, m=m),
                          agoh(n, m) + m ** (n - 1) * (n - 1),
                          ("AGOH_ALT", n, m))
        for m in range(31):
            for z in zs:
                check(lhs["AGOH_EQ11"](m=m, z=z),
                      fps.Egf([C(m, k) * H(k) for k in range(m + 1)])(z - 1),
                      ("AGOH_EQ11", m, z))
                L = math.lcm(*range(1, m + 1))
                check(rhs["AGOH_EQ11"](m=m, z=z),
                      H(m) * Fraction(z) ** m - Fraction(
                          sum(z.numerator**k * z.denominator ** (m - k)
                              * (L // (m - k)) for k in range(m)),
                          L * z.denominator**m),
                      ("AGOH_EQ11", m, z))

    def test_perturbed_calB_row_is_caught(self, cold):
        # one wrong entry of the memoised H_k row (n, j) = (10, 4) fails the
        # cases that read it, and only those: MAIN and POLYX_COEFFS at
        # (10, 4), and REDUCTION at (9, 4), whose left side is row 10
        identities._calB_row(10)[4] += 1
        bounds = SweepBounds(n_max=12)
        failed = {id: [f["params"] for f in verify_identity(id, bounds)
                       .failures]
                  for id in ("MAIN", "REDUCTION", "POLYX_COEFFS")}
        assert failed == {"MAIN": [{"n": 10, "j": 4}],
                          "REDUCTION": [{"n": 9, "j": 4}],
                          "POLYX_COEFFS": [{"n": 10, "coeff": 4}]}

    def test_perturbed_bern_row_is_caught(self, cold):
        # one wrong coefficient (C(10,4) - 1) B_4 / 4, at x^6, of Agoh's
        # polynomial fails the coefficient readers at the case that reads
        # it, and the Horner sums at every case of n = 10
        coeffs = list(identities._bern_row(10).coeffs)
        coeffs[6] += 1
        identities._BERN_ROWS[10, -1] = fps.Egf(coeffs)
        bounds = SweepBounds(n_max=12, m_max=4, rand_count=3)
        failed = {id: [f["params"] for f in verify_identity(id, bounds)
                       .failures]
                  for id in ("MAIN", "POLYX_COEFFS", "AGOH", "AGOH_ALT",
                             "POLYX", "AGOH_M1", "AGOH_COMBINE")}
        assert failed.pop("MAIN") == [{"n": 10, "j": 6}]
        assert failed.pop("POLYX_COEFFS") == [{"n": 10, "coeff": 6}]
        for id, params in failed.items():
            cases = [p for p in CATALOG[id].cases(bounds) if p["n"] == 10]
            assert params and sorted(params, key=str) == sorted(cases,
                                                                key=str), id

    def test_perturbed_rec16_row_is_caught(self, cold):
        # the shift +1 row is REC16's alone: a wrong x^6 coefficient fails
        # REC16 at n = 10 and no reader of Agoh's polynomial
        coeffs = list(identities._bern_row(10, 1).coeffs)
        coeffs[6] += 1
        identities._BERN_ROWS[10, 1] = fps.Egf(coeffs)
        bounds = SweepBounds(n_max=12, m_max=4, rand_count=3)
        failed = {id: [f["params"] for f in verify_identity(id, bounds)
                       .failures]
                  for id in ("REC16", "MAIN", "POLYX_COEFFS", "AGOH",
                             "AGOH_ALT", "POLYX", "AGOH_M1", "AGOH_COMBINE")}
        assert failed.pop("REC16") == [{"n": 10}]
        assert failed == dict.fromkeys(failed, [])


@pytest.mark.parametrize("sweep", [
    lambda: prime_sweep(("C1", "NOPE"), 1009),
    lambda: verify_all(SweepBounds(n_max=90), ("REDUCTION", "NOPE")),
], ids=["prime_sweep", "verify_all"])
def test_unknown_id_is_rejected_before_sweeping(cold, sweep):
    with pytest.raises(KeyError, match="NOPE"):
        sweep()
    assert all(table == contents for table, contents in seqcore._MEMOS)
