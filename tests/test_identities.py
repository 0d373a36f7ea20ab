from fractions import Fraction

import pytest

from bernkit.identities import (CATALOG, IDENTITY_IDS, IdentityCase,
                                IndeterminateRHS, SweepBounds, eval_identity,
                                verify_all, verify_identity)


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
            type(entry)(entry.domain, entry.cases, entry.lhs,
                        lambda p: entry.rhs(p) + 1))
        report = verify_identity("H1", SweepBounds(n_max=10))
        assert len(report.failures) == report.cases == 9

    def test_raising_case_is_recorded_and_sweep_continues(self, monkeypatch):
        entry = CATALOG["H1"]

        def rhs(p):
            if p["n"] == 5:
                raise ZeroDivisionError("probe")
            return entry.rhs(p)

        monkeypatch.setitem(
            CATALOG, "H1",
            type(entry)(entry.domain, entry.cases, entry.lhs, rhs))
        report = verify_identity("H1", SweepBounds(n_max=10))
        assert report.cases == 9
        assert report.failures == [{"id": "H1", "params": {"n": 5},
                                    "lhs": entry.lhs({"n": 5}), "rhs": None}]
        assert report.notes == ["{'n': 5}: ZeroDivisionError: probe"]

    def test_verify_all_covers_catalog(self):
        reports = verify_all(SweepBounds(n_max=8, m_max=4, rand_count=2))
        assert [r.id for r in reports] == list(IDENTITY_IDS)
        assert all(r.passed for r in reports)


def test_disjoint_routes_spot():
    # lhs is a fresh direct summation, rhs goes through the cached closed
    # forms; a deliberate probe confirms the two sides are not aliases
    lhs, rhs = eval_identity(IdentityCase("WORPITZKY", {"n": 12}))
    assert lhs == rhs == Fraction(-691, 2730)
