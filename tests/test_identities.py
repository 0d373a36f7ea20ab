import dataclasses
import functools
import sys
import types
from fractions import Fraction

import pytest

from bernkit import classical, fps, identities, polybern, seqcore
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
            dataclasses.replace(entry, rhs=lambda **p: entry.rhs(**p) + 1))
        report = verify_identity("H1", SweepBounds(n_max=10))
        assert len(report.failures) == report.cases == 9

    def test_raising_case_is_recorded_and_sweep_continues(self, monkeypatch):
        entry = CATALOG["H1"]

        def rhs(n):
            if n == 5:
                raise ZeroDivisionError("probe")
            return entry.rhs(n=n)

        monkeypatch.setitem(CATALOG, "H1", dataclasses.replace(entry, rhs=rhs))
        report = verify_identity("H1", SweepBounds(n_max=10))
        assert report.cases == 9
        assert report.failures == [{"id": "H1", "params": {"n": 5},
                                    "lhs": entry.lhs(n=5), "rhs": None}]
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


# Functions each side may reach besides seqcore's table lookups: every
# function of classical, fps (Egf's methods included) and polybern, the
# shared seqcore sum `stirling2_transform`, and the identities helpers that
# more than one entry calls.
_ROUTE_HELPERS = ("_calB", "_hsq_sum", "_binomial_weighted_bern", "_agoh_rhs")
# routes an id's two sides share on purpose (see the identities docstring);
# REDUCTION also shares whatever `_calB` itself reaches
_SHARED_ROUTES = {"REDUCTION": {"_calB"}, "CUMSUM": {"bernoulli"},
                  "EQ14": {"bernoulli"}}


@pytest.fixture(scope="module")
def routes():
    """For each id, the set of route names its left and its right side
    reach over all cases at small bounds, with the poly-Bernoulli cache
    emptied first so that its fps route is reached too. The key "_calB"
    holds the names `_calB` reaches."""
    mp = pytest.MonkeyPatch()
    reached = [set()]  # the names the side being evaluated has reached

    def wrap(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            reached[0].add(name)
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {}
    for mod in (classical, fps, polybern):
        for name, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = wrap(obj, name)
    for name in _ROUTE_HELPERS:
        fn = getattr(identities, name)
        wrappers[fn] = wrap(fn, name)
    wrappers[seqcore.stirling2_transform] = wrap(seqcore.stirling2_transform,
                                                 "stirling2_transform")
    # rebind every alias, since modules call through `from .x import f` names
    for modname, mod in list(sys.modules.items()):
        if modname == "bernkit" or modname.startswith("bernkit."):
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    mp.setattr(mod, name, wrappers[obj])
    for name, obj in list(vars(fps.Egf).items()):
        fn = getattr(obj, "__func__", obj)  # unwrap a staticmethod
        if isinstance(fn, types.FunctionType):
            wrapped = wrap(fn, f"Egf.{name}")
            mp.setattr(fps.Egf, name,
                       wrapped if fn is obj else staticmethod(wrapped))
    mp.setattr(polybern, "_CACHE", {})

    bounds = SweepBounds(n_max=6, m_max=3, rand_count=2)
    out = {}
    try:
        for id, entry in CATALOG.items():
            out[id] = []
            for part in (entry.lhs, entry.rhs):
                reached[0] = set()
                for params in entry.cases(bounds):
                    part(**params)
                out[id].append(reached[0])
        reached[0] = set()
        for n in range(bounds.n_max + 1):
            for j in range(n + 1):
                identities._calB(n, j)
        out["_calB"] = reached[0]
    finally:
        mp.undo()
    return out


@pytest.mark.parametrize("id", IDENTITY_IDS)
def test_sides_share_no_route(routes, id):
    lhs, rhs = routes[id]
    shared = set(_SHARED_ROUTES.get(id, ()))
    if "_calB" in shared:
        shared |= routes["_calB"]
    assert lhs & rhs == shared


def test_evaluators_are_not_bare_layer_functions():
    # The route test above and the perfbench tracer see a call only through
    # a rebound module name; a layer function stored bare in an entry would
    # be called past both.
    layers = {mod.__name__ for mod in (classical, fps, polybern, seqcore)}
    for id, entry in CATALOG.items():
        for part in (entry.lhs, entry.rhs):
            assert part.__module__ not in layers, (id, part)
