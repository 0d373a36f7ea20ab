"""Acceptance suite: one test per criterion, exact equality throughout.

Each criterion prints its own PASS/FAIL line (bypassing pytest capture) so a
plain `pytest tests/test_acceptance.py` run shows the per-criterion verdicts.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from bernkit import cli, congr, fps
from bernkit.classical import bernoulli, bernoulli_poly_at, worpitzky_bernoulli
from bernkit.identities import CATALOG, IdentityCase, SweepBounds, \
    eval_identity, verify_identity
from bernkit.polybern import poly_bernoulli, stirling_sum_oracle
from bernkit.seqcore import binom_int, clear_memos, harmonic, stirling2

CATALOG_IDS = ("WORPITZKY", "H1", "H2", "K3SPECIAL", "POLYX", "POLYX_COEFFS",
               "AGOH", "AGOH_ALT", "AGOH_M1", "AGOH_COMBINE", "REC16",
               "REC16_EULER", "AGOH_EQ11", "CUMSUM", "EQ14", "HSQ_BRIDGE",
               "HOCKEY", "REDUCTION", "STIRL20", "BPINT", "HW_CAUCHY")


# one verdict line per criterion; printed in the terminal summary by conftest
RESULTS: list[str] = []


@contextmanager
def criterion(num, label, limit_s):
    # each limit_s is max(2 s, 10x the criterion's slowest cold time over
    # 8 runs on 2 vCPUs), rounded up: a 10x slowdown fails it
    clear_memos()  # timed cold, whichever tests ran first
    start = time.monotonic()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.monotonic() - start
        line = (f"[{status}] criterion {num}: {label} ({elapsed:.1f}s, "
                f"limit {limit_s}s)")
        RESULTS.append(line)
        print(line)
        if status == "PASS":
            assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s"


def test_criterion_1_main_theorem():
    with criterion(1, "MAIN exact for 0 <= j <= n-1, n <= 40", 2):
        report = verify_identity("MAIN", SweepBounds(n_max=40))
        assert report.passed, report.failures[:3]
        lhs, rhs = eval_identity(IdentityCase("MAIN", {"n": 2, "j": 1}))
        assert lhs == rhs == Fraction(-1, 2)
        lhs, rhs = eval_identity(IdentityCase("MAIN", {"n": 3, "j": 2}))
        assert lhs == rhs == Fraction(-1)


def test_criterion_2_bernoulli_routes():
    with criterion(2, "bernoulli == worpitzky_bernoulli for n <= 100", 2):
        for n in range(1, 101):
            assert bernoulli(n) == worpitzky_bernoulli(n)
        assert [bernoulli(n) for n in range(5)] == [
            Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
            Fraction(-1, 30)]


def test_criterion_3_identity_catalog():
    with criterion(3, "identity catalog zero failures at n <= 40", 7):
        bounds = SweepBounds(n_max=40, m_max=20, rand_count=10)
        for id in CATALOG_IDS:
            report = verify_identity(id, bounds)
            assert report.passed, (id, report.failures[:3])


def test_criterion_4_generalized_worpitzky():
    with criterion(4, "GEN_WORPITZKY n-j>=2 for n <= 60, n-j=1 documented", 2):
        report = verify_identity("GEN_WORPITZKY", SweepBounds(n_max=60))
        assert report.passed, report.failures[:3]
        note = next(n for n in report.notes if "n-j=1" in n)
        # finding recorded with brute-force evidence, not asserted in advance
        assert "n<=30" in note
        assert "29/29" in note or "0/29" in note


def test_criterion_5_congruence_sweep():
    with criterion(5, "congruence catalog passes for odd primes <= 101", 2):
        report = congr.prime_sweep(p_max=101)
        assert report.passed, report.failures[:3]
        (c1,) = congr.check_congruence("C1", 3)
        assert c1.lhs.value == 2 and c1.passed
        (c4,) = congr.check_congruence("C4", 5)
        assert c4.lhs.value == 4 and c4.passed
        (c2,) = congr.check_congruence("C2", 3)
        assert c2.lhs == congr.rational_mod(Fraction(3, 4), 3, 3)
        assert c2.rhs == congr.rational_mod(Fraction(3, 2), 3, 3)
        assert c2.passed


def test_criterion_6_poly_bernoulli():
    with criterion(6, "poly-Bernoulli routes, p=1 collapse, cumulative sum", 3):
        for p in (1, 2, 3):
            for n in range(41):
                assert poly_bernoulli(n, p, 0) == stirling_sum_oracle(n, p)
        for x in (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)):
            for n in range(31):
                assert poly_bernoulli(n, 1, x) == bernoulli_poly_at(n, x + 1)
        report = verify_identity("CUMSUM", SweepBounds(n_max=60))
        assert report.passed, report.failures[:3]


def test_criterion_7_generating_functions():
    with criterion(7, "generating-function suite to order 32 (16 central)", 8):
        for k in range(25):
            s = fps.named_series("stirling2-egf", 32, k=k)
            for n in range(33):
                assert s.egf(n) == stirling2(n, k)
        h = fps.named_series("harmonic-ogf", 32)
        hsq = fps.named_series("harmonic-squared-ogf", 32)
        for n in range(33):
            assert h.coeff(n) == harmonic(n)
            assert hsq.coeff(n) == harmonic(n) ** 2
        cb = fps.named_series("central-binomial-harmonic-ogf", 16)
        for n in range(17):
            assert cb.coeff(n) == binom_int(2 * n, n) * harmonic(n)
        # proof series for the (1-2^j) recurrence: 2 e^t ln((e^t+1)/2)
        from bernkit.classical import hw
        from bernkit.seqcore import factorial
        order = 24
        lhs = fps.Egf([Fraction(0)] + [
            hw(n, Fraction(-1, 2)) * Fraction((-2) ** n, factorial(n))
            for n in range(1, order + 1)])
        half = fps.scale(fps.add(fps.exp_t(order), fps.Egf.one(order)),
                         Fraction(1, 2))
        rhs = fps.mul(fps.scale(fps.exp_t(order), 2),
                      fps.log1p_series(fps.sub(half, fps.Egf.one(order))))
        assert lhs == rhs


def test_criterion_8_cli_contract(monkeypatch, capsys):
    with criterion(8, "CLI exit codes and mutation smoke test", 10):
        assert cli.main(["verify", "all", "--n-max", "40", "--no-meta",
                         "--out", "/dev/null"]) == 0
        assert cli.main(["congruence", "all", "--p-max", "101", "--no-meta",
                         "--out", "/dev/null"]) == 0
        entry = CATALOG["AGOH_M1"]
        monkeypatch.setitem(
            CATALOG, "AGOH_M1",
            entry._replace(rhs=lambda **p: entry.rhs(**p) + 1))
        import json
        assert cli.main(["verify", "AGOH_M1", "--n-max", "10",
                         "--no-meta"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["failures"]) >= 1
