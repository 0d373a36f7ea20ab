"""Cost contracts: exact counts of primitive calls and of memo table sizes
that a command or sweep must keep, each row checked at two bounds so that
its growth in the bound shows. Counts are the same on any host, so a change
that brings back a costlier path fails here even when no timing would see
it. Every row starts from cold tables."""

import contextlib
import io

import pytest

from bernkit import classical, cli, congr, fps, identities, polybern, seqcore
from bernkit.congr import odd_primes_upto
from bernkit.identities import SweepBounds, verify_all

MODULES = (seqcore, classical, fps, polybern, identities, congr, cli)
TABLES = {"_S1": seqcore, "_S2": seqcore, "_BERN": classical,
          "_EULER2": classical, "_CAUCHY1": classical}


def count_calls(monkeypatch, name):
    """Wrap seqcore's function `name` under every module name bound to it,
    and return the list that collects the arguments of each call."""
    original, calls = getattr(seqcore, name), []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in MODULES:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--no-meta"]) == 0


def congruence_tables(p_max):
    # bernoulli to 2p (VSC), euler_number, cauchy1 and S2 rows to p, for the
    # largest prime p <= p_max
    p = odd_primes_upto(p_max)[-1]
    return {"_BERN": 2 * p + 1, "_EULER2": p + 1, "_CAUCHY1": p + 1,
            "_S2": p + 1}


# name: (run at bound N, two bounds, counted seqcore function or None,
#        expected counts as a function of N)
ROWS = {
    # hw reads binom(x, k) once per new k of its falling row for x, and the
    # dump fills that row once, at n = N
    "compute-hw": (
        lambda n: run_cli("compute", "hw", "--n-max", str(n)), (40, 80),
        "binom", lambda n: {"binom": n}),
    # _calB's column weights read [k,j] once for each 1 <= k <= N and
    # 0 <= j < N, and STIRL20 reads [k,1] and [k,2] once for each k <= N;
    # the tables fill to rows N and N + 1 (_calB_row reads {N+1,k})
    "verify-all": (
        lambda n: verify_all(SweepBounds(n_max=n)), (20, 45),
        "stirling1",
        lambda n: {"stirling1": n * n + 2 * n, "_S1": n + 1, "_S2": n + 2}),
    "congruence-all": (
        lambda p_max: run_cli("congruence", "all", "--p-max", str(p_max)),
        (31, 151), None, congruence_tables),
}


@pytest.mark.parametrize("bound_index", [0, 1], ids=["low", "high"])
@pytest.mark.parametrize("row", list(ROWS))
def test_cost_contract(cold, monkeypatch, row, bound_index):
    run, bounds, counted, expected = ROWS[row]
    bound = bounds[bound_index]
    calls = count_calls(monkeypatch, counted) if counted else []
    run(bound)
    want = expected(bound)
    got = {key: len(calls if key == counted else getattr(TABLES[key], key))
           for key in want}
    assert got == want
