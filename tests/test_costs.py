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
from bernkit.identities import SweepBounds, verify_all, verify_identity

MODULES = {module.__name__.rpartition(".")[2]: module
           for module in (seqcore, classical, fps, polybern, identities,
                          congr, cli)}
TABLES = {"_S1": seqcore, "_S2": seqcore, "_BERN": classical,
          "_EULER2": classical, "_CAUCHY1": classical}


def count_calls(monkeypatch, qualname):
    """Wrap the function `qualname`, "module.name", under every module name
    bound to it, and return the list that collects the arguments of each
    call."""
    layer, name = qualname.split(".")
    original, calls = getattr(MODULES[layer], name), []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in MODULES.values():
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


# name: (run at a bound, two bounds, expected counts at that bound); a key
# "module.name" counts the calls of that function, any other key is the
# length of that memo table when the run ends
ROWS = {
    # hw reads binom(x, k) once per new k of its falling row for x, and the
    # dump fills that row once, at n = N; each hw(n, x), n = 1..N, makes one
    # stirling2 call that fills S2 to row n, then reads the row
    "compute-hw": (
        lambda n: run_cli("compute", "hw", "--n-max", str(n)), (40, 80),
        lambda n: {"seqcore.binom": n, "seqcore.stirling2": n}),
    # _calB's column weights read [k,j] once for each 1 <= k <= N and
    # 0 <= j < N, and STIRL20 reads [k,1] and [k,2] once for each k <= N;
    # the tables fill to rows N and N + 1 (_calB_row reads {N+1,k})
    "verify-all": (
        lambda n: verify_all(SweepBounds(n_max=n)), (20, 45),
        lambda n: {"seqcore.stirling1": n * n + 2 * n, "_S1": n + 1,
                   "_S2": n + 2}),
    # each Stirling transform weight is read once per k, into the column
    # that the transform keeps for it, however many ids and cases read it
    "transform-weights": (
        lambda n: verify_all(SweepBounds(n_max=n)), (20, 45),
        lambda n: {f"{layer}.{name}": n for layer, name in (
            ("classical", "_worpitzky_weight"), ("identities", "_h1_weight"),
            ("identities", "_h2_weight"), ("identities", "_k3_weight"),
            ("identities", "_hsq_weight"),
            ("identities", "_cauchy_h_weight"))}),
    # AGOH and AGOH_ALT read one memoised Agoh sum per (n, m)
    "agoh-sum": (
        lambda nm: verify_all(SweepBounds(n_max=nm[0], m_max=nm[1])),
        ((20, 6), (45, 20)),
        lambda nm: {"identities._agoh_sum": nm[0] * nm[1]}),
    # HOCKEY's left side walks its terms by a running product, and its
    # right side reads C(n+1, j) once per case 1 <= j <= n <= N
    "hockey": (
        lambda n: verify_identity("HOCKEY", SweepBounds(n_max=n)), (40, 80),
        lambda n: {"seqcore.binom_int": n * (n + 1) // 2}),
    "congruence-all": (
        lambda p_max: run_cli("congruence", "all", "--p-max", str(p_max)),
        (31, 151), congruence_tables),
}


@pytest.mark.parametrize("bound_index", [0, 1], ids=["low", "high"])
@pytest.mark.parametrize("row", list(ROWS))
def test_cost_contract(cold, monkeypatch, row, bound_index):
    run, bounds, expected = ROWS[row]
    bound = bounds[bound_index]
    want = expected(bound)
    calls = {key: count_calls(monkeypatch, key) for key in want if "." in key}
    run(bound)
    got = {key: len(calls[key] if key in calls else getattr(TABLES[key], key))
           for key in want}
    assert got == want
