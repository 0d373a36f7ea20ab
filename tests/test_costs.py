"""Cost contracts: exact counts of primitive calls and of memo table sizes
that a command or sweep must keep, each row checked at two bounds so that
its growth in the bound shows. Counts are the same on any host, so a change
that brings back a costlier path fails here even when no timing would see
it. Every row starts from cold tables."""

import contextlib
import importlib
import io

import pytest

from bernkit import classical, cli, congr, fps, identities, polybern, seqcore
from bernkit.congr import odd_primes_upto
from bernkit.identities import SweepBounds, verify_all, verify_identity

MODULES = {module.__name__.rpartition(".")[2]: module
           for module in (seqcore, classical, fps, polybern, identities,
                          congr, cli)}
TABLES = {"_S1": seqcore, "_S2": seqcore, "_S2_TOP": seqcore,
          "_BERN": classical, "_GENOCCHI": classical,
          "_BERN_SUM": classical, "_EULER2": classical,
          "_SEIDEL": classical, "_EULER_SUM": classical,
          "_CAUCHY1": classical, "_CAUCHY1_ROW": classical}


def count_calls(monkeypatch, qualname):
    """Wrap the function `qualname` and return the list that collects the
    arguments of each call. "module.name" names a bernkit function, wrapped
    under every module name bound to it; "module.Class.method" a method,
    wrapped on its class."""
    *owner, name = qualname.split(".")
    if len(owner) == 2:
        module, cls = owner
        targets = [getattr(importlib.import_module(module), cls)]
        original = getattr(targets[0], name)
    else:
        original = getattr(MODULES[owner[0]], name)
        targets = [module for module in MODULES.values()
                   if getattr(module, name, None) is original]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for target in targets:
        monkeypatch.setattr(target, name, counting)
    return calls


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--no-meta"]) == 0


def congruence_tables(p_max):
    # bernoulli to 2p (VSC), euler_number, cauchy1 and S2 rows to p, for the
    # largest prime p <= p_max; the running sums of B_j and e_j end at n = p
    # and Seidel's working row at row p. Each statement's left side is
    # reduced, and each distinct right side once per id and prime: 13 per
    # prime, two fewer at p = 3 (C4 skipped, VSC's one right side)
    primes = odd_primes_upto(p_max)
    p = primes[-1]
    statements = sum(2 * q + 9 for q in primes) - 1
    return {"_BERN": 2 * p + 1, "_EULER2": p + 1, "_CAUCHY1": p + 1,
            "_S2": p + 1, "_BERN_SUM": p + 1, "_EULER_SUM": p + 1,
            "_SEIDEL": p + 1,
            "congr.rational_mod": statements + 13 * len(primes) - 2}


def fill_sums(n):
    # every k <= n asked for in ascending order, as `compute` walks
    for k in range(n + 1):
        classical.bernoulli_sum(k)
        classical.euler_sum(k)


def stirp_tables(p_max):
    # S2 keeps rows 0..S2_ROWS whole, and one working row past them; STIRP
    # reads row p once per prime, in one stirling2 call
    primes = odd_primes_upto(p_max)
    p = primes[-1]
    return {"_S2": min(p, seqcore.S2_ROWS) + 1,
            "_S2_TOP": int(p > seqcore.S2_ROWS),
            "seqcore.stirling2": len(primes)}


def congruence_abc_checks(p_max):
    # rational_mod reads the exact type of its argument before any
    # isinstance, so no statement makes an ABC check. What is left is per
    # prime: the seven int-times-Fraction products of C1, C3, C1SQ, C3SQ,
    # CP1 and GLAISHER (two) each ask Fraction's reflected operator for
    # isinstance(p, numbers.Rational). The JSON writer asks
    # isinstance(value, Iterator) once per value of the report: five
    return {"abc.ABCMeta.__instancecheck__":
            7 * len(odd_primes_upto(p_max)) + 5}


# name: (run at a bound, two bounds, expected counts at that bound); a key
# "module.name" or "module.Class.method" counts the calls of that function,
# any other key is the length of that memo table when the run ends
ROWS = {
    # each hw(n, x), n = 1..N, makes one binom(x, n) call that grows binom's
    # falling row for x to F_n and one stirling2 call that fills S2 to row
    # n, then reads both rows
    "compute-hw": (
        lambda n: run_cli("compute", "hw", "--n-max", str(n)), (40, 80),
        lambda n: {"seqcore.binom": n, "seqcore.stirling2": n}),
    # cauchy1 steps one anti-diagonal of integral moments up to N and reads
    # no Stirling number of either kind
    "compute-cauchy1": (
        lambda n: run_cli("compute", "cauchy1", "--n-max", str(n)), (40, 300),
        lambda n: {"_CAUCHY1": n + 1, "_CAUCHY1_ROW": n + 1,
                   "seqcore.stirling1": 0, "seqcore.stirling2": 0}),
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
    # POLYX's right side makes one hw call per case, and hw one binom call;
    # hw reads no binom(x, k) per k of the falling row
    "polyx": (
        lambda n: verify_identity("POLYX", SweepBounds(n_max=n)), (20, 45),
        lambda n: {"seqcore.binom": n * SweepBounds().rand_count}),
    # HOCKEY's left side walks its terms by a running product, and its
    # right side reads C(n+1, j) once per case 1 <= j <= n <= N
    "hockey": (
        lambda n: verify_identity("HOCKEY", SweepBounds(n_max=n)), (40, 80),
        lambda n: {"seqcore.binom_int": n * (n + 1) // 2}),
    # the Bernoulli and Euler fills carry one working row each, stepped by
    # two running-sum passes per new B_2j (Genocchi) and one per new e_n
    # (Seidel); the running sums of B_j and E_j(0) keep one entry per n,
    # and the one of B_j costs one Fraction addition per new n. A fill that
    # restarts from cold on each call repeats its passes, and a running sum
    # that restarts repeats its additions
    "bernoulli-fill": (
        fill_sums, (200, 700),
        lambda n: {"_BERN": n + 1, "_GENOCCHI": n // 2 + 2,
                   "_BERN_SUM": n + 1, "_EULER2": n + 1, "_SEIDEL": n + 1,
                   "_EULER_SUM": n + 1,
                   "classical.accumulate": 2 * (n // 2) + n,
                   "fractions.Fraction.__add__": n}),
    "congruence-all": (
        lambda p_max: run_cli("congruence", "all", "--p-max", str(p_max)),
        (31, 151), congruence_tables),
    # STIRP reads row p for the primes in ascending order, and so steps one
    # working row up past S2_ROWS
    "stirp": (
        lambda p_max: run_cli("congruence", "STIRP", "--p-max", str(p_max)),
        (151, 601), stirp_tables),
    # ABC checks (Fraction's metaclass is abc.ABCMeta) grow per prime, not
    # per statement
    "congruence-abc": (
        lambda p_max: run_cli("congruence", "all", "--p-max", str(p_max)),
        (31, 151), congruence_abc_checks),
    # the signs of the identity sweep are negations on parity and its x
    # values are not wrapped again in Fraction; as measured, most of what
    # is left is verify_identity's sort of POLYX's Fraction keys (3,004 at
    # identity-sweep's bounds, the high one here)
    "identity-abc": (
        lambda nm: verify_all(SweepBounds(n_max=nm[0], m_max=nm[1],
                                          rand_count=10)),
        ((20, 6), (45, 20)),
        lambda nm: {"abc.ABCMeta.__instancecheck__":
                    {20: 1959, 45: 4861}[nm[0]]}),
    # the dump steps one row at a time, N times, and fills no memo triangle
    "compute-stirling2": (
        lambda n: run_cli("compute", "stirling2", "--n-max", str(n)),
        (40, 300),
        lambda n: {"seqcore.next_stirling2_row": n, "_S2": 1, "_S2_TOP": 0}),
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
