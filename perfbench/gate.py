"""Correctness gate for every benchmark run.

Each check takes one job's ``--no-meta`` output and returns
``(failed, problems)``: the number of cases or values found wrong or
missing, and a description of everything that is wrong (a wrong count, a
missing note or a changed byte counts as a problem even where no single
value can be blamed).  Sequence values are sampled with a seeded RNG and
recomputed by routes independent of the ones the CLI used.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

# SHA-256 of `bernkit <args> --no-meta` on the seed code.  These outputs do
# not depend on the workload seed (a passing sweep prints no parameters), so
# any byte change is a behaviour change.
GOLDEN_SHA256 = {
    "verify all --n-max 45":
        "35fc4e5a2d265d47cc716ed5185332cb81ce05476ef9ff6f7b01bfd1bfe2b47f",
    "congruence all --p-max 151":
        "0b91ca75905fdd6537f0eb1793768790dd5b9a0a26fea76880409a95cc979540",
    "compute bernoulli --n-max 700":
        "baa14eb367ce942e7b8cb156b293c6d61f3ed3537090de1d735d03e4b1252e26",
    "compute stirling2 --n-max 300":
        "2a33518a8368cf333e50df0b1f53265c4c1480a49a2606ba2ab455ab2bb13066",
    "compute cauchy1 --n-max 300":
        "132b6bb32efb9e49b6770540632a91059b19a3ccdb6e19418382bc6b068b4327",
}

# Cases per identity id at n_max=45, m_max=20, rand_count=10.
IDENTITY_CASES = {
    "MAIN": 1035, "WORPITZKY": 45, "GEN_WORPITZKY": 946, "H1": 44, "H2": 44,
    "K3SPECIAL": 42, "POLYX": 450, "POLYX_COEFFS": 1080, "AGOH": 900,
    "AGOH_ALT": 900, "AGOH_M1": 45, "AGOH_COMBINE": 45, "REC16": 45,
    "REC16_EULER": 45, "AGOH_EQ11": 200, "CUMSUM": 44, "EQ14": 45,
    "HSQ_BRIDGE": 45, "HOCKEY": 1035, "REDUCTION": 1035, "STIRL20": 90,
    "BPINT": 44, "HW_CAUCHY": 45,
}
IDENTITY_NOTES = (
    "MAIN: j=n excluded: RHS (binom(n,n)-1)*B_0/0 is indeterminate; "
    "LHS there equals H_n",
    "GEN_WORPITZKY: n-j=1 subdomain, direct summation for n<=30: B_1=+1/2 "
    "closes the identity in 29/29 cases, B_1=-1/2 in 0/29; the +1/2 "
    "convention is required on this line",
)
CONGRUENCE_CASES = 5164  # all ids, odd primes <= 151
CONGRUENCE_NOTES = ["skipped: C4 at p=3: requires p >= 5"]

WORPITZKY_N_MAX = 400  # its Stirling tables grow as n^2; keep the gate small
SAMPLES = {"bernoulli": 6, "stirling2": 12, "cauchy1": 3, "hw": 6, "polybern": 6}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_problems(command: str, data: bytes) -> list[str]:
    want = GOLDEN_SHA256.get(command)
    if want is not None and sha256(data) != want:
        return [f"`{command}` output differs from the recorded SHA-256"]
    return []


def _report(data: bytes, suite: str) -> tuple[dict | None, list[str]]:
    try:
        payload = json.loads(data)
    except ValueError as exc:
        return None, [f"{suite} report is not JSON: {exc}"]
    if payload.get("suite") != suite:
        return None, [f"report suite is {payload.get('suite')!r}, not {suite!r}"]
    return payload, []


def check_identity_report(data: bytes, per_id: dict) -> tuple[int, list[str]]:
    """verify-all report plus the per-id [cases, failures] the child counted."""
    payload, problems = _report(data, "identities")
    if payload is None:
        return sum(IDENTITY_CASES.values()), problems
    failed = len(payload["failures"])
    if failed:
        problems.append(f"{failed} identity cases failed")
    missing = 0
    for id, want in IDENTITY_CASES.items():
        got = per_id.get(id, [0, 0])[0]
        if got != want:
            problems.append(f"{id}: {got} cases, expected {want}")
            missing += max(want - got, 0)
    if payload["cases"] != sum(IDENTITY_CASES.values()):
        problems.append(f"report has {payload['cases']} cases, "
                        f"expected {sum(IDENTITY_CASES.values())}")
    for note in IDENTITY_NOTES:
        if note not in payload["notes"]:
            problems.append(f"missing note: {note[:40]}...")
    return failed + missing, problems


def check_congruence_report(data: bytes) -> tuple[int, list[str]]:
    payload, problems = _report(data, "congruence")
    if payload is None:
        return CONGRUENCE_CASES, problems
    failed = len(payload["failures"])
    if failed:
        problems.append(f"{failed} congruence cases failed")
    missing = max(CONGRUENCE_CASES - payload["cases"], 0)
    if payload["cases"] != CONGRUENCE_CASES:
        problems.append(f"report has {payload['cases']} cases, "
                        f"expected {CONGRUENCE_CASES}")
    if payload["notes"] != CONGRUENCE_NOTES:
        problems.append(f"notes {payload['notes']!r}, expected {CONGRUENCE_NOTES!r}")
    return failed + missing, problems


# --- sequence-dump: independent routes for sampled values ------------------

def _stirling2_explicit(n: int, k: int) -> int:
    """{n,k} = (1/k!) sum_j (-1)^j C(k,j) (k-j)^n."""
    s = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return s // math.factorial(k)


def _hw_polyx(n: int, x: Fraction) -> Fraction:
    """hw(n,x) from the POLYX identity:
    H_n x^n + sum_{j=1..n} (C(n,j) - 1) B_j / j x^(n-j)."""
    from bernkit import bernoulli, harmonic
    return harmonic(n) * x ** n + sum(
        ((math.comb(n, j) - 1) * bernoulli(j) / j * x ** (n - j)
         for j in range(1, n + 1)), Fraction(0))


def _polybern_shifted(n: int, p: int, x: Fraction) -> Fraction:
    """B_n^(p)(x) = sum_k C(n,k) B_k^(p)(0) x^(n-k), with B_k^(p)(0) from the
    Stirling-sum oracle (the e^{xt} factor is a binomial shift)."""
    from bernkit.polybern import stirling_sum_oracle
    return sum((math.comb(n, k) * stirling_sum_oracle(k, p) * x ** (n - k)
                for k in range(n + 1)), Fraction(0))


def reference_value(kind: str, index, params: dict) -> Fraction:
    """The value a sequence-dump output must hold at `index`, by an
    independent route."""
    if kind == "bernoulli":
        from bernkit import worpitzky_bernoulli
        return Fraction(1) if index == 0 else worpitzky_bernoulli(index)
    if kind == "stirling2":
        return Fraction(_stirling2_explicit(*index))
    if kind == "cauchy1":
        from bernkit.classical import cauchy1_integral
        return cauchy1_integral(index)
    if kind == "hw":
        return _hw_polyx(index, Fraction(params["x"]))
    if kind == "polybern":
        return _polybern_shifted(index, params["p"], Fraction(params["x"]))
    raise KeyError(kind)


def _fraction(text) -> Fraction | None:
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def _entries(kind: str, payload: dict, params: dict) -> tuple[dict, int]:
    """Map index -> printed value, and the number of entries expected."""
    n_max = params["n_max"]
    if kind == "stirling2":
        got = {(n, k): v for n, row in enumerate(payload.get("rows", []))
               for k, v in enumerate(row)}
        return got, (n_max + 1) * (n_max + 2) // 2
    if kind == "polybern":
        got = dict(enumerate(payload.get("egf", [])))
        return got, n_max + 1
    return dict(enumerate(payload.get("values", []))), n_max + 1


def sample_indices(kind: str, params: dict, rng: random.Random) -> list:
    n_max = params["n_max"]
    k = SAMPLES[kind]
    if kind == "stirling2":
        out = []
        for _ in range(k):
            n = rng.randint(0, n_max)
            out.append((n, rng.randint(0, n)))
        return out
    lo = 1 if kind == "hw" else 0
    hi = min(n_max, WORPITZKY_N_MAX) if kind == "bernoulli" else n_max
    return sorted(rng.sample(range(lo, hi + 1), k))


def check_sequence(kind: str, data: bytes, params: dict,
                   indices: list) -> tuple[int, list[str]]:
    """Count missing entries, then recompute the sampled ones."""
    try:
        payload = json.loads(data)
    except ValueError as exc:
        return 1, [f"{kind} output is not JSON: {exc}"]
    got, expected = _entries(kind, payload, params)
    problems = []
    failed = max(expected - len(got), 0)
    if len(got) != expected:
        problems.append(f"{kind}: {len(got)} entries, expected {expected}")
    if kind == "polybern":
        ordinary = payload.get("ordinary", [])
        for n, e in got.items():
            o = _fraction(ordinary[n]) if n < len(ordinary) else None
            if o is None or o * math.factorial(n) != _fraction(e):
                failed += 1
                problems.append(f"polybern: egf[{n}] != n! * ordinary[{n}]")
    for index in indices:
        text = got.get(index)
        want = reference_value(kind, index, params)
        if _fraction(text) != want:
            failed += 1
            problems.append(f"{kind}[{index}] = {text}, expected "
                            f"{want.numerator}/{want.denominator}")
    return failed, problems


def check_job(kind: str, command: str, data: bytes, result: dict,
              params: dict, indices: list) -> tuple[int, list[str]]:
    """Gate one job's output: recorded SHA-256 where one exists, then the
    check for its kind."""
    problems = golden_problems(command, data)
    if kind == "identities":
        failed, more = check_identity_report(data, result.get("per_id", {}))
    elif kind == "congruence":
        failed, more = check_congruence_report(data)
    else:
        failed, more = check_sequence(kind, data, params, indices)
    return failed, problems + more
