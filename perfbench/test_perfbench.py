"""Tests of the benchmark itself: the correctness gate rejects perturbed
outputs, and the tracer sees calls made through every import alias.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
from bernkit import cli  # noqa: E402


def _cli_output(tmp_path, command: str) -> bytes:
    out = tmp_path / "out.json"
    assert cli.main(command.split() + ["--no-meta", "--out", str(out)]) == 0
    return out.read_bytes()


def _perturb(data: bytes, key: str, index) -> bytes:
    payload = json.loads(data)
    if isinstance(index, tuple):
        payload[key][index[0]][index[1]] += 1
    else:
        payload[key][index] = f"{payload[key][index]}1"
    return json.dumps(payload).encode()


SEQUENCES = [
    ("bernoulli", "compute bernoulli --n-max 30", {"n_max": 30}, "values", 12),
    ("stirling2", "compute stirling2 --n-max 12", {"n_max": 12}, "rows", (7, 3)),
    ("cauchy1", "compute cauchy1 --n-max 12", {"n_max": 12}, "values", 9),
    ("hw", "compute hw --n-max 10 --x=-5/3", {"n_max": 10, "x": "-5/3"},
     "values", 6),
    ("polybern", "series polybern --p 2 --x=3/4 --order 12",
     {"n_max": 12, "p": 2, "x": "3/4"}, "egf", 8),
]


@pytest.mark.parametrize("kind,command,params,key,index", SEQUENCES)
def test_sequence_gate_rejects_perturbed_value(tmp_path, kind, command,
                                               params, key, index):
    data = _cli_output(tmp_path, command)
    assert gate.check_sequence(kind, data, params, [index]) == (0, [])
    failed, problems = gate.check_sequence(kind, _perturb(data, key, index),
                                           params, [index])
    assert failed >= 1 and problems


def test_sequence_gate_counts_missing_values(tmp_path):
    payload = json.loads(_cli_output(tmp_path, "compute bernoulli --n-max 30"))
    payload["values"] = payload["values"][:-3]
    failed, problems = gate.check_sequence(
        "bernoulli", json.dumps(payload).encode(), {"n_max": 30}, [])
    assert failed == 3 and problems


def _identity_payload() -> dict:
    return {"suite": "identities", "cases": sum(gate.IDENTITY_CASES.values()),
            "failures": [], "notes": list(gate.IDENTITY_NOTES)}


def _encode(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode()


def test_passing_reports_match_recorded_cli_output():
    assert gate.sha256(_encode(_identity_payload())) == \
        gate.GOLDEN_SHA256["verify all --n-max 45"]
    congruence = {"suite": "congruence", "cases": gate.CONGRUENCE_CASES,
                  "failures": [], "notes": gate.CONGRUENCE_NOTES}
    assert gate.sha256(_encode(congruence)) == \
        gate.GOLDEN_SHA256["congruence all --p-max 151"]


def test_identity_gate_rejects_perturbed_report():
    per_id = {id: [n, 0] for id, n in gate.IDENTITY_CASES.items()}
    good = _identity_payload()
    assert gate.check_identity_report(_encode(good), per_id) == (0, [])

    failing = dict(good, failures=[{"id": "AGOH_M1", "params": {"n": 3},
                                    "lhs": "1/1", "rhs": "2/1"}])
    assert gate.check_identity_report(_encode(failing), per_id)[0] == 1
    no_note = dict(good, notes=good["notes"][:1])
    assert gate.check_identity_report(_encode(no_note), per_id)[1]
    short = dict(per_id, CUMSUM=[40, 0])
    assert gate.check_identity_report(_encode(good), short)[0] == 4


def test_congruence_gate_rejects_perturbed_report():
    good = {"suite": "congruence", "cases": gate.CONGRUENCE_CASES,
            "failures": [], "notes": gate.CONGRUENCE_NOTES}
    assert gate.check_congruence_report(_encode(good)) == (0, [])
    short = dict(good, cases=gate.CONGRUENCE_CASES - 2)
    assert gate.check_congruence_report(_encode(short))[0] == 2
    assert gate.check_congruence_report(_encode(dict(good, notes=[])))[1]


def test_golden_sha_rejects_one_changed_byte():
    data = bytearray(_encode(_identity_payload()))
    assert gate.golden_problems("verify all --n-max 45", bytes(data)) == []
    data[-2] ^= 1
    assert gate.golden_problems("verify all --n-max 45", bytes(data))


def test_crashed_process_counts_all_its_cases_failed():
    job = run.Job("compute cauchy1 --n-max 300", "cauchy1", 301, {})
    verdict = run.Verdict([job])
    verdict.add([{"rc": 1, "data": b"", "sha256": gate.sha256(b""),
                  "result": {}}])
    assert verdict.failed == 301 and verdict.problems


def _samples(start, step, handler_s, probe_s):
    return [(start + i * step, handler_s, p) for i, p in enumerate(probe_s)]


def test_reference_seconds_rescales_by_probe_speed():
    ref = probe.REF_PROBE_S
    # CPU at reference speed: the work is its wall time minus the handlers
    fast = _samples(0.0, 0.01, 0.001, [ref] * 100)
    assert probe.reference_seconds(0.0, 1.0, fast) == pytest.approx(0.9)
    # the same CPU twice as slow for the second half of the interval
    slow = _samples(0.0, 0.01, 0.001, [ref] * 50 + [2 * ref] * 50)
    assert probe.reference_seconds(0.0, 1.0, slow) == pytest.approx(0.675, rel=0.02)
    # one odd probe does not move the figure: a window median sets the speed
    odd = _samples(0.0, 0.01, 0.001, [ref] * 50 + [9 * ref] + [ref] * 49)
    assert probe.reference_seconds(0.0, 1.0, odd) == pytest.approx(0.9)
    assert probe.reference_seconds(0.0, 0.002, []) == 0.002


def test_sampler_probes_a_busy_process():
    sampler = probe.Sampler()
    sampler.start()
    x = 0
    while len(sampler.samples) < 5:
        x += 1
    sampler.stop()
    timing = sampler.result()
    assert timing["probe_median_s"] > 0 and timing["ref_s"] > 0
    assert 0 < timing["wall_s"] < sampler.t1 - sampler.t0


def _child(tmp_path, trace: bool) -> tuple[bytes, dict]:
    result = tmp_path / f"result{int(trace)}.json"
    spec = {"task": "verify", "trace": trace, "result": str(result),
            "timeout": 120, "bounds": {"n_max": 8, "m_max": 4, "rand_count": 2,
                                       "seed": 5}}
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "run",
                           json.dumps(spec)], capture_output=True, cwd=ROOT,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(result.read_text())


def test_tracer_sees_calls_through_every_alias(tmp_path):
    plain, _ = _child(tmp_path, trace=False)
    traced, result = _child(tmp_path, trace=True)
    assert traced == plain  # tracing changes no output
    tr = result["trace"]
    edges = {(a, b): c for a, b, c, _ in tr["edges"]}
    # `from .classical import bernoulli` inside identities
    assert edges[("identities.verify_identity", "classical.bernoulli")] > 0
    # `from .seqcore import factorial` inside fps (Egf.egf runs untraced)
    assert edges[("polybern.poly_bernoulli", "seqcore.factorial")] > 0
    # module-attribute call `fps.named_series` from polybern
    assert edges[("polybern.poly_bernoulli", "fps.named_series")] > 0
    spans = [s["label"][0] for s in tr["spans"]]
    assert spans == list(gate.IDENTITY_CASES)
    assert tr["bits"]["classical"][0] > 0 and tr["bits"]["classical"][1] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identity-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
