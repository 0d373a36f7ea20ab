#!/usr/bin/env python3
"""bernkit benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every timed repetition of a workload starts
fresh Python processes, because every CLI user pays for cold memo caches.
Load is closed-loop: one process at a time, repetitions back to back until
S seconds would be overrun.  Inputs are generated from --seed; the processes
receive only those inputs.

Times are in reference seconds (probe.py), which the shared host's swings
in speed do not move.  --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones (see tracer.py).  Every run passes the correctness gate (gate.py).  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; details (environment, output SHA-256s, spans) go to
.bench_work/result-<workload>-<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gate
import probe
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_PER_REP = 5  # set-up spawns after each repetition
# Set-up time is measured against a bare interpreter that imports the
# standard-library modules bernkit's CLI uses: start-up work of the same
# kind, slowed alike when the shared host is busy (see probe.py for the
# work itself).  setup_s is the ratio times REF_BARE_S, the bare run's
# wall time in the fast spells of the host the benchmark was defined on.
BARE_ARGS = ["-c", "import argparse, fractions, json"]
REF_BARE_S = 0.065
DEADLINE_S = 170  # the whole run must end within 180 s

IDENTITY_BOUNDS = {"n_max": 45, "m_max": 20, "rand_count": 10}
P_MAX = 151
IDENTITY_IDS = tuple(gate.IDENTITY_CASES)
CONGRUENCE_IDS = ("C1", "C2", "C3", "C4", "C1SQ", "C3SQ",
                  "GLAISHER", "BABBAGE", "VSC", "CP1", "STIRP")

# Functions each workload must call (a traced run with zero calls fails).
REQUIRED_CALLS = {
    "identity-sweep": (
        "identities.verify_identity", "seqcore.stirling2", "seqcore.binom",
        "classical.bernoulli", "classical.euler_number", "classical.hw",
        "classical.cauchy1", "polybern.poly_bernoulli", "fps.named_series",
        "fps.mul"),
    "congruence-sweep": (
        "cli.main", "congr.check_congruence", "congr.rational_mod",
        "classical.bernoulli", "classical.euler_number", "classical.cauchy1",
        "seqcore.stirling2"),
    "sequence-dump": (
        "cli.main", "classical.bernoulli", "classical.cauchy1", "classical.hw",
        "seqcore.stirling2", "seqcore.binom", "fps.named_series", "fps.mul"),
}


@dataclass
class Job:
    """One fresh process: a CLI command (or the library sweep it mirrors)."""
    command: str          # `bernkit <command> --no-meta`
    kind: str             # which gate check applies; names its files
    cases: int            # cases or values the output must hold
    spec: dict
    params: dict = field(default_factory=dict)
    indices: list = field(default_factory=list)


def _rand_rational(rng: random.Random) -> Fraction:
    """Same distribution as the identity sweeps' random parameters."""
    while True:
        q = Fraction(rng.randint(-24, 24), rng.randint(1, 12))
        if q:
            return q


def _cli_job(command, kind, cases, params=None) -> Job:
    return Job(command, kind, cases,
               {"task": "cli", "argv": command.split() + ["--no-meta"]},
               params or {})


def make_jobs(workload: str, seed: int) -> list[Job]:
    if workload == "identity-sweep":
        bounds = dict(IDENTITY_BOUNDS, seed=seed)
        return [Job(f"verify all --n-max {bounds['n_max']}",
                    "identities", sum(gate.IDENTITY_CASES.values()),
                    {"task": "verify", "bounds": bounds})]
    if workload == "congruence-sweep":  # no random input; seed unused
        return [_cli_job(f"congruence all --p-max {P_MAX}",
                         "congruence", gate.CONGRUENCE_CASES)]
    if workload == "sequence-dump":
        rng = random.Random(f"{seed}:sequence-dump")
        x_hw, p, x_pb = _rand_rational(rng), rng.randint(1, 3), _rand_rational(rng)
        jobs = [
            _cli_job("compute bernoulli --n-max 700", "bernoulli",
                     701, {"n_max": 700}),
            _cli_job("compute stirling2 --n-max 300", "stirling2",
                     301 * 302 // 2, {"n_max": 300}),
            _cli_job("compute cauchy1 --n-max 300", "cauchy1",
                     301, {"n_max": 300}),
            _cli_job(f"compute hw --n-max 120 --x={x_hw}", "hw",
                     121, {"n_max": 120, "x": str(x_hw)}),
            _cli_job(f"series polybern --p {p} --x={x_pb} --order 100",
                     "polybern", 2 * 101, {"n_max": 100, "p": p, "x": str(x_pb)}),
        ]
        gate_rng = random.Random(f"{seed}:gate")
        for job in jobs:
            job.indices = gate.sample_indices(job.kind, job.params, gate_rng)
        return jobs
    raise KeyError(workload)


# --- processes ---------------------------------------------------------------

def _spawn(args: list[str], stdout) -> subprocess.CompletedProcess:
    """Run one child to completion (it ends itself on timeout)."""
    return subprocess.run([sys.executable, *args], stdout=stdout, cwd=ROOT)


def time_setup(n: int) -> list[tuple[float, float, float]]:
    """Time n fresh processes that import bernkit and build the CLI parser,
    doing no work.  Before, between and after them run bare interpreters
    (BARE_ARGS).  Returns, per set-up process, (reference seconds, its wall
    time, the mean wall time of the bare runs on either side)."""
    def spawn(args: list[str]) -> float:
        t0 = time.perf_counter()
        rc = _spawn(args, subprocess.DEVNULL).returncode
        if rc != 0:
            sys.exit(f"set-up process {args} failed with exit code {rc}")
        return time.perf_counter() - t0

    bare = [spawn(BARE_ARGS)]
    out = []
    for _ in range(n):
        dt = spawn([str(BENCH / "child.py"), "setup"])
        bare.append(spawn(BARE_ARGS))
        around = (bare[-2] + bare[-1]) / 2
        out.append((dt / around * REF_BARE_S, dt, around))
    return out


def run_job(job: Job, trace: bool, timeout: int) -> dict:
    out, res = WORK / f"{job.kind}.out", WORK / f"{job.kind}.result.json"
    res.unlink(missing_ok=True)
    spec = dict(job.spec, trace=trace, result=str(res), timeout=timeout)
    with open(out, "wb") as fh:
        rc = _spawn([str(BENCH / "child.py"), "run", json.dumps(spec)], fh).returncode
    data = out.read_bytes()
    result = json.loads(res.read_text()) if res.exists() else {}
    return {"rc": rc, "data": data,
            "sha256": gate.sha256(data), "result": result}


def run_rep(jobs: list[Job], trace: bool, started: float) -> list[dict]:
    timeout = max(10, int(DEADLINE_S - (time.perf_counter() - started)))
    return [run_job(job, trace, timeout) for job in jobs]


def rep_work_s(rep: list[dict], key: str = "work_ref_s") -> float:
    """Work time of one repetition, in reference seconds (or, with
    key="work_s", wall seconds with the probes left out)."""
    return sum(r["result"].get(key, 0.0) for r in rep)


# --- correctness gate ----------------------------------------------------------

class Verdict:
    """Running gate over repetitions.  Identical outputs are checked once
    and their failures counted once per repetition; output bytes are dropped
    once checked."""

    def __init__(self, jobs: list[Job]) -> None:
        self.jobs = jobs
        self.failed = 0
        self.problems: list[str] = []
        self.seen: list[dict[str, int]] = [{} for _ in jobs]  # sha -> failed

    def add(self, rep: list[dict]) -> None:
        for job, seen, r in zip(self.jobs, self.seen, rep):
            data = r.pop("data")
            r["out_bytes"] = len(data)
            if r["rc"] != 0 or "work_s" not in r["result"]:
                self.failed += job.cases
                self.problems.append(f"`{job.command}` exited with code {r['rc']}")
                continue
            if r["sha256"] not in seen:
                failed, problems = gate.check_job(job.kind, job.command, data,
                                                  r["result"], job.params,
                                                  job.indices)
                seen[r["sha256"]] = failed
                self.problems.extend(problems)
            self.failed += seen[r["sha256"]]

    def finish(self) -> dict[str, list[str]]:
        """Flag outputs that changed between repetitions; return the SHA-256
        of each job's output."""
        for job, seen in zip(self.jobs, self.seen):
            if len(seen) > 1:
                self.problems.append(f"`{job.command}` output differs between "
                                     "repetitions")
        return {job.command: sorted(seen) for job, seen in zip(self.jobs, self.seen)}


# --- per-layer metrics -----------------------------------------------------------

def merge_traces(traces: list[dict]) -> dict:
    funcs, edges, self_s = {}, {}, dict.fromkeys(LAYERS, 0.0)
    bits, max_order, spans = {}, 0, []
    for tr in traces:
        for k, (c, t) in tr["funcs"].items():
            f = funcs.setdefault(k, [0, 0.0])
            f[0] += c
            f[1] += t
        for a, b, c, t in tr["edges"]:
            e = edges.setdefault((a, b), [0, 0.0])
            e[0] += c
            e[1] += t
        for layer, s in tr["self_s"].items():
            self_s[layer] += s
        for layer, (nb, db) in tr["bits"].items():
            cur = bits.setdefault(layer, [0, 0])
            bits[layer] = [max(cur[0], nb), max(cur[1], db)]
        max_order = max(max_order, tr["max_order"])
        spans.extend(tr["spans"])
    return {"funcs": funcs, "edges": edges, "self_s": self_s, "bits": bits,
            "max_order": max_order, "spans": spans}


def scale_exponent(per_prime: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(p), upper half of primes."""
    ps = sorted(p for p, t in per_prime.items() if t > 0)
    ps = ps[len(ps) // 2:]
    if len(ps) < 2:
        return 0.0
    return statistics.linear_regression(
        [math.log(p) for p in ps], [math.log(per_prime[p]) for p in ps]).slope


def layer_metrics(tr: dict, cli_bytes: int) -> dict[str, float]:
    funcs, self_s = tr["funcs"], tr["self_s"]

    def calls(key):
        return funcs.get(key, [0, 0.0])[0]

    def incl(key):
        return funcs.get(key, [0, 0.0])[1]

    def layer_calls(layer):
        return sum(c for k, (c, _) in funcs.items() if k.split(".")[0] == layer)

    def bits_max(layer):
        return max(tr["bits"].get(layer, [0, 0]))

    pb_calls = calls("polybern.poly_bernoulli")
    builds = sum(c for (a, b), (c, _) in tr["edges"].items()
                 if b == "fps.named_series" and a.startswith("polybern."))
    id_run = dict.fromkeys(IDENTITY_IDS, 0.0)
    cg_run = dict.fromkeys(CONGRUENCE_IDS, 0.0)
    per_prime: dict[int, float] = {}
    for span in tr["spans"]:  # ids outside the declared metrics are left out
        id = span["label"][0]
        if span["unit"] == "identities.verify_identity" and id in id_run:
            id_run[id] += span["dur_s"]
        elif span["unit"] == "congr.check_congruence" and id in cg_run:
            p = span["label"][1]
            cg_run[id] += span["dur_s"]
            per_prime[p] = per_prime.get(p, 0.0) + span["dur_s"]
    return {
        "seqcore.calls": layer_calls("seqcore"),
        "seqcore.self_s": self_s["seqcore"],
        "seqcore.stirling2.calls": calls("seqcore.stirling2"),
        "seqcore.binom.incl_s": incl("seqcore.binom"),
        "seqcore.bits_max": bits_max("seqcore"),
        "classical.calls": layer_calls("classical"),
        "classical.self_s": self_s["classical"],
        "classical.bernoulli.incl_s": incl("classical.bernoulli"),
        "classical.euler_number.incl_s": incl("classical.euler_number"),
        "classical.hw.incl_s": incl("classical.hw"),
        "classical.cauchy1.incl_s": incl("classical.cauchy1"),
        "classical.bits_max": bits_max("classical"),
        "fps.self_s": self_s["fps"],
        "fps.mul.calls": calls("fps.mul"),
        "fps.mul.incl_s": incl("fps.mul"),
        "fps.max_order": tr["max_order"],
        "polybern.poly_bernoulli.calls": pb_calls,
        "polybern.poly_bernoulli.incl_s": incl("polybern.poly_bernoulli"),
        "polybern.series_builds": builds,
        "polybern.reuse_ratio": 1 - builds / pb_calls if pb_calls else 0.0,
        "identities.self_s": self_s["identities"],
        **{f"identities.{id}.run_s": t for id, t in id_run.items()},
        "congr.self_s": self_s["congr"],
        "congr.rational_mod.calls": calls("congr.rational_mod"),
        **{f"congr.{id}.run_s": t for id, t in cg_run.items()},
        "congr.scale_exp": scale_exponent(per_prime),
        "cli.self_s": self_s["cli"],
        "cli.out_bytes": cli_bytes,
    }


def layer_unit(name: str) -> str:
    if name.endswith(("calls", "builds", "max_order")):
        return "count"
    if name.endswith("bits_max"):
        return "bits"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "scale_exp")):
        return "ratio"
    return "s"


def trace_problems(workload: str, tr: dict) -> list[str]:
    problems = [f"traced run recorded no call to {key}"
                for key in REQUIRED_CALLS[workload]
                if tr["funcs"].get(key, [0])[0] == 0]
    units = {tuple(s["label"][:1]) for s in tr["spans"]}
    want = {"identity-sweep": IDENTITY_IDS,
            "congruence-sweep": CONGRUENCE_IDS}.get(workload, ())
    problems += [f"traced run recorded no span for {id}"
                 for id in want if (id,) not in units]
    return problems


# --- environment -----------------------------------------------------------------

def environment() -> dict:
    src = ROOT / "src" / "bernkit"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    git_sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha, "src_sha256": digest.hexdigest(),
            "platform": platform.platform()}


# --- main ------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(REQUIRED_CALLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    if not (ROOT / "src" / "bernkit" / "__init__.py").is_file():
        sys.exit(f"no bernkit sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))  # the gate's independent routes
    WORK.mkdir(exist_ok=True)
    jobs = make_jobs(args.workload, args.seed)
    trace = bool(args.trace)
    # One CPU for this process and every child: the host slows each CPU at
    # its own times, so a set-up spawn and the bare interpreters it is
    # measured against must run on the same one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    time_setup(1)  # untimed: byte-compiles the sources
    verdict = Verdict(jobs)
    reps, traced, setup, cycles = [], [], [], []
    t_start = time.perf_counter()
    while True:  # stop before a further cycle would overrun --seconds
        t0 = time.perf_counter()
        reps.append(run_rep(jobs, False, started))
        verdict.add(reps[-1])
        if trace:
            traced.append(run_rep(jobs, True, started))
            verdict.add(traced[-1])
        # set-up is sampled across the whole run, so it sees the same
        # machine noise as run_s
        setup.extend(time_setup(SETUP_PER_REP))
        cycles.append(time.perf_counter() - t0)
        if (time.perf_counter() - t_start + statistics.median(cycles)
                > args.seconds):
            break
    shas = verdict.finish()
    failed, problems = verdict.failed, verdict.problems
    attempted = len(reps + traced) * sum(job.cases for job in jobs)
    work = [rep_work_s(rep) for rep in reps]
    wall = [rep_work_s(rep, "work_s") for rep in reps]
    run_s = statistics.median(work)
    setup_ref = [ref for ref, _, _ in setup]
    setup_wall = [dt for _, dt, _ in setup]
    env = environment()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "jobs": [job.command for job in jobs],
              "output_sha256": shas, "setup_s": setup_ref,
              "setup_wall_s": setup_wall,
              "bare_wall_s": [bare for _, _, bare in setup],
              "run_s": work, "run_wall_s": wall,
              "job_run_s": {job.command: [r["result"].get("work_ref_s")
                                          for r in rep_job]
                            for job, rep_job in zip(jobs, zip(*reps))},
              "probe_median_s": [[r["result"].get("probe_median_s")
                                  for r in rep] for rep in reps],
              "peak_rss_kb": [max(r["result"].get("peak_rss_kb", 0) for r in rep)
                              for rep in reps],
              "problems": problems}
    if trace:
        merged = [merge_traces([r["result"]["trace"] for r in rep
                                if "trace" in r["result"]]) for rep in traced]
        cli_bytes = sum(r["out_bytes"] for job, r in zip(jobs, traced[-1])
                        if job.spec["task"] == "cli")
        for tr in merged:
            problems.extend(trace_problems(args.workload, tr))
        per_rep = [layer_metrics(tr, cli_bytes) for tr in merged]
        metrics = {name: statistics.median(rep[name] for rep in per_rep)
                   for name in per_rep[0]}
        traced_work = [rep_work_s(rep) for rep in traced]
        metrics["trace.overhead_ratio"] = (statistics.median(traced_work) / run_s
                                           if run_s else 0.0)
        units = {name: layer_unit(name) for name in metrics}
        last = merged[-1]
        detail["traced_run_s"] = traced_work
        detail["bits"] = last["bits"]
        detail["funcs"] = last["funcs"]
        detail["edges"] = [[a, b, c, t] for (a, b), (c, t) in last["edges"].items()]
        detail["spans"] = last["spans"]
    else:
        peak_mb = statistics.median(detail["peak_rss_kb"]) / 1024
        metrics = {"setup_s": statistics.median(setup_ref), "run_s": run_s,
                   "cases_per_s": (sum(job.cases for job in jobs) / run_s
                                   if run_s else 0.0),  # 0: every repetition crashed
                   "peak_rss_mb": peak_mb}
        units = {"setup_s": "s", "run_s": "s", "cases_per_s": "1/s",
                 "peak_rss_mb": "MB"}
    detail["metrics"] = metrics
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))

    print(f"# bernkit benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} python={env['python']} nproc={env['nproc']} "
          f"git={env['git_sha']} src_sha256={env['src_sha256'][:16]}")
    print(f"# {len(reps)} untraced repetitions, run_s median {run_s:.4f} "
          f"min {min(work):.4f} max {max(work):.4f} (wall: median "
          f"{statistics.median(wall):.4f}); setup_s median of {len(setup)} "
          f"spawns {statistics.median(setup_ref):.4f} (wall: "
          f"{statistics.median(setup_wall):.4f}); times in reference seconds "
          f"(probe.py)")
    print(f"# fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    for command, digests in shas.items():
        print(f"# sha256 `{command}`: {' '.join(digests)}")
    for problem in problems:
        print(f"# GATE: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
