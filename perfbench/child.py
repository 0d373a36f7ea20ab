"""One fresh bernkit process of the benchmark.

    child.py setup          import bernkit and build the CLI parser, then exit
    child.py run SPEC_JSON  run one job and write its result file

A job is either ``verify`` (``bernkit.verify_all`` with the given
``SweepBounds``; the report is written to stdout in the CLI's ``--no-meta``
JSON form) or ``cli`` (``bernkit.cli.main(argv)``, writing to stdout as the
console script does).  Only the work interval is timed here, with the
speed probe running (probe.py); the parent times set-up.
"""

import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_bernkit():
    sys.path.insert(0, SRC)
    import bernkit.cli
    bernkit.cli.build_parser()
    if not os.path.abspath(bernkit.__file__).startswith(SRC + os.sep):
        sys.exit(f"bernkit imported from {bernkit.__file__}, not from {SRC}")
    return bernkit


def _verify_report_json(reports, rat_str) -> str:
    """The payload `bernkit verify ... --no-meta` prints for these reports.
    The CLI takes no seed, so the seeded sweep calls the library directly."""
    import json
    failures, notes, cases = [], [], 0
    for rep in reports:
        cases += rep.cases
        notes.extend(f"{rep.id}: {note}" for note in rep.notes)
        for f in rep.failures:
            failures.append({
                "id": rep.id,
                "params": {k: (v if isinstance(v, int) else rat_str(v))
                           for k, v in f["params"].items()},
                "lhs": rat_str(f["lhs"]),
                "rhs": rat_str(f["rhs"]),
            })
    payload = {"suite": "identities", "cases": cases,
               "failures": failures, "notes": notes}
    return json.dumps(payload, indent=2) + "\n"


def peak_rss_kb() -> int:
    """High-water resident set of this process image, in KiB.

    VmHWM belongs to the memory map created at exec.  getrusage's and
    wait4's ru_maxrss do not serve: Linux carries the spawning process's
    high-water mark into them across exec, so a child started by a large
    parent reads at least the parent's size."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(spec: dict) -> int:
    signal.alarm(spec["timeout"])  # SIGALRM ends a runaway job
    bernkit = _import_bernkit()
    import json
    from probe import Sampler
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    extra = {}
    sampler = Sampler()
    sampler.start()
    if spec["task"] == "verify":
        reports = bernkit.verify_all(bernkit.SweepBounds(**spec["bounds"]))
        rc = 0
    else:
        rc = bernkit.cli.main(spec["argv"])
        sys.stdout.flush()
    sampler.stop()
    timing = sampler.result()
    if spec["task"] == "verify":
        sys.stdout.write(_verify_report_json(reports, bernkit.cli.rat_str))
        sys.stdout.flush()
        extra["per_id"] = {r.id: [r.cases, len(r.failures)] for r in reports}
    result = {"work_s": timing["wall_s"], "work_ref_s": timing["ref_s"],
              "probe_median_s": timing["probe_median_s"], "rc": rc,
              "peak_rss_kb": peak_rss_kb(), **extra}
    if tracer is not None:
        result["trace"] = tracer.dump(scale=timing["ref_s"] / timing["span_s"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return rc


def main() -> int:
    if sys.argv[1:] == ["setup"]:
        _import_bernkit()
        return 0
    if len(sys.argv) == 3 and sys.argv[1] == "run":
        import json
        return run(json.loads(sys.argv[2]))
    sys.exit("usage: child.py setup | child.py run SPEC_JSON")


if __name__ == "__main__":
    sys.exit(main())
