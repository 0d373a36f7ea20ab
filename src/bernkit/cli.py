"""Batch command-line front end.

Subcommands: compute | verify | congruence | series. Exit codes: 0 all
checks pass, 1 verified failure(s), 2 usage/config error. Every rational is
printed as "num/den" in lowest terms; no floating point appears anywhere.

Output goes to --out or stdout one row at a time: the sink is opened first,
and no format builds the whole document as one string (JSON joins one list
of only ints or only strs at a time). The JSON form is
json.dumps(payload, indent=2) plus a newline, byte for byte.

`compute stirling1|stirling2` makes its rows lazily, each from the one
before, and drops each once written, so the dump holds one row and no memo
triangle: `compute stirling2 --n-max 1000` (414 MB of JSON) peaks at about
21 MiB of RSS, against 221.6 MiB when the triangle was filled first
(VmHWM, Python 3.11, 2-vCPU x86-64; BENCH_23.json).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import time
from collections.abc import Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import classical, congr, fps, identities, polybern, seqcore

SEQUENCES = ("bernoulli", "euler", "cauchy1", "stirling1", "stirling2",
             "harmonic", "dibernoulli", "hw", "poly_bernoulli")


def rat_str(r) -> str:
    if r is None:
        return "indeterminate"
    return f"{r.numerator}/{r.denominator}"


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _too_small(args, **least) -> bool:
    """Report the first numeric option below its least value."""
    for name, lo in least.items():
        if getattr(args, name) < lo:
            print(f"--{name.replace('_', '-')} must be >= {lo}", file=sys.stderr)
            return True
    return False


def _json_value(v):
    """One failure-record value: a residue as {value, modulus}, an int or
    str parameter as is, anything else as a rational string."""
    # a Residue is a tuple: keep this branch ahead of any sequence branch
    if isinstance(v, congr.Residue):
        return {"value": v.value, "modulus": v.modulus}
    if isinstance(v, (int, str)):
        return v
    return rat_str(v)


def _emit(payload: dict, args) -> int:
    """Write the payload to --out or stdout, one row at a time; exit code 0,
    or 2 (and nothing written) when --out cannot be opened."""
    if not args.no_meta:
        payload = {"meta": {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%S")},
                   **payload}
    if args.out:
        try:
            sink = open(args.out, "w")
        except OSError as exc:
            print(f"--out {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sink = contextlib.nullcontext(sys.stdout)
    with sink as out:
        if args.format == "json":
            _write_json(out, payload)
            out.write("\n")
        elif args.format == "csv":
            _write_csv(out, payload)
        else:
            _write_markdown(out, payload)
    return 0


def _write_json(out, value, depth: int = 0) -> None:
    """Write `value` exactly as json.dumps(value, indent=2) lays it out, one
    item per write; an iterator is read once and written as the list of its
    items, and a list of only ints or only strs is one join."""
    lazy = isinstance(value, Iterator)
    if not lazy and (not isinstance(value, (dict, list)) or not value):
        out.write(json.dumps(value))
        return
    pad = "\n" + "  " * (depth + 1)
    end = "\n" + "  " * depth
    if isinstance(value, dict):
        sep = "{" + pad
        for k, v in value.items():
            out.write(sep + encode_basestring_ascii(k) + ": ")
            _write_json(out, v, depth + 1)
            sep = "," + pad
        out.write(end + "}")
    elif not lazy and all(type(v) is int for v in value):
        out.write("[" + pad + ("," + pad).join(map(int.__repr__, value))
                  + end + "]")
    elif not lazy and all(type(v) is str for v in value):
        out.write("[" + pad + ("," + pad).join(map(encode_basestring_ascii,
                                                   value)) + end + "]")
    else:
        sep = "[" + pad
        for v in value:
            out.write(sep)
            _write_json(out, v, depth + 1)
            sep = "," + pad
        out.write("[]" if sep[0] == "[" else end + "]")  # "[]": no items


def _write_csv(out, payload: dict) -> None:
    import csv  # only --format csv needs it; start-up does not load it
    w = csv.writer(out)
    if "values" in payload:
        w.writerow(["index", "value"])
        for i, v in enumerate(payload["values"]):
            w.writerow([i, v])
    elif "rows" in payload:
        w.writerow(["n", "row"])
        for n, row in enumerate(payload["rows"]):
            w.writerow([n, " ".join(str(v) for v in row)])
    else:
        w.writerow(["suite", payload.get("suite", "")])
        w.writerow(["cases", payload.get("cases", 0)])
        w.writerow(["id", "params", "lhs", "rhs"])
        for f in payload.get("failures", []):
            w.writerow([f["id"], json.dumps(f["params"], sort_keys=True),
                        json.dumps(f["lhs"]), json.dumps(f["rhs"])])
        for note in payload.get("notes", []):
            w.writerow(["note", note])


def _write_markdown(out, payload: dict) -> None:
    def line(text: str) -> None:
        out.write(text + "\n")

    if "values" in payload:
        line(f"## {payload.get('sequence', payload.get('series', ''))}")
        line("")
        line("| n | value |")
        line("|---|-------|")
        for i, v in enumerate(payload["values"]):
            line(f"| {i} | {v} |")
    elif "rows" in payload:
        line(f"## {payload['sequence']}")
        line("")
        for n, row in enumerate(payload["rows"]):
            line(f"- row {n}: {' '.join(str(v) for v in row)}")
    else:
        line(f"## suite: {payload['suite']}")
        line("")
        line(f"- cases: {payload['cases']}")
        line(f"- failures: {len(payload.get('failures', []))}")
        for f in payload.get("failures", []):
            line(f"  - {f['id']} {json.dumps(f['params'], sort_keys=True)}"
                 f": lhs={f['lhs']} rhs={f['rhs']}")
        for note in payload.get("notes", []):
            line(f"- note: {note}")


def _cmd_compute(args) -> int:
    name = args.sequence
    if name not in SEQUENCES:
        print(f"unknown sequence {name!r}", file=sys.stderr)
        return 2
    if _too_small(args, n_max=0, p=1):
        return 2
    n_max = args.n_max
    payload: dict = {"sequence": name}
    if name in ("stirling1", "stirling2"):
        # rows 0..n_max, each made from the one before and dropped once
        # written; no memo triangle is read or grown
        step = (seqcore.next_stirling1_row if name == "stirling1"
                else seqcore.next_stirling2_row)
        payload["rows"] = itertools.accumulate(
            range(n_max), lambda row, _: step(row), initial=[1])
    else:
        fns = {
            "bernoulli": classical.bernoulli,
            "euler": classical.euler_number,
            "cauchy1": classical.cauchy1,
            "harmonic": seqcore.harmonic,
            "dibernoulli": polybern.dibernoulli,
            "hw": lambda n: classical.hw(n, args.x) if n >= 1 else None,
            "poly_bernoulli": lambda n: polybern.poly_bernoulli(n, args.p, args.x),
        }
        fn = fns[name]
        # Largest n first, so poly_bernoulli's table, which rebuilds past its
        # end at doubled size, is filled once, to n_max.
        values = [rat_str(v) if v is not None else "undefined"
                  for v in map(fn, range(n_max, -1, -1))]
        values.reverse()
        payload["values"] = values
    return _emit(payload, args)


def _bounds_from(args) -> identities.SweepBounds:
    return identities.SweepBounds(
        n_max=args.n_max, m_max=args.m_max,
        j_min=args.j_min if args.j_min is not None else 0,
        j_max=args.j_max,
        include_j_equals_n=args.include_j_equals_n)


def sweep_payload(suite: str, reports, notes: list[str]) -> dict:
    """The sweep reports as one JSON-ready payload (without `meta`): the
    suite name, the total case count, every failure record and the notes."""
    failures = [{"id": f["id"],
                 "params": {k: _json_value(v) for k, v in f["params"].items()},
                 "lhs": _json_value(f["lhs"]), "rhs": _json_value(f["rhs"])}
                for rep in reports for f in rep.failures]
    return {"suite": suite, "cases": sum(rep.cases for rep in reports),
            "failures": failures, "notes": notes}


def _emit_sweep(suite: str, reports, notes: list[str], args) -> int:
    """Write the sweep reports as one. A report with an empty domain
    verifies nothing, so it writes nothing and is a usage error, even
    beside reports that did run cases."""
    empty = [rep.id for rep in reports if not rep.cases]
    if empty:
        which = "" if len(empty) == len(reports) else f" for {', '.join(empty)}"
        print(f"{suite}: no cases{which} in the requested domain",
              file=sys.stderr)
        return 2
    payload = sweep_payload(suite, reports, notes)
    return _emit(payload, args) or (1 if payload["failures"] else 0)


def _cmd_verify(args) -> int:
    ids = list(identities.IDENTITY_IDS) if args.identity == "all" \
        else [args.identity]
    for id in ids:
        if id not in identities.CATALOG:
            print(f"unknown identity {id!r}", file=sys.stderr)
            return 2
    reports = identities.verify_all(_bounds_from(args), ids)
    notes = [f"{rep.id}: {note}" for rep in reports for note in rep.notes]
    return _emit_sweep("identities", reports, notes, args)


def _cmd_congruence(args) -> int:
    ids = list(congr.CONGRUENCE_IDS) if args.congruence == "all" \
        else [args.congruence]
    for id in ids:
        if id not in congr.CONGRUENCE_IDS:
            print(f"unknown congruence {id!r}", file=sys.stderr)
            return 2
    if _too_small(args, p_max=3):
        return 2
    report = congr.prime_sweep(ids, args.p_max)
    return _emit_sweep("congruence", [report], report.notes, args)


def _cmd_series(args) -> int:
    if args.series not in fps.SERIES_NAMES:
        print(f"unknown series {args.series!r}", file=sys.stderr)
        return 2
    if _too_small(args, order=1, k=0, p=1):
        return 2
    series = fps.named_series(args.series, args.order, k=args.k, p=args.p,
                              x=args.x)
    payload = {
        "series": args.series,
        "order": series.order,
        "ordinary": [rat_str(series.coeff(n)) for n in range(series.order + 1)],
        "egf": [rat_str(series.egf(n)) for n in range(series.order + 1)],
    }
    payload["values"] = payload["ordinary"]
    return _emit(payload, args)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "markdown"),
                   default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--no-meta", action="store_true",
                   help="omit the timestamped metadata header")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernkit",
        description="Exact Bernoulli/Stirling/harmonic toolkit and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="print a sequence over a range")
    p.add_argument("sequence")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--x", type=_parse_rational, default=Fraction(0),
                   help="rational argument for hw / poly_bernoulli")
    p.add_argument("--p", type=int, default=2, help="polylog order")
    _add_common(p)
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("verify", help="sweep identity catalog entries")
    p.add_argument("identity", help="catalog id or 'all'")
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--m-max", type=int, default=20)
    p.add_argument("--j-min", type=int, default=None)
    p.add_argument("--j-max", type=int, default=None)
    p.add_argument("--include-j-equals-n", action="store_true",
                   help="include the documented j=n exclusion of MAIN")
    _add_common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("congruence", help="sweep prime congruences")
    p.add_argument("congruence", help="catalog id or 'all'")
    p.add_argument("--p-max", type=int, default=101)
    _add_common(p)
    p.set_defaults(fn=_cmd_congruence)

    p = sub.add_parser("series", help="dump a catalog generating function")
    p.add_argument("series")
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--k", type=int, default=1, help="Stirling EGF column")
    p.add_argument("--p", type=int, default=2, help="polylog order")
    p.add_argument("--x", type=_parse_rational, default=Fraction(0))
    _add_common(p)
    p.set_defaults(fn=_cmd_series)

    return parser


def main(argv=None) -> int:
    # Exact values outgrow CPython's default 4,300-digit int/str limit.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
