import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bernkit import classical, cli, congr, identities, seqcore
from bernkit.identities import CATALOG
from bernkit.seqcore import harmonic


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestCompute:
    def test_bernoulli(self, capsys):
        code, payload = run_json(capsys, "compute", "bernoulli",
                                 "--n-max", "4", "--no-meta")
        assert code == 0
        assert payload["values"] == ["1/1", "-1/2", "1/6", "0/1", "-1/30"]

    def test_stirling2_triangle(self, capsys):
        code, payload = run_json(capsys, "compute", "stirling2",
                                 "--n-max", "3", "--no-meta")
        assert code == 0
        assert payload["rows"] == [[1], [0, 1], [0, 1, 1], [0, 1, 3, 1]]

    def test_harmonic(self, capsys):
        code, payload = run_json(capsys, "compute", "harmonic",
                                 "--n-max", "3", "--no-meta")
        assert code == 0
        assert payload["values"][1:] == ["1/1", "3/2", "11/6"]

    def test_hw_with_rational_argument(self, capsys):
        code, payload = run_json(capsys, "compute", "hw", "--n-max", "2",
                                 "--x=-1/2", "--no-meta")
        assert code == 0
        assert payload["values"][2] == "5/8"

    def test_unknown_sequence(self, capsys):
        code, _ = run(capsys, "compute", "nope", "--no-meta")
        assert code == 2

    def test_memo_tables_are_filled_once_to_n_max(self, capsys,
                                                  polybern_builds):
        # poly_bernoulli rebuilds at doubled size when asked past its cache,
        # so compute asks for n_max first; bernoulli grows by appending
        code, _ = run(capsys, "compute", "bernoulli", "--n-max", "700",
                      "--no-meta")
        assert code == 0 and len(classical._BERN) == 701
        code, _ = run(capsys, "compute", "poly_bernoulli", "--n-max", "40",
                      "--p", "3", "--no-meta")
        assert code == 0 and polybern_builds == [40]

    def test_bad_range(self, capsys):
        code, _ = run(capsys, "compute", "bernoulli", "--n-max", "-3",
                      "--no-meta")
        assert code == 2


class TestSeries:
    def test_stirling2_egf(self, capsys):
        code, payload = run_json(capsys, "series", "stirling2-egf",
                                 "--k", "2", "--order", "5", "--no-meta")
        assert code == 0
        assert payload["egf"] == ["0/1", "0/1", "1/1", "3/1", "7/1", "15/1"]

    def test_harmonic_ogf(self, capsys):
        code, payload = run_json(capsys, "series", "harmonic-ogf",
                                 "--order", "4", "--no-meta")
        assert code == 0
        assert payload["ordinary"] == ["0/1", "1/1", "3/2", "11/6", "25/12"]

    def test_polybern(self, capsys):
        code, payload = run_json(capsys, "series", "polybern", "--p", "2",
                                 "--order", "3", "--no-meta")
        assert code == 0
        assert payload["egf"] == ["1/1", "1/4", "-1/36", "-1/24"]

    def test_unknown_series(self, capsys):
        code, _ = run(capsys, "series", "nope", "--no-meta")
        assert code == 2


class TestVerify:
    def test_single_identity_passes(self, capsys):
        code, payload = run_json(capsys, "verify", "H1", "--n-max", "12",
                                 "--no-meta")
        assert code == 0
        assert payload["suite"] == "identities"
        assert payload["failures"] == []

    def test_unknown_identity(self, capsys):
        code, _ = run(capsys, "verify", "NOPE", "--no-meta")
        assert code == 2

    def test_include_j_equals_n_flips_exit_code(self, capsys):
        code, payload = run_json(capsys, "verify", "MAIN", "--n-max", "10",
                                 "--include-j-equals-n", "--no-meta")
        assert code == 1
        assert payload["failures"]
        assert any("indeterminate" in n.lower() for n in payload["notes"])

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "verify", "POLYX", "--n-max", "8", "--no-meta")
        _, second = run(capsys, "verify", "POLYX", "--n-max", "8", "--no-meta")
        assert first == second

    def test_meta_header_present_by_default(self, capsys):
        _, payload = run_json(capsys, "verify", "H1", "--n-max", "5")
        assert "meta" in payload and "generated_at" in payload["meta"]

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out = run(capsys, "verify", "H1", "--n-max", "8", "--no-meta",
                        "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["suite"] == "identities"
        # the sink is opened before anything is written: same bytes either way
        for argv in (("compute", "stirling1", "--n-max", "6"),
                     ("verify", "H1", "--n-max", "8")):
            for fmt in ("json", "csv", "markdown"):
                argv_fmt = (*argv, "--no-meta", "--format", fmt)
                code, out = run(capsys, *argv_fmt, "--out", str(path))
                assert code == 0 and out == ""
                code, printed = run(capsys, *argv_fmt)
                assert code == 0
                assert path.read_bytes() == printed.encode()

    def test_csv_and_markdown_formats(self, capsys):
        code, out = run(capsys, "verify", "H1", "--n-max", "8", "--no-meta",
                        "--format", "csv")
        assert code == 0 and "suite" in out
        code, out = run(capsys, "verify", "H1", "--n-max", "8", "--no-meta",
                        "--format", "markdown")
        assert code == 0 and out.startswith("## suite")

    def test_mutation_flips_exit_code(self, capsys, monkeypatch):
        entry = CATALOG["H2"]
        monkeypatch.setitem(
            CATALOG, "H2",
            entry._replace(rhs=lambda **p: entry.rhs(**p) + 1))
        code, payload = run_json(capsys, "verify", "H2", "--n-max", "10",
                                 "--no-meta")
        assert code == 1
        assert len(payload["failures"]) >= 1
        rec = payload["failures"][0]
        assert set(rec) == {"id", "params", "lhs", "rhs"}


def test_sweep_payload_is_the_no_meta_json(capsys, monkeypatch):
    # a failing identity record and a failing residue record
    entry = CATALOG["H2"]
    monkeypatch.setitem(
        CATALOG, "H2",
        entry._replace(rhs=lambda **p: entry.rhs(**p) + 1))
    monkeypatch.setattr(congr, "harmonic", lambda n: harmonic(n) + 1)
    reports = identities.verify_all(identities.SweepBounds(n_max=10), ["H2"])
    congruence = congr.prime_sweep(["BABBAGE"], 13)
    for argv, payload in [
            (("verify", "H2", "--n-max", "10"),
             cli.sweep_payload("identities", reports, [])),
            (("congruence", "BABBAGE", "--p-max", "13"),
             cli.sweep_payload("congruence", [congruence], congruence.notes))]:
        code, out = run(capsys, *argv, "--no-meta")
        assert code == 1 and payload["failures"]
        assert out == json.dumps(payload, indent=2) + "\n"


class TestCongruence:
    def test_small_sweep(self, capsys):
        code, payload = run_json(capsys, "congruence", "all",
                                 "--p-max", "13", "--no-meta")
        assert code == 0
        assert payload["failures"] == []
        assert any("C4 at p=3" in n for n in payload["notes"])

    def test_single_id(self, capsys):
        code, payload = run_json(capsys, "congruence", "BABBAGE",
                                 "--p-max", "31", "--no-meta")
        assert code == 0
        assert payload["cases"] == 10

    def test_unknown_id(self, capsys):
        code, _ = run(capsys, "congruence", "NOPE", "--no-meta")
        assert code == 2

    def test_bad_p_max(self, capsys):
        code, _ = run(capsys, "congruence", "C1", "--p-max", "2", "--no-meta")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ("compute", "poly_bernoulli", "--p", "0"),
    ("series", "stirling2-egf", "--k", "-1"),
    ("series", "polybern", "--p", "-1"),
    ("series", "polybern", "--p", "0"),
])
def test_out_of_range_option_exits_2(capsys, argv):
    code = cli.main([*argv, "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "must be >=" in captured.err


@pytest.mark.parametrize("argv", [
    ("verify", "MAIN", "--n-max", "-5"),
    ("verify", "MAIN", "--n-max", "10", "--j-min", "50"),
    ("congruence", "C4", "--p-max", "3"),
    ("congruence", "all", "--p-max", "3"),
])
def test_empty_domain_exits_2(capsys, argv):
    code = cli.main([*argv, "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "no cases" in captured.err
    if "all" in argv:  # C4 has no prime below 5, beside ids that ran cases
        assert "no cases for C4 in" in captured.err


@pytest.mark.parametrize("argv", [
    ("compute", "bernoulli", "--n-max", "3"),
    ("congruence", "C1", "--p-max", "7"),
])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.json"
    code = cli.main([*argv, "--out", str(out), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.count("\n") == 1
    assert str(out) in captured.err


def test_values_past_the_int_str_digit_limit(capsys):
    # the denominator of B_1^(15000)(0) = 1/2^15000 has 4,516 digits
    code, payload = run_json(capsys, "compute", "poly_bernoulli",
                             "--n-max", "1", "--p", "15000", "--no-meta")
    assert code == 0
    assert payload["values"][1] == "1/" + str(2**15000)


@contextlib.contextmanager
def no_int_str_limit():
    """Lift CPython's int/str digit limit for a block, as cli.main does."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# The JSON the CLI emits: str keys; ints (some past 4,300 digits), strings
# with escapes and non-ASCII characters, None and bools; empty, uniform and
# mixed lists.
_CHARS = '"\\/\x00\x1f\x7f\n\t\u00e9\u20ac\U0001f600'
_TEXT = st.text(st.sampled_from(_CHARS) | st.characters(), max_size=8)
_INTS = st.one_of(st.integers(), st.builds(
    lambda sign, digits: sign * (10 ** digits + 7),
    st.sampled_from((-1, 1)), st.integers(4300, 4400)))
_JSON = st.recursive(
    st.none() | st.booleans() | _INTS | _TEXT,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(_INTS, max_size=4)
                  | st.lists(_TEXT, max_size=4)
                  | st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=12)


def generators(value, rng):
    """`value` with each list, by a coin toss, fed in as a generator."""
    if isinstance(value, dict):
        return {k: generators(v, rng) for k, v in value.items()}
    if not isinstance(value, list):
        return value
    items = [generators(v, rng) for v in value]
    return (v for v in items) if rng.random() < 0.5 else items


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(_TEXT, _JSON, max_size=4), st.randoms())
@example({"a": {"b": [{"c": [], "d": {}}, [1, "x", None, True]], "e": []}},
         random.Random(0))
# Random(1) feeds "rows", "empty" and "values" in as generators
@example({"rows": [[1], [0, 1], [0, 1, 1]], "empty": [], "values": ["1/2"]},
         random.Random(1))
def test_json_writer_is_json_dumps_indent_2(payload, rng):
    args = argparse.Namespace(format="json", out=None, no_meta=True)
    with no_int_str_limit(), contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli._emit(generators(payload, rng), args) == 0
        assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


def test_writing_holds_one_row_not_the_document(tmp_path, capsys):
    seqcore.stirling2(200, 0)  # fill the triangle: only the writing is traced
    path = tmp_path / "s2.json"
    tracemalloc.start()
    try:
        code = cli.main(["compute", "stirling2", "--n-max", "200", "--no-meta",
                         "--out", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out == ""
    assert peak < path.stat().st_size / 2


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
@pytest.mark.parametrize("sequence", ["stirling1", "stirling2"])
def test_cold_dump_leaves_no_triangle(cold, tmp_path, capsys, sequence, fmt):
    # the rows are made, written and dropped one at a time: no memo
    # triangle grows, and computing and writing together hold far less
    # than the document (a filled triangle alone is most of its size)
    path = tmp_path / f"{sequence}.{fmt}"
    tracemalloc.start()
    try:
        code = cli.main(["compute", sequence, "--n-max", "200", "--no-meta",
                         "--format", fmt, "--out", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out == ""
    assert (len(seqcore._S1), len(seqcore._S2)) == (1, 1)
    assert peak < path.stat().st_size / 4


def bernkit_env() -> dict:
    """The environment with this bernkit's source directory on PYTHONPATH,
    for a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc/self/status")
def test_stirling2_dump_to_n_1000_stays_small():
    # 414 MB of JSON: a process that kept the triangle peaked at about
    # 220 MB of RSS; one that holds one row stays near the interpreter's own
    script = ("import os; from bernkit import cli; "
              "code = cli.main(['compute', 'stirling2', '--n-max', '1000', "
              "'--no-meta', '--out', os.devnull]); "
              "print(code, *[line.split()[1] for line in "
              "open('/proc/self/status') if line.startswith('VmHWM:')])")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=bernkit_env(), text=True, timeout=600,
                          check=True)
    code, hwm_kb = map(int, proc.stdout.split())
    assert code == 0
    assert hwm_kb < 64 * 1024


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc/self/status")
def test_congruence_all_to_2003_stays_under_256_mb():
    # STIRP reads row p of S2: the whole triangle to row 2003 peaked at
    # about 1.7 GB, rows to S2_ROWS and one working row at about 84 MB
    script = ("import os; from bernkit import cli; "
              "code = cli.main(['congruence', 'all', '--p-max', '2003', "
              "'--no-meta', '--out', os.devnull]); "
              "print(code, *[line.split()[1] for line in "
              "open('/proc/self/status') if line.startswith('VmHWM:')])")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=bernkit_env(), text=True, timeout=600,
                          check=True)
    code, hwm_kb = map(int, proc.stdout.split())
    assert code == 0
    assert hwm_kb < 256 * 1024


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc/self/status")
def test_bernoulli_to_4006_values_and_peak():
    # the values of B_0..B_4006 that Brent & Harvey's tangent-number
    # recurrence gave, as decimal num/den lines; the cold fill's peak RSS,
    # read before the values are formatted
    script = ("import hashlib, sys; sys.set_int_max_str_digits(0); "
              "from bernkit.classical import bernoulli; bernoulli(4006); "
              "hwm = [line.split()[1] for line in open('/proc/self/status') "
              "if line.startswith('VmHWM:')]; "
              "text = '\\n'.join(f'{b.numerator}/{b.denominator}' "
              "for b in map(bernoulli, range(4007))); "
              "print(hashlib.sha256(text.encode()).hexdigest(), *hwm)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=bernkit_env(), text=True, timeout=600,
                          check=True)
    digest, hwm_kb = proc.stdout.split()
    assert digest == ("a9977c1d93fceac19500ae338dc216cd"
                      "4178a4cb1313d2e876ebf8b175f6aafe")
    assert int(hwm_kb) < 64 * 1024


def test_python_m_bernkit_runs_the_cli(capsys):
    argv = ["compute", "bernoulli", "--n-max", "3", "--no-meta"]
    proc = subprocess.run([sys.executable, "-m", "bernkit", *argv],
                          capture_output=True, env=bernkit_env(), timeout=60)
    code, out = run(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()


def test_start_up_loads_no_unneeded_module():
    # every CLI process pays for what start-up imports: dataclasses pulls in
    # inspect (and ast, dis, tokenize), and only --format csv needs csv.
    # -S skips site-packages .pth files, which may import modules themselves.
    script = ("import sys, bernkit.cli; bernkit.cli.build_parser(); "
              "print(*sorted({'dataclasses', 'inspect', 'csv'} "
              "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, env=bernkit_env(), text=True,
                          timeout=60, check=True)
    assert proc.stdout.split() == []


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_empty_id_inside_nonempty_verify_all_exits_2(capsys):
    # MAIN, WORPITZKY and others run cases at these bounds; these six do not
    code = cli.main(["verify", "all", "--n-max", "1", "--m-max", "1",
                     "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert ("no cases for GEN_WORPITZKY, H1, H2, K3SPECIAL, CUMSUM, BPINT"
            in captured.err)
