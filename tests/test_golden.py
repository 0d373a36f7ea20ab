"""Byte-exact `--no-meta` output and exit codes of a fixed set of commands.

Each file under tests/golden/ holds what one command prints in one format.
They are the CLI's behaviour contract: a refactor must reproduce them
byte for byte, and a file changes only with an intended output change.
"""

import re
from pathlib import Path

import pytest

from bernkit import cli, congr
from bernkit.seqcore import harmonic

GOLDEN = Path(__file__).with_name("golden")
FORMATS = ("json", "csv", "markdown")

# command -> exit code
COMMANDS = {
    "compute bernoulli --n-max 12": 0,
    "compute stirling1 --n-max 6": 0,
    "compute stirling2 --n-max 8": 0,
    "compute hw --n-max 5 --x=-1/2": 0,
    "compute cauchy1 --n-max 40": 0,
    "verify all --n-max 12 --m-max 5": 0,
    "verify MAIN --n-max 6 --include-j-equals-n": 1,
    "congruence all --p-max 31": 0,
    "series polybern --p 2 --order 8": 0,
    "series harmonic-ogf --order 6": 0,
}


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{re.sub(r'[^A-Za-z0-9]+', '-', name).strip('-')}.{fmt}"


def check(capsys, command: str, fmt: str, code: int, name: str | None = None):
    assert cli.main(command.split() + ["--format", fmt, "--no-meta"]) == code
    want = golden_path(name or command, fmt).read_bytes().decode()
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_golden(capsys, command, fmt):
    check(capsys, command, fmt, COMMANDS[command])


@pytest.mark.parametrize("fmt", FORMATS)
def test_golden_congruence_failure(capsys, monkeypatch, fmt):
    # a wrong H_{p-1} pins the congruence failure record
    monkeypatch.setattr(congr, "harmonic", lambda n: harmonic(n) + 1)
    check(capsys, "congruence BABBAGE --p-max 13", fmt, 1,
          name="congruence BABBAGE --p-max 13 harmonic plus one")
