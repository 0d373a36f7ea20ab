import os
import sys

import pytest

from bernkit import fps
from bernkit.seqcore import clear_memos


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: scale test, opt in with BERNKIT_SLOW=1")


def pytest_runtest_setup(item):
    if item.get_closest_marker("slow") and os.environ.get(
            "BERNKIT_SLOW") != "1":
        pytest.skip("scale test, opt in with BERNKIT_SLOW=1")


@pytest.fixture
def cold():
    """Every memo table at its cold contents, before the test and after."""
    clear_memos()
    yield
    clear_memos()


@pytest.fixture
def polybern_builds(cold, monkeypatch):
    """Empty the memo tables and record the order of every poly-Bernoulli
    series built from then on."""
    builds = []
    named_series = fps.named_series

    def counting(name, order, **kw):
        builds.append(order)
        return named_series(name, order, **kw)

    monkeypatch.setattr(fps, "named_series", counting)
    return builds


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance")
    if mod is None or not getattr(mod, "RESULTS", None):
        return
    terminalreporter.section("acceptance criteria")
    for line in mod.RESULTS:
        terminalreporter.write_line(line)
