"""Shared fixtures plus the acceptance-criterion summary table.

Tests marked @pytest.mark.acceptance(num, title) feed one row each into a
PASS/FAIL table printed after the run.  Several tests may share a criterion
number; the row fails if any of them does.
"""

import tracemalloc

import pytest

from sl2rotor.config import RunConfig

_RESULTS: dict[int, list] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, title): numbered acceptance criterion check")


@pytest.fixture(scope="session")
def cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def traced_peak():
    """peak(fn) -> (bytes, result): the tracemalloc peak of a second call
    of fn, after a warm call, so that first-call caches do not count."""
    def peak(fn):
        fn()
        tracemalloc.start()
        try:
            out = fn()
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()
    return peak


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    rep = yield
    mark = item.get_closest_marker("acceptance")
    if mark is not None and rep.when in ("setup", "call") and not rep.skipped:
        num, title = mark.args
        entry = _RESULTS.setdefault(int(num), [str(title), True])
        entry[1] = entry[1] and rep.passed
    return rep


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        title, ok = _RESULTS[num]
        terminalreporter.write_line(
            f"criterion {num:2d}  {title:<46s} {'PASS' if ok else 'FAIL'}")
