"""Shared fixtures and the acceptance-criteria terminal report.

``record_criterion`` collects one line per acceptance criterion; the terminal
summary hook prints them all (pass and fail alike) after the run, so the
criterion verdicts are visible even though pytest captures stdout of passing
tests.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_CRITERION_LINES: dict[int, str] = {}


def traced_peak(call):
    """``call()``'s result and the peak bytes Python allocated while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def record_criterion(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    _CRITERION_LINES[number] = f"criterion {number:2d}: {verdict} — {detail}"


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])
