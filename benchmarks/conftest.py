"""Benchmark fixtures: experiment registry, behaviour lock, report printing.

Each benchmark builds an :class:`~repro.bench.harness.Experiment`,
fills in measurements (simulated cycles, counts, ratios), asserts the
paper's qualitative shape, and registers the experiment through the
``report`` fixture.

Registering is also the behaviour lock. The experiment's canonical
JSON must equal ``benchmarks/expected/<ID>.json`` byte for byte. When
it differs, or the file is missing, the fixture writes the fresh file
and fails the test, naming the first measurement that moved. To
re-pin, run the benchmarks, review the ``git diff`` the failure left
behind, and commit it. A matching run writes nothing.

After the run, every registered report is printed in the terminal
summary — the regenerated "tables and figures".
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

import pytest

from repro.bench.harness import Experiment

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

_REPORTS: List[Experiment] = []


def _first_difference(committed: str, fresh: str) -> str:
    """Describe the first place *fresh* departs from *committed*."""
    try:
        old = json.loads(committed)
    except ValueError:
        return "the committed file is not valid JSON"
    new = json.loads(fresh)
    for key in ("experiment", "title", "paper_claim"):
        if old.get(key) != new[key]:
            return f"{key}: committed {old.get(key)!r}, fresh {new[key]!r}"
    old_rows = old.get("measurements", [])
    new_rows = new["measurements"]
    for index, row in enumerate(new_rows):
        before = old_rows[index] if index < len(old_rows) else None
        if before == row:
            continue
        if before is None:
            return f"{row['label']!r} is new: fresh {row['value']!r}"
        if {**before, "value": row["value"]} == row:
            return (f"{row['label']!r}: committed {before['value']!r}, "
                    f"fresh {row['value']!r}")
        return f"{row['label']!r}: committed {before!r}, fresh {row!r}"
    if len(old_rows) > len(new_rows):
        gone = old_rows[len(new_rows)]
        return f"{gone['label']!r} is gone: committed {gone['value']!r}"
    return "the committed file differs only in formatting"


def _check(experiment: Experiment) -> None:
    path = EXPECTED_DIR / f"{experiment.experiment_id}.json"
    fresh = experiment.canonical_json()
    committed = path.read_text(encoding="utf-8") if path.exists() else None
    if committed == fresh:
        return
    path.parent.mkdir(exist_ok=True)
    path.write_text(fresh, encoding="utf-8")
    where = path.relative_to(EXPECTED_DIR.parent.parent)
    if committed is None:
        pytest.fail(f"{experiment.experiment_id}: no committed {where}; "
                    f"wrote it, review and commit it", pytrace=False)
    pytest.fail(f"{experiment.experiment_id} moved: "
                f"{_first_difference(committed, fresh)}; wrote {where}, "
                f"review the git diff and commit it to re-pin",
                pytrace=False)


@pytest.fixture
def report():
    """Register an Experiment for the summary and check it against its
    committed expected file."""

    def _register(experiment: Experiment) -> Experiment:
        _REPORTS.append(experiment)
        _check(experiment)
        return experiment

    return _register


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for experiment in _REPORTS:
        terminalreporter.write_line("")
        for line in experiment.report().splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("")
