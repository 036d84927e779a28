"""Experiment bookkeeping and report formatting.

Each benchmark measures *simulated cycles* (the deterministic cost-model
clock) for the comparison the paper makes. The :class:`Experiment`
helper collects labelled measurements, renders the table the paper's
row would show, and renders the canonical JSON that
``benchmarks/expected/`` commits as the experiment's behaviour lock.
Host timings are never measurements: they go into notes, which print
in the report but stay out of the committed JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List

from repro.util.tables import format_table


@dataclass
class Measurement:
    """One labelled observation (usually cycles, sometimes counts)."""

    label: str
    value: float
    unit: str = "cycles"
    detail: str = ""


@dataclass
class Experiment:
    """A named experiment accumulating measurements."""

    experiment_id: str
    title: str
    paper_claim: str
    measurements: List[Measurement] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, label: str, value: float, unit: str = "cycles",
            detail: str = "") -> Measurement:
        measurement = Measurement(label, value, unit, detail)
        self.measurements.append(measurement)
        return measurement

    def note(self, text: str) -> None:
        self.notes.append(text)

    def report(self) -> str:
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            f"paper: {self.paper_claim}",
        ]
        rows = [(m.label, _fmt(m.value), m.unit, m.detail)
                for m in self.measurements]
        lines.append(format_table(("measurement", "value", "unit", "notes"),
                                  rows))
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)

    def canonical_json(self) -> str:
        """The deterministic content (no notes) as canonical JSON."""
        document = {
            "experiment": self.experiment_id,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "measurements": [
                {"label": m.label, "value": m.value, "unit": m.unit,
                 "detail": m.detail}
                for m in self.measurements
            ],
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"


def ratio(numerator: float, denominator: float) -> float:
    """Safe ratio for speedup reporting."""
    if denominator == 0:
        return float("inf")
    return numerator / denominator


def _fmt(value: float) -> str:
    if value in (float("inf"), float("-inf")):
        return "inf"
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:,.2f}"
