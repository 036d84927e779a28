"""Golden recordings: the behaviour lock for every example.

``tests/golden/`` holds one ``reprorr`` recording per example, made
from the repo root with::

    PYTHONPATH=src python -m repro.tools.cli reprorr record \\
        --interval 500000 -o tests/golden/<example>.rrr examples/<example>.py
    PYTHONPATH=src python -m repro.tools.cli reprorr record \\
        --interval 100000 --nodes 4 -o tests/golden/rwho.rrr \\
        examples/rwho_network.py

Each must replay with zero divergence: every event, per-boot cycle
total, checkpoint digest and the outcome. A change that means to move
simulated behaviour re-records the files it moves with the same
commands and quotes the first divergent event the replay reported.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.rr import Recording, replay_script

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
GOLDEN = sorted(path.name for path in GOLDEN_DIR.glob("*.rrr"))


def test_every_example_has_a_golden_recording():
    scripts = {Recording.load(str(GOLDEN_DIR / name)).manifest["script"]
               for name in GOLDEN}
    examples = {f"examples/{path.name}"
                for path in (REPO_ROOT / "examples").glob("*.py")}
    assert scripts == examples


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_recording_replays(name, monkeypatch, capsys):
    # The manifests name their scripts relative to the repo root.
    monkeypatch.chdir(REPO_ROOT)
    recording = Recording.load(str(GOLDEN_DIR / name))
    verdict = replay_script(recording)
    capsys.readouterr()
    assert verdict.ok, verdict.render()
