"""Regrowth guard: every name ``src/repro`` defines has a user.

Each function, method and class defined under ``src/repro`` (found by
an AST scan, nested definitions included) must appear as an identifier,
or as a word inside a string, somewhere outside its own definition.
Uses are collected from the source of ``src/``, ``tests/``,
``benchmarks/``, ``examples/`` and ``reprobench/`` with comments
removed, plus ``setup.cfg``. Strings count because names are also
reached dynamically: ``getattr`` by name, source text that
``repro.hw.blocks`` and ``hgen`` generate, entry-point specs. Names are
matched by spelling only, so a method stays if any object's attribute of
that name is read anywhere. Dunders are exempt; nothing else is. A name
this test reports is either dead (delete it) or reached in a way the scan
cannot see (make the reference visible rather than adding an allowlist).
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples", "reprobench")
_WORD = re.compile(r"[A-Za-z_]\w*")
# A string literal (kept: its words count as uses) or a comment (dropped).
_STRING_OR_COMMENT = re.compile(
    r"('''[\s\S]*?'''|\"\"\"[\s\S]*?\"\"\""
    r"|'(?:\\.|[^'\\\n])*'|\"(?:\\.|[^\"\\\n])*\")"
    r"|#[^\n]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uncommented(text: str) -> str:
    """*text* with comments blanked; line numbers are unchanged."""
    return _STRING_OR_COMMENT.sub(lambda m: m.group(1) or "", text)


def _definitions(tree: ast.Module) -> List[Tuple[str, int, int]]:
    """(name, first line, last line) of every def and class, found by
    walking statement bodies only."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, _DEFS):
            found.append((node.name, node.lineno, node.end_lineno))
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            stack.extend(getattr(node, field, ()))
    return found


def unused_definitions(root: Path = REPO_ROOT) -> List[str]:
    """``path:line: name`` for every definition without a user."""
    package = root / "src" / "repro"
    lines: Dict[Path, List[str]] = {}
    per_file: Dict[Path, Counter] = {}
    total: Counter = Counter(_WORD.findall((root / "setup.cfg").read_text()))
    defs: List[Tuple[Path, int, int, str]] = []
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            source = path.read_text()
            text = _uncommented(source)
            lines[path] = text.split("\n")
            per_file[path] = Counter(_WORD.findall(text))
            total.update(per_file[path])
            if package in path.parents:
                defs += [(path, first, last, name) for name, first, last
                         in _definitions(ast.parse(source, str(path)))]
    # Each definition spells its own name once; that is not a use.
    headers = Counter(name for _, _, _, name in defs)
    header_lines: Dict[Tuple[Path, str], List[int]] = {}
    for path, first, _, name in defs:
        header_lines.setdefault((path, name), []).append(first)

    unused = []
    for path, first, last, name in sorted(defs):
        if name.startswith("__") and name.endswith("__"):
            continue
        in_file = header_lines[(path, name)]
        if total[name] - per_file[path][name] > headers[name] - len(in_file):
            continue   # used in another file
        span = "\n".join(lines[path][first - 1:last])
        inside = _WORD.findall(span).count(name) \
            - sum(1 for line in in_file if first <= line <= last)
        if per_file[path][name] - len(in_file) > inside:
            continue   # used elsewhere in its own file
        unused.append(f"{path.relative_to(root).as_posix()}:{first}: "
                      f"{name}")
    return unused


def test_every_definition_has_a_user():
    unused = unused_definitions()
    assert not unused, (
        "defined under src/repro but used nowhere:\n  "
        + "\n  ".join(unused))


def test_scan_reports_planted_dead_definitions(tmp_path):
    """Recursion, a comment and a same-named definition elsewhere are not
    uses; a string, a test import and an entry point are."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        "def dead(n):\n"
        "    return dead(n - 1)  # dead\n"
        "\n\n"
        "def by_name():\n    pass\n\n\n"
        "def tested():\n    pass\n\n\n"
        "def main():\n    pass\n\n\n"
        "def twin():\n    pass\n\n\n"
        "HANDLER = 'call by_name'\n")
    (package / "n.py").write_text(
        "class Twin:\n    def twin(self):\n        pass\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text(
        "from repro.m import tested\n\n\nTwin = None\n")
    (tmp_path / "setup.cfg").write_text("tool = repro.m:main\n")
    assert unused_definitions(tmp_path) == [
        "src/repro/m.py:1: dead",
        "src/repro/m.py:17: twin",
        "src/repro/n.py:2: twin",
    ]
