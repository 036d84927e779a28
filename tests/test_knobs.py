"""Regrowth guard: the settable values of the public entry points.

Every option of a boot, cluster or restore entry point, and every
``REPRO_*`` variable the package reads, is a configuration a run must
record and a composition the tests must cover. The lists below pin
them. A new knob fails this test until it is added here on purpose,
with a user outside the tests; a knob that loses its last such user
should leave the code and the list together.

``python -c "import tests.test_knobs as k; print(k.knob_count())"``
prints how many names the lists hold (CI reports it next to the
``src/`` line count).
"""

from __future__ import annotations

import ast
import inspect
import pkgutil
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: entry point -> its parameter names, in order (``self`` left out)
PARAMETERS = {
    "repro.boot":
        ("lazy", "wide_addresses", "scoped", "verify", "disk", "ncores"),
    "repro.kernel.kernel.Kernel.__init__":
        ("wide_addresses", "disk", "ncores"),
    "repro.net.cluster.Cluster.__init__":
        ("nnodes", "seed", "disks", "ha", "boot_args"),
    "repro.net.link.Fabric.__init__": ("nnodes", "seed"),
    "repro.net.ha.HaManager.__init__": ("cluster",),
    "repro.rr.checkpoint.materialize": ("state",),
}

#: every ``REPRO_*`` name the package reads from ``os.environ``
ENVIRONMENT = {
    "REPRO_CORES",
    "REPRO_LINT",
    "REPRO_SAN",
    "REPRO_TLB",
    "REPRO_TRACE",
    "REPRO_TRACE_KINDS",
}


def knob_count() -> int:
    return sum(map(len, PARAMETERS.values())) + len(ENVIRONMENT)


def _is_environ(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "environ" \
        and isinstance(node.value, ast.Name) and node.value.id == "os"


def _environment_reads(tree: ast.AST):
    """``REPRO_*`` literals read through ``os.environ.get``,
    ``os.environ[...]``, ``... in os.environ`` or ``os.getenv``."""
    for node in ast.walk(tree):
        keys = []
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and (
                    (func.attr == "get" and _is_environ(func.value))
                    or (func.attr == "getenv"
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "os")):
                keys.append(node.args[0])
        elif isinstance(node, ast.Subscript) and _is_environ(node.value) \
                and isinstance(node.ctx, ast.Load):
            keys.append(node.slice)
        elif isinstance(node, ast.Compare) \
                and any(_is_environ(side) for side in node.comparators):
            keys.append(node.left)
        for key in keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str) \
                    and key.value.startswith("REPRO_"):
                yield key.value


def test_entry_point_parameters_are_pinned():
    found = {}
    for dotted in PARAMETERS:
        signature = inspect.signature(pkgutil.resolve_name(dotted))
        found[dotted] = tuple(name for name in signature.parameters
                              if name != "self")
    assert found == PARAMETERS


def test_environment_reads_are_pinned():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        found.update(_environment_reads(ast.parse(path.read_text())))
    assert found == ENVIRONMENT


def test_the_scan_sees_every_read_form():
    source = ("import os\n"
              "os.environ.get('REPRO_A')\n"
              "os.environ['REPRO_B']\n"
              "'REPRO_C' in os.environ\n"
              "os.getenv('REPRO_D', '1')\n"
              "os.environ['REPRO_E'] = '1'\n"
              "os.environ.get('HOME')\n")
    assert set(_environment_reads(ast.parse(source))) \
        == {"REPRO_A", "REPRO_B", "REPRO_C", "REPRO_D"}
