"""Table emission: ASCII (baseline), Toy C source, and shared segment.

The baseline pipeline regenerates/retranslates the tables on every
compiler run; the "C source" pipeline is the paper's actual setup ("the
C version of the tables is over 5400 lines, and takes 18 seconds to
compile on a Sparcstation 1"); the Hemlock pipeline writes the tables
once into a persistent shared segment the compiler simply links in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.apps.lynx.slr import (
    EXPR_GRAMMAR,
    SlrTables,
    build_slr_tables,
    flatten_tables,
)
from repro.errors import SimulationError
from repro.fs.vfs import O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.runtime.libshared import runtime_for
from repro.runtime.views import Mem

TABLE_MAGIC = 0x4C594E58  # "LYNX"

_SECTIONS = ["action", "goto", "prod_heads", "prod_lengths"]


@dataclass
class TableSet:
    """The numeric tables in memory (either freshly built or re-read)."""

    nstates: int
    nterminals: int
    nnonterminals: int
    nproductions: int
    action: List[int]
    goto: List[int]
    prod_heads: List[int]
    prod_lengths: List[int]

    def action_at(self, state: int, terminal: int) -> int:
        return self.action[state * self.nterminals + terminal]

    def goto_at(self, state: int, nonterminal: int) -> int:
        return self.goto[state * self.nnonterminals + nonterminal]


def build_expression_tables() -> TableSet:
    """Run the generator for the expression grammar."""
    return make_tables(build_slr_tables(EXPR_GRAMMAR))


def _from_flat(flat: Dict[str, List[int]]) -> TableSet:
    dims = list(flat["dims"])
    return TableSet(dims[0], dims[1], dims[2], dims[3],
                    list(flat["action"]), list(flat["goto"]),
                    list(flat["prod_heads"]), list(flat["prod_lengths"]))


# ---------------------------------------------------------------------------
# baseline: ASCII round trip
# ---------------------------------------------------------------------------

def tables_to_ascii(tables: TableSet) -> str:
    """The generators' numeric output format."""
    lines = [
        "LYNX-TABLES 1",
        f"dims {tables.nstates} {tables.nterminals} "
        f"{tables.nnonterminals} {tables.nproductions}",
    ]
    for section in _SECTIONS:
        values = getattr(tables, section)
        lines.append(f"{section} {len(values)}")
        lines.append(" ".join(str(v) for v in values))
    return "\n".join(lines) + "\n"


def tables_from_ascii(text: str) -> TableSet:
    """The translation the utility programs perform on every run."""
    lines = text.splitlines()
    if not lines or lines[0] != "LYNX-TABLES 1":
        raise SimulationError("not a Lynx table file")
    dims = [int(v) for v in lines[1].split()[1:]]
    sections: Dict[str, List[int]] = {}
    index = 2
    while index + 1 < len(lines) + 1 and index < len(lines):
        header = lines[index].split()
        name, count = header[0], int(header[1])
        values = [int(v) for v in lines[index + 1].split()]
        if len(values) != count:
            raise SimulationError(f"section {name!r} length mismatch")
        sections[name] = values
        index += 2
    return TableSet(dims[0], dims[1], dims[2], dims[3],
                    sections["action"], sections["goto"],
                    sections["prod_heads"], sections["prod_lengths"])


# Translation CPU cost: formatting/scanning integers costs a few
# instructions per byte of text (see apps.xfig.ascii for the same idea).
TRANSLATE_CYCLES_PER_BYTE = 4


def save_tables_ascii(kernel: Kernel, proc: Process, tables: TableSet,
                      path: str) -> int:
    sys = kernel.syscalls
    blob = tables_to_ascii(tables).encode("latin-1")
    kernel.clock.charge("translation",
                        len(blob) * TRANSLATE_CYCLES_PER_BYTE)
    fd = sys.open(proc, path, O_WRONLY | O_CREAT | O_TRUNC)
    try:
        return sys.write(proc, fd, blob)
    finally:
        sys.close(proc, fd)


def load_tables_ascii(kernel: Kernel, proc: Process,
                      path: str) -> TableSet:
    sys = kernel.syscalls
    fd = sys.open(proc, path, O_RDONLY)
    try:
        blob = sys.read(proc, fd, sys.fstat(proc, fd).st_size)
    finally:
        sys.close(proc, fd)
    kernel.clock.charge("translation",
                        len(blob) * TRANSLATE_CYCLES_PER_BYTE)
    return tables_from_ascii(blob.decode("latin-1"))


# ---------------------------------------------------------------------------
# the paper's pipeline: emit C source, compile, link
# ---------------------------------------------------------------------------

def tables_to_toyc(tables: TableSet) -> str:
    """Emit the tables as Toy C source (one initializer per line, like
    the 5400-line C table file the paper measured)."""

    def array(name: str, values: List[int]) -> str:
        body = ",\n    ".join(str(v) for v in values)
        return f"int {name}[{len(values)}] = {{\n    {body}\n}};\n"

    parts = [
        f"int lynx_nstates = {tables.nstates};\n",
        f"int lynx_nterminals = {tables.nterminals};\n",
        f"int lynx_nnonterminals = {tables.nnonterminals};\n",
        f"int lynx_nproductions = {tables.nproductions};\n",
        array("lynx_action", tables.action),
        array("lynx_goto", tables.goto),
        array("lynx_prod_heads", tables.prod_heads),
        array("lynx_prod_lengths", tables.prod_lengths),
    ]
    return "".join(parts)


# ---------------------------------------------------------------------------
# Hemlock: a persistent shared segment
# ---------------------------------------------------------------------------

def write_tables_segment(kernel: Kernel, proc: Process, tables: TableSet,
                         path: str) -> int:
    """The generator utility initializes the persistent tables once.

    Layout: [magic][4 dims][4 x (offset, count)] then the arrays.
    Returns the segment base address.
    """
    runtime = runtime_for(kernel, proc)
    mem = Mem(kernel, proc)
    header_words = 1 + 4 + 2 * len(_SECTIONS)
    total_values = sum(len(getattr(tables, s)) for s in _SECTIONS)
    size = 4 * (header_words + total_values)
    base = runtime.create_segment(path, size)
    mem.store_u32(base, TABLE_MAGIC)
    dims = [tables.nstates, tables.nterminals, tables.nnonterminals,
            tables.nproductions]
    for index, value in enumerate(dims):
        mem.store_u32(base + 4 * (1 + index), value)
    cursor = header_words
    for index, section in enumerate(_SECTIONS):
        values = getattr(tables, section)
        mem.store_u32(base + 4 * (5 + 2 * index), cursor * 4)
        mem.store_u32(base + 4 * (6 + 2 * index), len(values))
        for offset, value in enumerate(values):
            mem.store_i32(base + 4 * (cursor + offset), value)
        cursor += len(values)
    return base


def read_tables_segment(kernel: Kernel, proc: Process,
                        path: str) -> TableSet:
    """The compiler links the tables in and reads them directly — no
    translation step, no regeneration."""
    runtime = runtime_for(kernel, proc)
    mem = Mem(kernel, proc)
    base = runtime.segment_base(path)
    if mem.load_u32(base) != TABLE_MAGIC:
        raise SimulationError(f"{path!r} holds no Lynx tables")
    dims = [mem.load_u32(base + 4 * (1 + i)) for i in range(4)]
    sections: Dict[str, List[int]] = {}
    for index, section in enumerate(_SECTIONS):
        offset = mem.load_u32(base + 4 * (5 + 2 * index))
        count = mem.load_u32(base + 4 * (6 + 2 * index))
        sections[section] = [mem.load_i32(base + offset + 4 * i)
                             for i in range(count)]
    return TableSet(dims[0], dims[1], dims[2], dims[3],
                    sections["action"], sections["goto"],
                    sections["prod_heads"], sections["prod_lengths"])


def make_tables(tables: SlrTables) -> TableSet:
    """Adapter from the generator's rich form to the numeric form."""
    return _from_flat(flatten_tables(tables))
