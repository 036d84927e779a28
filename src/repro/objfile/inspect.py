"""``nm``/``objdump``-style inspectors for HOF objects.

These are developer conveniences used by tests, examples, and debugging —
the analogue of the binutils a systems programmer would reach for.

Site and relocation rendering is shared with ``reprolint``
(:func:`repro.analyze.report.format_site` /
:func:`~repro.analyze.report.format_reloc`), so a relocation looks the
same in an objdump listing, an nm annotation, and a lint finding. The
disassembly annotates every relocation site inline — kind, symbol,
addend — and tags sites that reprolint flagged with their diagnostic
codes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import SimulationError
from repro.objfile.format import ObjectFile, SymBinding, SEC_UNDEF


_SECTION_CODES = {
    "text": "T",
    "data": "D",
    "bss": "B",
    "*abs*": "A",
    SEC_UNDEF: "U",
}


def nm(obj: ObjectFile) -> str:
    """Render the symbol table in ``nm`` style.

    Columns: value (blank for undefined), type code (lowercase for local
    binding), name. Sorted by name. Absolute symbols (placed images)
    render through the shared site formatter, so an address reads the
    same here as in objdump or a reprolint finding.
    """
    from repro.analyze.report import format_site

    lines: List[str] = []
    for symbol in sorted(obj.symbols.values(), key=lambda s: s.name):
        code = _SECTION_CODES.get(symbol.section, "?")
        if symbol.binding is SymBinding.LOCAL:
            code = code.lower()
        if not symbol.defined:
            value = " " * 10
        elif symbol.section == "*abs*":
            value = format_site("", None, symbol.value)
        else:
            value = f"{symbol.value:08x}  "
        lines.append(f"{value} {code} {symbol.name}")
    return "\n".join(lines)


def objdump(obj: ObjectFile, disassemble: bool = False) -> str:
    """Render headers, layout, relocations, and optionally a disassembly.

    The object is run through the reprolint pipeline and any finding's
    diagnostic code is shown next to the relocation or instruction it
    anchors to — ``objdump -d`` doubles as a lint report.
    """
    # Imported here to keep objfile independent of the analyzer (and of
    # hw) at module load, mirroring the lazy isa import below.
    from repro.analyze.report import format_reloc, format_site

    codes_at = _lint_codes(obj)
    lines = [
        f"{obj.name}: HOF {obj.kind.name.lower()}",
        f"  text 0x{len(obj.text):x} bytes, data 0x{len(obj.data):x} bytes, "
        f"bss 0x{obj.bss_size:x} bytes, heap 0x{obj.heap_size:x} bytes",
    ]
    if obj.entry_symbol:
        lines.append(f"  entry: {obj.entry_symbol}")
    if obj.layout:
        lines.append("  layout:")
        for sec in obj.layout.values():
            lines.append(
                f"    {sec.name:5s} 0x{sec.base:08x}-0x{sec.end:08x}"
            )
    if obj.link_info.dynamic_modules:
        lines.append("  dynamic modules:")
        for module, sclass in obj.link_info.dynamic_modules:
            lines.append(f"    {module} ({sclass})")
    if obj.link_info.search_path:
        lines.append("  search path: " + ":".join(obj.link_info.search_path))
    if obj.relocations:
        lines.append("  relocations:")
        for reloc in obj.relocations:
            site = format_site(reloc.section, reloc.offset)
            codes = codes_at.get((reloc.section, reloc.offset), ())
            lines.append(f"    {site}: {format_reloc(reloc, codes)}")
    if disassemble and obj.text:
        from repro.hw.isa import disassemble_word

        by_site = {
            (r.section, r.offset): r for r in obj.relocations
        }
        lines.append("  disassembly of text:")
        base = obj.layout["text"].base if "text" in obj.layout else 0
        for offset in range(0, len(obj.text), 4):
            word = int.from_bytes(obj.text[offset: offset + 4], "little")
            line = (
                f"    {base + offset:08x}: {word:08x}  "
                f"{disassemble_word(word, base + offset)}"
            )
            reloc = by_site.get(("text", offset))
            codes = codes_at.get(("text", offset), ())
            if reloc is not None:
                line += f"   # {format_reloc(reloc, codes)}"
            elif codes:
                line += f"   # [{' '.join(sorted(codes))}]"
            lines.append(line)
    return "\n".join(lines)


def _lint_codes(obj: ObjectFile) -> Dict[Tuple[str, int], List[str]]:
    """(section, offset) -> sorted diagnostic codes reprolint reports."""
    from repro.analyze.pipeline import analyze_object

    codes: Dict[Tuple[str, int], List[str]] = {}
    try:
        report = analyze_object(obj)
    except SimulationError:
        return codes  # a broken object should still dump
    for item in report:
        if item.section and item.offset is not None:
            bucket = codes.setdefault((item.section, item.offset), [])
            if item.code not in bucket:
                bucket.append(item.code)
    return codes
