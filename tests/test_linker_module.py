"""ModuleImage placement/relocation, merging, and branch islands."""

import pytest

from repro.errors import DuplicateSymbolError, RelocationError
from repro.hw.asm import assemble
from repro.hw import isa
from repro.linker.branch_islands import (
    count_far_jumps,
    insert_branch_islands,
)
from repro.linker.module import (
    ModuleImage,
    merge_objects,
    patch_reloc_in_memory,
)
from repro.objfile.format import (
    Relocation,
    RelocType,
    SEC_ABS,
    SEC_DATA,
    SEC_TEXT,
)
from repro.vm.address_space import AddressSpace, PROT_RWX
from repro.vm.pages import PhysicalMemory


MODULE_SOURCE = """
        .text
        .globl entry
entry:
        la t0, counter
        lw v0, 0(t0)
        jr ra
        .data
        .globl counter
counter: .word 7
ptr:     .word counter
        .bss
buffer:  .space 64
        .heap 256
"""


class TestLayout:
    def test_contiguous_layout(self):
        image = ModuleImage(assemble(MODULE_SOURCE, "m.o"))
        total = image.layout_contiguous(0x30100000)
        layout = image.obj.layout
        assert layout["text"].base == 0x30100000
        assert layout["data"].base >= layout["text"].end
        assert layout["bss"].base >= layout["data"].end
        assert layout["heap"].size == 256
        assert total >= len(image.obj.text) + len(image.obj.data) + 64 + 256

    def test_split_layout(self):
        image = ModuleImage(assemble(MODULE_SOURCE, "m.o"))
        image.layout_split(0x00400000, 0x10000000)
        assert image.obj.layout["text"].base == 0x00400000
        assert image.obj.layout["data"].base == 0x10000000
        assert image.obj.layout["bss"].base >= 0x10000000

    def test_symbol_addresses(self):
        image = ModuleImage(assemble(MODULE_SOURCE, "m.o"))
        image.layout_contiguous(0x30100000)
        assert image.symbol_address("entry") == 0x30100000
        counter = image.symbol_address("counter")
        assert counter == image.obj.layout["data"].base
        assert image.symbol_address("missing") is None

    def test_finalize_symbols(self):
        image = ModuleImage(assemble(MODULE_SOURCE, "m.o"))
        image.layout_contiguous(0x30100000)
        image.finalize_symbols()
        assert image.obj.symbols["entry"].section == SEC_ABS
        assert image.obj.symbols["entry"].value == 0x30100000


class TestRelocation:
    def test_local_relocs_resolve(self):
        image = ModuleImage(assemble(MODULE_SOURCE, "m.o"))
        image.layout_contiguous(0x30100000)
        remaining = image.apply_relocations()
        assert remaining == []
        counter = image.symbol_address("counter")
        # The la expansion now carries counter's absolute address.
        text = bytes(image.obj.text)
        lui = int.from_bytes(text[0:4], "little")
        ori = int.from_bytes(text[4:8], "little")
        assert (lui & 0xFFFF) == (counter >> 16)
        assert (ori & 0xFFFF) == (counter & 0xFFFF)
        # The data-side WORD32 holds the pointer.
        data = bytes(image.obj.data)
        assert int.from_bytes(data[4:8], "little") == counter

    def test_external_relocs_retained(self):
        obj = assemble(".text\nla t0, external_var\n", "m.o")
        image = ModuleImage(obj)
        image.layout_contiguous(0x30100000)
        remaining = image.apply_relocations()
        assert {r.symbol for r in remaining} == {"external_var"}

    def test_resolver_consulted(self):
        obj = assemble(".text\nla t0, external_var\n", "m.o")
        image = ModuleImage(obj)
        image.layout_contiguous(0x30100000)
        remaining = image.apply_relocations(
            lambda name: 0x30500000 if name == "external_var" else None
        )
        assert remaining == []
        text = bytes(image.obj.text)
        assert int.from_bytes(text[0:4], "little") & 0xFFFF == 0x3050

    def test_jump_out_of_region_rejected(self):
        """Without an island, a far JUMP26 must fail loudly."""
        obj = assemble(".text\njal far_function\n", "m.o")
        image = ModuleImage(obj)
        image.layout_split(0x00400000, 0x10000000)
        with pytest.raises(RelocationError):
            image.apply_relocations(lambda _name: 0x30400000)

    def test_word32_target_past_4gib_rejected(self):
        """A WORD32 cannot hold a target above 4 GiB: refused, not cut
        to its low 32 bits."""
        obj = assemble(".data\n.word far_var\n", "m.o")
        image = ModuleImage(obj)
        image.layout_contiguous(0x30100000)
        with pytest.raises(RelocationError, match="32-bit limit"):
            image.apply_relocations(lambda _name: 5 << 30)

    def test_image_bytes_contains_sections(self):
        image = ModuleImage(assemble(MODULE_SOURCE, "m.o"))
        image.layout_contiguous(0x30100000)
        image.apply_relocations()
        blob = image.image_bytes()
        data_off = image.obj.layout["data"].base - 0x30100000
        assert blob[data_off: data_off + 4] == (7).to_bytes(4, "little")
        assert len(blob) == image.total_size

    def test_patch_in_memory(self):
        pm = PhysicalMemory()
        space = AddressSpace(pm)
        space.map(0x30100000, 4096, prot=PROT_RWX)
        # A lui/ori pair awaiting patching.
        space.store_word(0x30100000,
                         isa.encode_i(isa.OP_LUI, rt=8, imm=0), force=True)
        reloc = Relocation(SEC_TEXT, 0, RelocType.HI16, "x", 0)
        patch_reloc_in_memory(space, 0x30100000, reloc, 0x30654321)
        assert space.load_word(0x30100000) & 0xFFFF == 0x3065


class TestSegmentMeta:
    def test_meta_has_absolute_symbols_and_retained_relocs(self):
        obj = assemble("""
            .text
            .globl fn
        fn:
            jal external
            jr ra
        """, "m.o")
        insert_branch_islands(obj)
        image = ModuleImage(obj)
        image.layout_contiguous(0x30200000)
        image.apply_relocations()
        meta = image.to_segment_meta()
        assert meta.symbols["fn"].section == SEC_ABS
        assert meta.symbols["fn"].value == 0x30200000
        assert {r.symbol for r in meta.relocations} == {"external"}
        assert meta.layout["text"].base == 0x30200000


class TestMerge:
    def test_merge_adjusts_offsets(self):
        a = assemble(".text\n.globl fa\nfa: nop\n.data\n.globl da\n"
                     "da: .word 1", "a.o")
        b = assemble(".text\n.globl fb\nfb: nop\nnop\n.data\n.globl db\n"
                     "db: .word 2", "b.o")
        merged = merge_objects([a, b], "out")
        assert merged.symbols["fa"].value == 0
        assert merged.symbols["fb"].value == 16  # aligned after a's text
        assert merged.symbols["db"].value == 16

    def test_merge_resolves_cross_references(self):
        a = assemble(".text\n.globl caller\ncaller: jal callee\njr ra",
                     "a.o")
        b = assemble(".text\n.globl callee\ncallee: jr ra", "b.o")
        merged = merge_objects([a, b], "out")
        assert merged.symbols["callee"].defined
        assert not merged.undefined_symbols()

    def test_merge_duplicate_globals_rejected(self):
        a = assemble(".text\n.globl f\nf: nop", "a.o")
        b = assemble(".text\n.globl f\nf: nop", "b.o")
        with pytest.raises(DuplicateSymbolError):
            merge_objects([a, b], "out")

    def test_merge_renames_locals(self):
        a = assemble(".text\nhelper: nop\n.globl fa\nfa: b helper",
                     "a.o")
        b = assemble(".text\nhelper: nop\n.globl fb\nfb: b helper",
                     "b.o")
        merged = merge_objects([a, b], "out")
        assert "a.o::helper" in merged.symbols
        assert "b.o::helper" in merged.symbols

    def test_merge_accumulates_link_info(self):
        a = assemble(".module m1.o, dynamic_public\n.searchdir /d1\n"
                     ".text\nnop", "a.o")
        b = assemble(".searchdir /d2\n.text\nnop", "b.o")
        merged = merge_objects([a, b], "out")
        assert ("m1.o", "dynamic_public") in \
            merged.link_info.dynamic_modules
        assert merged.link_info.search_path == ["/d1", "/d2"]

    def test_merge_data_relocation_offsets(self):
        a = assemble(".data\n.globl pa\npa: .word target", "a.o")
        b = assemble(".data\n.globl pb\npb: .word target", "b.o")
        merged = merge_objects([a, b], "out")
        offsets = sorted(r.offset for r in merged.relocations
                         if r.section == SEC_DATA)
        assert offsets == [0, 16]


class TestBranchIslands:
    def test_far_call_gets_island(self):
        obj = assemble(".text\n.globl f\nf: jal far_fn\njr ra", "m.o")
        before_text = len(obj.text)
        count = insert_branch_islands(obj)
        assert count == 1
        assert len(obj.text) == before_text + 12
        # The original JUMP26 now targets a local island label.
        jumps = [r for r in obj.relocations
                 if r.type is RelocType.JUMP26]
        assert len(jumps) == 1
        assert jumps[0].symbol.startswith("__island_")
        hi = [r for r in obj.relocations if r.type is RelocType.HI16]
        assert hi[0].symbol == "far_fn"

    def test_two_far_calls_share_one_island(self):
        """Regression: one island used to be emitted per call site, so N
        calls to the same far symbol cost N x 12 bytes of text. Call
        sites to the same (symbol, addend) must share a single island."""
        obj = assemble(".text\n.globl f\nf: jal far_fn\njal far_fn\n"
                       "jal other_fn\njr ra", "m.o")
        before_text = len(obj.text)
        count = insert_branch_islands(obj)
        assert count == 2                    # far_fn + other_fn, not 3
        assert len(obj.text) == before_text + 2 * 12
        jumps = [r for r in obj.relocations
                 if r.type is RelocType.JUMP26]
        assert len(jumps) == 3               # every call site redirected
        far_targets = {r.symbol for r in jumps}
        assert len(far_targets) == 2         # two share one label
        # Exactly one HI16/LO16 pair per distinct target.
        hi = [r for r in obj.relocations if r.type is RelocType.HI16]
        assert sorted(r.symbol for r in hi) == ["far_fn", "other_fn"]

    def test_same_symbol_different_addend_gets_own_island(self):
        obj = assemble(".text\njal far_fn", "m.o")
        obj.relocations.append(
            Relocation(SEC_TEXT, 0, RelocType.JUMP26, "far_fn", 8))
        count = insert_branch_islands(obj)
        assert count == 2

    def test_local_calls_untouched(self):
        obj = assemble(".text\n.globl f\nf: jal g\njr ra\n"
                       ".globl g\ng: jr ra", "m.o")
        count = insert_branch_islands(obj)
        assert count == 0

    def test_island_executes_correctly(self):
        """End-to-end: a call through an island reaches a function in a
        different 256 MiB region and returns."""
        pm = PhysicalMemory()
        space = AddressSpace(pm)
        space.map(0x00400000, 4096, prot=PROT_RWX)
        space.map(0x30400000, 4096, prot=PROT_RWX)

        caller = assemble("""
            .text
            .globl main
        main:
            jal far_fn
            break
        """, "caller.o")
        insert_branch_islands(caller)
        image = ModuleImage(caller)
        image.layout_split(0x00400000, 0x10000000)
        remaining = image.apply_relocations(
            lambda s: 0x30400000 if s == "far_fn" else None
        )
        assert remaining == []
        space.write_bytes(0x00400000, bytes(image.obj.text), force=True)

        callee = assemble(".text\n.globl far_fn\nfar_fn: li v0, 77\n"
                          "jr ra", "callee.o")
        callee_image = ModuleImage(callee)
        callee_image.layout_contiguous(0x30400000)
        callee_image.apply_relocations()
        space.write_bytes(0x30400000, callee_image.image_bytes(),
                          force=True)

        from repro.hw.cpu import BreakTrap, Cpu

        cpu = Cpu(space)
        cpu.pc = 0x00400000
        with pytest.raises(BreakTrap):
            cpu.run(100)
        assert cpu.regs[isa.REG_V0] == 77

    def test_count_far_jumps(self):
        obj = assemble(".text\njal a\njal b\njal a\nb: jr ra", "m.o")
        assert count_far_jumps(obj) == 2
