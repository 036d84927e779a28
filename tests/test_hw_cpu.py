"""CPU interpreter tests: run tiny programs bare-metal and check state.

Programs are assembled, manually placed at fixed addresses (no linker —
these tests sit below it), and run until a trap.
"""

import pytest

from repro.errors import (
    AlignmentError,
    ExecutionBudgetExceeded,
    InvalidInstructionError,
)
from repro.hw.asm import assemble
from repro.hw.cpu import ArithmeticTrap, BreakTrap, Cpu, SyscallTrap
from repro.hw import isa
from repro.objfile.format import RelocType
from repro.util.bits import hi16, lo16
from repro.vm.address_space import AddressSpace, PROT_RWX
from repro.vm.faults import PageFaultError
from repro.vm.pages import PhysicalMemory

TEXT = 0x1000
DATA = 0x3000


def run_program(source: str, max_instructions: int = 10000):
    """Assemble, place, and run until syscall; returns (cpu, space)."""
    obj = assemble(source)
    addresses = {}
    for symbol in obj.symbols.values():
        if symbol.section == "text":
            addresses[symbol.name] = TEXT + symbol.value
        elif symbol.section == "data":
            addresses[symbol.name] = DATA + symbol.value
        elif symbol.section == "bss":
            addresses[symbol.name] = DATA + 0x800 + symbol.value
    text = bytearray(obj.text)
    data = bytearray(obj.data)
    for reloc in obj.relocations:
        target = addresses[reloc.symbol] + reloc.addend
        buf = text if reloc.section == "text" else data
        word = int.from_bytes(buf[reloc.offset: reloc.offset + 4], "little")
        if reloc.type is RelocType.HI16:
            word = (word & 0xFFFF0000) | hi16(target)
        elif reloc.type is RelocType.LO16:
            word = (word & 0xFFFF0000) | lo16(target)
        elif reloc.type is RelocType.WORD32:
            word = target
        elif reloc.type is RelocType.JUMP26:
            word = (word & 0xFC000000) | ((target >> 2) & 0x3FFFFFF)
        buf[reloc.offset: reloc.offset + 4] = word.to_bytes(4, "little")

    pm = PhysicalMemory()
    space = AddressSpace(pm)
    space.map(TEXT, 0x1000, prot=PROT_RWX)
    space.map(DATA, 0x1000, prot=PROT_RWX)
    space.map(0x7F000000, 0x10000, prot=PROT_RWX)
    space.write_bytes(TEXT, bytes(text))
    space.write_bytes(DATA, bytes(data))
    cpu = Cpu(space)
    cpu.pc = TEXT
    cpu.regs[isa.REG_SP] = 0x7F00FFF0
    try:
        cpu.run(max_instructions)
    except SyscallTrap:
        pass
    return cpu, space


class TestArithmetic:
    def test_add_sub(self):
        cpu, _ = run_program("""
            .text
            li t0, 40
            li t1, 2
            add t2, t0, t1
            sub t3, t0, t1
            syscall
        """)
        assert cpu.regs[10] == 42
        assert cpu.regs[11] == 38

    def test_wraparound(self):
        cpu, _ = run_program("""
            .text
            li t0, 0xFFFFFFFF
            addi t0, t0, 1
            syscall
        """)
        assert cpu.regs[8] == 0

    def test_mul_div_rem(self):
        cpu, _ = run_program("""
            .text
            li t0, -7
            li t1, 2
            mul t2, t0, t1
            div t3, t0, t1
            rem t4, t0, t1
            syscall
        """)
        assert cpu.regs[10] == 0xFFFFFFF2  # -14
        assert cpu.regs[11] == 0xFFFFFFFD  # -3 (truncation toward zero)
        assert cpu.regs[12] == 0xFFFFFFFF  # -1

    def test_divide_by_zero_traps(self):
        with pytest.raises(ArithmeticTrap):
            run_program(".text\nli t0, 1\nli t1, 0\ndiv t2, t0, t1")

    def test_logic_ops(self):
        cpu, _ = run_program("""
            .text
            li t0, 0xF0F0
            li t1, 0x0FF0
            and t2, t0, t1
            or  t3, t0, t1
            xor t4, t0, t1
            nor t5, t0, t1
            syscall
        """)
        assert cpu.regs[10] == 0x00F0
        assert cpu.regs[11] == 0xFFF0
        assert cpu.regs[12] == 0xFF00
        assert cpu.regs[13] == 0xFFFF000F

    def test_shifts(self):
        cpu, _ = run_program("""
            .text
            li t0, 0x80000000
            srl t1, t0, 4
            sra t2, t0, 4
            li t3, 1
            sll t4, t3, 31
            syscall
        """)
        assert cpu.regs[9] == 0x08000000
        assert cpu.regs[10] == 0xF8000000
        assert cpu.regs[12] == 0x80000000

    def test_slt_signed_vs_unsigned(self):
        cpu, _ = run_program("""
            .text
            li t0, -1
            li t1, 1
            slt t2, t0, t1
            sltu t3, t0, t1
            syscall
        """)
        assert cpu.regs[10] == 1   # -1 < 1 signed
        assert cpu.regs[11] == 0   # 0xFFFFFFFF > 1 unsigned

    def test_zero_register_immutable(self):
        cpu, _ = run_program(".text\nli zero, 42\nsyscall")
        assert cpu.regs[0] == 0


class TestControlFlow:
    def test_loop_sum(self):
        cpu, _ = run_program("""
            .text
            li t0, 10
            li t1, 0
        loop:
            add t1, t1, t0
            addi t0, t0, -1
            bgtz t0, loop
            syscall
        """)
        assert cpu.regs[9] == 55

    def test_jal_sets_ra_and_jr_returns(self):
        cpu, _ = run_program("""
            .text
            jal fn
            li t5, 7
            syscall
        fn:
            li t4, 3
            jr ra
        """)
        assert cpu.regs[12] == 3
        assert cpu.regs[13] == 7

    def test_jalr(self):
        cpu, _ = run_program("""
            .text
            la t0, fn
            jalr ra, t0
            syscall
        fn:
            li t4, 9
            jr ra
        """)
        assert cpu.regs[12] == 9

    def test_bltz_bgez(self):
        cpu, _ = run_program("""
            .text
            li t0, -5
            bltz t0, neg
            li t1, 0
            syscall
        neg:
            li t1, 1
            bgez zero, done
            li t1, 2
        done:
            syscall
        """)
        assert cpu.regs[9] == 1

    def test_backward_branch_near_zero_wraps_pc(self):
        """Regression: a taken backward branch whose target arithmetic
        goes below zero must wrap mod 2^32, never set a negative PC."""
        pm = PhysicalMemory()
        space = AddressSpace(pm)
        space.map(0, 0x1000, prot=PROT_RWX)
        # beq zero, zero, -16  (offset -64 bytes from pc 0 -> -60)
        word = isa.encode_i(isa.OP_BEQ, imm=(-16) & 0xFFFF)
        space.write_bytes(0, word.to_bytes(4, "little"))
        cpu = Cpu(space)
        cpu.pc = 0
        cpu.step()
        assert cpu.pc == (4 - 64) & 0xFFFFFFFF  # 0xFFFFFFC4, not -60
        assert cpu.pc >= 0
        cpu.pc = 0
        cpu.execute(1)  # second visit: the translated block
        assert cpu.pc == (4 - 64) & 0xFFFFFFFF
        if space.tlb_enabled:
            assert space.tlb[0][2].blocks

    def test_backward_regimm_branch_near_zero_wraps_pc(self):
        pm = PhysicalMemory()
        space = AddressSpace(pm)
        space.map(0, 0x1000, prot=PROT_RWX)
        # bltz t0, -16 with t0 negative: taken, target wraps.
        word = isa.encode_i(isa.OP_REGIMM, rs=8, rt=isa.RT_BLTZ,
                            imm=(-16) & 0xFFFF)
        space.write_bytes(0, word.to_bytes(4, "little"))
        cpu = Cpu(space)
        cpu.pc = 0
        cpu.regs[8] = 0xFFFFFFFF  # -1
        cpu.step()
        assert cpu.pc == (4 - 64) & 0xFFFFFFFF
        assert cpu.pc >= 0
        cpu.pc = 0
        cpu.execute(1)  # second visit: the translated block
        assert cpu.pc == (4 - 64) & 0xFFFFFFFF
        if space.tlb_enabled:
            assert space.tlb[0][2].blocks

    def test_beq_bne(self):
        cpu, _ = run_program("""
            .text
            li t0, 4
            li t1, 4
            beq t0, t1, eq
            li t2, 0
            syscall
        eq:
            bne t0, zero, done
            li t2, 1
        done:
            li t2, 2
            syscall
        """)
        assert cpu.regs[10] == 2


class TestMemoryAccess:
    def test_load_store_word(self):
        cpu, space = run_program("""
            .text
            la t0, slot
            li t1, 0xCAFE
            sw t1, 0(t0)
            lw t2, 0(t0)
            syscall
            .data
        slot: .word 0
        """)
        assert cpu.regs[10] == 0xCAFE

    def test_byte_and_half_access(self):
        cpu, _ = run_program("""
            .text
            la t0, bytes
            lbu t1, 0(t0)
            lb  t2, 1(t0)
            lhu t3, 2(t0)
            lh  t4, 2(t0)
            syscall
            .data
        bytes: .byte 0x7F, 0xFF
            .half 0x8000
        """)
        assert cpu.regs[9] == 0x7F
        assert cpu.regs[10] == 0xFFFFFFFF
        assert cpu.regs[11] == 0x8000
        assert cpu.regs[12] == 0xFFFF8000

    def test_sb_sh(self):
        cpu, space = run_program("""
            .text
            la t0, slot
            li t1, 0xAABBCCDD
            sw t1, 0(t0)
            li t2, 0x11
            sb t2, 0(t0)
            li t3, 0x2233
            sh t3, 2(t0)
            lw t4, 0(t0)
            syscall
            .data
        slot: .word 0
        """)
        assert cpu.regs[12] == 0x2233CC11

    def test_misaligned_word_access(self):
        with pytest.raises(AlignmentError):
            run_program(".text\nli t0, 0x3001\nlw t1, 0(t0)")

    def test_unmapped_access_faults_restartably(self):
        """The fault must leave the PC at the faulting instruction."""
        source = ".text\nli t0, 0x500000\nlw t1, 0(t0)\nsyscall"
        obj = assemble(source)
        pm = PhysicalMemory()
        space = AddressSpace(pm)
        space.map(TEXT, 0x1000, prot=PROT_RWX)
        space.write_bytes(TEXT, bytes(obj.text))
        cpu = Cpu(space)
        cpu.pc = TEXT
        with pytest.raises(PageFaultError) as info:
            cpu.run()
        faulting_pc = cpu.pc
        assert info.value.address == 0x500000
        # Map the page, restart: the instruction must now succeed.
        space.map(0x500000, 0x1000, prot=PROT_RWX)
        space.store_word(0x500000, 99)
        assert cpu.pc == faulting_pc
        with pytest.raises(SyscallTrap):
            cpu.run()
        assert cpu.regs[9] == 99


class TestTraps:
    def test_break(self):
        with pytest.raises(BreakTrap):
            run_program(".text\nbreak")

    def test_invalid_instruction(self):
        source = ".text\n.word 0\n"
        obj = assemble(".text\nnop")
        pm = PhysicalMemory()
        space = AddressSpace(pm)
        space.map(TEXT, 0x1000, prot=PROT_RWX)
        space.write_bytes(TEXT, b"\x3f\x00\x00\x00")  # bad funct
        cpu = Cpu(space)
        cpu.pc = TEXT
        with pytest.raises(InvalidInstructionError):
            cpu.step()
        del source, obj

    def test_budget_exhaustion(self):
        with pytest.raises(ExecutionBudgetExceeded):
            run_program(".text\nspin: b spin", max_instructions=100)

    def test_instruction_count(self):
        cpu, _ = run_program(".text\nnop\nnop\nnop\nsyscall")
        assert cpu.instructions_executed == 3

    def test_misaligned_pc(self):
        cpu = Cpu(AddressSpace(PhysicalMemory()))
        cpu.pc = 0x1002
        with pytest.raises(AlignmentError):
            cpu.step()
