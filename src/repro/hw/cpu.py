"""The CPU interpreter with precise, restartable faults.

The interpreter executes one instruction per :meth:`Cpu.step`, the
reference semantics. :meth:`Cpu.execute` chains translated superblocks
(:mod:`repro.hw.blocks`) within its budget, with the same architectural
state and counters as the equivalent run of steps. All memory
accesses go through the attached :class:`~repro.vm.AddressSpace`; a
:class:`~repro.vm.PageFaultError` propagates out of ``step`` *before* any
architectural state (registers, PC) is updated, so the kernel can run a
user-level fault handler and simply re-execute the instruction — the
mechanism Hemlock's lazy linking and pointer chasing depend on.

Traps (syscall, break, divide-by-zero) are also raised as exceptions; the
kernel services them and advances the PC itself.
"""

from __future__ import annotations

import struct
from typing import List, Optional

from repro.errors import (
    AlignmentError,
    ExecutionBudgetExceeded,
    InvalidInstructionError,
)
from repro.util.bits import sign_extend, to_signed32
from repro.vm.address_space import PROT_EXEC, AddressSpace
from repro.vm.layout import PAGE_SHIFT, PAGE_SIZE
from repro.hw import blocks, isa

_WORD = struct.Struct("<I")
_PAGE_MASK = PAGE_SIZE - 1


class Trap(Exception):
    """A synchronous event requiring kernel service."""

    def __init__(self, pc: int) -> None:
        super().__init__(f"{type(self).__name__} at pc=0x{pc:08x}")
        self.pc = pc


class SyscallTrap(Trap):
    """The program executed ``syscall``."""


class BreakTrap(Trap):
    """The program executed ``break`` (used as an explicit halt/abort)."""


class ArithmeticTrap(Trap):
    """Integer divide or remainder by zero."""


_MASK32 = 0xFFFFFFFF


class Cpu:
    """One simulated processor context.

    Register state lives here; memory lives in the attached address
    space, which the kernel swaps on context switch along with the
    register file (see :mod:`repro.kernel.process`).
    """

    def __init__(self, address_space: Optional[AddressSpace] = None) -> None:
        self.regs: List[int] = [0] * 32
        self.pc = 0
        self.address_space = address_space
        self.instructions_executed = 0
        # Decoded-instruction cache traffic (the caches themselves live
        # on the frames; see repro.vm.pages.Frame.decode).
        self.decode_hits = 0
        self.decode_misses = 0

    # ------------------------------------------------------------------
    # register helpers
    # ------------------------------------------------------------------

    def set_reg(self, index: int, value: int) -> None:
        if index != isa.REG_ZERO:
            self.regs[index] = value & _MASK32

    def snapshot_regs(self) -> List[int]:
        return list(self.regs)

    def restore_regs(self, saved: List[int]) -> None:
        self.regs[:] = saved

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Execute exactly one instruction.

        Raises :class:`PageFaultError` with the PC still pointing at the
        faulting instruction, or a :class:`Trap` for syscall/break/divide
        faults. On normal completion the PC has advanced.
        """
        space = self.address_space
        if space is None:
            raise InvalidInstructionError(self.pc, 0)
        pc = self.pc
        if pc & 3:
            raise AlignmentError(pc, 4)
        entry = space.tlb.get(pc >> PAGE_SHIFT)
        if entry is not None and entry[1] & PROT_EXEC:
            # TLB hit on an executable page: fetch straight from the
            # frame and reuse (or fill) its decoded-instruction cache.
            space.tlb_hits += 1
            decode = entry[2].decode
            offset = pc & _PAGE_MASK
            decoded = decode.get(offset)
            if decoded is None:
                word = _WORD.unpack_from(entry[0], offset)[0]
                decoded = (word, (word >> 26) & 0x3F, (word >> 21) & 31,
                           (word >> 16) & 31)
                decode[offset] = decoded
                self.decode_misses += 1
            else:
                self.decode_hits += 1
            if space.smp is not None:
                # SMP shadow bookkeeping: this core now holds decoded
                # instructions of this frame, so a cross-core store to
                # it must be accounted as a decode shootdown.
                entry[2].decode_cores.add(space.core)
            word, op, rs, rt = decoded
        else:
            word = space.fetch_word(pc)
            op = (word >> 26) & 0x3F
            rs = (word >> 21) & 31
            rt = (word >> 16) & 31
        regs = self.regs
        next_pc = (pc + 4) & _MASK32

        if op == isa.OP_SPECIAL:
            rd = (word >> 11) & 31
            funct = word & 0x3F
            if funct == isa.FN_ADD:
                value = (regs[rs] + regs[rt]) & _MASK32
            elif funct == isa.FN_SUB:
                value = (regs[rs] - regs[rt]) & _MASK32
            elif funct == isa.FN_AND:
                value = regs[rs] & regs[rt]
            elif funct == isa.FN_OR:
                value = regs[rs] | regs[rt]
            elif funct == isa.FN_XOR:
                value = regs[rs] ^ regs[rt]
            elif funct == isa.FN_NOR:
                value = ~(regs[rs] | regs[rt]) & _MASK32
            elif funct == isa.FN_SLT:
                value = 1 if to_signed32(regs[rs]) < to_signed32(regs[rt]) \
                    else 0
            elif funct == isa.FN_SLTU:
                value = 1 if regs[rs] < regs[rt] else 0
            elif funct == isa.FN_MUL:
                value = (to_signed32(regs[rs]) * to_signed32(regs[rt])) \
                    & _MASK32
            elif funct == isa.FN_DIV:
                if regs[rt] == 0:
                    raise ArithmeticTrap(pc)
                quotient = int(to_signed32(regs[rs]) / to_signed32(regs[rt]))
                value = quotient & _MASK32
            elif funct == isa.FN_REM:
                if regs[rt] == 0:
                    raise ArithmeticTrap(pc)
                a, b = to_signed32(regs[rs]), to_signed32(regs[rt])
                value = (a - int(a / b) * b) & _MASK32
            elif funct == isa.FN_SLL:
                value = (regs[rt] << ((word >> 6) & 31)) & _MASK32
            elif funct == isa.FN_SRL:
                value = regs[rt] >> ((word >> 6) & 31)
            elif funct == isa.FN_SRA:
                value = (to_signed32(regs[rt]) >> ((word >> 6) & 31)) \
                    & _MASK32
            elif funct == isa.FN_SLLV:
                value = (regs[rt] << (regs[rs] & 31)) & _MASK32
            elif funct == isa.FN_SRLV:
                value = regs[rt] >> (regs[rs] & 31)
            elif funct == isa.FN_SRAV:
                value = (to_signed32(regs[rt]) >> (regs[rs] & 31)) \
                    & _MASK32
            elif funct == isa.FN_JR:
                target = regs[rs]
                if target & 3:
                    raise AlignmentError(target, 4)
                self.pc = target
                self.instructions_executed += 1
                return
            elif funct == isa.FN_JALR:
                target = regs[rs]
                if target & 3:
                    raise AlignmentError(target, 4)
                self.set_reg(rd, next_pc)
                self.pc = target
                self.instructions_executed += 1
                return
            elif funct == isa.FN_SYSCALL:
                raise SyscallTrap(pc)
            elif funct == isa.FN_BREAK:
                raise BreakTrap(pc)
            else:
                raise InvalidInstructionError(pc, word)
            self.set_reg(rd, value)
            self.pc = next_pc
            self.instructions_executed += 1
            return

        if op == isa.OP_REGIMM:
            offset = sign_extend(word & 0xFFFF, 16) << 2
            value = to_signed32(regs[rs])
            taken = value < 0 if rt == isa.RT_BLTZ else value >= 0
            self.pc = (next_pc + offset) & _MASK32 if taken else next_pc
            self.instructions_executed += 1
            return

        if op in (isa.OP_J, isa.OP_JAL):
            target = isa.jump_target(pc, word & 0x3FFFFFF)
            if op == isa.OP_JAL:
                self.set_reg(isa.REG_RA, next_pc)
            self.pc = target
            self.instructions_executed += 1
            return

        imm = word & 0xFFFF
        simm = sign_extend(imm, 16)

        if op == isa.OP_BEQ or op == isa.OP_BNE:
            taken = (regs[rs] == regs[rt]) == (op == isa.OP_BEQ)
            self.pc = (next_pc + (simm << 2)) & _MASK32 if taken else next_pc
            self.instructions_executed += 1
            return
        if op == isa.OP_BLEZ or op == isa.OP_BGTZ:
            value = to_signed32(regs[rs])
            taken = value <= 0 if op == isa.OP_BLEZ else value > 0
            self.pc = (next_pc + (simm << 2)) & _MASK32 if taken else next_pc
            self.instructions_executed += 1
            return

        if op == isa.OP_ADDI:
            self.set_reg(rt, (regs[rs] + simm) & _MASK32)
        elif op == isa.OP_SLTI:
            self.set_reg(rt, 1 if to_signed32(regs[rs]) < simm else 0)
        elif op == isa.OP_SLTIU:
            self.set_reg(rt, 1 if regs[rs] < (simm & _MASK32) else 0)
        elif op == isa.OP_ANDI:
            self.set_reg(rt, regs[rs] & imm)
        elif op == isa.OP_ORI:
            self.set_reg(rt, regs[rs] | imm)
        elif op == isa.OP_XORI:
            self.set_reg(rt, regs[rs] ^ imm)
        elif op == isa.OP_LUI:
            self.set_reg(rt, (imm << 16) & _MASK32)
        elif op == isa.OP_LW:
            address = (regs[rs] + simm) & _MASK32
            if address & 3:
                raise AlignmentError(address, 4)
            self.set_reg(rt, space.load_word(address))
        elif op == isa.OP_LH or op == isa.OP_LHU:
            address = (regs[rs] + simm) & _MASK32
            if address & 1:
                raise AlignmentError(address, 2)
            value = space.load_half(address)
            if op == isa.OP_LH:
                value = sign_extend(value, 16) & _MASK32
            self.set_reg(rt, value)
        elif op == isa.OP_LB or op == isa.OP_LBU:
            address = (regs[rs] + simm) & _MASK32
            value = space.load_byte(address)
            if op == isa.OP_LB:
                value = sign_extend(value, 8) & _MASK32
            self.set_reg(rt, value)
        elif op == isa.OP_SW:
            address = (regs[rs] + simm) & _MASK32
            if address & 3:
                raise AlignmentError(address, 4)
            space.store_word(address, regs[rt])
        elif op == isa.OP_SH:
            address = (regs[rs] + simm) & _MASK32
            if address & 1:
                raise AlignmentError(address, 2)
            space.write_bytes(
                address, (regs[rt] & 0xFFFF).to_bytes(2, "little")
            )
        elif op == isa.OP_SB:
            address = (regs[rs] + simm) & _MASK32
            space.write_bytes(address, bytes([regs[rt] & 0xFF]))
        else:
            raise InvalidInstructionError(pc, word)

        self.pc = next_pc
        self.instructions_executed += 1

    def execute(self, budget: int) -> None:
        """Execute at most *budget* instructions as translated blocks,
        chained from one to the next, or else exactly one :meth:`step`.

        The loop looks up the block at each new PC and runs it until the
        budget is spent, a trap or fault propagates, or the PC has no
        block: a TLB miss, a non-executable page, or an invalid word. A
        block longer than the budget left runs as its prefix of that
        length, and a block with undecoded instructions runs through
        :meth:`Block.first_visit <repro.hw.blocks.Block.first_visit>`.
        Only a call that ran no block makes the step. Counters, faults
        and traps are exactly those of the equivalent steps: the PC names
        the faulting instruction and every instruction before it has
        retired.
        """
        space = self.address_space
        if space is not None:
            tlb_get = space.tlb.get
            smp = space.smp
            start = self.instructions_executed
            end = start + budget
            left = budget
            while left > 0:
                pc = self.pc
                entry = tlb_get(pc >> PAGE_SHIFT)
                if entry is None or not entry[1] & PROT_EXEC:
                    break
                frame = entry[2]
                offset = pc & _PAGE_MASK
                block = frame.blocks.get(offset)
                if block is None:
                    if offset & 3:
                        break
                    block = blocks.build(frame.decode, entry[0], offset)
                    if block is None:
                        break
                    if not block.fresh:
                        frame.blocks[offset] = block
                if smp is not None:
                    frame.decode_cores.add(space.core)
                if block.fresh:
                    block.first_visit(self, space, entry, pc, left)
                elif block.length <= left:
                    block.run(self, space, entry, pc, left)
                else:
                    block.prefix(left).run(self, space, entry, pc)
                left = end - self.instructions_executed
            if self.instructions_executed != start:
                return
        self.step()

    def run(self, max_instructions: int = 1_000_000) -> None:
        """Execute until a trap or fault propagates, or the budget runs
        out.

        Convenience for bare-metal tests that run without a kernel.
        """
        end = self.instructions_executed + max_instructions
        while self.instructions_executed < end:
            self.execute(end - self.instructions_executed)
        raise ExecutionBudgetExceeded(
            f"no trap within {max_instructions} instructions "
            f"(pc=0x{self.pc:08x})"
        )
