"""Superblock translation (repro.hw.blocks) against the single-step
reference.

Every property here runs the same program twice on twin address
spaces: once as a ``Cpu.step()`` loop (the reference) and once as a
``Cpu.execute(budget)`` loop, which runs translated blocks. After every
``execute`` call and every exception the two must agree on the PC,
registers, memory, exception, retired instructions, TLB hits/misses,
decode hits/misses, the text frames' decoded offsets and decode cores,
and, on twins with a stub SMP shadow, every shootdown. A body wrapped
in :func:`_loop` with no jump or trap in it runs as one loop block whose
forward branches are side exits (``TestLoopBlocks``).
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import (
    AlignmentError,
    ExecutionBudgetExceeded,
    InvalidInstructionError,
)
from repro.hw import blocks, isa
from repro.hw.asm import assemble
from repro.hw.cpu import ArithmeticTrap, BreakTrap, Cpu, SyscallTrap
from repro.kernel.kernel import MAX_FAULT_RETRIES, Kernel
from repro.kernel.signals import Signal
from repro.linker.baseline_ld import link_static
from repro.vm.address_space import PROT_RW, PROT_RWX, AddressSpace
from repro.vm.faults import AccessKind, PageFaultError
from repro.vm.layout import PAGE_SIZE
from repro.vm.pages import PhysicalMemory

TEXT = 0x10000
SCRATCH_PAGES = 8        # RW pages on each side of the text page
DATA = 0x40000           # two pages: DATA and DATA + PAGE_SIZE
UNMAPPED = 0x60000       # mapped by the harness on first touch
MAX_EXTRA_PAGES = 8
MAX_FORKS = 3

# Register roles. Random ALU traffic only writes ALU_REGS.
ALU_REGS = [0, 8, 9, 10, 11, 12, 13]   # zero, t0..t5
T6 = 14                                # address temp of the loop stores
S_DATA, S_TEXT, S_UNMAPPED, S_COUNT = 16, 17, 18, 19
# (S_COUNT << 12) + S_LAST is the text page on the last iteration and
# a scratch page above it before; (S_COUNT << 12) + S_FIRST is the text
# page on the first iteration and a scratch page below it after.
S_LAST, S_FIRST = 20, 21
# a stack pointer that only addi-stepped pushes and pops move
S_SP = 22
# a base register that loop bodies step every pass
S_WALK = 23

_R_FUNCTS = [isa.FN_ADD, isa.FN_SUB, isa.FN_AND, isa.FN_OR, isa.FN_XOR,
             isa.FN_NOR, isa.FN_SLT, isa.FN_SLTU, isa.FN_MUL, isa.FN_DIV,
             isa.FN_REM, isa.FN_SLL, isa.FN_SRL, isa.FN_SRA, isa.FN_SLLV,
             isa.FN_SRLV, isa.FN_SRAV]
_I_OPS = [isa.OP_ADDI, isa.OP_SLTI, isa.OP_SLTIU, isa.OP_ANDI, isa.OP_ORI,
          isa.OP_XORI, isa.OP_LUI]
_MEM_OPS = [isa.OP_LW, isa.OP_LH, isa.OP_LHU, isa.OP_LB, isa.OP_LBU,
            isa.OP_SW, isa.OP_SH, isa.OP_SB]
_STORE_OPS = [isa.OP_SW, isa.OP_SH, isa.OP_SB]
_BRANCH_OPS = [isa.OP_BEQ, isa.OP_BNE, isa.OP_BLEZ, isa.OP_BGTZ,
               isa.OP_REGIMM]

_reg = st.sampled_from(ALU_REGS)
_any_reg = st.sampled_from(ALU_REGS + [S_DATA, S_TEXT, S_UNMAPPED, S_COUNT])

_alu = st.one_of(
    st.tuples(st.just("r"), st.sampled_from(_R_FUNCTS), _reg, _any_reg,
              _any_reg, st.integers(0, 31)),
    st.tuples(st.just("i"), st.sampled_from(_I_OPS), _reg, _any_reg,
              st.integers(0, 0xFFFF)),
)
# data accesses: mostly aligned into the data pages, some unmapped,
# some through a random register, some misaligned
_mem = st.tuples(st.just("mem"), st.sampled_from(_MEM_OPS), _reg,
                 st.sampled_from([S_DATA] * 5 + [S_UNMAPPED, 8]),
                 st.one_of(st.integers(0, PAGE_SIZE // 2).map(
                     lambda k: 4 * k), st.integers(-8, 2 * PAGE_SIZE + 8)))
# a store into the executing text page, past the program, on the first
# or the last iteration (into a scratch page on the others), so the last
# one runs inside a block and the first one clears blocks that later
# rebuild
_text_store = st.tuples(st.just("text"), st.sampled_from(_STORE_OPS), _reg,
                        st.sampled_from([S_LAST, S_FIRST]),
                        st.integers(0x800, 0xFFC))
_control = st.one_of(
    st.tuples(st.just("branch"), st.sampled_from(_BRANCH_OPS), _any_reg,
              _any_reg, st.integers(0, 1), st.integers(0, 4)),
    st.tuples(st.just("jal"), st.integers(0, 3)),
    st.tuples(st.just("trap"), st.sampled_from(["syscall", "break"])),
)
# an indirect forward jump through T6, sometimes misaligned
_jr = st.tuples(st.just("jr"), st.sampled_from([isa.FN_JR, isa.FN_JALR]),
                st.sampled_from([0, 0, 0, 2]), st.integers(0, 4))
# a push of 1-6 words through S_SP, word and byte accesses around the
# new top (some below it, some above, a few misaligned), and the pop, so
# the accesses share one addi-stepped base register
_stack = st.tuples(st.just("stack"), st.integers(1, 6),
                   st.lists(st.tuples(
                       st.sampled_from([isa.OP_LW, isa.OP_SW] * 3
                                       + [isa.OP_LB, isa.OP_SB]),
                       _reg, st.integers(-2, 8),
                       st.sampled_from([0] * 7 + [1, 2])),
                       min_size=1, max_size=5))
_spec = st.one_of(_alu, _alu, _alu, _mem, _mem, _control, _text_store, _jr,
                  _stack, _stack)
# Loop bodies hold no jump or trap, so a body and its countdown are one
# loop block and every branch in it is a side exit: forward branches,
# some on a bit of S_COUNT (so they go another way on another pass), and
# word and byte accesses through S_WALK, which a "step" moves every pass.
_forward = st.tuples(st.just("branch"), st.sampled_from(_BRANCH_OPS),
                     _any_reg, _any_reg, st.integers(0, 1),
                     st.integers(0, 4)).filter(
    lambda spec: spec[1] != isa.OP_BEQ or spec[2] != spec[3])
_parity = st.tuples(st.just("parity"), st.sampled_from([isa.OP_BEQ,
                                                        isa.OP_BNE]),
                    st.integers(0, 2), st.integers(0, 4))
_walk = st.tuples(st.just("walk"),
                  st.sampled_from([isa.OP_LW, isa.OP_SW] * 3
                                  + [isa.OP_LBU, isa.OP_SB]),
                  _reg, st.integers(-2, 8), st.sampled_from([0] * 7 + [1]))
_step = st.tuples(st.just("step"), st.sampled_from([4, 8, 12, 64, 256, -4,
                                                    2]))
_loop_spec = st.one_of(_alu, _alu, _mem, _stack, _forward, _parity, _walk,
                       _walk, _step)
#: where S_WALK starts: mid-page, short of the data pages' boundary and
#: their end, misaligned, and in the text page past the program
_WALK_STARTS = [DATA + 0x100, DATA + PAGE_SIZE - 48,
                DATA + 2 * PAGE_SIZE - 32, DATA + 0x102, TEXT + 0xC00]
#: where S_SP starts: mid-page, at either side of the data pages'
#: boundary, misaligned, and in the text page past the program
_SP_STARTS = [DATA + 0x800, DATA + PAGE_SIZE + 8, DATA + PAGE_SIZE - 4,
              DATA + 0x802, TEXT + 0xC00]


def _size(spec) -> int:
    """The instruction words of one spec."""
    if spec[0] == "stack":
        return 2 + len(spec[2])
    return {"text": 3, "jr": 2, "parity": 2}.get(spec[0], 1)


def _encode(body):
    """The instruction words of *body* specs. Branches and ``jal`` skip
    forward over whole specs, at most to the end of the body."""
    starts = [0]
    for spec in body:
        starts.append(starts[-1] + _size(spec))
    words = []
    for number, spec in enumerate(body):
        kind = spec[0]
        index = len(words)
        target = starts[min(number + 1 + spec[-1], len(body))] \
            if kind in ("branch", "jal", "jr", "parity") else None
        if kind == "r":
            _, funct, rd, rs, rt, shamt = spec
            words.append(isa.encode_r(funct, rd=rd, rs=rs, rt=rt,
                                      shamt=shamt))
        elif kind == "i":
            _, op, rt, rs, imm = spec
            words.append(isa.encode_i(op, rs=rs, rt=rt, imm=imm))
        elif kind == "mem":
            _, op, rt, base, offset = spec
            if base == S_DATA:
                offset -= 8
            offset = max(-0x8000, min(0x7FFF, offset))
            words.append(isa.encode_i(op, rs=base, rt=rt, imm=offset))
        elif kind == "text":
            _, op, rt, base, offset = spec
            words.append(isa.encode_r(isa.FN_SLL, rd=T6, rt=S_COUNT,
                                      shamt=12))
            words.append(isa.encode_r(isa.FN_ADD, rd=T6, rs=T6, rt=base))
            words.append(isa.encode_i(op, rs=T6, rt=rt, imm=offset))
        elif kind == "stack":
            _, pushed, accesses = spec
            words.append(isa.encode_i(isa.OP_ADDI, rs=S_SP, rt=S_SP,
                                      imm=-4 * pushed))
            for op, rt, slot, misalign in accesses:
                words.append(isa.encode_i(op, rs=S_SP, rt=rt,
                                          imm=4 * slot + misalign))
            words.append(isa.encode_i(isa.OP_ADDI, rs=S_SP, rt=S_SP,
                                      imm=4 * pushed))
        elif kind == "branch":
            _, op, rs, rt, which, _skip = spec
            if op == isa.OP_REGIMM:
                rt = isa.RT_BGEZ if which else isa.RT_BLTZ
            words.append(isa.encode_i(op, rs=rs, rt=rt,
                                      imm=target - index - 1))
        elif kind == "parity":
            _, op, bit, _skip = spec
            words.append(isa.encode_i(isa.OP_ANDI, rs=S_COUNT, rt=T6,
                                      imm=1 << bit))
            words.append(isa.encode_i(op, rs=T6, rt=0,
                                      imm=target - index - 2))
        elif kind == "walk":
            _, op, rt, slot, misalign = spec
            words.append(isa.encode_i(op, rs=S_WALK, rt=rt,
                                      imm=4 * slot + misalign))
        elif kind == "step":
            words.append(isa.encode_i(isa.OP_ADDI, rs=S_WALK, rt=S_WALK,
                                      imm=spec[1]))
        elif kind == "jal":
            words.append(isa.encode_j(isa.OP_JAL,
                                      isa.jump_field(TEXT + 4 * target)))
        elif kind == "jr":
            _, funct, misalign, _skip = spec
            words.append(isa.encode_i(isa.OP_ADDI, rs=S_TEXT, rt=T6,
                                      imm=4 * target + misalign))
            words.append(isa.encode_r(funct, rd=isa.REG_RA, rs=T6))
        else:
            funct = isa.FN_SYSCALL if spec[1] == "syscall" else isa.FN_BREAK
            words.append(isa.encode_r(funct))
    return words


def _loop(body_words):
    """*body_words* inside a countdown loop over S_COUNT, placed at
    TEXT; returns the words and the address of the final ``syscall``."""
    words = list(body_words)
    words.append(isa.encode_i(isa.OP_ADDI, rs=S_COUNT, rt=S_COUNT, imm=-1))
    words.append(isa.encode_i(isa.OP_BGTZ, rs=S_COUNT,
                              imm=-(len(words) + 1)))
    end = TEXT + 4 * len(words)
    words.append(isa.encode_r(isa.FN_SYSCALL))
    return words, end


def _registers(loops, values=(), sp=DATA + 0x800, walk=DATA + 0x100):
    regs = [0] * 32
    regs[8:8 + len(values)] = values
    regs[S_DATA], regs[S_TEXT] = DATA, TEXT
    regs[S_UNMAPPED], regs[S_COUNT] = UNMAPPED, loops
    regs[S_LAST] = TEXT - PAGE_SIZE
    regs[S_FIRST] = TEXT - loops * PAGE_SIZE
    regs[S_SP] = sp
    regs[S_WALK] = walk
    return regs


#: execute budgets the differential draws from: every length a block
#: can be cut to, the SMP sub-quantum, and effectively unlimited
_BUDGETS = [*range(1, 65), 250] + [10 ** 6] * 16


class _StubSmp:
    """Stands in for the SMP coordinator of a space on core 1: records
    every shootdown that a store or a TLB flush books."""

    def __init__(self) -> None:
        self.shootdowns = []

    def decode_shootdown(self, frame) -> None:
        self.shootdowns.append(("decode", sorted(frame.decode_cores)))

    def tlb_shootdown(self, space, dropped: int, reason: str) -> None:
        self.shootdowns.append(("tlb", dropped, reason))


class _Machine:
    """One twin: an address space holding the program, and a CPU."""

    def __init__(self, words, regs, data: bytes, smp: bool = False) -> None:
        self.space = AddressSpace(PhysicalMemory(), name="twin",
                                  tlb_enabled=True)
        scratch = SCRATCH_PAGES * PAGE_SIZE
        self.space.map(TEXT - scratch, scratch, prot=PROT_RW, name="lo")
        self.space.map(TEXT, PAGE_SIZE, prot=PROT_RWX, name="text")
        self.space.map(TEXT + PAGE_SIZE, scratch, prot=PROT_RW, name="hi")
        self.space.map(DATA, 2 * PAGE_SIZE, prot=PROT_RW, name="data")
        self.space.write_bytes(
            TEXT, b"".join(w.to_bytes(4, "little") for w in words))
        self.space.write_bytes(DATA, data)
        if smp:
            self.space.smp = _StubSmp()
            self.space.core = 1
        self.cpu = Cpu(self.space)
        self.cpu.pc = TEXT
        self.cpu.regs[:] = regs
        self.children = []
        #: instructions retired by execute calls that ran a block of
        #: more than one instruction
        self.block_retired = 0
        #: (budget, retired, outcome) of every execute call
        self.calls = []

    def fork(self) -> None:
        self.children.append(self.space.fork("child"))

    def state(self):
        cpu, space = self.cpu, self.space
        memory = [
            {vpn: bytes(pte.frame.data)
             for vpn, pte in sorted(s._pages.items())
             if pte.frame is not None}
            for s in [space] + self.children
        ]
        text = [(sorted(frame.decode), sorted(frame.decode_cores))
                for frame in (s._pages[TEXT >> 12].frame
                              for s in [space] + self.children)]
        return (cpu.pc, list(cpu.regs), cpu.instructions_executed,
                cpu.decode_hits, cpu.decode_misses, space.tlb_hits,
                space.tlb_misses, space.tlb_fills, memory, text,
                getattr(space.smp, "shootdowns", None))


def _outcome(error):
    if error is None:
        return None
    if isinstance(error, PageFaultError):
        return (type(error), error.address, error.access, error.present)
    if isinstance(error, AlignmentError):
        return (type(error), error.address, error.alignment)
    return (type(error), getattr(error, "pc", None))


_HANDLED = (SyscallTrap, BreakTrap, ArithmeticTrap, AlignmentError,
            InvalidInstructionError, PageFaultError)


def _differential(words, end, regs, data, rng, max_retired=1500,
                  smp=False, budgets=None, prepare=None):
    """Run the program on twins (reference steps vs budgeted execute),
    comparing after every execute call. The budgets cycle through
    *budgets* when given, else *rng* draws them from ``_BUDGETS``.
    *prepare*, when given, is called on each new twin. Returns the block
    twin."""
    ref = _Machine(words, regs, data, smp)
    fast = _Machine(words, regs, data, smp)
    if prepare is not None:
        prepare(ref)
        prepare(fast)
    budgets = itertools.cycle(budgets) if budgets else None
    extra_pages = 0
    for _ in range(6000):
        if fast.cpu.instructions_executed >= max_retired:
            break
        budget = next(budgets) if budgets else rng.choice(_BUDGETS)
        before = fast.cpu.instructions_executed
        error = None
        try:
            fast.cpu.execute(budget)
        except _HANDLED as exc:
            error = exc
        retired = fast.cpu.instructions_executed - before
        fast.calls.append((budget, retired, _outcome(error)))
        if retired > 1:
            fast.block_retired += retired
        assert retired <= budget
        assert error is None or retired < budget
        for _ in range(retired):
            ref.cpu.step()
        if error is not None:
            with pytest.raises(type(error)) as caught:
                ref.cpu.step()
            assert _outcome(caught.value) == _outcome(error)
        assert fast.state() == ref.state()
        if error is None:
            continue
        # Service the exception identically on both twins.
        if isinstance(error, SyscallTrap) and error.pc == end:
            break
        if isinstance(error, PageFaultError):
            if error.access is AccessKind.EXEC or error.present \
                    or extra_pages >= MAX_EXTRA_PAGES:
                break
            extra_pages += 1
            for twin in (ref, fast):
                twin.space.map(error.address & ~(PAGE_SIZE - 1), PAGE_SIZE,
                               prot=PROT_RW, name="extra")
            continue
        if isinstance(error, BreakTrap) and len(fast.children) < MAX_FORKS:
            ref.fork()
            fast.fork()
        for twin in (ref, fast):
            twin.cpu.pc += 4
    return fast


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_spec, min_size=6, max_size=40),
           st.lists(st.integers(0, 0xFFFFFFFF), min_size=6, max_size=6),
           st.integers(2, SCRATCH_PAGES - 1),
           st.binary(min_size=64, max_size=64),
           st.booleans(),
           st.sampled_from(_SP_STARTS),
           st.randoms(use_true_random=False))
    def test_execute_matches_step(self, body, values, loops, data, smp,
                                  sp, rng):
        words, end = _loop(_encode(body))
        _differential(words, end, _registers(loops, values, sp),
                      data * 64, rng, smp=smp)


_EDGE_VALUES = [0, 1, 2, 7, 0x7FFFFFFF, 0x80000000, 0xFFFFFFF9,
                0xFFFFFFFE, 0xFFFFFFFF]


class TestBlocks:
    @pytest.mark.parametrize("funct", _R_FUNCTS)
    def test_every_register_op_on_edge_values(self, funct):
        # The operands start at edge values and change every iteration;
        # the op runs inside a block from the second iteration on (a
        # zero divisor traps and is skipped).
        body = [isa.encode_r(funct, rd=13, rs=8, rt=9, shamt=31),
                isa.encode_r(funct, rd=12, rs=9, rt=8, shamt=1),
                isa.encode_r(isa.FN_OR, rd=8, rs=9, rt=0),
                isa.encode_r(isa.FN_ADD, rd=9, rs=10, rt=13)]
        for x in _EDGE_VALUES:
            words, end = _loop(body)
            regs = _registers(len(_EDGE_VALUES), [x, 0x80000000, 0xFFFFFFF9])
            fast = _differential(words, end, regs, bytes(64),
                                 random.Random(x))
            assert fast.cpu.pc == end and fast.block_retired

    @pytest.mark.parametrize("op", _I_OPS)
    def test_every_immediate_op_on_edge_values(self, op):
        for x in _EDGE_VALUES:
            body = [isa.encode_i(op, rs=8, rt=9, imm=0x8001),
                    isa.encode_i(op, rs=8, rt=10, imm=0x7FFF),
                    isa.encode_i(op, rs=9, rt=8, imm=0xFFFF)]
            words, end = _loop(body)
            fast = _differential(words, end, _registers(4, [x]), bytes(64),
                                 random.Random(x))
            assert fast.cpu.pc == end and fast.block_retired

    def test_second_visit_runs_one_block_per_iteration(self):
        body = [isa.encode_i(isa.OP_ADDI, rs=8, rt=8, imm=3),
                isa.encode_i(isa.OP_LW, rs=S_DATA, rt=9, imm=0),
                isa.encode_r(isa.FN_ADD, rd=9, rs=9, rt=8),
                isa.encode_i(isa.OP_SW, rs=S_DATA, rt=9, imm=0)]
        words, end = _loop(body)
        fast = _differential(words, end, _registers(6), bytes(64),
                             random.Random(0))
        frame = fast.space.tlb[TEXT >> 12][2]
        block = frame.blocks[0]
        assert block.length == len(body) + 2
        assert block.run is blocks.translate(block.words)
        assert fast.cpu.regs[9] == 3 * (1 + 2 + 3 + 4 + 5 + 6)

    def test_store_rewrites_the_rest_of_its_own_block(self):
        # On the last iteration the sw lands on the text page and turns
        # the next instruction (addi t1, t1, 1) into addi t1, t1, 100.
        patched = isa.encode_i(isa.OP_ADDI, rs=9, rt=9, imm=100)
        body = [isa.encode_r(isa.FN_SLL, rd=T6, rt=S_COUNT, shamt=12),
                isa.encode_r(isa.FN_ADD, rd=T6, rs=T6, rt=S_LAST),
                isa.encode_i(isa.OP_SW, rs=T6, rt=10, imm=12),
                isa.encode_i(isa.OP_ADDI, rs=9, rt=9, imm=1)]
        words, end = _loop(body)
        regs = _registers(4, [0, 0, patched])
        fast = _differential(words, end, regs, bytes(64),
                             random.Random(1))
        assert fast.cpu.regs[9] == 3 + 100
        assert fast.block_retired
        assert fast.cpu.pc == end

    def test_store_to_cow_text_page_leaves_the_block(self):
        # After a fork the text page is COW; the store breaks it inside
        # a block and the block must exit through the changed TLB entry.
        body = [isa.encode_r(isa.FN_SLL, rd=T6, rt=S_COUNT, shamt=12),
                isa.encode_r(isa.FN_ADD, rd=T6, rs=T6, rt=S_LAST),
                isa.encode_i(isa.OP_SW, rs=T6, rt=10, imm=0x800),
                isa.encode_i(isa.OP_ADDI, rs=9, rt=9, imm=1),
                isa.encode_i(isa.OP_BEQ, rs=S_COUNT, rt=0, imm=0),
                isa.encode_r(isa.FN_BREAK)]
        words, end = _loop(body)
        regs = _registers(4, [0, 0, 0xABCD])
        fast = _differential(words, end, regs, bytes(64),
                             random.Random(2))
        assert fast.children and fast.block_retired
        assert fast.cpu.regs[9] == 4
        assert fast.space.load_word(TEXT + 0x800) == 0xABCD
        assert fast.children[0].load_word(TEXT + 0x800) == 0

    def test_budget_is_never_exceeded(self):
        # Every budget shorter than the 22-instruction block at the loop
        # head retires exactly that many instructions, through a prefix.
        body = [isa.encode_i(isa.OP_ADDI, rs=8, rt=8, imm=1)] * 20
        words, _end = _loop(body)
        for budget in range(1, 23):
            machine = _Machine(words, _registers(4), bytes(64))
            for _ in range(22):
                machine.cpu.step()    # first visit decodes everything
            machine.cpu.execute(budget)
            assert machine.cpu.instructions_executed == 22 + budget
            assert machine.cpu.pc == TEXT + 4 * (budget % 22)
            assert machine.cpu.regs[8] == 20 + min(budget, 20)
        machine.cpu.execute(30)       # a whole block, then a prefix of 8
        assert machine.cpu.instructions_executed == 74
        assert machine.cpu.pc == TEXT + 4 * 8

    def test_cold_block_faults_mid_run(self):
        # On the first visit the block decodes ahead, retires two
        # instructions and faults on the load; only the three fetched
        # instructions count as decode misses and stay decoded.
        body = [isa.encode_i(isa.OP_ADDI, rs=8, rt=8, imm=1),
                isa.encode_i(isa.OP_ADDI, rs=9, rt=9, imm=2),
                isa.encode_i(isa.OP_LW, rs=S_UNMAPPED, rt=10, imm=4),
                isa.encode_i(isa.OP_ADDI, rs=11, rt=10, imm=3)]
        words, end = _loop(body)
        fast = _differential(words, end, _registers(3), bytes(64), None,
                             budgets=[10 ** 6])
        fault = (PageFaultError, UNMAPPED + 4, AccessKind.READ, False)
        assert fast.calls[0] == (10 ** 6, 2, fault)
        assert fast.cpu.pc == end and fast.cpu.regs[8] == 3

    def test_cold_block_rewrites_its_own_run(self):
        # On the first iteration the sw lands on the text page, before
        # anything there ran, and turns the next instruction (addi t1,
        # t1, 1) into addi t1, t1, 100: the cold block must leave right
        # after the store and the rest run the new word.
        patched = isa.encode_i(isa.OP_ADDI, rs=9, rt=9, imm=100)
        body = [isa.encode_r(isa.FN_SLL, rd=T6, rt=S_COUNT, shamt=12),
                isa.encode_r(isa.FN_ADD, rd=T6, rs=T6, rt=S_FIRST),
                isa.encode_i(isa.OP_SW, rs=T6, rt=10, imm=12),
                isa.encode_i(isa.OP_ADDI, rs=9, rt=9, imm=1)]
        words, end = _loop(body)
        for smp in (False, True):
            fast = _differential(words, end, _registers(4, [0, 0, patched]),
                                 bytes(64), None, smp=smp,
                                 budgets=[10 ** 6])
            assert fast.calls == [(10 ** 6, 4 * 6, (SyscallTrap, end))]
            assert fast.cpu.regs[9] == 4 * 100
            # six on the first iteration, the three the store dropped
            # on the second, and the syscall
            assert fast.cpu.decode_misses == 6 + 3 + 1
        assert fast.space.smp.shootdowns == [("decode", [1])]

    def test_cold_block_cut_by_the_budget(self):
        body = [isa.encode_i(isa.OP_ADDI, rs=8, rt=8, imm=1)] * 20
        words, end = _loop(body)
        # The first two calls run cut cold blocks; the third runs the
        # rest of the first iteration cold, two warm iterations, and
        # traps on the final syscall.
        fast = _differential(words, end, _registers(3), bytes(64), None,
                             budgets=[5, 7, 10 ** 6])
        assert fast.calls == [(5, 5, None), (7, 7, None),
                              (10 ** 6, 10 + 2 * 22, (SyscallTrap, end))]
        first = _Machine(words, _registers(3), bytes(64))
        first.cpu.execute(5)
        frame = first.space.tlb[TEXT >> 12][2]
        assert first.cpu.instructions_executed == 5
        assert first.cpu.decode_misses == 5 and first.cpu.decode_hits == 0
        assert sorted(frame.decode) == [0, 4, 8, 12, 16]
        assert not frame.blocks
        assert fast.cpu.pc == end

    def test_memo_reuses_functions_across_frames(self):
        words, _end = _loop([isa.encode_i(isa.OP_ADDI, rs=8, rt=8, imm=7)])
        runs = []
        for _ in range(2):
            machine = _Machine(words, _registers(3), bytes(64))
            with pytest.raises(SyscallTrap):
                machine.cpu.run(100)
            runs.append(machine.space.tlb[TEXT >> 12][2].blocks[0].run)
        assert runs[0] is runs[1]

    def test_run_keeps_budget_contract_with_blocks(self):
        words, _end = _loop([isa.encode_i(isa.OP_ADDI, rs=8, rt=8, imm=1)])
        machine = _Machine(words, _registers(1000), bytes(64))
        with pytest.raises(ExecutionBudgetExceeded):
            machine.cpu.run(100)
        assert machine.cpu.instructions_executed == 100


def _lw(rt, offset, base=S_SP):
    return isa.encode_i(isa.OP_LW, rs=base, rt=rt, imm=offset)


def _sw(rt, offset, base=S_SP):
    return isa.encode_i(isa.OP_SW, rs=base, rt=rt, imm=offset)


def _addi(rt, rs, imm):
    return isa.encode_i(isa.OP_ADDI, rs=rs, rt=rt, imm=imm)


#: push t0, t1 and t2 through an addi-stepped S_SP (at S_SP - 4, - 12
#: and - 8), read them back into t3, t5 and t4, pop, and add t1 to t0
#: and the old t0 to t1
_PUSH_POP = [_addi(S_SP, S_SP, -8), _sw(8, 4), _addi(S_SP, S_SP, -4),
             _sw(9, 0), _sw(10, 4), _lw(11, 8), _lw(12, 4), _lw(13, 0),
             _addi(S_SP, S_SP, 12),
             isa.encode_r(isa.FN_ADD, rd=8, rs=8, rt=13),
             isa.encode_r(isa.FN_ADD, rd=9, rs=9, rt=11)]


class _CountingTlb(dict):
    """A TLB that counts its lookups."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


class TestGuardedAccess:
    """Word accesses through a base register that holds its block-entry
    value plus a constant share one guard per block run."""

    @pytest.mark.parametrize("smp", [False, True])
    def test_push_pop_through_a_stepped_base(self, smp):
        words, end = _loop(_PUSH_POP)
        fast = _differential(words, end, _registers(5, [1, 2, 3]),
                             bytes(64), random.Random(3), smp=smp)
        assert fast.cpu.pc == end and fast.block_retired
        assert fast.cpu.regs[S_SP] == DATA + 0x800
        # (1, 2) -> (3, 3) -> (6, 6) -> ... -> (48, 48)
        assert fast.cpu.regs[8:13] == [48, 48, 3, 24, 3]

    @pytest.mark.parametrize("sp", [
        DATA + PAGE_SIZE + 4,      # the pushed words straddle two pages
        DATA + PAGE_SIZE + 8,      # ... on one page, the top on the next
        DATA + PAGE_SIZE + 12,     # all on the second page
        DATA + 0x802,              # misaligned: every access traps
        DATA + 2 * PAGE_SIZE + 4,  # the low words fault on first touch
    ])
    def test_bases_at_a_page_boundary_or_misaligned(self, sp):
        words, end = _loop(_PUSH_POP)
        for budgets in ([10 ** 6], None):
            fast = _differential(words, end, _registers(4, [1, 2, 3], sp),
                                 bytes(64), random.Random(sp),
                                 budgets=budgets)
            assert fast.cpu.pc == end and fast.block_retired
        if sp & 3:
            assert fast.calls[0][2] == (AlignmentError, sp - 4, 4)

    def test_misaligned_offset_of_an_aligned_base(self):
        # The second load is misaligned whatever S_SP holds, so the base
        # gets no guard and the load traps from inside the block.
        body = [_lw(8, 0), _lw(9, 2), _lw(10, 4)]
        words, end = _loop(body)
        fast = _differential(words, end, _registers(3), bytes(64), None,
                             budgets=[10 ** 6])
        trap = (AlignmentError, DATA + 0x802, 4)
        assert fast.calls == [(10 ** 6, 1, trap), (10 ** 6, 4, trap),
                              (10 ** 6, 4, trap),
                              (10 ** 6, 3, (SyscallTrap, end))]

    def test_tracked_store_into_the_executing_text_page(self):
        # Three stores through S_TEXT: past the program, then over the
        # two increments after them, which become addi t1, t1, 100. The
        # text frame holds code, so no store is guarded: the first one
        # drops the code and the block leaves right after it.
        patched = isa.encode_i(isa.OP_ADDI, rs=9, rt=9, imm=100)
        body = [_sw(10, 0x800, base=S_TEXT), _sw(10, 12, base=S_TEXT),
                _sw(10, 16, base=S_TEXT), _addi(9, 9, 1), _addi(9, 9, 1)]
        words, end = _loop(body)
        for smp in (False, True):
            fast = _differential(words, end, _registers(4, [0, 0, patched]),
                                 bytes(64), None, smp=smp,
                                 budgets=[10 ** 6])
            assert fast.cpu.pc == end and fast.block_retired
            assert fast.cpu.regs[9] == 4 * 200

    def test_tlb_miss_between_guarded_accesses(self):
        # Each iteration loads from a scratch page not touched before,
        # so a TLB miss and fill fall between the guarded accesses.
        body = [_lw(8, 0, base=S_DATA), _lw(9, 0, base=13),
                _addi(13, 13, PAGE_SIZE), _lw(10, 4, base=S_DATA),
                _sw(9, 8, base=S_DATA), _lw(11, 8, base=S_DATA)]
        words, end = _loop(body)
        regs = _registers(SCRATCH_PAGES - 1)
        regs[13] = TEXT + PAGE_SIZE
        for budgets in ([10 ** 6], None):
            fast = _differential(words, end, regs, bytes(range(64)),
                                 random.Random(5), budgets=budgets)
            assert fast.cpu.pc == end and fast.block_retired
            assert fast.space.tlb_misses >= SCRATCH_PAGES - 1

    def test_cow_break_inside_the_block_clears_the_guard(self):
        # After each fork the data page is COW. The first block reads it
        # (a read-only TLB entry); in the second the guarded load from
        # the old frame is followed by a byte store that breaks COW, so
        # the load after it must read the new frame.
        body = [_addi(9, 9, 7), _lw(12, 8, base=S_DATA),
                isa.encode_i(isa.OP_BEQ, rs=0, rt=0, imm=0),
                _lw(8, 0, base=S_DATA),
                isa.encode_i(isa.OP_SB, rs=S_DATA, rt=9, imm=4),
                _lw(10, 4, base=S_DATA),
                isa.encode_r(isa.FN_ADD, rd=11, rs=11, rt=10),
                isa.encode_r(isa.FN_BREAK)]
        words, end = _loop(body)
        for budgets in ([10 ** 6], None):
            fast = _differential(words, end, _registers(4), bytes(64),
                                 random.Random(6), budgets=budgets)
            assert len(fast.children) == 3 and fast.block_retired
            assert fast.cpu.regs[11] == 7 + 14 + 21 + 28
            assert fast.children[0].load_word(DATA + 4) == 7

    def test_one_lookup_per_guarded_base(self):
        # After the first visit the loop runs as one block: one lookup
        # for its PC and one for S_SP's guard, where each access used
        # to look up its own page.
        words, _end = _loop(_PUSH_POP)
        ref = _Machine(words, _registers(4, [1, 2, 3]), bytes(64))
        fast = _Machine(words, _registers(4, [1, 2, 3]), bytes(64))
        length = len(words) - 1
        for _ in range(2):
            fast.cpu.execute(length)
        fast.space.tlb = _CountingTlb(fast.space.tlb)
        fast.cpu.execute(length)
        assert fast.space.tlb.gets == 2
        assert fast.cpu.instructions_executed == 3 * length
        for _ in range(3 * length):
            ref.cpu.step()
        assert fast.state() == ref.state()


def _b(op, rs, rt, offset):
    """A conditional branch *offset* words past the next instruction."""
    return isa.encode_i(op, rs=rs, rt=rt, imm=offset)


#: strlen of the string at t0 into t1: a loop block whose side exit (at
#: the NUL) comes before the two registers it writes
_STRLEN = [isa.encode_i(isa.OP_LBU, rs=8, rt=10, imm=0),
           _b(isa.OP_BEQ, 10, 0, 3),
           _addi(8, 8, 1), _addi(9, 9, 1),
           _b(isa.OP_BEQ, 0, 0, -5),
           isa.encode_r(isa.FN_SYSCALL)]
#: the words from t0 on, summed into t2 up to a zero word or S_COUNT
#: words: the guarded load's base moves one word every pass
_WORD_SUM = [_lw(9, 0, base=8), _b(isa.OP_BEQ, 9, 0, 4),
             isa.encode_r(isa.FN_ADD, rd=10, rs=10, rt=9),
             _addi(8, 8, 4), _addi(S_COUNT, S_COUNT, -1),
             _b(isa.OP_BGTZ, S_COUNT, 0, -6),
             isa.encode_r(isa.FN_SYSCALL)]


def _loop_block(machine):
    """The loop block cached at the start of the text page."""
    block = machine.space.tlb[TEXT >> 12][2].blocks[0]
    assert blocks._loops(block.words[-1], block.length - 1)
    return block


class TestLoopBlocks:
    """A run through forward branches that ends in a branch back to its
    start is one block, which runs passes while the budget covers one."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(_loop_spec, min_size=2, max_size=14),
           st.lists(st.integers(0, 0xFFFFFFFF), min_size=6, max_size=6),
           st.integers(2, 40),
           st.binary(min_size=64, max_size=64),
           st.booleans(),
           st.sampled_from(_SP_STARTS),
           st.sampled_from(_WALK_STARTS),
           st.randoms(use_true_random=False))
    def test_loop_blocks_match_step(self, body, values, loops, data, smp,
                                    sp, walk, rng):
        words, end = _loop(_encode(body))
        assume(len(words) - 1 <= blocks.BLOCK_CAP)
        _differential(words, end, _registers(loops, values, sp, walk),
                      data * 64, rng, max_retired=3000, smp=smp)

    @pytest.mark.parametrize("text", [b"", b"a", b"hello, world"])
    def test_strlen(self, text):
        # Every exit writes back t0 and t1, which the passes before it
        # wrote, though this pass has not.
        end = TEXT + 4 * (len(_STRLEN) - 1)
        regs = _registers(1, [DATA])
        for budgets in (None, [10 ** 6]):
            fast = _differential(_STRLEN, end, regs, text + bytes(64),
                                 random.Random(len(text)), budgets=budgets)
            assert fast.cpu.pc == end
            assert fast.cpu.regs[9] == len(text)
        assert fast.calls == [(10 ** 6, 5 * len(text) + 2,
                               (SyscallTrap, end))]

    @pytest.mark.parametrize("program", ["strlen", "word_sum"])
    def test_every_budget_up_to_two_passes(self, program):
        if program == "strlen":
            words, data = _STRLEN, b"loop blocks" * 3 + bytes(64)
        else:
            words = _WORD_SUM
            data = b"".join(n.to_bytes(4, "little") for n in range(1, 9)) \
                + bytes(64)
        end = TEXT + 4 * (len(words) - 1)
        regs = _registers(30, [DATA])
        length = len(words) - 1
        for budget in range(1, 2 * length + 1):
            fast = _differential(words, end, regs, data, None,
                                 budgets=[budget])
            assert fast.cpu.pc == end
            assert all(retired == budget for _budget, retired, outcome
                       in fast.calls if outcome is None)
        assert fast.cpu.regs[9:11] == ([33, 0] if program == "strlen"
                                       else [0, 36])

    def test_word_sum_guards_every_pass(self):
        # The load's base moves a word each pass, and then off the first
        # data page: each pass guards afresh.
        end = TEXT + 4 * (len(_WORD_SUM) - 1)
        start = DATA + PAGE_SIZE - 16
        data = bytes(PAGE_SIZE - 16) + b"".join(
            n.to_bytes(4, "little") for n in range(1, 12))
        fast = _differential(_WORD_SUM, end, _registers(40, [start]), data,
                             None, budgets=[10 ** 6])
        assert fast.calls == [(10 ** 6, 11 * 6 + 2, (SyscallTrap, end))]
        assert fast.cpu.regs[10] == sum(range(1, 12))
        _loop_block(fast)

    def test_side_exit_on_the_first_visit(self):
        # The side exit is taken on the first pass only (t3 == S_COUNT):
        # the first visit fetches one instruction, the code at the exit
        # moves t3 out of reach and jumps back, and the second visit
        # decodes and caches the rest.
        words = [_b(isa.OP_BEQ, 11, S_COUNT, 4),
                 _addi(8, 8, 3), _addi(S_COUNT, S_COUNT, -1),
                 _b(isa.OP_BGTZ, S_COUNT, 0, -4),
                 isa.encode_r(isa.FN_SYSCALL),
                 _addi(11, 0, -1),
                 isa.encode_j(isa.OP_J, isa.jump_field(TEXT))]
        end = TEXT + 16
        for budgets in ([10 ** 6], [1, 2, 3, 4, 5]):
            fast = _differential(words, end, _registers(6, [0, 0, 0, 6]),
                                 bytes(64), None, budgets=budgets)
            assert fast.cpu.regs[8] == 18 and fast.cpu.pc == end
        assert _loop_block(fast).length == 4

    @pytest.mark.parametrize("smp", [False, True])
    def test_loop_stores_into_its_own_text_page(self, smp):
        # Every pass stores past the program, which drops the code, and
        # the last pass turns its own addi t1, t1, 1 into addi t1, t1,
        # 100 before reaching it.
        patched = _addi(9, 9, 100)
        words, end = _loop([
            isa.encode_r(isa.FN_SLL, rd=T6, rt=S_COUNT, shamt=12),
            isa.encode_r(isa.FN_ADD, rd=T6, rs=T6, rt=S_LAST),
            _sw(10, 24, base=T6),
            _b(isa.OP_BEQ, 11, S_COUNT, 2),
            _sw(8, 0x800, base=S_TEXT),
            _addi(8, 8, 1),
            _addi(9, 9, 1)])
        for budgets in ([10 ** 6], None):
            fast = _differential(words, end,
                                 _registers(5, [0, 0, patched, 3]),
                                 bytes(64), random.Random(7), smp=smp,
                                 budgets=budgets)
            assert fast.cpu.pc == end
            assert fast.cpu.regs[8:10] == [4, 4 + 100]

    def test_loop_over_a_cow_data_page_after_break(self):
        # The loop increments a data word; after each break (a fork) the
        # data page is copy-on-write, so the first store of the next
        # round breaks it, and the guard of the passes after that holds
        # the new frame.
        words = [_lw(8, 0, base=S_DATA), _addi(8, 8, 1),
                 _sw(8, 0, base=S_DATA), _lw(9, 0, base=S_DATA),
                 _addi(S_COUNT, S_COUNT, -1),
                 _b(isa.OP_BGTZ, S_COUNT, 0, -6),
                 isa.encode_r(isa.FN_BREAK),
                 _addi(S_COUNT, 0, 5), _addi(11, 11, -1),
                 _b(isa.OP_BGTZ, 11, 0, -10),
                 isa.encode_r(isa.FN_SYSCALL)]
        end = TEXT + 4 * (len(words) - 1)
        for budgets in ([10 ** 6], None):
            fast = _differential(words, end, _registers(5, [0, 0, 0, 4]),
                                 bytes(64), random.Random(8),
                                 budgets=budgets)
            assert fast.cpu.pc == end and len(fast.children) == 3
            assert fast.cpu.regs[9] == 20
            assert [child.load_word(DATA) for child in fast.children] \
                == [5, 10, 15]
        _loop_block(fast)


class TestFastPaths:
    """The loop and the shared scan are taken where they apply."""

    def test_cached_loop_is_one_block_call_per_execute(self):
        words, end = _loop([_addi(8, 8, 3), _lw(9, 0, base=S_DATA),
                            isa.encode_r(isa.FN_ADD, rd=9, rs=9, rt=8),
                            _sw(9, 0, base=S_DATA)])
        length = len(words) - 1
        ref = _Machine(words, _registers(50), bytes(64))
        fast = _Machine(words, _registers(50), bytes(64))
        fast.cpu.execute(length)    # the first visit caches the block
        block = _loop_block(fast)
        run = block.run
        calls = []

        def counted(*args):
            calls.append(args[4])
            return run(*args)

        block.run = counted
        with pytest.raises(SyscallTrap):
            fast.cpu.execute(10 ** 6)
        assert calls == [10 ** 6]
        assert fast.cpu.instructions_executed == 50 * length
        assert fast.cpu.pc == end
        for _ in range(50 * length):
            ref.cpu.step()
        with pytest.raises(SyscallTrap):
            ref.cpu.step()
        assert fast.state() == ref.state()

    def test_a_second_frame_with_the_same_text_scans_nothing(
            self, monkeypatch):
        words, end = _loop(_PUSH_POP)
        regs = _registers(5, [1, 2, 3])
        _differential(words, end, regs, bytes(64), None, budgets=[10 ** 6])
        scan = blocks._scan
        scans = []
        monkeypatch.setattr(blocks, "_scan",
                            lambda *args: scans.append(args) or scan(*args))
        fast = _differential(words, end, regs, bytes(64), None,
                             budgets=[10 ** 6])
        assert scans == [] and fast.cpu.pc == end
        assert _loop_block(fast).fresh == ()

    def test_a_planted_decode_entry_falls_back_to_the_full_scan(
            self, monkeypatch):
        # The frame's decode cache holds addi t1, t1, 100 where the bytes
        # hold addi t1, t1, 2; the cache is what runs.
        words, end = _loop([_addi(8, 8, 1), _addi(9, 9, 2)])
        planted = _addi(9, 9, 100)
        decoded = (planted, planted >> 26, (planted >> 21) & 31,
                   (planted >> 16) & 31)

        def plant(twin):
            twin.space._pages[TEXT >> 12].frame.decode[4] = decoded

        regs = _registers(4)
        _differential(words, end, regs, bytes(64), None, budgets=[10 ** 6])
        scan = blocks._scan
        scans = []
        monkeypatch.setattr(blocks, "_scan",
                            lambda *args: scans.append(args) or scan(*args))
        fast = _differential(words, end, regs, bytes(64), None,
                             budgets=[10 ** 6], prepare=plant)
        assert len(scans) == 1 and scans[0][2] == 0
        assert fast.cpu.regs[8:10] == [4, 400]
        assert _loop_block(fast).words[1] == planted


class TestFaultStreak:
    def test_blocks_that_progress_then_fault_reset_the_streak(self):
        # Every load faults: the handler maps its page and unmaps the
        # other one. From the second iteration on each retry runs a
        # block that retires one load and faults on the next, so the
        # streak must restart after every block, as it does after
        # every successful step.
        loads = MAX_FAULT_RETRIES + 8
        body = "\n".join(
            f"lw t0, 0({'a0' if n % 2 == 0 else 'a1'})"
            for n in range(loads))
        source = f"""
            .text
            .globl main
        main:
            li a0, 0x20000000
            li a1, 0x20001000
            li s0, 3
        loop:
            {body}
            addi s0, s0, -1
            bgtz s0, loop
            li v0, 7
            jr ra
        """
        kernel = Kernel()
        proc = kernel.create_machine_process(
            "p", link_static([assemble(source, "m.o")]))
        pages = [0x20000000, 0x20001000]

        def swap(process, info):
            page = info.address & ~(PAGE_SIZE - 1)
            if page not in pages:
                return False
            space = process.address_space
            other = pages[1 - pages.index(page)]
            if space.is_mapped(other):
                space.unmap(other, PAGE_SIZE)
            space.map(page, PAGE_SIZE, prot=PROT_RW)
            return True

        proc.push_handler(Signal.SIGSEGV, swap)
        assert kernel.run_until_exit(proc) == 7, proc.death_reason
