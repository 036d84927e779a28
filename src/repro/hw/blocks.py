"""Superblock translation: straight-line code as one Python function.

A *block* is the maximal run of consecutive instructions on one page,
up to :data:`BLOCK_CAP`. It ends at a branch, jump, ``jr``/``jalr``,
``syscall`` or ``break`` (that instruction included), before an invalid
word, or at the page end. A *loop block* goes on past conditional
branches that may fall through and ends in a conditional branch back
to its own start; the branches inside it are *side exits*. :func:`build`
is the one scan that finds a block. It reads decoded instructions from
the frame's cache (:attr:`repro.vm.pages.Frame.decode`) and decodes the
offsets missing there from the frame's bytes into the block's ``fresh``
list, so code runs as a block from its first visit. The scan itself
depends only on the bytes, so it is shared process-wide (:data:`_scans`)
by every frame whose decode cache agrees with them. :meth:`Cpu.execute
<repro.hw.cpu.Cpu.execute>` chains blocks until its budget is spent; a
block longer than the budget left runs as its :meth:`Block.prefix`.

The block is generated as Python source, with the start ``pc`` as a
parameter, and compiled once: :func:`translate` memoizes the function
by the tuple of instruction words, process-wide and bounded by
:data:`MEMO_CAP`, so every kernel and frame holding the same code (and
every prefix of it) reuses it. Each frame keeps its own ``offset ->
Block`` cache in :attr:`Frame.blocks <repro.vm.pages.Frame.blocks>`,
dropped with the decode cache by :meth:`Frame.drop_code
<repro.vm.pages.Frame.drop_code>`. Only blocks with every instruction
decoded enter it. A :class:`Block` is compiled (or fetched from the
memo) the first time it runs.

A block function ``block(cpu, space, entry, pc, left=0)`` is exact
against the single-step reference:

* **Counters.** A completed block adds its length to
  ``instructions_executed``, to ``tlb_hits`` and to ``decode_hits``.
  An exception at block index ``i`` leaves ``pc`` at that instruction
  and adds ``i`` retired instructions and ``i + 1`` fetch hits (the
  trapping fetch was counted), so faults and traps stay precise. On a
  first visit, :meth:`Block.first_visit` turns the hits of the fresh
  instructions that were fetched into decode misses.
* **Data accesses.** ``lw``/``sw`` take the TLB fast path of
  :meth:`AddressSpace.load_word` / :meth:`AddressSpace.store_word` and
  fall back to those methods; byte and half accesses call the same
  methods ``step`` does. Sanitized (exec-only) and COW pages therefore
  take the same slow paths. A ``lw``/``sw`` whose base register holds
  its block-entry value plus a constant (through ``addi`` chains, as in
  ``addi sp, sp, -8; sw v0, 4(sp)``) is *guarded*: the block entry
  looks that register's page up once and checks that every such access
  through it is aligned and on that page, that the entry allows each
  of them and that the frame holds no decoded code. While the guard
  holds, the access is the fast path's own ``unpack_from``/``pack_into``
  on that entry's bytes, and a store needs neither ``drop_code`` nor the
  self-modification check. Only a call into ``space`` can change a TLB
  entry or a frame, so every one clears every guard for the rest of the
  block; an access whose guard failed or was cleared runs the unguarded
  code.
* **Self-modifying text.** After each store that is not the block's
  last instruction, the block checks that its frame's decode cache is
  non-empty and that ``space.tlb`` still holds the entry it started
  from; otherwise it retires through the store and returns. The first
  check catches a store into its own page (through any mapping), the
  second a COW break or remap of the text page, which leaves the old
  frame's decode cache intact.
* **Loops.** A loop block's function runs another pass while the back
  edge is taken, ``left`` (the budget left, including this pass) covers
  another whole pass, the frame still holds decoded code and
  ``space.tlb`` still holds the entry the block started from: exactly
  what ``execute`` checks before it dispatches the same cached block
  again. Each pass guards its base registers afresh. Every exit (side
  exit, self-modification exit, exception or loop end) retires the
  passes before it too and writes back every register the body writes.
  ``first_visit`` and prefixes pass no budget, so they run one pass.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import AlignmentError
from repro.hw import isa
from repro.vm.address_space import PROT_READ, PROT_WRITE
from repro.vm.layout import PAGE_SHIFT, PAGE_SIZE

#: Longest block, in instructions.
BLOCK_CAP = 64
#: Most compiled blocks kept in the process-wide memo (oldest evicted).
MEMO_CAP = 2048

BlockFunction = Callable[..., None]

_WORD = struct.Struct("<I")
_MASK = 0xFFFFFFFF
_PAGE_MASK = PAGE_SIZE - 1

_CONDITIONAL_OPS = frozenset({isa.OP_REGIMM, isa.OP_BEQ, isa.OP_BNE,
                              isa.OP_BLEZ, isa.OP_BGTZ})
_BRANCH_OPS = _CONDITIONAL_OPS | {isa.OP_J, isa.OP_JAL}
_END_FUNCTS = frozenset({isa.FN_JR, isa.FN_JALR, isa.FN_SYSCALL,
                         isa.FN_BREAK})
_FUNCTS = frozenset({isa.FN_ADD, isa.FN_SUB, isa.FN_AND, isa.FN_OR,
                     isa.FN_XOR, isa.FN_NOR, isa.FN_SLT, isa.FN_SLTU,
                     isa.FN_MUL, isa.FN_DIV, isa.FN_REM, isa.FN_SLL,
                     isa.FN_SRL, isa.FN_SRA, isa.FN_SLLV, isa.FN_SRLV,
                     isa.FN_SRAV}) | _END_FUNCTS
_SHIFT_IMM_FUNCTS = frozenset({isa.FN_SLL, isa.FN_SRL, isa.FN_SRA})
_OPS = frozenset({isa.OP_ADDI, isa.OP_SLTI, isa.OP_SLTIU, isa.OP_ANDI,
                  isa.OP_ORI, isa.OP_XORI, isa.OP_LUI, isa.OP_LW,
                  isa.OP_LH, isa.OP_LHU, isa.OP_LB, isa.OP_LBU,
                  isa.OP_SW, isa.OP_SH, isa.OP_SB}) | _BRANCH_OPS

_memo: Dict[Tuple[int, ...], BlockFunction] = {}
#: page bytes from a block's start -> :func:`_scan` of them with an empty
#: decode cache (oldest evicted past :data:`MEMO_CAP`)
_scans: Dict[bytes, Tuple[Tuple[int, ...], Tuple[Tuple[int, tuple], ...],
                          Tuple[int, ...]]] = {}


def _ends_block(word: int) -> bool:
    op = word >> 26
    if op == isa.OP_SPECIAL:
        return word & 0x3F in _END_FUNCTS
    return op in _BRANCH_OPS


def _loops(word: int, index: int) -> bool:
    """Whether *word*, at block index *index*, is a conditional branch
    back to the block's start."""
    return word >> 26 in _CONDITIONAL_OPS and index + 1 + _sext16(word) == 0


class Block:
    """One block of a frame: its words and, once it first runs, its
    compiled function. ``run(cpu, space, entry, pc, left=0)`` translates
    on the first call, so a block that never runs is never compiled.

    ``fresh`` lists ``(index, decoded)`` for the instructions whose
    offsets were not in the frame's decode cache when :func:`build`
    scanned the run; such a block runs through :meth:`first_visit`,
    never straight through ``run``, and is cached in the frame only
    once that has left every one of them decoded.
    """

    __slots__ = ("length", "words", "run", "fresh", "prefixes")

    def __init__(self, words: Tuple[int, ...],
                 fresh: Tuple[Tuple[int, tuple], ...] = ()) -> None:
        self.length = len(words)
        self.words = words
        self.run: BlockFunction = self._translate
        self.fresh = fresh
        self.prefixes: Optional[Dict[int, "Block"]] = None

    def _translate(self, cpu, space, entry, pc: int, left: int = 0) -> None:
        self.run = translate(self.words)
        self.run(cpu, space, entry, pc, left)

    def prefix(self, length: int) -> "Block":
        """The block of this block's first *length* words (cached). It
        runs once and never loops: it leaves at the first branch that is
        taken, or else falls through to ``pc + 4 * length``."""
        prefixes = self.prefixes
        if prefixes is None:
            prefixes = self.prefixes = {}
        block = prefixes.get(length)
        if block is None:
            block = prefixes[length] = Block(self.words[:length])
        return block

    def first_visit(self, cpu, space, entry, pc: int, budget: int) -> None:
        """Run at most *budget* instructions of a block with ``fresh``
        decodes, counting the decode cache as single steps would.

        The fresh decodes of the instructions that will run go into the
        frame's cache first, so a store into the block's own page finds
        the cache non-empty and drops it, as the steps' would. Afterwards
        each fresh instruction that was fetched (retired, or the trapping
        fetch) is a decode miss instead of the hit the block counted, and
        the fresh decodes past the last fetch leave the cache again. The
        frame caches the block once every instruction was fetched and its
        code is intact.
        """
        frame = entry[2]
        decode = frame.decode
        offset = pc & _PAGE_MASK
        length = min(self.length, budget)
        fresh = [(i, decoded) for i, decoded in self.fresh if i < length]
        for i, decoded in fresh:
            decode[offset + 4 * i] = decoded
        run = self if length == self.length else self.prefix(length)
        before = cpu.instructions_executed
        trapped = True
        try:
            run.run(cpu, space, entry, pc)
            trapped = False
        finally:
            fetched = cpu.instructions_executed - before + trapped
            misses = 0
            for i, _decoded in fresh:
                if i < fetched:
                    misses += 1
                else:
                    # (a dropped cache has forgotten it already)
                    decode.pop(offset + 4 * i, None)
            cpu.decode_hits -= misses
            cpu.decode_misses += misses
            if fetched == self.length and decode:
                self.fresh = ()
                frame.blocks[offset] = self


def build(decode: Dict[int, tuple], data, offset: int) -> Optional[Block]:
    """The block starting at page *offset* of the frame whose bytes are
    *data* and whose decode cache is *decode*, or None when the word
    there is invalid. An offset missing from *decode* is decoded from
    *data* into the block's ``fresh`` list, as :meth:`Cpu.step
    <repro.hw.cpu.Cpu.step>` would decode it, and *decode* is left
    unchanged.

    The scan of the bytes is shared through :data:`_scans`, keyed by
    the bytes from *offset* to :data:`BLOCK_CAP` words or the page end.
    It holds when *decode* agrees with those bytes at every offset the
    scan read (an absent offset agrees); otherwise the block comes from
    a scan of *decode* and *data* together."""
    words, fresh, seen = _remember(
        _scans, bytes(data[offset:offset + 4 * BLOCK_CAP]),
        lambda key: _scan({}, key, 0))
    if decode:
        # A scan of bytes alone found every word of the block fresh, so
        # fresh[j] is word j's; keep those the frame has not decoded.
        length = len(words)
        kept = []
        get = decode.get
        for j, word in enumerate(seen):
            decoded = get(offset + 4 * j)
            if decoded is None:
                if j < length:
                    kept.append(fresh[j])
            elif decoded[0] != word:
                words, fresh, _seen = _scan(decode, data, offset)
                break
        else:
            fresh = tuple(kept)
    return Block(words, fresh) if words else None


def _scan(decode: Dict[int, tuple], data, offset: int
          ) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, tuple], ...],
                     Tuple[int, ...]]:
    """``(words, fresh, seen)`` of the block at *offset* of *data* (see
    :func:`build`), where *seen* lists every word the scan read.

    The scan goes on past a conditional branch that may fall through,
    tentatively: it keeps the longer run only if that ends in a
    conditional branch back to *offset*, and otherwise cuts the block
    at the first branch."""
    words: List[int] = []
    fresh: List[Tuple[int, tuple]] = []
    seen: List[int] = []
    cut = 0
    while offset < len(data) and len(words) < BLOCK_CAP:
        decoded = decode.get(offset)
        cold = decoded is None
        if cold:
            word = _WORD.unpack_from(data, offset)[0]
            decoded = (word, (word >> 26) & 0x3F, (word >> 21) & 31,
                       (word >> 16) & 31)
        word = decoded[0]
        op = decoded[1]
        seen.append(word)
        if op == isa.OP_SPECIAL:
            if word & 0x3F not in _FUNCTS:
                break
            ends = word & 0x3F in _END_FUNCTS
        elif op in _OPS:
            ends = op in _BRANCH_OPS
        else:
            break
        if cold:
            fresh.append((len(words), decoded))
        words.append(word)
        offset += 4
        if ends:
            if op not in _CONDITIONAL_OPS:
                break
            if _loops(word, len(words) - 1):
                cut = 0
                break
            cut = cut or len(words)
            if op == isa.OP_BEQ and decoded[2] == decoded[3]:
                break    # always taken
    if cut:
        del words[cut:]
        fresh = [item for item in fresh if item[0] < cut]
    return tuple(words), tuple(fresh), tuple(seen)


def translate(words: Tuple[int, ...]) -> BlockFunction:
    """The compiled block function for *words* (memoized)."""
    return _remember(_memo, words, _compile)


def _remember(memo: dict, key, make: Callable):
    """``memo[key]``, made by ``make(key)`` when missing; past
    :data:`MEMO_CAP` entries the oldest is evicted."""
    value = memo.get(key)
    if value is None:
        if len(memo) >= MEMO_CAP:
            del memo[next(iter(memo))]
        value = memo[key] = make(key)
    return value


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------

def _signed(expr: str) -> str:
    return f"(({expr} ^ 0x80000000) - 0x80000000)"


class _Emitter:
    """Python source for one block, instruction by instruction.

    *loop* says the block ends in a branch back to its start (see
    :func:`_compile`), and *guards* are the guarded base registers (see
    :func:`_guards`). *first* is a loop's first emission: every exit of
    a pass also writes back the registers and adds the hits of the
    passes before it."""

    def __init__(self, length: int, loop: bool = False,
                 guards: Optional[Dict[int, Tuple[int, int, int]]] = None,
                 first: Optional["_Emitter"] = None) -> None:
        self.length = length
        self.loop = loop
        self.guards = guards or {}
        self.body: List[str] = []
        self.indent = ""
        self.used = set()
        self.written = set()
        #: registers written anywhere in the loop, by an earlier pass
        self.passed = first.written if first is not None else set()
        self.memory = first is not None and first.memory
        #: some store is followed by a self-modification check
        self.stores = False
        #: register -> (base register, constant) while the register
        #: holds the base's block-entry value plus the constant
        self.tracked = {r: (r, 0) for r in range(32)}
        #: (op, base register, constant) of each lw/sw through a
        #: tracked register
        self.accesses: List[Tuple[int, int, int]] = []

    def reg(self, index: int) -> str:
        """The local holding register *index*, loaded at block entry."""
        self.used.add(index)
        return f"r{index}"

    def set(self, index: int, expr: str) -> None:
        if index != isa.REG_ZERO:
            self.used.add(index)
            self.written.add(index)
            self.tracked.pop(index, None)
            self.line(f"r{index} = {expr}")

    def line(self, text: str) -> None:
        self.body.append(self.indent + text)

    @contextmanager
    def nested(self) -> Iterator[None]:
        """Lines emitted inside are one level deeper."""
        self.indent += "    "
        yield
        self.indent = self.indent[:-4]

    def unguard(self, indent: str = "") -> None:
        """After a call into ``space``: no guard holds any more."""
        if self.guards:
            self.line(indent + " = ".join(f"p{r}" for r in
                                          sorted(self.guards)) + " = None")

    def writeback(self, indent: str) -> List[str]:
        return [f"{indent}regs[{r}] = r{r}"
                for r in sorted(self.written | self.passed)]

    def count(self, index: int) -> str:
        """The instructions retired by *index* instructions of this
        pass: in a loop, ``n`` counts the passes before it."""
        if not self.loop:
            return str(index)
        return f"n + {index}" if index else "n"

    def retire(self, indent: str, count: int, next_pc: str) -> List[str]:
        """Lines that retire *count* instructions of this pass and set
        the PC."""
        total = self.count(count)
        return self.writeback(indent) + [
            f"{indent}cpu.pc = {next_pc}",
            f"{indent}cpu.instructions_executed += {total}",
            f"{indent}space.tlb_hits += {total}"
            + (" + h" if self.memory else ""),
            f"{indent}cpu.decode_hits += {total}",
        ]


def _emit(out: _Emitter, i: int, word: int) -> None:
    """Append the source of instruction *i* (*word*) to *out*."""
    op = word >> 26
    rs = (word >> 21) & 31
    rt = (word >> 16) & 31
    last = i == out.length - 1
    here = f"pc + {4 * i}" if i else "pc"
    after = f"(pc + {4 * i + 4}) & {_MASK}"
    if op == isa.OP_SPECIAL:
        _emit_special(out, i, word, here, after)
        return
    if op == isa.OP_REGIMM or op in (isa.OP_BEQ, isa.OP_BNE, isa.OP_BLEZ,
                                     isa.OP_BGTZ):
        simm = _sext16(word)
        if op == isa.OP_REGIMM:
            cond = (f"{_signed(out.reg(rs))} < 0" if rt == isa.RT_BLTZ
                    else f"{_signed(out.reg(rs))} >= 0")
        elif op == isa.OP_BEQ:
            cond = f"{out.reg(rs)} == {out.reg(rt)}"
        elif op == isa.OP_BNE:
            cond = f"{out.reg(rs)} != {out.reg(rt)}"
        elif op == isa.OP_BLEZ:
            cond = f"{_signed(out.reg(rs))} <= 0"
        else:
            cond = f"{_signed(out.reg(rs))} > 0"
        target = f"(pc + {4 * i + 4 + (simm << 2)}) & {_MASK}"
        if not last:
            # a side exit of a loop block (or of a prefix of one)
            out.line(f"if {cond}:")
            for text in out.retire("    ", i + 1, target):
                out.line(text)
            out.line("    return")
        elif out.loop:
            # The back edge: run another pass where Cpu.execute would
            # dispatch this block again, while the budget left covers a
            # pass and the page still maps this frame with its code.
            out.line(f"n += {out.length}")
            out.line(f"if {cond}:")
            out.line(f"    left -= {out.length}")
            out.line(f"    if left >= {out.length} and decode and "
                     "tlb_get(vpn) is entry:")
            out.line("        continue")
            out.line("    npc = pc")
            out.line("else:")
            out.line(f"    npc = {after}")
            out.line("break")
        else:
            out.line(f"npc = {target} if {cond} else {after}")
        return
    if op in (isa.OP_J, isa.OP_JAL):
        if op == isa.OP_JAL:
            out.set(isa.REG_RA, after)
        out.line(f"npc = ((pc + {4 * i + 4}) & 0xF0000000) | "
                 f"{(word & 0x3FFFFFF) << 2}")
        return
    imm = word & 0xFFFF
    simm = _sext16(word)
    if op == isa.OP_ADDI:
        tracked = out.tracked.get(rs)
        out.set(rt, f"({out.reg(rs)} + {simm}) & {_MASK}")
        if tracked is not None and rt != isa.REG_ZERO:
            out.tracked[rt] = (tracked[0], tracked[1] + simm)
    elif op == isa.OP_SLTI:
        out.set(rt, f"1 if {_signed(out.reg(rs))} < {simm} else 0")
    elif op == isa.OP_SLTIU:
        out.set(rt, f"1 if {out.reg(rs)} < {simm & _MASK} else 0")
    elif op == isa.OP_ANDI:
        out.set(rt, f"{out.reg(rs)} & {imm}")
    elif op == isa.OP_ORI:
        out.set(rt, f"{out.reg(rs)} | {imm}")
    elif op == isa.OP_XORI:
        out.set(rt, f"{out.reg(rs)} ^ {imm}")
    elif op == isa.OP_LUI:
        out.set(rt, str((imm << 16) & _MASK))
    else:
        _emit_memory(out, i, op, rs, rt, simm, last)


def _sext16(word: int) -> int:
    return ((word & 0xFFFF) ^ 0x8000) - 0x8000


def _emit_special(out: _Emitter, i: int, word: int, here: str,
                  after: str) -> None:
    rs = (word >> 21) & 31
    rt = (word >> 16) & 31
    rd = (word >> 11) & 31
    shamt = (word >> 6) & 31
    funct = word & 0x3F
    if funct in (isa.FN_JR, isa.FN_JALR):
        out.line(f"i = {i}")
        out.line(f"npc = {out.reg(rs)}")
        out.line("if npc & 3: raise AlignmentError(npc, 4)")
        if funct == isa.FN_JALR:
            out.set(rd, after)
        return
    if funct == isa.FN_SYSCALL or funct == isa.FN_BREAK:
        trap = "SyscallTrap" if funct == isa.FN_SYSCALL else "BreakTrap"
        out.line(f"i = {i}")
        out.line(f"raise {trap}({here})")
        return
    b = out.reg(rt)
    a = f"r{rs}" if funct in _SHIFT_IMM_FUNCTS else out.reg(rs)
    if funct == isa.FN_DIV or funct == isa.FN_REM:
        out.line(f"i = {i}")
        out.line(f"if {b} == 0: raise ArithmeticTrap({here})")
        out.line(f"x = {_signed(a)}")
        out.line(f"y = {_signed(b)}")
        if funct == isa.FN_DIV:
            out.set(rd, f"int(x / y) & {_MASK}")
        else:
            out.set(rd, f"(x - int(x / y) * y) & {_MASK}")
        return
    expr = {
        isa.FN_ADD: f"({a} + {b}) & {_MASK}",
        isa.FN_SUB: f"({a} - {b}) & {_MASK}",
        isa.FN_AND: f"{a} & {b}",
        isa.FN_OR: f"{a} | {b}",
        isa.FN_XOR: f"{a} ^ {b}",
        isa.FN_NOR: f"~({a} | {b}) & {_MASK}",
        isa.FN_SLT: f"1 if {_signed(a)} < {_signed(b)} else 0",
        isa.FN_SLTU: f"1 if {a} < {b} else 0",
        # The low 32 bits of a product are the same signed or unsigned.
        isa.FN_MUL: f"({a} * {b}) & {_MASK}",
        isa.FN_SLL: f"({b} << {shamt}) & {_MASK}",
        isa.FN_SRL: f"{b} >> {shamt}",
        isa.FN_SRA: f"({_signed(b)} >> {shamt}) & {_MASK}",
        isa.FN_SLLV: f"({b} << ({a} & 31)) & {_MASK}",
        isa.FN_SRLV: f"{b} >> ({a} & 31)",
        isa.FN_SRAV: f"({_signed(b)} >> ({a} & 31)) & {_MASK}",
    }[funct]
    out.set(rd, expr)


def _emit_memory(out: _Emitter, i: int, op: int, rs: int, rt: int,
                 simm: int, last: bool) -> None:
    out.memory = True
    guard = None
    if (op == isa.OP_LW or op == isa.OP_SW) and rs in out.tracked:
        base, constant = out.tracked[rs]
        constant += simm
        out.accesses.append((op, base, constant))
        guard = out.guards.get(base)
    if guard is None:
        _emit_unguarded(out, i, op, rs, rt, simm, last)
        return
    # While p{base} is set, this word is aligned and on its page, the
    # entry allows the access and the frame holds no code.
    low = guard[0]
    offset = f"o{base} + {constant - low}" if constant != low else f"o{base}"
    out.line(f"if p{base} is not None:")
    with out.nested():
        out.line("h += 1")
        if op == isa.OP_LW:
            out.set(rt, f"unpack_from(p{base}, {offset})[0]")
        else:
            out.line(f"pack_into(p{base}, {offset}, {out.reg(rt)})")
    out.line("else:")
    with out.nested():
        _emit_unguarded(out, i, op, rs, rt, simm, last)


def _emit_unguarded(out: _Emitter, i: int, op: int, rs: int, rt: int,
                    simm: int, last: bool) -> None:
    out.line(f"i = {i}")
    out.line(f"a = ({out.reg(rs)} + {simm}) & {_MASK}")
    if op == isa.OP_LW or op == isa.OP_SW:
        out.line("if a & 3: raise AlignmentError(a, 4)")
        out.line(f"e = tlb_get(a >> {PAGE_SHIFT})")
    elif op in (isa.OP_LH, isa.OP_LHU, isa.OP_SH):
        out.line("if a & 1: raise AlignmentError(a, 2)")
    if op == isa.OP_LW:
        out.line(f"if e is not None and e[1] & {PROT_READ}:")
        out.line("    h += 1")
        out.line(f"    v = unpack_from(e[0], a & {_PAGE_MASK})[0]")
        out.line("else:")
        out.line("    v = space.load_word(a)")
        out.unguard("    ")
        out.set(rt, "v")
        return
    if op in (isa.OP_LH, isa.OP_LHU):
        out.line("v = space.load_half(a)")
        out.unguard()
        out.set(rt, "((v ^ 0x8000) - 0x8000) & 0xFFFFFFFF"
                if op == isa.OP_LH else "v")
        return
    if op in (isa.OP_LB, isa.OP_LBU):
        out.line("v = space.load_byte(a)")
        out.unguard()
        out.set(rt, "((v ^ 0x80) - 0x80) & 0xFFFFFFFF"
                if op == isa.OP_LB else "v")
        return
    value = out.reg(rt)
    if op == isa.OP_SW:
        out.line(f"if e is not None and e[1] & {PROT_WRITE}:")
        out.line("    h += 1")
        out.line("    f = e[2]")
        out.line("    if f.decode: f.drop_code(space.smp)")
        out.line(f"    pack_into(e[0], a & {_PAGE_MASK}, {value})")
        out.line("else:")
        out.line(f"    space.store_word(a, {value})")
        out.unguard("    ")
    elif op == isa.OP_SH:
        out.line(f"space.write_bytes(a, ({value} & 0xFFFF)"
                 ".to_bytes(2, 'little'))")
        out.unguard()
    else:
        out.line(f"space.write_bytes(a, bytes(({value} & 0xFF,)))")
        out.unguard()
    if not last:
        # The store may have rewritten or remapped this very page.
        out.stores = True
        out.line("if not decode or tlb_get(vpn) is not entry:")
        for text in out.retire("    ", i + 1, f"pc + {4 * i + 4}"):
            out.line(text)
        out.line("    return")


def _guards(accesses: List[Tuple[int, int, int]]
            ) -> Dict[int, Tuple[int, int, int]]:
    """``base -> (lowest constant, span, protections)`` for each base
    register whose tracked *accesses* can share one guard: their
    constants agree modulo 4 and span less than a page. The protections
    are those every access through the base needs."""
    uses: Dict[int, List[Tuple[int, int]]] = {}
    for op, base, constant in accesses:
        uses.setdefault(base, []).append((op, constant))
    guards = {}
    for base, accesses_of in uses.items():
        constants = [constant for _op, constant in accesses_of]
        low = min(constants)
        span = max(constants) - low
        if span > PAGE_SIZE - 4 or any((c - low) & 3 for c in constants):
            continue
        ops = {op for op, _constant in accesses_of}
        guards[base] = (low, span,
                        (PROT_READ if isa.OP_LW in ops else 0)
                        | (PROT_WRITE if isa.OP_SW in ops else 0))
    return guards


def _compile(words: Tuple[int, ...]) -> BlockFunction:
    """The block function of *words*. A block whose last word is a
    conditional branch back to its start is a loop: its function runs
    passes while ``left``, the budget it is given, covers another one."""
    from repro.hw.cpu import ArithmeticTrap, BreakTrap, SyscallTrap

    length = len(words)
    loop = _loops(words[-1], length - 1)
    # The first pass finds the tracked accesses and the registers the
    # block writes; the second emits the block with a guard for each
    # base register that can have one and, in a loop, exits that cover
    # the passes before them.
    out = _Emitter(length, loop)
    for i, word in enumerate(words):
        _emit(out, i, word)
    guards = _guards(out.accesses)
    if guards or loop:
        out = _Emitter(length, loop, guards, out if loop else None)
        for i, word in enumerate(words):
            _emit(out, i, word)
        out.used.update(guards)
    if not _ends_block(words[-1]):
        out.line(f"npc = (pc + {4 * length}) & {_MASK}")
    head = ["def block(cpu, space, entry, pc, left=0):", "    regs = cpu.regs"]
    if out.memory or loop:
        head.append("    tlb_get = space.tlb.get")
    if out.memory:
        head.append("    h = 0")
    if out.stores or loop:
        head += ["    decode = entry[2].decode",
                 f"    vpn = pc >> {PAGE_SHIFT}"]
    head += [f"    r{r} = regs[{r}]" for r in sorted(out.used)]
    prologue = []
    for r, (low, span, prot) in sorted(guards.items()):
        prologue += [
            f"a = (r{r} + {low}) & {_MASK}",
            f"e = tlb_get(a >> {PAGE_SHIFT}) if not a & 3 and "
            f"a & {_PAGE_MASK} <= {PAGE_SIZE - 4 - span} else None",
            f"p{r} = e[0] if e is not None and e[1] & {prot} == {prot} "
            "and not e[2].decode else None",
            f"o{r} = a & {_PAGE_MASK}",
        ]
    if loop:
        # Every pass guards afresh: the base registers have moved.
        head += ["    n = 0", "    i = 0", "    try:", "        while True:"]
        body = [f"            {line}" for line in prologue + out.body]
    else:
        head += [f"    {line}" for line in prologue]
        head += ["    i = 0", "    try:"]
        body = [f"        {line}" for line in out.body]
    fetched = "n + i" if loop else "i"
    fail = ["    except BaseException:"]
    fail += out.writeback("        ")
    fail += [
        "        cpu.pc = pc + 4 * i",
        f"        cpu.instructions_executed += {fetched}",
        f"        space.tlb_hits += {fetched} + 1"
        + (" + h" if out.memory else ""),
        f"        cpu.decode_hits += {fetched} + 1",
        "        raise",
    ]
    tail = out.retire("    ", 0 if loop else length, "npc")
    source = "\n".join(head + body + fail + tail) + "\n"
    namespace = {
        "AlignmentError": AlignmentError,
        "ArithmeticTrap": ArithmeticTrap,
        "BreakTrap": BreakTrap,
        "SyscallTrap": SyscallTrap,
        "unpack_from": _WORD.unpack_from,
        "pack_into": _WORD.pack_into,
    }
    exec(compile(source, f"<block {words[0]:08x}+{length}>", "exec"),
         namespace)
    return namespace["block"]
