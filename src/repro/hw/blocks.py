"""Superblock translation: straight-line code as one Python function.

A *block* is the maximal run of consecutive instructions on one page,
up to :data:`BLOCK_CAP`. It ends at a branch, jump, ``jr``/``jalr``,
``syscall`` or ``break`` (that instruction included), before an invalid
word, or at the page end. :func:`build` is the one scan that finds it.
It reads decoded instructions from the frame's cache
(:attr:`repro.vm.pages.Frame.decode`) and decodes the offsets missing
there from the frame's bytes into the block's ``fresh`` list, so code
runs as a block from its first visit. :meth:`Cpu.execute
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

A block function ``block(cpu, space, entry, pc)`` is exact against the
single-step reference:

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

_BRANCH_OPS = frozenset({isa.OP_REGIMM, isa.OP_J, isa.OP_JAL, isa.OP_BEQ,
                         isa.OP_BNE, isa.OP_BLEZ, isa.OP_BGTZ})
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


def _ends_block(word: int) -> bool:
    op = word >> 26
    if op == isa.OP_SPECIAL:
        return word & 0x3F in _END_FUNCTS
    return op in _BRANCH_OPS


class Block:
    """One block of a frame: its words and, once it first runs, its
    compiled function. ``run(cpu, space, entry, pc)`` translates on the
    first call, so a block that never runs is never compiled.

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

    def _translate(self, cpu, space, entry, pc: int) -> None:
        self.run = translate(self.words)
        self.run(cpu, space, entry, pc)

    def prefix(self, length: int) -> "Block":
        """The block of this block's first *length* words (cached). It
        ends without a branch, so it falls through to ``pc + 4 * length``."""
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
    unchanged."""
    words: List[int] = []
    fresh: List[Tuple[int, tuple]] = []
    while offset < PAGE_SIZE and len(words) < BLOCK_CAP:
        decoded = decode.get(offset)
        cold = decoded is None
        if cold:
            word = _WORD.unpack_from(data, offset)[0]
            decoded = (word, (word >> 26) & 0x3F, (word >> 21) & 31,
                       (word >> 16) & 31)
        word = decoded[0]
        op = decoded[1]
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
        if ends:
            break
        offset += 4
    return Block(tuple(words), tuple(fresh)) if words else None


def translate(words: Tuple[int, ...]) -> BlockFunction:
    """The compiled block function for *words* (memoized)."""
    run = _memo.get(words)
    if run is None:
        if len(_memo) >= MEMO_CAP:
            del _memo[next(iter(_memo))]
        run = _memo[words] = _compile(words)
    return run


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------

def _signed(expr: str) -> str:
    return f"(({expr} ^ 0x80000000) - 0x80000000)"


class _Emitter:
    """Python source for one block, instruction by instruction.

    *guards* are the guarded base registers (see :func:`_guards`)."""

    def __init__(self, length: int,
                 guards: Optional[Dict[int, Tuple[int, int, int]]] = None
                 ) -> None:
        self.length = length
        self.guards = guards or {}
        self.body: List[str] = []
        self.indent = ""
        self.used = set()
        self.written = set()
        self.memory = False
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
        return [f"{indent}regs[{r}] = r{r}" for r in sorted(self.written)]

    def retire(self, indent: str, count: int, next_pc: str) -> List[str]:
        """Lines that retire *count* instructions and set the PC."""
        return self.writeback(indent) + [
            f"{indent}cpu.pc = {next_pc}",
            f"{indent}cpu.instructions_executed += {count}",
            f"{indent}space.tlb_hits += {count}"
            + (" + h" if self.memory else ""),
            f"{indent}cpu.decode_hits += {count}",
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
    from repro.hw.cpu import ArithmeticTrap, BreakTrap, SyscallTrap

    length = len(words)
    # The first pass finds the tracked accesses, the second emits the
    # block with a guard for each base register that can have one.
    out = _Emitter(length)
    for i, word in enumerate(words):
        _emit(out, i, word)
    guards = _guards(out.accesses)
    if guards:
        out = _Emitter(length, guards)
        for i, word in enumerate(words):
            _emit(out, i, word)
        out.used.update(guards)
    if not _ends_block(words[-1]):
        out.line(f"npc = (pc + {4 * length}) & {_MASK}")
    head = ["def block(cpu, space, entry, pc):", "    regs = cpu.regs"]
    if out.memory:
        head += ["    tlb_get = space.tlb.get", "    h = 0"]
    if out.stores:
        head += ["    decode = entry[2].decode",
                 f"    vpn = pc >> {PAGE_SHIFT}"]
    head += [f"    r{r} = regs[{r}]" for r in sorted(out.used)]
    for r, (low, span, prot) in sorted(guards.items()):
        head += [
            f"    a = (r{r} + {low}) & {_MASK}",
            f"    e = tlb_get(a >> {PAGE_SHIFT}) if not a & 3 and "
            f"a & {_PAGE_MASK} <= {PAGE_SIZE - 4 - span} else None",
            f"    p{r} = e[0] if e is not None and e[1] & {prot} == {prot} "
            "and not e[2].decode else None",
            f"    o{r} = a & {_PAGE_MASK}",
        ]
    head += ["    i = 0", "    try:"]
    body = [f"        {line}" for line in out.body]
    fail = ["    except BaseException:"]
    fail += out.writeback("        ")
    fail += [
        "        cpu.pc = pc + 4 * i",
        "        cpu.instructions_executed += i",
        "        space.tlb_hits += i + 1" + (" + h" if out.memory else ""),
        "        cpu.decode_hits += i + 1",
        "        raise",
    ]
    tail = out.retire("    ", length, "npc")
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
