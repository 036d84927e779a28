"""Differential gate for the native memory fast paths.

``AddressSpace.read_bytes`` and ``write_bytes`` copy a one-page user
access straight out of or into the TLB'd frame, ``Mem`` calls the
address space directly and enters the kernel's fault loop only after a
fault, aligned ``Mem.load_u32``/``store_u32`` run the TLB-hit branch of
``load_word``/``store_word`` inline, ``Mem.load_cstring`` scans a TLB'd
page with one ``find`` and charges it in one sum, ``StructDef``
compiles each field once, and ``StructView.get_many``/
``update``/``as_dict`` access a group of fields with one page check
and one merged charge per cost category. All of them must leave the
simulation exactly as the reference paths do: the page walk, every
access through ``Kernel.run_with_faults`` and a fresh lambda, one
``load_u8`` and one ``charge`` per string byte, the per-access
string dispatch of field types and one ``get``/``set`` per field.

Each scenario runs twice on identically booted machines. The reference
run patches ``AddressSpace.readable_page`` and ``writable_page`` to
decline every page, which sends every read and write down the page walk
and every string through the per-byte loop, puts the ``Mem`` access
methods of :class:`RefMem` (the fault loop makes every attempt) in place
of the fast ones, and reads struct fields through :func:`ref_get` (or,
for the whole-record accessors, ``get``/``set`` one field at a time).
The two runs must agree on every value and exception, every clock total
(``cycles``, ``by_category``, ``elapsed``, ``core_cycles``), every TLB
counter and every trace event.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager, nullcontext
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import boot
from repro.bench.workloads import make_shell
from repro.errors import KernelError, SimulationError
from repro.hw import isa
from repro.hw.cpu import BreakTrap, Cpu
from repro.inject import FaultKind, FaultPlan, Plane, install_injector
from repro.kernel.kernel import MAX_FAULT_RETRIES
from repro.kernel.signals import Signal
from repro.kernel.timing import Clock
from repro.net import Cluster
from repro.runtime.libshared import runtime_for
from repro.runtime.views import Mem, StructDef
from repro.sanitize import sanitizing
from repro.trace import tracer as _trace
from repro.trace.tracer import tracing
from repro.vm.address_space import (
    MAP_SHARED, PROT_NONE, PROT_READ, PROT_RW, PROT_RWX, PROT_WRITE,
    AddressSpace,
)
from repro.vm.faults import PageFaultError
from repro.vm.layout import PAGE_SIZE
from repro.vm.pages import MemoryObject

BASE = 0x20000000
SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# the reference paths
# ----------------------------------------------------------------------

_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")


def ref_run_with_faults(kernel, proc, operation):
    """``Kernel.run_with_faults`` before the hand-off: the loop makes
    every attempt itself."""
    for _ in range(MAX_FAULT_RETRIES):
        try:
            return operation()
        except PageFaultError as fault:
            if not kernel.deliver_fault(proc, fault):
                raise
    raise KernelError(
        f"fault loop: {MAX_FAULT_RETRIES} consecutive faults at the "
        f"same access"
    )


class RefMem:
    """The ``Mem`` access methods before the fast paths: every access
    goes through the fault loop with a fresh lambda, and the word
    methods through ``load_word``/``store_word``."""

    def load_u32(self, address):
        self.kernel.clock.charge("user_memory", self.SCALAR_ACCESS_CYCLES)
        return ref_run_with_faults(
            self.kernel, self.proc,
            lambda: self.proc.address_space.load_word(address))

    def store_u32(self, address, value):
        self.kernel.clock.charge("user_memory", self.SCALAR_ACCESS_CYCLES)
        ref_run_with_faults(
            self.kernel, self.proc,
            lambda: self.proc.address_space.store_word(address, value))

    def load_i32(self, address):
        return _I32.unpack(_U32.pack(self.load_u32(address)))[0]

    def store_i32(self, address, value):
        self.store_u32(address, _U32.unpack(_I32.pack(value))[0])

    def load_bytes(self, address, length):
        self.kernel.clock.copy(length)
        return ref_run_with_faults(
            self.kernel, self.proc,
            lambda: self.proc.address_space.read_bytes(address, length))

    def store_bytes(self, address, data):
        self.kernel.clock.copy(len(data))
        ref_run_with_faults(
            self.kernel, self.proc,
            lambda: self.proc.address_space.write_bytes(address, data))


@contextmanager
def paths(reference: bool):
    """Inside the block, *reference* runs the page walk for every read
    and write, the per-byte string loop, and the :class:`RefMem`
    access methods."""
    if not reference:
        yield
        return
    methods = {name: value for name, value in vars(RefMem).items()
               if not name.startswith("_")}
    with mock.patch.object(AddressSpace, "readable_page",
                           lambda self, address: None), \
            mock.patch.object(AddressSpace, "writable_page",
                              lambda self, address: None), \
            mock.patch.multiple(Mem, **methods):
        yield


def ref_field(field_type: str):
    """(size, alignment) of a field type, parsed as the string
    dispatch did before fields were compiled."""
    scalars = {"u8": 1, "u16": 2, "u32": 4, "i32": 4, "ptr": 4}
    if field_type in scalars:
        return scalars[field_type], scalars[field_type]
    return int(field_type.split(":")[1]), 1


def ref_offsets(fields):
    offsets, offset = {}, 0
    for name, field_type in fields:
        size, align = ref_field(field_type)
        offset = (offset + align - 1) & ~(align - 1)
        offsets[name] = offset
        offset += size
    return offsets, (offset + 3) & ~3


def ref_get(view, field):
    """The per-access string dispatch ``StructView.get`` replaced."""
    field_type = dict(view.struct.fields)[field]
    address = view.field_address(field)
    mem = view.mem
    if field_type in ("u32", "ptr"):
        return mem.load_u32(address)
    if field_type == "i32":
        return mem.load_i32(address)
    if field_type == "u16":
        return mem.load_u16(address)
    if field_type == "u8":
        return mem.load_u8(address)
    if field_type.startswith("cstr:"):
        return mem.load_cstring(address, int(field_type.split(":")[1]))
    return mem.load_bytes(address, int(field_type.split(":")[1]))


def ref_set(view, field, value):
    """The per-access string dispatch ``StructView.set`` replaced."""
    field_type = dict(view.struct.fields)[field]
    address = view.field_address(field)
    mem = view.mem
    if field_type in ("u32", "ptr"):
        mem.store_u32(address, value)
    elif field_type == "i32":
        mem.store_i32(address, value)
    elif field_type == "u16":
        mem.store_u16(address, value)
    elif field_type == "u8":
        mem.store_u8(address, value)
    elif field_type.startswith("cstr:"):
        length = int(field_type.split(":")[1])
        padded = value.encode("latin-1")[: length - 1]
        mem.store_bytes(address, padded + b"\x00" * (length - len(padded)))
    else:
        mem.store_bytes(address, value)


def get(view, field, reference):
    return ref_get(view, field) if reference else view.get(field)


def put(view, field, value, reference):
    if reference:
        ref_set(view, field, value)
    else:
        view.set(field, value)


def attempt(operation):
    """The value of *operation*, or its page fault's identity."""
    try:
        return ("ok", operation())
    except PageFaultError as fault:
        return ("fault", fault.address, fault.access, fault.present)


def clock_state(clock: Clock):
    return (clock.cycles, dict(clock.by_category), clock.elapsed,
            dict(clock.core_cycles))


def tlb_state(space: AddressSpace):
    return (space.tlb_hits, space.tlb_misses, space.tlb_fills,
            space.tlb_invalidations, space.tlb_flushes, sorted(space.tlb))


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

FIELD_TYPE = st.one_of(
    st.sampled_from(["u8", "u16", "u32", "i32", "ptr"]),
    st.builds("cstr:{}".format, st.integers(1, 24)),
    st.builds("bytes:{}".format, st.integers(1, 24)),
)
LAYOUT = st.lists(FIELD_TYPE, min_size=1, max_size=8).map(
    lambda types: [(f"f{i}", t) for i, t in enumerate(types)])
#: raw memory: mostly printable, with NULs often enough that strings
#: both end early and run to their cut-off
RAW_BYTE = st.one_of(st.just(0), st.integers(1, 255))
TEXT = st.text(st.characters(min_codepoint=1, max_codepoint=255),
               max_size=30)


def value_for(field_type: str):
    if field_type == "u8":
        return st.integers(0, 0xFF)
    if field_type == "u16":
        return st.integers(0, 0xFFFF)
    if field_type in ("u32", "ptr"):
        return st.integers(0, 0xFFFFFFFF)
    if field_type == "i32":
        return st.integers(-2**31, 2**31 - 1)
    size = int(field_type.split(":")[1])
    if field_type.startswith("cstr:"):
        return TEXT
    return st.binary(min_size=size, max_size=size)


# ----------------------------------------------------------------------
# one kernel: layouts, contents, page ends, cut-offs
# ----------------------------------------------------------------------

@st.composite
def record_case(draw):
    fields = draw(LAYOUT)
    size = ref_offsets(fields)[1]
    # Place the record so that it straddles the first page boundary or
    # ends exactly at it.
    before = draw(st.integers(0, size + 4))
    raw = draw(st.lists(RAW_BYTE, min_size=size + 8, max_size=size + 8))
    order = draw(st.permutations([name for name, _ in fields]))
    writes = draw(st.lists(
        st.sampled_from(fields).flatmap(
            lambda f: st.tuples(st.just(f[0]), value_for(f[1]))),
        max_size=4))
    strings = draw(st.lists(
        st.tuples(st.integers(-24, 24), st.integers(0, 40)), max_size=4))
    flush = draw(st.booleans())
    return fields, before, bytes(raw), order, writes, strings, flush


def run_record_case(case, reference):
    fields, before, raw, order, writes, strings, flush = case
    with paths(reference):
        kernel = boot().kernel
        shell = make_shell(kernel)
        space = shell.address_space
        space.map(BASE, 3 * PAGE_SIZE, prot=PROT_RW)
        mem = Mem(kernel, shell)
        address = BASE + PAGE_SIZE - before
        with tracing(kernel) as tracer:
            mem.store_bytes(address - 4, raw)
            if flush:
                space.tlb_flush("test")
            view = StructDef("rec", fields).view(mem, address)
            results = [get(view, name, reference) for name in order]
            for name, value in writes:
                put(view, name, value, reference)
                results.append(get(view, name, reference))
            for delta, max_length in strings:
                results.append(mem.load_cstring(
                    BASE + PAGE_SIZE + delta, max_length))
            events = tracer.events()
        return (results, clock_state(kernel.clock), tlb_state(space),
                events)


class TestStructLayouts:
    @settings(max_examples=60, **SETTINGS)
    @given(record_case())
    def test_fast_paths_match_reference(self, case):
        assert run_record_case(case, False) == run_record_case(case, True)

    @settings(max_examples=40, **SETTINGS)
    @given(LAYOUT)
    def test_compiled_layout_matches_string_parse(self, fields):
        struct_def = StructDef("rec", fields)
        offsets, size = ref_offsets(fields)
        assert struct_def.offsets == offsets
        assert struct_def.size == size
        assert {name: struct_def.layout[name][:2] for name, _ in fields} \
            == {name: (offsets[name], ref_field(t)[0]) for name, t in fields}

# ----------------------------------------------------------------------
# faults: a segment the handler maps, a PROT_NONE page
# ----------------------------------------------------------------------

def run_segment_case(texts, offset, reference):
    """A reader whose first touch of a public segment faults and maps
    it; its strings straddle the segment's first page boundary."""
    with paths(reference):
        kernel = boot().kernel
        writer = make_shell(kernel, "writer")
        base = runtime_for(kernel, writer).create_segment(
            "/shared/diff.seg", 2 * PAGE_SIZE)
        start = base + PAGE_SIZE - offset
        Mem(kernel, writer).store_bytes(
            start, b"".join(t.encode("latin-1") + b"\x00" for t in texts))
        reader = make_shell(kernel, "reader")
        runtime_for(kernel, reader)
        mem = Mem(kernel, reader)
        with tracing(kernel) as tracer:
            results = []
            at = start
            for text in texts:
                results.append(attempt(lambda: mem.load_cstring(at)))
                at += len(text) + 1
            events = tracer.events()
        return (results, clock_state(kernel.clock),
                tlb_state(reader.address_space), events)


class TestFaults:
    @settings(max_examples=15, **SETTINGS)
    @given(st.lists(TEXT, min_size=1, max_size=4), st.integers(0, 40))
    def test_segment_mapped_by_fault_handler(self, texts, offset):
        fast = run_segment_case(texts, offset, False)
        assert fast == run_segment_case(texts, offset, True)
        assert [r[1] for r in fast[0]] == texts

    @pytest.mark.parametrize("prot", [PROT_NONE, PROT_WRITE])
    @pytest.mark.parametrize("run_in", [0, 1, 7, 4095])
    def test_protected_page_faults_at_the_same_byte(self, run_in, prot):
        """A string running into an unreadable page faults on that
        page's first byte. A write-only page is in the TLB (the store
        filled it) but without PROT_READ."""
        outcomes = []
        for reference in (False, True):
            with paths(reference):
                kernel = boot().kernel
                shell = make_shell(kernel)
                space = shell.address_space
                space.map(BASE, 2 * PAGE_SIZE, prot=PROT_RW)
                mem = Mem(kernel, shell)
                mem.store_bytes(BASE + PAGE_SIZE - run_in, b"a" * run_in)
                space.mprotect(BASE + PAGE_SIZE, PAGE_SIZE, prot)
                if prot & PROT_WRITE:
                    mem.store_bytes(BASE + PAGE_SIZE, b"b")
                with tracing(kernel) as tracer:
                    result = attempt(lambda: mem.load_cstring(
                        BASE + PAGE_SIZE - run_in))
                    events = tracer.events()
                outcomes.append((result, clock_state(kernel.clock),
                                 tlb_state(space), events))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0][:2] == ("fault", BASE + PAGE_SIZE)


# ----------------------------------------------------------------------
# copy-on-write after fork
# ----------------------------------------------------------------------

def run_cow_case(text, offset, reference):
    with paths(reference):
        kernel = boot().kernel
        parent = make_shell(kernel, "parent")
        parent.address_space.map(BASE, 2 * PAGE_SIZE, prot=PROT_RW)
        at = BASE + PAGE_SIZE - offset
        parent_mem = Mem(kernel, parent)
        parent_mem.store_cstring(at, text)
        parent_mem.load_cstring(at)
        # Native bodies cannot fork, so the child process adopts a fork
        # of the parent's address space (private pages become COW).
        child = make_shell(kernel, "child")
        child.address_space = parent.address_space.fork(
            child.address_space.name)
        child_mem = Mem(kernel, child)
        results = [child_mem.load_cstring(at), parent_mem.load_cstring(at)]
        child_mem.store_cstring(at, text[::-1])  # breaks COW
        results += [child_mem.load_cstring(at), parent_mem.load_cstring(at)]
        return (results, clock_state(kernel.clock),
                tlb_state(parent.address_space),
                tlb_state(child.address_space))


class TestCopyOnWrite:
    @settings(max_examples=15, **SETTINGS)
    @given(TEXT, st.integers(0, 40))
    def test_cow_pages_after_fork(self, text, offset):
        fast = run_cow_case(text, offset, False)
        assert fast == run_cow_case(text, offset, True)
        assert fast[0] == [text, text, text[::-1], text]


# ----------------------------------------------------------------------
# a page invalidated by another node's coherence upgrade
# ----------------------------------------------------------------------

SEG = "/shared/diffnet.seg"


def run_cluster_case(first, second, offset, reference):
    seen = []

    def write(text):
        def body(kernel, proc):
            runtime = runtime_for(kernel, proc)
            if not kernel.vfs.exists(SEG, proc.uid):
                runtime.create_segment(SEG, 2 * PAGE_SIZE)
            base = runtime.segment_base(SEG)
            Mem(kernel, proc).store_cstring(base + PAGE_SIZE - offset, text)
            yield
            return 0
        return body

    def read(kernel, proc):
        runtime = runtime_for(kernel, proc)
        mem = Mem(kernel, proc)
        at = runtime.segment_base(SEG) + PAGE_SIZE - offset
        seen.append(mem.load_cstring(at))
        seen.append(tlb_state(proc.address_space))
        yield
        return 0

    with paths(reference):
        with tracing():
            cluster = Cluster(2, seed=7)
            cluster.spawn(0, "w0", write(first))
            cluster.run()
            cluster.spawn(1, "r1", read)
            cluster.run()
            # Node 0 upgrades; node 1's copy of the page is invalidated.
            cluster.spawn(0, "w0b", write(second))
            cluster.run()
            cluster.spawn(1, "r1b", read)
            cluster.run()
            events = _trace.TRACER.events()
        clocks = [clock_state(m.kernel.clock) for m in cluster.machines]
        stats = cluster.coherence_stats()
        cluster.shutdown()
    return seen, clocks, stats, events


class TestCoherence:
    @settings(max_examples=6, **SETTINGS)
    @given(TEXT, TEXT, st.integers(0, 40))
    def test_page_invalidated_by_remote_upgrade(self, first, second,
                                                offset):
        fast = run_cluster_case(first, second, offset, False)
        assert fast == run_cluster_case(first, second, offset, True)
        assert fast[0][0::2] == [first, second]
        assert sum(s["invalidations"] for s in fast[2]) >= 1


# ----------------------------------------------------------------------
# an armed injector and an armed sanitizer see every access
# ----------------------------------------------------------------------

class TestArmedPlanes:
    @settings(max_examples=15, **SETTINGS)
    @given(st.lists(TEXT, min_size=1, max_size=4),
           st.integers(0, 2**16), st.floats(0.0, 0.2))
    def test_injector_sees_the_same_sites(self, texts, seed, probability):
        def run(reference):
            with paths(reference):
                kernel = boot().kernel
                shell = make_shell(kernel)
                shell.address_space.map(BASE, 2 * PAGE_SIZE, prot=PROT_RW)
                mem = Mem(kernel, shell)
                at = BASE + PAGE_SIZE - 8
                for text in texts:
                    mem.store_cstring(at, text)
                injector = install_injector(kernel, [FaultPlan(
                    Plane.VMFAULT, FaultKind.SPURIOUS,
                    probability=probability)], seed=seed)
                results = [attempt(lambda: mem.load_cstring(at))
                           for _ in texts]
                results.append(attempt(lambda: mem.load_bytes(at, 4)))
                stats = injector.stats
                return (results, clock_state(kernel.clock),
                        tlb_state(shell.address_space),
                        (stats.checked, stats.matched, stats.triggered,
                         dict(stats.by_kind)))

        assert run(False) == run(True)

    @settings(max_examples=10, **SETTINGS)
    @given(st.lists(TEXT, min_size=1, max_size=4), st.integers(0, 40))
    def test_sanitizer_sees_every_read(self, texts, offset):
        def run(reference):
            with paths(reference), sanitizing() as sanitizer:
                result = run_segment_case(texts, offset, reference)
                stats = sanitizer.stats
                return result, tuple(vars(stats).values())

        fast = run(False)
        assert fast == run(True)
        assert fast[1][0] > 0  # the sanitizer checked accesses


# ----------------------------------------------------------------------
# scalar and byte accesses: TLB-hit words, one-page writes, fault hand-off
# ----------------------------------------------------------------------

#: an access offset around the first page boundary: aligned and
#: unaligned words, and words and spans that straddle the boundary
NEAR = st.integers(-8, 8)
#: one step on a mapping: a Mem access (method, offset, argument), a
#: TLB flush or an mprotect of the second page
SCALAR_OP = st.one_of(
    st.tuples(st.sampled_from(["load_u32", "load_i32", "load_u16",
                               "load_u8"]), NEAR),
    st.tuples(st.just("store_u32"), NEAR, st.integers(0, 0xFFFFFFFF)),
    st.tuples(st.just("store_i32"), NEAR,
              st.integers(-2**31, 2**31 - 1)),
    st.tuples(st.just("store_u16"), NEAR, st.integers(0, 0xFFFF)),
    st.tuples(st.just("store_u8"), NEAR, st.integers(0, 0xFF)),
    st.tuples(st.just("load_bytes"), NEAR, st.integers(0, 12)),
    st.tuples(st.just("store_bytes"), NEAR, st.binary(max_size=12)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("protect"),
              st.sampled_from([PROT_NONE, PROT_READ, PROT_RW])),
)
SCALAR_OPS = st.lists(SCALAR_OP, min_size=1, max_size=24)


def run_op(mem, op, boundary):
    """Apply *op* to *mem* around the page boundary at *boundary*."""
    name = op[0]
    space = mem.proc.address_space
    if name == "flush":
        return space.tlb_flush("test")
    if name == "protect":
        space.mprotect(boundary, PAGE_SIZE, op[1])
        return None
    method = getattr(mem, name)
    return attempt(lambda: method(boundary + op[1], *op[2:]))


def run_scalar_case(ops, reference, plan=None, tlb=None):
    """*ops* on a two-page private mapping; *plan* (seed, probability)
    arms a spurious-VMFAULT injector first, and *tlb* overrides
    ``REPRO_TLB``."""
    with paths(reference):
        kernel = boot().kernel
        shell = make_shell(kernel)
        space = shell.address_space
        if tlb is not None:
            space.set_tlb_enabled(tlb)
        space.map(BASE, 2 * PAGE_SIZE, prot=PROT_RW)
        mem = Mem(kernel, shell)
        mem.store_bytes(BASE + PAGE_SIZE - 16, bytes(range(1, 33)))
        injector = None
        if plan is not None:
            injector = install_injector(kernel, [FaultPlan(
                Plane.VMFAULT, FaultKind.SPURIOUS,
                probability=plan[1])], seed=plan[0])
        with tracing(kernel) as tracer:
            results = [run_op(mem, op, BASE + PAGE_SIZE) for op in ops]
            results.append(attempt(
                lambda: mem.load_bytes(BASE + PAGE_SIZE - 16, 32)))
            events = tracer.events()
        stats = None
        if injector is not None:
            stats = (injector.stats.checked, injector.stats.matched,
                     injector.stats.triggered)
        return (results, clock_state(kernel.clock), tlb_state(space),
                events, stats)


class TestScalarAccess:
    @settings(max_examples=80, **SETTINGS)
    @given(SCALAR_OPS)
    def test_words_and_spans_match_reference(self, ops):
        fast = run_scalar_case(ops, False)
        assert fast == run_scalar_case(ops, True)

    def test_aligned_hits_count_in_the_tlb(self):
        """Aligned TLB-hit words count one hit each on both paths; an
        unaligned word walks and counts nothing."""
        ops = [("store_u32", 0, 7), ("load_u32", 0), ("store_i32", 4, -2),
               ("load_i32", 4), ("load_u32", -2), ("store_u32", 2, 9)]
        fast = run_scalar_case(ops, False, tlb=True)
        assert fast == run_scalar_case(ops, True, tlb=True)
        assert [r[1] for r in fast[0][1:5:2]] == [7, -2]
        assert fast[2][0] == 4  # tlb_hits

    @settings(max_examples=40, **SETTINGS)
    @given(SCALAR_OPS, st.integers(0, 2**16), st.floats(0.0, 0.3))
    def test_injector_sees_the_same_sites(self, ops, seed, probability):
        plan = (seed, probability)
        fast = run_scalar_case(ops, False, plan)
        assert fast == run_scalar_case(ops, True, plan)


def run_cow_scalar_case(ops, reference):
    """A child whose private pages are COW twins of its parent's loads
    them first (they enter its TLB read-only), stores into both, then
    runs *ops* as parent or child; both read everything back."""
    with paths(reference):
        kernel = boot().kernel
        parent = make_shell(kernel, "parent")
        parent.address_space.map(BASE, 2 * PAGE_SIZE, prot=PROT_RW)
        boundary = BASE + PAGE_SIZE
        parent_mem = Mem(kernel, parent)
        parent_mem.store_bytes(boundary - 16, bytes(range(1, 33)))
        child = make_shell(kernel, "child")
        child.address_space = parent.address_space.fork(
            child.address_space.name)
        mems = {"parent": parent_mem, "child": Mem(kernel, child)}
        child_mem = mems["child"]
        results = [child_mem.load_u32(boundary - 8),
                   child_mem.load_u32(boundary)]
        child_mem.store_u32(boundary, 0xC0FFEE)
        child_mem.store_bytes(boundary - 8, b"child!")
        results += [run_op(mems[who], op, boundary) for who, op in ops]
        results += [mem.load_bytes(boundary - 16, 32)
                    for mem in mems.values()]
        return (results, clock_state(kernel.clock),
                tlb_state(parent.address_space),
                tlb_state(child.address_space))


class TestScalarCopyOnWrite:
    @settings(max_examples=30, **SETTINGS)
    @given(st.lists(st.tuples(st.sampled_from(["parent", "child"]),
                              SCALAR_OP.filter(lambda op: op[0] not in
                                               ("protect", "flush"))),
                    max_size=12))
    def test_stores_break_cow_on_both_paths(self, ops):
        fast = run_cow_scalar_case(ops, False)
        assert fast == run_cow_scalar_case(ops, True)

    def test_child_stores_never_reach_the_parent(self):
        fast = run_cow_scalar_case([], False)
        assert fast == run_cow_scalar_case([], True)
        parent_view, child_view = fast[0][-2:]
        assert parent_view == bytes(range(1, 33))
        assert child_view[8:14] == b"child!"
        assert child_view[16:20] == struct.pack("<I", 0xC0FFEE)


# -- a store into a frame holding decoded code, on four cores ----------

CODE = 0x30000000


def program(value):
    """``ori $2, $0, value`` then ``break``."""
    return struct.pack("<II", isa.encode_i(isa.OP_ORI, rt=2, imm=value),
                       isa.encode_r(isa.FN_BREAK))


def run_code(cpu):
    """Run the program at CODE; the value it leaves in $2."""
    cpu.pc = CODE
    with pytest.raises(BreakTrap):
        cpu.run(16)
    return cpu.regs[2]


#: each patches the ori's immediate (the word's low half) to *value*
CODE_STORES = {
    "store_u32": lambda mem, value: mem.store_u32(
        CODE, _U32.unpack(program(value)[:4])[0]),
    "store_i32": lambda mem, value: mem.store_i32(
        CODE, _I32.unpack(program(value)[:4])[0]),
    "store_u16": lambda mem, value: mem.store_u16(CODE, value),
    "store_u8": lambda mem, value: mem.store_u8(CODE, value),
    "store_bytes": lambda mem, value: mem.store_bytes(CODE,
                                                      program(value)),
    "store_unaligned": lambda mem, value: mem.store_bytes(
        CODE + 1, program(value)[1:3]),
    # an unaligned word goes through store_word to write_bytes; these
    # bytes leave both instructions as they are
    "store_u32_unaligned": lambda mem, value: mem.store_u32(
        CODE + 2, _U32.unpack(program(0x11)[2:6])[0]),
    # a whole-record update of both instructions
    "update": lambda mem, value: StructDef(
        "code", [("ori", "u32"), ("brk", "u32")]).view(mem, CODE).update(
            **dict(zip(("ori", "brk"), struct.unpack("<II",
                                                     program(value))))),
}


def run_decode_case(store, current_core, reference):
    """Three processes on other cores execute from a shared RWX page;
    a fourth, whose TLB holds the page writable, patches the code."""
    with paths(reference):
        kernel = boot(ncores=4).kernel
        procs = [make_shell(kernel, f"p{index}") for index in range(4)]
        code = MemoryObject(kernel.physmem, PAGE_SIZE, "code")
        for proc in procs:
            proc.address_space.set_tlb_enabled(True)  # also under REPRO_TLB=0
            proc.address_space.map(CODE, PAGE_SIZE, memobj=code,
                                   prot=PROT_RWX, flags=MAP_SHARED,
                                   name="code")
        writer, executors = procs[0], procs[1:]
        mem = Mem(kernel, writer)
        mem.store_bytes(CODE, program(0x11))
        cpus = [Cpu(proc.address_space) for proc in executors]
        with tracing(kernel) as tracer:
            # The second run of each hits the TLB and decodes.
            before = [run_code(cpu) for cpu in cpus for _ in range(2)]
            frame = writer.address_space.tlb[CODE // PAGE_SIZE][2]
            decoded = (sorted(frame.decode), sorted(frame.decode_cores))
            kernel.clock.current_core = current_core
            try:
                CODE_STORES[store](mem, 0x2A5)
            finally:
                kernel.clock.current_core = None
            dropped = (sorted(frame.decode), sorted(frame.decode_cores))
            after = [run_code(cpu) for cpu in cpus]
            events = tracer.events()
        return (before, decoded, dropped, after,
                kernel.smp.stats()["decode_shootdowns"],
                [proc.core for proc in procs], clock_state(kernel.clock),
                [tlb_state(proc.address_space) for proc in procs], events)


class TestDecodedCode:
    @pytest.mark.parametrize("current_core", [None, 0, 1])
    @pytest.mark.parametrize("store", sorted(CODE_STORES))
    def test_store_drops_decoded_code_on_both_paths(self, store,
                                                    current_core):
        fast = run_decode_case(store, current_core, False)
        assert fast == run_decode_case(store, current_core, True)
        before, decoded, dropped, after, shootdowns, cores = fast[:6]
        assert before == [0x11] * 6
        assert decoded[0] and set(decoded[1]) == set(cores[1:])
        assert dropped == ([], [])
        expected = {"store_u8": 0xA5, "store_unaligned": 0x0211,
                    "store_u32_unaligned": 0x11}
        assert after == [expected.get(store, 0x2A5)] * 3
        assert sum(shootdowns.values()) == len(
            [core for core in cores[1:] if core != current_core])


# -- a segment the fault handler maps, bare and sanitized --------------

def run_segment_scalar_case(ops, reference):
    """The writer creates a public segment; *ops* run as writer or as a
    reader, whose first touch faults and is mapped by the handler."""
    with paths(reference):
        kernel = boot().kernel
        writer = make_shell(kernel, "writer")
        base = runtime_for(kernel, writer).create_segment(
            "/shared/diffscalar.seg", 2 * PAGE_SIZE)
        mems = {"writer": Mem(kernel, writer)}
        mems["writer"].store_bytes(base + PAGE_SIZE - 16,
                                   bytes(range(1, 33)))
        reader = make_shell(kernel, "reader")
        runtime_for(kernel, reader)
        mems["reader"] = Mem(kernel, reader)
        with tracing(kernel) as tracer:
            results = [run_op(mems[who], op, base + PAGE_SIZE)
                       for who, op in ops]
            results.append(mems["reader"].load_bytes(
                base + PAGE_SIZE - 16, 32))
            events = tracer.events()
        return (results, clock_state(kernel.clock),
                tlb_state(writer.address_space),
                tlb_state(reader.address_space), events)


SEGMENT_OPS = st.lists(
    st.tuples(st.sampled_from(["writer", "reader"]),
              SCALAR_OP.filter(lambda op: op[0] != "protect")),
    min_size=1, max_size=12)


class TestSegmentScalars:
    @settings(max_examples=20, **SETTINGS)
    @given(SEGMENT_OPS)
    def test_segment_mapped_by_fault_handler(self, ops):
        fast = run_segment_scalar_case(ops, False)
        assert fast == run_segment_scalar_case(ops, True)

    @settings(max_examples=15, **SETTINGS)
    @given(SEGMENT_OPS)
    def test_sanitizer_sees_every_access(self, ops):
        def run(reference):
            with paths(reference), sanitizing() as sanitizer:
                result = run_segment_scalar_case(ops, reference)
                stats = sanitizer.stats
                return result, tuple(vars(stats).values())

        fast = run(False)
        assert fast == run(True)
        assert fast[1][0] > 0  # the sanitizer checked accesses


# -- the fault hand-off: deliveries, handlers and the retry bound ------

FAULTING = {
    "load_u32": lambda mem: mem.load_u32(BASE + 4),
    "store_u32": lambda mem: mem.store_u32(BASE + 4, 5),
    "load_i32": lambda mem: mem.load_i32(BASE + 4),
    "store_i32": lambda mem: mem.store_i32(BASE + 4, -5),
    "load_u32_unaligned": lambda mem: mem.load_u32(BASE + 2),
    "load_u16": lambda mem: mem.load_u16(BASE + 4),
    "store_u16": lambda mem: mem.store_u16(BASE + 4, 5),
    "load_u8": lambda mem: mem.load_u8(BASE + 4),
    "store_u8": lambda mem: mem.store_u8(BASE + 4, 5),
    "load_bytes": lambda mem: mem.load_bytes(BASE + 4, 8),
    "store_bytes": lambda mem: mem.store_bytes(BASE + 4, b"payload"),
    "load_cstring": lambda mem: mem.load_cstring(BASE + 4),
    "store_cstring": lambda mem: mem.store_cstring(BASE + 4, "text"),
}


def run_handler_case(access, resolve_after, reference):
    """A SIGSEGV handler that claims every fault it sees and maps the
    page only at delivery *resolve_after* (never, when None)."""
    with paths(reference):
        kernel = boot().kernel
        shell = make_shell(kernel)
        mem = Mem(kernel, shell)
        deliveries = []

        def handler(proc, info):
            deliveries.append((info.address, info.access, info.present))
            if len(deliveries) == resolve_after:
                proc.address_space.map(BASE, PAGE_SIZE, prot=PROT_RW)
            return True

        shell.push_handler(Signal.SIGSEGV, handler)
        with tracing(kernel) as tracer:
            try:
                outcome = ("ok", FAULTING[access](mem))
            except KernelError as error:
                outcome = ("kernel", str(error))
            events = tracer.events()
        return (outcome, deliveries, clock_state(kernel.clock),
                tlb_state(shell.address_space), events)


class TestFaultHandOff:
    @pytest.mark.parametrize("resolve_after", [None, 1, 3])
    @pytest.mark.parametrize("access", sorted(FAULTING))
    def test_same_deliveries_and_bound(self, access, resolve_after):
        fast = run_handler_case(access, resolve_after, False)
        assert fast == run_handler_case(access, resolve_after, True)
        outcome, deliveries = fast[:2]
        if resolve_after is None:
            assert outcome == (
                "kernel", f"fault loop: {MAX_FAULT_RETRIES} consecutive "
                          f"faults at the same access")
            assert len(deliveries) == MAX_FAULT_RETRIES
        else:
            assert outcome[0] == "ok"
            assert len(deliveries) == resolve_after

    def test_unresolved_fault_is_the_one_raised(self):
        """With no handler the caught fault itself propagates."""
        kernel = boot().kernel
        mem = Mem(kernel, make_shell(kernel))
        with pytest.raises(PageFaultError) as caught:
            mem.store_u32(BASE + 8, 1)
        assert (caught.value.address, caught.value.present) == \
            (BASE + 8, False)


# ----------------------------------------------------------------------
# whole-record access: get_many, update and as_dict against get and set
# ----------------------------------------------------------------------

def invalid_for(field_type: str):
    """Values the field's ``set`` refuses with a SimulationError."""
    if field_type.startswith("cstr:"):
        return st.sampled_from([5, b"abc", None, "\u20ac"])
    if field_type.startswith("bytes:"):
        size = int(field_type.split(":")[1])
        return st.sampled_from(["x" * size, 7, b"\x00" * (size + 1)])
    return st.sampled_from(["x", 1.5, None, b"\x01"])


def update_item(field):
    """(name, value) for one field of an update; one in eight refused."""
    name, field_type = field
    return st.tuples(st.just(name), st.sampled_from(
        (False,) * 7 + (True,)).flatmap(
            lambda refused: invalid_for(field_type) if refused
            else value_for(field_type)))


def group_op(fields):
    names = [name for name, _ in fields]
    return st.one_of(
        st.tuples(st.just("read"), st.lists(st.sampled_from(names),
                                            min_size=1, max_size=8)),
        st.tuples(st.just("write"), st.permutations(fields).flatmap(
            lambda order: st.integers(0, len(order)).flatmap(
                lambda count: st.tuples(*map(update_item,
                                             order[:count]))))),
        st.tuples(st.just("dict")),
        st.tuples(st.just("flush")),
    )


@st.composite
def group_case(draw):
    fields = draw(LAYOUT)
    size = ref_offsets(fields)[1]
    # the record's distance before the first page boundary: inside the
    # first page, inside the second, or straddling the boundary, and
    # now and then unaligned
    place = draw(st.sampled_from(["first", "first", "second",
                                  "straddle"]))
    if place == "first":
        before = size + 4 * draw(st.integers(0, 2))
    elif place == "second":
        before = -4 * draw(st.integers(0, 2))
    else:
        before = 4 * draw(st.integers(0, size // 4))
    before += draw(st.sampled_from((0,) * 9 + (1, 2, 3)))
    raw = draw(st.lists(RAW_BYTE, min_size=size + 16,
                        max_size=size + 16))
    ops = draw(st.lists(group_op(fields), min_size=1, max_size=6))
    fresh = draw(st.booleans())
    core = draw(st.none() | st.integers(0, 3))
    return fields, before, bytes(raw), ops, fresh, core


def outcome(operation):
    """The value of *operation*, or the identity of what it raised."""
    try:
        return ("ok", operation())
    except PageFaultError as fault:
        return ("fault", fault.address, fault.access, fault.present)
    except (SimulationError, KernelError) as error:
        return ("error", type(error).__name__, str(error))


def run_group_op(view, op, reference):
    """One op on *view*: the reference runs it field by field through
    ``get``/``set``, the fast run through ``get_many``/``update``/
    ``as_dict``."""
    kind = op[0]
    if kind == "flush":
        return view.mem.proc.address_space.tlb_flush("test")
    if kind == "read":
        if reference:
            return outcome(lambda: [view.get(name) for name in op[1]])
        return outcome(lambda: view.get_many(*op[1]))
    if kind == "dict":
        if reference:
            return outcome(lambda: {name: view.get(name)
                                    for name in view.struct.names})
        return outcome(view.as_dict)

    def write():
        if reference:
            for name, value in op[1]:
                view.set(name, value)
        else:
            view.update(**dict(op[1]))

    return outcome(write)


def ordered_clock_state(clock: Clock):
    """:func:`clock_state` with the insertion order of the categories."""
    return (clock.cycles, list(clock.by_category.items()), clock.elapsed,
            sorted(clock.core_cycles.items()))


def run_group_case(case, env, reference, plan=None):
    """*case*'s ops on one record in environment *env*: ``plain``,
    ``tlb_off``, ``injector`` (*plan* is its (seed, probability)),
    ``segment`` (a reader whose first touch faults and is mapped by
    the handler), ``sanitizer`` (the same, sanitized) or ``cow`` (a
    child whose private pages are COW twins of its parent's)."""
    fields, before, raw, ops, fresh, core = case
    size = ref_offsets(fields)[1]
    planes = sanitizing() if env == "sanitizer" else nullcontext()
    with paths(reference), planes as sanitizer:
        kernel = boot().kernel
        if env in ("segment", "sanitizer"):
            writer = make_shell(kernel, "writer")
            boundary = runtime_for(kernel, writer).create_segment(
                "/shared/group.seg", 2 * PAGE_SIZE) + PAGE_SIZE
            Mem(kernel, writer).store_bytes(boundary - before - 8, raw)
            proc = make_shell(kernel, "reader")
            runtime_for(kernel, proc)
        else:
            proc = make_shell(kernel, "owner")
            if env == "tlb_off":
                proc.address_space.set_tlb_enabled(False)
            proc.address_space.map(BASE, 2 * PAGE_SIZE, prot=PROT_RW)
            boundary = BASE + PAGE_SIZE
            Mem(kernel, proc).store_bytes(boundary - before - 8, raw)
            if env == "cow":
                child = make_shell(kernel, "child")
                child.address_space = proc.address_space.fork(
                    child.address_space.name)
                proc = child
        space = proc.address_space
        mem = Mem(kernel, proc)
        injector = None
        if env == "injector":
            injector = install_injector(kernel, [FaultPlan(
                Plane.VMFAULT, FaultKind.SPURIOUS,
                probability=plan[1])], seed=plan[0])
        view = StructDef("rec", fields).view(mem, boundary - before)
        clock = kernel.clock
        with tracing(kernel) as tracer:
            if fresh:
                clock.by_category.clear()
            clock.current_core = core
            try:
                results = [run_group_op(view, op, reference) for op in ops]
            finally:
                clock.current_core = None
            results.append(outcome(
                lambda: mem.load_bytes(boundary - before - 8, size + 16)))
            events = tracer.events()
        stats = None
        if injector is not None:
            stats = (injector.stats.checked, injector.stats.matched,
                     injector.stats.triggered)
        if sanitizer is not None:
            stats = tuple(vars(sanitizer.stats).values())
        return (results, ordered_clock_state(clock), tlb_state(space),
                events, stats)


def same_group_run(case, env, plan=None):
    fast = run_group_case(case, env, False, plan)
    assert fast == run_group_case(case, env, True, plan)
    return fast


#: every field type, with a word field between two strings and a gap
#: of alignment padding before each word
MIXED = StructDef("mixed", [
    ("name", "cstr:9"), ("count", "u32"), ("flag", "u8"),
    ("port", "u16"), ("load", "i32"), ("blob", "bytes:5"),
    ("tty", "cstr:6"), ("next", "ptr"),
])
MIXED_VALUES = dict(name="alpha", count=7, flag=1, port=513, load=-3,
                    blob=b"\x01\x02\x03\x04\x05", tty="tty9",
                    next=0x20001000)


class TestRecordAccess:
    @settings(max_examples=60, **SETTINGS)
    @given(group_case())
    def test_matches_per_field_path(self, case):
        same_group_run(case, "plain")

    @settings(max_examples=15, **SETTINGS)
    @given(group_case())
    def test_with_the_tlb_off(self, case):
        same_group_run(case, "tlb_off")

    @settings(max_examples=15, **SETTINGS)
    @given(group_case(), st.integers(0, 2**16), st.floats(0.0, 0.3))
    def test_injector_sees_the_same_sites(self, case, seed, probability):
        same_group_run(case, "injector", (seed, probability))

    @settings(max_examples=15, **SETTINGS)
    @given(group_case())
    def test_segment_mapped_by_fault_handler(self, case):
        same_group_run(case, "segment")

    @settings(max_examples=10, **SETTINGS)
    @given(group_case())
    def test_sanitizer_sees_every_access(self, case):
        same_group_run(case, "sanitizer")

    @settings(max_examples=15, **SETTINGS)
    @given(group_case())
    def test_cow_pages_after_fork(self, case):
        same_group_run(case, "cow")

    def test_fast_path_runs_and_counts_one_hit_per_word(self):
        """An eligible group takes the fast path (no per-field ``get``)
        and counts the TLB hits of its word fields only; the copies
        category, first among the fields, is charged first."""
        kernel = boot().kernel
        shell = make_shell(kernel)
        shell.address_space.set_tlb_enabled(True)  # also under REPRO_TLB=0
        shell.address_space.map(BASE, PAGE_SIZE, prot=PROT_RW)
        mem = Mem(kernel, shell)
        view = MIXED.view(mem, BASE)
        view.update(**MIXED_VALUES)  # fills the TLB
        hits = shell.address_space.tlb_hits
        kernel.clock.by_category.clear()
        with mock.patch.object(type(view), "get",
                               side_effect=AssertionError("per-field")):
            values = view.get_many("tty", "count", "port", "next")
        assert values == ["tty9", 7, 513, 0x20001000]
        assert shell.address_space.tlb_hits == hits + 2
        assert list(kernel.clock.by_category.items()) == [
            ("copies", 5 + 1), ("user_memory", 8)]

    def test_bad_value_mid_update_writes_the_fields_before_it(self):
        """The fields before a refused value are written and charged,
        the rest are not, and the error is the field's own."""
        values = dict(MIXED_VALUES, port="513")
        for reference in (False, True):
            kernel = boot().kernel
            shell = make_shell(kernel)
            shell.address_space.map(BASE, PAGE_SIZE, prot=PROT_RW)
            mem = Mem(kernel, shell)
            view = MIXED.view(mem, BASE)
            view.update(**MIXED_VALUES)
            view.update(name="", count=0, flag=0, port=0, load=0,
                        blob=bytes(5), tty="", next=0)
            with pytest.raises(SimulationError, match="'port'"):
                if reference:
                    for name, value in values.items():
                        view.set(name, value)
                else:
                    view.update(**values)
            assert view.as_dict() == dict(
                MIXED_VALUES, port=0, load=0, blob=bytes(5), tty="",
                next=0)


# ----------------------------------------------------------------------
# the fast path stays off where it must
# ----------------------------------------------------------------------

class TestEligibility:
    def test_read_bytes_fast_path_counts_nothing(self, kernel, shell):
        space = shell.address_space
        space.set_tlb_enabled(True)  # also under REPRO_TLB=0
        space.map(BASE, PAGE_SIZE, prot=PROT_RW)
        space.write_bytes(BASE, struct.pack("<I", 7))
        before = tlb_state(space)
        assert space.read_bytes(BASE, 4) == struct.pack("<I", 7)
        assert tlb_state(space) == before

    def test_readable_page_declines_armed_and_missing(self, kernel, shell):
        space = shell.address_space
        space.set_tlb_enabled(True)
        space.map(BASE, PAGE_SIZE, prot=PROT_RW)
        assert space.readable_page(BASE) is None  # not in the TLB yet
        space.write_bytes(BASE, b"x")
        assert space.readable_page(BASE) is not None
        space.sanitizer = object()
        assert space.readable_page(BASE) is None
        space.sanitizer = None
        space.injector = object()
        assert space.readable_page(BASE) is None

    def test_write_bytes_fast_path_counts_nothing(self, kernel, shell):
        space = shell.address_space
        space.set_tlb_enabled(True)
        space.map(BASE, PAGE_SIZE, prot=PROT_RW)
        space.write_bytes(BASE, b"x")  # the walk fills the TLB
        before = tlb_state(space)
        space.write_bytes(BASE + 4, b"abcd")
        assert tlb_state(space) == before
        assert space.read_bytes(BASE, 8) == b"x\x00\x00\x00abcd"

    def test_writable_page_declines_armed_cow_and_read_only(self, kernel,
                                                            shell):
        space = shell.address_space
        space.set_tlb_enabled(True)
        space.map(BASE, 2 * PAGE_SIZE, prot=PROT_RW)
        assert space.writable_page(BASE) is None  # not in the TLB yet
        space.write_bytes(BASE, b"x")
        assert space.writable_page(BASE) is not None
        space.sanitizer = object()
        assert space.writable_page(BASE) is None
        space.sanitizer = None
        space.injector = object()
        assert space.writable_page(BASE) is None
        space.injector = None
        space.mprotect(BASE + PAGE_SIZE, PAGE_SIZE, PROT_READ)
        space.read_bytes(BASE + PAGE_SIZE, 1)
        assert space.readable_page(BASE + PAGE_SIZE) is not None
        assert space.writable_page(BASE + PAGE_SIZE) is None
        child = space.fork("child")
        child.read_bytes(BASE, 1)  # a COW page, cached read-only
        assert child.readable_page(BASE) is not None
        assert child.writable_page(BASE) is None
