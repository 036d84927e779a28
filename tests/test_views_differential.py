"""Differential gate for the native read fast paths.

``AddressSpace.read_bytes`` copies a one-page user read straight out
of the TLB'd frame, ``Mem.load_cstring`` scans a TLB'd page with one
``find``, ``Clock.charge_many`` merges equal charges, and ``StructDef``
compiles each field once. All four must leave the simulation exactly
as the reference paths do: the page walk, one ``load_u8`` per string
byte, one ``charge`` per byte and the per-access string dispatch of
field types.

Each scenario runs twice on identically booted machines. The reference
run patches ``AddressSpace.readable_page`` to decline every page, which
sends every read down the page walk and every string through the
per-byte loop, and reads struct fields through :func:`ref_get`. The
two runs must agree on every value and exception, every clock total
(``cycles``, ``by_category``, ``elapsed``, ``core_cycles``), every TLB
counter, every trace event and the cycle of every checkpoint-hook call.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import boot
from repro.bench.workloads import make_shell
from repro.inject import FaultKind, FaultPlan, Plane, install_injector
from repro.kernel.timing import Clock
from repro.net import Cluster
from repro.runtime.libshared import runtime_for
from repro.runtime.views import Mem, StructDef
from repro.sanitize import sanitizing
from repro.trace import tracer as _trace
from repro.trace.tracer import tracing
from repro.vm.address_space import (
    PROT_NONE, PROT_RW, PROT_WRITE, AddressSpace,
)
from repro.vm.faults import PageFaultError
from repro.vm.layout import PAGE_SIZE

BASE = 0x20000000
SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# the reference paths
# ----------------------------------------------------------------------

@contextmanager
def paths(reference: bool):
    """Inside the block, *reference* runs the page walk and the per-byte
    string loop for every read: no page is ever readable fast."""
    if not reference:
        yield
        return
    with mock.patch.object(AddressSpace, "readable_page",
                           lambda self, address: None):
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


class CheckpointLog:
    """A checkpoint hook that records the cycle of every call and
    re-arms *every* cycles later, like rr's recorder."""

    def __init__(self, clock: Clock, first: int, every: int) -> None:
        self.every = every
        self.calls = []
        clock.on_checkpoint = self
        clock.checkpoint_at = clock.cycles + first

    def __call__(self, clock: Clock) -> None:
        self.calls.append(clock.cycles)
        clock.checkpoint_at = clock.cycles + self.every


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
# one kernel: layouts, contents, page ends, cut-offs, checkpoints
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
    checkpoint = draw(st.none() | st.tuples(st.integers(0, 60),
                                            st.integers(1, 9)))
    return (fields, before, bytes(raw), order, writes, strings, flush,
            checkpoint)


def run_record_case(case, reference):
    fields, before, raw, order, writes, strings, flush, checkpoint = case
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
            log = CheckpointLog(kernel.clock, *checkpoint) \
                if checkpoint else None
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
                events, log.calls if log else None)


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

    def test_checkpoint_at_every_offset_of_a_string(self):
        """A checkpoint armed at each cycle a 30-byte string read spans
        fires at the same cycle on both paths."""
        for first in range(0, 40):
            results = []
            for reference in (False, True):
                with paths(reference):
                    kernel = boot().kernel
                    shell = make_shell(kernel)
                    shell.address_space.map(BASE, PAGE_SIZE, prot=PROT_RW)
                    mem = Mem(kernel, shell)
                    mem.store_cstring(BASE, "x" * 30)
                    log = CheckpointLog(kernel.clock, first, 1000)
                    text = mem.load_cstring(BASE)
                    results.append((text, log.calls,
                                    clock_state(kernel.clock)))
            assert results[0] == results[1]
            assert results[0][0] == "x" * 30


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
                return result, tuple(getattr(stats, name)
                                     for name in stats.__slots__)

        fast = run(False)
        assert fast == run(True)
        assert fast[1][0] > 0  # the sanitizer checked accesses


# ----------------------------------------------------------------------
# Clock.charge_many is count single charges
# ----------------------------------------------------------------------

class TestChargeMany:
    @settings(max_examples=60, **SETTINGS)
    @given(cost=st.integers(0, 7), count=st.integers(0, 12),
           start=st.integers(0, 50), every=st.integers(1, 9),
           core=st.none() | st.integers(0, 3))
    def test_matches_single_charges_at_every_checkpoint(
            self, cost, count, start, every, core):
        for offset in range(-1, cost * count + 2):
            clocks = []
            for merged in (True, False):
                clock = Clock(ncores=4)
                clock.charge("copies", start)
                clock.current_core = core
                log = CheckpointLog(clock, offset, every)
                if merged:
                    clock.charge_many("copies", cost, count)
                else:
                    for _ in range(count):
                        clock.charge("copies", cost)
                clocks.append((clock_state(clock), log.calls,
                               clock.checkpoint_at))
            assert clocks[0] == clocks[1]

    def test_zero_count_creates_no_category(self):
        clock = Clock()
        clock.charge_many("copies", 4, 0)
        assert clock.by_category == {} and clock.cycles == 0


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
