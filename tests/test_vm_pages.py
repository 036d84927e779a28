"""Tests for physical frames and memory objects."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OutOfMemoryError
from repro.vm.layout import PAGE_SIZE
from repro.vm.pages import Frame, MemoryObject, PhysicalMemory


class TestFrame:
    def test_zero_initialized(self):
        frame = Frame()
        assert bytes(frame.data) == b"\x00" * PAGE_SIZE
        assert frame.refcount == 1

    def test_initializer(self):
        frame = Frame(b"abc")
        assert bytes(frame.data[:4]) == b"abc\x00"

    def test_rejects_oversized_initializer(self):
        with pytest.raises(ValueError):
            Frame(b"x" * (PAGE_SIZE + 1))


class TestPhysicalMemory:
    def test_alloc_accounting(self):
        pm = PhysicalMemory(max_frames=4)
        frames = [pm.alloc() for _ in range(3)]
        assert pm.allocated == 3
        assert pm.peak == 3
        for frame in frames:
            pm.release(frame)
        assert pm.allocated == 0
        assert pm.peak == 3

    def test_exhaustion(self):
        pm = PhysicalMemory(max_frames=2)
        pm.alloc()
        pm.alloc()
        with pytest.raises(OutOfMemoryError):
            pm.alloc()

    def test_retain_release(self):
        pm = PhysicalMemory()
        frame = pm.alloc()
        pm.retain(frame)
        assert frame.refcount == 2
        pm.release(frame)
        assert pm.allocated == 1
        pm.release(frame)
        assert pm.allocated == 0

    def test_over_release_asserts(self):
        pm = PhysicalMemory()
        frame = pm.alloc()
        pm.release(frame)
        with pytest.raises(AssertionError):
            pm.release(frame)

    def test_copy_is_independent(self):
        pm = PhysicalMemory()
        frame = pm.alloc(b"hello")
        clone = pm.copy(frame)
        clone.data[0] = ord("H")
        assert frame.data[0] == ord("h")


class TestMemoryObject:
    def test_read_of_empty_is_empty(self):
        pm = PhysicalMemory()
        mo = MemoryObject(pm)
        assert mo.read(0, 100) == b""

    def test_write_then_read(self):
        pm = PhysicalMemory()
        mo = MemoryObject(pm)
        mo.write(10, b"hello")
        assert mo.size == 15
        assert mo.read(10, 5) == b"hello"
        assert mo.read(0, 15) == b"\x00" * 10 + b"hello"

    def test_read_clamped_to_size(self):
        pm = PhysicalMemory()
        mo = MemoryObject(pm)
        mo.write(0, b"abc")
        assert mo.read(1, 100) == b"bc"
        assert mo.read(3, 100) == b""

    def test_cross_page_write(self):
        pm = PhysicalMemory()
        mo = MemoryObject(pm)
        data = bytes(range(256)) * 40  # > 2 pages
        mo.write(PAGE_SIZE - 100, data)
        assert mo.read(PAGE_SIZE - 100, len(data)) == data
        assert mo.resident_pages >= 3

    def test_sparse_pages_lazy(self):
        pm = PhysicalMemory()
        mo = MemoryObject(pm, size=100 * PAGE_SIZE)
        assert mo.resident_pages == 0
        assert mo.read(50 * PAGE_SIZE, 8) == b"\x00" * 8
        assert mo.resident_pages == 0  # reading allocates nothing
        mo.write(50 * PAGE_SIZE, b"x")
        assert mo.resident_pages == 1

    def test_truncate_shrinks_and_zeroes(self):
        pm = PhysicalMemory()
        mo = MemoryObject(pm)
        mo.write(0, b"A" * (2 * PAGE_SIZE))
        mo.truncate(10)
        assert mo.size == 10
        assert pm.allocated == 1
        mo.truncate(PAGE_SIZE)
        # The old bytes past offset 10 must not reappear.
        assert mo.read(10, 20) == b"\x00" * 20

    def test_truncate_grow(self):
        pm = PhysicalMemory()
        mo = MemoryObject(pm)
        mo.write(0, b"ab")
        mo.truncate(1000)
        assert mo.size == 1000
        assert mo.read(0, 4) == b"ab\x00\x00"

    def test_truncate_negative(self):
        pm = PhysicalMemory()
        with pytest.raises(ValueError):
            MemoryObject(pm).truncate(-1)

    def test_free_releases_frames(self):
        pm = PhysicalMemory()
        mo = MemoryObject(pm)
        mo.write(0, b"x" * (3 * PAGE_SIZE))
        assert pm.allocated == 3
        mo.free()
        assert pm.allocated == 0
        assert mo.size == 0

    def test_snapshot(self):
        pm = PhysicalMemory()
        mo = MemoryObject(pm)
        mo.write(0, b"hello world")
        assert mo.snapshot() == b"hello world"

    @settings(max_examples=30)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=3 * PAGE_SIZE),
                  st.binary(min_size=1, max_size=300)),
        min_size=1, max_size=12,
    ), st.lists(
        # reads inside one page (to its last byte), across pages and
        # over pages never written
        st.tuples(st.integers(min_value=0, max_value=4 * PAGE_SIZE),
                  st.sampled_from((0, 1, 7, 300, PAGE_SIZE - 1, PAGE_SIZE,
                                   2 * PAGE_SIZE + 5))),
        max_size=12,
    ))
    def test_matches_reference_bytearray(self, writes, reads):
        """Property: MemoryObject behaves like a growable bytearray."""
        pm = PhysicalMemory()
        mo = MemoryObject(pm)
        reference = bytearray()
        for offset, data in writes:
            if offset + len(data) > len(reference):
                reference.extend(b"\x00" * (offset + len(data)
                                            - len(reference)))
            reference[offset: offset + len(data)] = data
            mo.write(offset, data)
        assert mo.size == len(reference)
        assert mo.snapshot() == bytes(reference)
        for offset, length in reads:
            assert mo.read(offset, length) \
                == bytes(reference[offset:offset + length])
