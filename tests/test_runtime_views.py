"""Typed views over simulated memory, incl. fault-transparent access."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.runtime.libshared import runtime_for
from repro.runtime.views import Mem, StructDef, iterate_list
from repro.vm.address_space import PROT_RW


@pytest.fixture
def mem(kernel, shell):
    shell.address_space.map(0x20000000, 64 * 1024, prot=PROT_RW)
    return Mem(kernel, shell)


BASE = 0x20000000


class TestScalars:
    def test_u32_roundtrip(self, mem):
        mem.store_u32(BASE, 0xDEADBEEF)
        assert mem.load_u32(BASE) == 0xDEADBEEF

    def test_i32_roundtrip(self, mem):
        mem.store_i32(BASE, -12345)
        assert mem.load_i32(BASE) == -12345
        assert mem.load_u32(BASE) == 0xFFFFCFC7

    def test_u16_u8(self, mem):
        mem.store_u16(BASE, 0xABCD)
        mem.store_u8(BASE + 2, 0x7F)
        assert mem.load_u16(BASE) == 0xABCD
        assert mem.load_u8(BASE + 2) == 0x7F

    def test_bytes(self, mem):
        mem.store_bytes(BASE, b"raw data")
        assert mem.load_bytes(BASE, 8) == b"raw data"

    def test_cstring(self, mem):
        mem.store_cstring(BASE, "hello")
        assert mem.load_cstring(BASE) == "hello"

    def test_cstring_truncation(self, mem):
        mem.store_cstring(BASE, "abcdefgh", max_length=4)
        assert mem.load_cstring(BASE) == "abc"

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_u32_property(self, value):
        # Fixtures don't mix with @given; build a fresh context inline.
        from repro import boot
        from repro.bench.workloads import make_shell

        kernel = boot().kernel
        shell = make_shell(kernel)
        shell.address_space.map(BASE, 4096, prot=PROT_RW)
        mem = Mem(kernel, shell)
        mem.store_u32(BASE + 16, value)
        assert mem.load_u32(BASE + 16) == value


class TestStructDef:
    NODE = StructDef("node", [
        ("next", "ptr"),
        ("flags", "u8"),
        ("count", "u16"),
        ("value", "i32"),
        ("name", "cstr:8"),
    ])

    def test_natural_alignment(self):
        offsets = self.NODE.offsets
        assert offsets["next"] == 0
        assert offsets["flags"] == 4
        assert offsets["count"] == 6   # aligned to 2
        assert offsets["value"] == 8   # aligned to 4
        assert offsets["name"] == 12
        assert self.NODE.size == 20

    def test_get_set(self, mem):
        view = self.NODE.view(mem, BASE)
        view.update(next=0x20001000, flags=3, count=500, value=-9,
                    name="abc")
        assert view.get("next") == 0x20001000
        assert view.get("flags") == 3
        assert view.get("count") == 500
        assert view.get("value") == -9
        assert view.get("name") == "abc"

    def test_as_dict(self, mem):
        view = self.NODE.view(mem, BASE)
        view.update(next=0, flags=0, count=0, value=5, name="n")
        assert view.as_dict()["value"] == 5

    def test_cstr_padded(self, mem):
        view = self.NODE.view(mem, BASE)
        view.set("name", "toolongname")
        assert view.get("name") == "toolong"  # 8 bytes incl NUL

    def test_bytes_field_exact_length(self, mem):
        blob = StructDef("b", [("payload", "bytes:4")])
        view = blob.view(mem, BASE)
        view.set("payload", b"abcd")
        assert view.get("payload") == b"abcd"
        with pytest.raises(SimulationError):
            view.set("payload", b"abc")

    def test_array_item(self, mem):
        for index in range(3):
            self.NODE.array_item(mem, BASE, index).update(
                next=0, flags=0, count=index, value=index * 2, name="x"
            )
        assert self.NODE.array_item(mem, BASE, 2).get("value") == 4

    def test_duplicate_field_rejected(self):
        with pytest.raises(SimulationError):
            StructDef("bad", [("a", "u32"), ("a", "u32")])

    def test_unknown_type_rejected(self):
        with pytest.raises(SimulationError):
            StructDef("bad", [("a", "float")])

    @pytest.mark.parametrize("field_type", [
        "cstr:0", "bytes:0", "cstr:-4", "bytes:-1", "cstr:abc", "cstr:",
        "bytes:", "cstr:4.5",
    ])
    def test_bad_size_rejected(self, field_type):
        """A zero size would put the next field on top of this one
        (``set`` of the string then overwrites it), a negative one
        moves the next field before the record, and a non-integer must
        not escape as a raw ValueError."""
        with pytest.raises(SimulationError, match="size"):
            StructDef("bad", [("tag", field_type), ("count", "u32")])


class TestLinkedLists:
    PAIR = StructDef("pair", [("next", "ptr"), ("value", "u32")])

    def test_iterate(self, mem):
        addresses = [BASE + 0x100 * i for i in range(4)]
        for index, address in enumerate(addresses):
            nxt = addresses[index + 1] if index + 1 < len(addresses) else 0
            self.PAIR.view(mem, address).update(next=nxt, value=index)
        values = [v.get("value")
                  for v in iterate_list(mem, addresses[0], self.PAIR)]
        assert values == [0, 1, 2, 3]

    def test_empty_list(self, mem):
        assert list(iterate_list(mem, 0, self.PAIR)) == []

    def test_cycle_detected(self, mem):
        self.PAIR.view(mem, BASE).update(next=BASE, value=1)
        with pytest.raises(SimulationError):
            list(iterate_list(mem, BASE, self.PAIR, max_nodes=10))


class TestFaultTransparency:
    def test_access_maps_segment_on_fault(self, kernel, shell):
        """Following a pointer into an unmapped shared segment just
        works: SIGSEGV -> handler maps -> access restarts."""
        runtime = runtime_for(kernel, shell)
        base = runtime.create_segment("/shared/auto", 8192)
        mem = Mem(kernel, shell)
        assert not shell.address_space.is_mapped(base)
        mem.store_u32(base, 41)
        assert shell.address_space.is_mapped(base)
        assert mem.load_u32(base) == 41

    def test_unresolvable_fault_propagates(self, kernel, shell):
        runtime_for(kernel, shell)
        mem = Mem(kernel, shell)
        from repro.vm.faults import PageFaultError

        with pytest.raises(PageFaultError):
            mem.load_u32(0x6FFFF000)  # public range, no segment there
