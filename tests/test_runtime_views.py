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

    @pytest.mark.parametrize("store", ["store_u32", "store_i32",
                                       "store_u16", "store_u8"])
    @pytest.mark.parametrize("value", ["x", 1.5, None, b"\x01"])
    def test_store_refuses_a_non_int(self, mem, store, value):
        """A scalar store of a non-int value is refused with a typed
        error before it charges or writes anything, not with a raw
        TypeError after its charge."""
        mem.store_u32(BASE, 0x01020304)
        cycles = mem.kernel.clock.cycles
        with pytest.raises(SimulationError, match=f"{store} expects an int"):
            getattr(mem, store)(BASE, value)
        assert mem.kernel.clock.cycles == cycles
        assert mem.load_u32(BASE) == 0x01020304

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

    @pytest.mark.parametrize("value, stored, loaded", [
        (0xFFFFFFFF, 0xFFFFFFFF, -1),
        (1 << 31, 0x80000000, -(1 << 31)),
        (-(1 << 31), 0x80000000, -(1 << 31)),
        ((1 << 31) - 1, 0x7FFFFFFF, (1 << 31) - 1),
        (-7, 0xFFFFFFF9, -7),
        ((1 << 32) + 5, 5, 5),
    ])
    def test_i32_wraps_like_u32(self, mem, value, stored, loaded):
        """store_i32 keeps the low 32 bits, as store_u32 does, instead
        of escaping as a raw struct.error past either end."""
        mem.store_i32(BASE, value)
        assert mem.load_u32(BASE) == stored
        assert mem.load_i32(BASE) == loaded

    @pytest.mark.parametrize("max_length", [0, -1, -6])
    def test_cstring_bound_must_be_positive(self, mem, max_length):
        """A bound below 1 has no room for the NUL; the slice used to
        go negative and write past it."""
        mem.store_bytes(BASE, b"\xAA" * 8)
        with pytest.raises(SimulationError, match="max_length"):
            mem.store_cstring(BASE, "abcdef", max_length)
        assert mem.load_bytes(BASE, 8) == b"\xAA" * 8

    def test_cstring_bound_of_one_is_the_nul(self, mem):
        mem.store_bytes(BASE, b"\xAA\xAA")
        mem.store_cstring(BASE, "abcdef", 1)
        assert mem.load_bytes(BASE, 2) == b"\x00\xAA"

    def test_non_latin1_text_is_typed(self, mem):
        with pytest.raises(SimulationError, match="latin-1"):
            mem.store_cstring(BASE, "\u20ac")

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

    @pytest.mark.parametrize("value", ["abcd", [1, 2, 3, 4], 1234])
    def test_bytes_field_rejects_non_bytes(self, mem, value):
        """A value of the right length that is not bytes is refused
        with a typed error, not a raw TypeError, and charges nothing."""
        view = StructDef("b", [("payload", "bytes:4")]).view(mem, BASE)
        cycles = mem.kernel.clock.cycles
        with pytest.raises(SimulationError, match="4 bytes"):
            view.set("payload", value)
        assert mem.kernel.clock.cycles == cycles

    def test_cstr_field_rejects_non_latin1(self, mem):
        view = self.NODE.view(mem, BASE)
        with pytest.raises(SimulationError, match="latin-1"):
            view.set("name", "\u20ac")

    @pytest.mark.parametrize("access", [
        lambda view: view.get("nope"),
        lambda view: view.set("nope", 1),
        lambda view: view.field_address("nope"),
        lambda view: view.update(count=7, nope=1),
        lambda view: view.get_many("count", "nope"),
    ], ids=["get", "set", "field_address", "update", "get_many"])
    def test_unknown_field_is_typed(self, mem, access):
        """An unknown field name is a SimulationError naming the record,
        raised before any field of the call is charged or written."""
        view = self.NODE.view(mem, BASE)
        view.update(next=0, flags=0, count=3, value=0, name="")
        image = mem.load_bytes(BASE, 20)
        cycles = mem.kernel.clock.cycles
        with pytest.raises(SimulationError, match="'node' has no field"):
            access(view)
        assert mem.kernel.clock.cycles == cycles
        assert mem.load_bytes(BASE, 20) == image

    @pytest.mark.parametrize("field, value", [
        ("next", "x"), ("next", 1.5), ("flags", None), ("count", b"\x01"),
        ("value", "-9"), ("name", 5), ("name", b"abc"),
    ])
    def test_wrong_value_type_is_typed(self, mem, field, value):
        """A value of the wrong type is refused with a SimulationError
        before the store charges anything, not with a raw TypeError
        after it."""
        view = self.NODE.view(mem, BASE)
        view.update(next=1, flags=2, count=3, value=4, name="abc")
        image = mem.load_bytes(BASE, 20)
        cycles = mem.kernel.clock.cycles
        with pytest.raises(SimulationError, match=f"field {field!r}"):
            view.set(field, value)
        assert mem.kernel.clock.cycles == cycles
        assert mem.load_bytes(BASE, 20) == image

    def test_bool_is_an_int_value(self, mem):
        view = self.NODE.view(mem, BASE)
        view.set("flags", True)
        assert view.get("flags") == 1

    def test_get_many_and_update(self, mem):
        view = self.NODE.view(mem, BASE)
        view.update(name="abc", value=-9, next=0x20001000, count=500,
                    flags=3)
        assert view.get_many("value", "name", "value", "flags") == \
            [-9, "abc", -9, 3]
        assert view.get_many() == []
        assert view.as_dict() == {"next": 0x20001000, "flags": 3,
                                  "count": 500, "value": -9, "name": "abc"}

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
