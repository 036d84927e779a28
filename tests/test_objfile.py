"""Object format, archives, and inspectors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ObjectFormatError
from repro.hw.asm import assemble
from repro.objfile.archive import Archive
from repro.objfile.format import (
    LinkInfo,
    ObjectFile,
    ObjectKind,
    Relocation,
    RelocType,
    SEC_ABS,
    SEC_BSS,
    SEC_DATA,
    SEC_TEXT,
    SEC_UNDEF,
    SectionLayout,
    Symbol,
    SymBinding,
)
from repro.objfile.inspect import nm, objdump


def sample_object(name="sample.o"):
    obj = ObjectFile(name)
    obj.text.extend(b"\x00" * 16)
    obj.data.extend(b"\x01\x02\x03\x04")
    obj.bss_size = 32
    obj.heap_size = 128
    obj.add_symbol(Symbol("fn", SEC_TEXT, 0))
    obj.add_symbol(Symbol("var", SEC_DATA, 0))
    obj.add_symbol(Symbol("local_lbl", SEC_TEXT, 8, SymBinding.LOCAL))
    obj.reference("external")
    obj.relocations.append(
        Relocation(SEC_TEXT, 4, RelocType.JUMP26, "external", 0)
    )
    obj.link_info = LinkInfo([("m.o", "dynamic_public")], ["/shared/lib"])
    obj.entry_symbol = "fn"
    return obj


class TestSerialization:
    def test_roundtrip_identity(self):
        obj = sample_object()
        clone = ObjectFile.from_bytes(obj.to_bytes())
        assert clone.to_bytes() == obj.to_bytes()
        assert clone.name == obj.name
        assert clone.bss_size == 32
        assert clone.heap_size == 128
        assert clone.entry_symbol == "fn"
        assert clone.link_info.dynamic_modules == \
            [("m.o", "dynamic_public")]
        assert clone.link_info.search_path == ["/shared/lib"]
        assert len(clone.relocations) == 1

    def test_layout_survives(self):
        obj = sample_object()
        obj.kind = ObjectKind.EXECUTABLE
        obj.layout["text"] = SectionLayout("text", 0x400000, 16)
        clone = ObjectFile.from_bytes(obj.to_bytes())
        assert clone.kind is ObjectKind.EXECUTABLE
        assert clone.layout["text"].base == 0x400000
        assert clone.layout["text"].end == 0x400010

    def test_bad_magic(self):
        with pytest.raises(ObjectFormatError):
            ObjectFile.from_bytes(b"ELF\x7f" + b"\x00" * 64)

    def test_truncated(self):
        data = sample_object().to_bytes()
        with pytest.raises(ObjectFormatError):
            ObjectFile.from_bytes(data[: len(data) // 2])

    def test_clone_is_deep(self):
        obj = sample_object()
        clone = obj.clone()
        clone.text[0] = 0xFF
        clone.symbols["fn"].value = 99
        assert obj.text[0] == 0
        assert obj.symbols["fn"].value == 0

    @settings(max_examples=25)
    @given(st.binary(max_size=80), st.binary(max_size=80),
           st.integers(min_value=0, max_value=1 << 20),
           st.lists(st.text(
               alphabet=st.characters(min_codepoint=97, max_codepoint=122),
               min_size=1, max_size=10), max_size=5, unique=True))
    def test_roundtrip_property(self, text, data, bss, names):
        obj = ObjectFile("p.o")
        obj.text.extend(text)
        obj.data.extend(data)
        obj.bss_size = bss
        for index, name in enumerate(names):
            obj.add_symbol(Symbol(name, SEC_TEXT, index))
        clone = ObjectFile.from_bytes(obj.to_bytes())
        assert bytes(clone.text) == bytes(text)
        assert bytes(clone.data) == bytes(data)
        assert clone.bss_size == bss
        assert set(clone.symbols) == set(names)


def pin_template():
    """Every section, both bindings, all four relocation types, a
    negative addend and link info."""
    obj = ObjectFile("pin.o")
    obj.text.extend(bytes(range(12)))
    obj.data.extend(b"\x01\x02\x03\x04\x05")
    obj.bss_size = 24
    obj.heap_size = 64
    obj.add_symbol(Symbol("main", SEC_TEXT, 0, size=12, kind="func"))
    obj.add_symbol(Symbol("table", SEC_DATA, 4, size=1, kind="char"))
    obj.add_symbol(Symbol("counter", SEC_BSS, 8, size=4, kind="int"))
    obj.add_symbol(Symbol("loop", SEC_TEXT, 8, SymBinding.LOCAL))
    obj.reference("printf")
    obj.relocations += [
        Relocation(SEC_TEXT, 0, RelocType.HI16, "table", 4),
        Relocation(SEC_TEXT, 4, RelocType.LO16, "table", 4),
        Relocation(SEC_TEXT, 8, RelocType.JUMP26, "printf", 0),
        Relocation(SEC_DATA, 0, RelocType.WORD32, "counter", -8),
    ]
    obj.link_info = LinkInfo([("libm.o", "dynamic_public"),
                              ("helper.o", "dynamic_private")],
                             ["/shared/lib", "/lib"])
    obj.entry_symbol = "main"
    return obj


def pin_executable():
    """The template placed: an executable with a section layout."""
    obj = pin_template()
    obj.name = "a.out"
    obj.kind = ObjectKind.EXECUTABLE
    obj.layout = {
        SEC_TEXT: SectionLayout(SEC_TEXT, 0x00400000, 12),
        SEC_DATA: SectionLayout(SEC_DATA, 0x10000000, 5),
        SEC_BSS: SectionLayout(SEC_BSS, 0x10000010, 24),
    }
    return obj


def pin_segment():
    """Segment metadata at the edges of its fields: absolute symbols,
    a value and a size of 0xFFFFFFFF, the most negative addend, a heap
    layout and no entry symbol."""
    obj = ObjectFile("m", ObjectKind.SEGMENT)
    obj.bss_size = 8
    obj.add_symbol(Symbol("m_fn", SEC_ABS, 0x40001000, size=0xFFFFFFFF))
    obj.add_symbol(Symbol("m_var", SEC_ABS, 0xFFFFFFFF))
    obj.add_symbol(Symbol("m_hidden", SEC_ABS, 0x40001008,
                          SymBinding.LOCAL))
    obj.reference("ext")
    obj.relocations.append(
        Relocation(SEC_DATA, 0xFFFFFFFC, RelocType.WORD32, "ext",
                   -0x80000000))
    obj.layout = {
        SEC_TEXT: SectionLayout(SEC_TEXT, 0x40001000, 0),
        SEC_DATA: SectionLayout(SEC_DATA, 0x40001000, 8),
        SEC_BSS: SectionLayout(SEC_BSS, 0x40001010, 8),
        "heap": SectionLayout("heap", 0x40001020, 0xFFFFFFFF),
    }
    return obj


PIN_OBJECTS = {"template": pin_template, "executable": pin_executable,
               "segment": pin_segment}

#: to_bytes() of each PIN_OBJECTS entry, as the byte-at-a-time
#: BinaryWriter encoder produced it
PIN_HEX = {
    "template": (
        "484f463100050070696e2e6f04006d61696e0c00000000010203040506070809"
        "0a0b0500000001020304051800000040000000050000000700636f756e746572"
        "03006273730800000001040000000300696e7404006c6f6f7004007465787408"
        "0000000000000000000004006d61696e04007465787400000000010c00000004"
        "0066756e6306007072696e746607002a756e6465662a00000000010000000000"
        "0005007461626c65040064617461040000000101000000040063686172040000"
        "00040074657874000000000105007461626c6504000000040074657874040000"
        "000205007461626c6504000000040074657874080000000306007072696e7466"
        "0000000004006461746100000000000700636f756e746572f8ffffff02000000"
        "06006c69626d2e6f0e0064796e616d69635f7075626c6963080068656c706572"
        "2e6f0f0064796e616d69635f70726976617465020000000b002f736861726564"
        "2f6c696204002f6c696200000000"
    ),
    "executable": (
        "484f4631010500612e6f757404006d61696e0c00000000010203040506070809"
        "0a0b0500000001020304051800000040000000050000000700636f756e746572"
        "03006273730800000001040000000300696e7404006c6f6f7004007465787408"
        "0000000000000000000004006d61696e04007465787400000000010c00000004"
        "0066756e6306007072696e746607002a756e6465662a00000000010000000000"
        "0005007461626c65040064617461040000000101000000040063686172040000"
        "00040074657874000000000105007461626c6504000000040074657874040000"
        "000205007461626c6504000000040074657874080000000306007072696e7466"
        "0000000004006461746100000000000700636f756e746572f8ffffff02000000"
        "06006c69626d2e6f0e0064796e616d69635f7075626c6963080068656c706572"
        "2e6f0f0064796e616d69635f70726976617465020000000b002f736861726564"
        "2f6c696204002f6c696203000000040074657874000040000c00000004006461"
        "7461000000100500000003006273731000001018000000"
    ),
    "segment": (
        "484f46310201006d000000000000000000000800000000000000040000000300"
        "65787407002a756e6465662a000000000100000000000004006d5f666e05002a"
        "6162732a0010004001ffffffff000008006d5f68696464656e05002a6162732a"
        "081000400000000000000005006d5f76617205002a6162732affffffff010000"
        "0000000001000000040064617461fcffffff0003006578740000008000000000"
        "0000000004000000040074657874001000400000000004006461746100100040"
        "080000000300627373101000400800000004006865617020100040ffffffff"
    ),
}


class TestEncodingPins:
    @pytest.mark.parametrize("name", sorted(PIN_OBJECTS))
    def test_encoding_is_pinned(self, name):
        assert PIN_OBJECTS[name]().to_bytes().hex() == PIN_HEX[name]

    @pytest.mark.parametrize("name", sorted(PIN_OBJECTS))
    def test_pin_round_trips(self, name):
        data = bytes.fromhex(PIN_HEX[name])
        obj = ObjectFile.from_bytes(data)
        assert obj.to_bytes() == data
        want = PIN_OBJECTS[name]()
        assert (obj.name, obj.kind, obj.entry_symbol, obj.bss_size,
                obj.heap_size) == (want.name, want.kind, want.entry_symbol,
                                   want.bss_size, want.heap_size)
        assert sorted(obj.symbols.values(), key=lambda s: s.name) == \
            sorted(want.symbols.values(), key=lambda s: s.name)
        assert obj.relocations == want.relocations
        assert obj.link_info == want.link_info
        assert obj.layout == want.layout


class TestWideValues:
    """A value that does not fit its unsigned 32-bit field is refused
    by name, never written as its low 32 bits."""

    @pytest.mark.parametrize("mutate, named", [
        (lambda o: setattr(o.symbols["main"], "value", 1 << 32), "main"),
        (lambda o: setattr(o.symbols["table"], "size", -1), "table"),
        (lambda o: setattr(o.relocations[0], "offset", 1 << 32), "table"),
        (lambda o: setattr(o.layout[SEC_DATA], "base", 0x1_0100_0000),
         "data"),
        (lambda o: setattr(o.layout[SEC_BSS], "size", -4), "bss"),
    ], ids=["symbol-value", "symbol-size", "reloc-offset", "layout-base",
            "layout-size"])
    def test_refused_by_name(self, mutate, named):
        obj = pin_executable()
        mutate(obj)
        with pytest.raises(ObjectFormatError,
                           match=f"'a.out'.*'{named}'"):
            obj.to_bytes()

    def test_addends_stay_signed(self):
        obj = pin_template()
        obj.relocations[0].addend = -0x80000000
        clone = ObjectFile.from_bytes(obj.to_bytes())
        assert clone.relocations[0].addend == -0x80000000

    def test_wide_data_module_is_refused(self):
        """A data-only public module above 4 GiB (sfs64 places one at
        0x1_0100_0000) cannot describe its symbols in HOF's 32-bit
        fields, so creating it is refused by name."""
        from repro import boot
        from repro.bench.workloads import make_shell
        from repro.linker.segments import create_public_module

        kernel = boot(wide_addresses=True).kernel
        shell = make_shell(kernel)
        kernel.vfs.makedirs("/shared/lib")
        template = ObjectFile("wide.o")
        template.data.extend(bytes(8))
        template.add_symbol(Symbol("total", SEC_DATA, 4))
        with pytest.raises(ObjectFormatError,
                           match="'wide': symbol 'total'"):
            create_public_module(kernel, shell, template, "/shared/lib/wide")


def _mod3_bytes() -> bytes:
    from repro.bench.workloads import _module_source

    return assemble(_module_source(3, "/lib/m"), "mod3.o").to_bytes()


def _parses_exactly_or_rejects(data: bytes) -> bool:
    """True when *data* decodes to an object that re-encodes to the
    same bytes; False on an ObjectFormatError. Anything else escapes."""
    try:
        obj = ObjectFile.from_bytes(data)
    except ObjectFormatError:
        return False
    assert obj.to_bytes() == data
    return True


class TestMutatedBytes:
    """Every byte mutant of a real object is an exact parse or an
    ObjectFormatError — never a raw UnicodeDecodeError/ValueError."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutation_property(self, data):
        blob = bytearray(_mod3_bytes())
        for _ in range(data.draw(st.integers(1, 4), label="count")):
            index = data.draw(st.integers(0, len(blob) - 1),
                              label="index")
            blob[index] = data.draw(st.integers(0, 255), label="byte")
        _parses_exactly_or_rejects(bytes(blob))

    def test_seeded_mutants(self):
        import random

        blob = _mod3_bytes()
        rng = random.Random(1993)
        parsed = 0
        for _ in range(3000):
            mutant = bytearray(blob)
            for _ in range(rng.randint(1, 4)):
                mutant[rng.randrange(len(mutant))] = rng.randrange(256)
            parsed += _parses_exactly_or_rejects(bytes(mutant))
        assert 0 < parsed < 3000

    @pytest.mark.parametrize("mutant", [
        lambda: _mod3_bytes() + b"\x00",
        lambda: _mod3_bytes().replace(b"func_3", b"\xff\xfeunc3"),
        lambda: _mod3_bytes()[:4] + b"\x09" + _mod3_bytes()[5:],
        lambda: _mod3_bytes().replace(b"func_3", b"zunc_3"),
        lambda: _section_laid_out_twice(),
    ], ids=["trailing-byte", "bad-utf8", "unknown-kind",
            "unsorted-symbols", "section-twice"])
    def test_typed_rejections(self, mutant):
        with pytest.raises(ObjectFormatError):
            ObjectFile.from_bytes(mutant())


def _archive_bytes() -> bytes:
    archive = Archive("lib.a")
    archive.add(ObjectFile.from_bytes(_mod3_bytes()))
    return archive.to_bytes()


def _archive_parses_exactly_or_rejects(data: bytes) -> bool:
    """As :func:`_parses_exactly_or_rejects`, for a HOF archive."""
    try:
        archive = Archive.from_bytes(data)
    except ObjectFormatError:
        return False
    assert archive.to_bytes() == data
    return True


class TestMutatedArchiveBytes:
    """Every byte mutant of a one-member archive is an exact parse or an
    ObjectFormatError: a changed count or length must not leave bytes
    that the archive silently ignores."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutation_property(self, data):
        blob = bytearray(_archive_bytes())
        for _ in range(data.draw(st.integers(1, 4), label="count")):
            index = data.draw(st.integers(0, len(blob) - 1),
                              label="index")
            blob[index] = data.draw(st.integers(0, 255), label="byte")
        _archive_parses_exactly_or_rejects(bytes(blob))

    def test_seeded_mutants(self):
        import random

        blob = _archive_bytes()
        rng = random.Random(1993)
        parsed = 0
        for _ in range(3000):
            mutant = bytearray(blob)
            for _ in range(rng.randint(1, 4)):
                mutant[rng.randrange(len(mutant))] = rng.randrange(256)
            parsed += _archive_parses_exactly_or_rejects(bytes(mutant))
        assert 0 < parsed < 3000

    @pytest.mark.parametrize("mutant", [
        lambda: _archive_bytes() + b"\x00",
        # the member count (after the magic and "lib.a") reads as 0
        lambda: _archive_bytes()[:11] + b"\x00" + _archive_bytes()[12:],
    ], ids=["trailing-byte", "count-zero"])
    def test_typed_rejections(self, mutant):
        with pytest.raises(ObjectFormatError, match="trailing bytes"):
            Archive.from_bytes(mutant())

    def test_duplicate_member_names_are_rejected(self):
        archive = Archive("lib.a")
        archive.add(sample_object("m1.o"))
        archive.add(sample_object("m2.o"))
        with pytest.raises(ObjectFormatError, match="already has"):
            Archive.from_bytes(archive.to_bytes().replace(b"m2.o", b"m1.o"))


def _section_laid_out_twice() -> bytes:
    obj = ObjectFile("a.out", ObjectKind.EXECUTABLE)
    obj.layout["text"] = SectionLayout("text", 0x400000, 16)
    obj.layout["tex2"] = SectionLayout("tex2", 0x500000, 16)
    return obj.to_bytes().replace(b"tex2", b"text")


class TestSymbols:
    def test_defined_over_undefined(self):
        obj = ObjectFile("x.o")
        obj.reference("f")
        assert not obj.symbols["f"].defined
        obj.add_symbol(Symbol("f", SEC_TEXT, 4))
        assert obj.symbols["f"].defined

    def test_undefined_after_defined_is_noop(self):
        obj = ObjectFile("x.o")
        obj.add_symbol(Symbol("f", SEC_TEXT, 4))
        obj.add_symbol(Symbol("f", SEC_UNDEF, 0))
        assert obj.symbols["f"].defined

    def test_double_definition_rejected(self):
        obj = ObjectFile("x.o")
        obj.add_symbol(Symbol("f", SEC_TEXT, 0))
        with pytest.raises(ObjectFormatError):
            obj.add_symbol(Symbol("f", SEC_DATA, 0))

    def test_defined_globals_excludes_locals_and_undef(self):
        obj = sample_object()
        names = {s.name for s in obj.defined_globals()}
        assert names == {"fn", "var"}

    def test_undefined_symbols_sorted(self):
        obj = ObjectFile("x.o")
        obj.reference("zeta")
        obj.reference("alpha")
        assert obj.undefined_symbols() == ["alpha", "zeta"]


class TestArchive:
    def _member(self, name, defines, needs=()):
        obj = ObjectFile(name)
        for symbol in defines:
            obj.add_symbol(Symbol(symbol, SEC_TEXT, 0))
        for symbol in needs:
            obj.reference(symbol)
        return obj

    def test_symbol_index_first_wins(self):
        archive = Archive("lib.a")
        archive.add(self._member("a.o", ["f"]))
        archive.add(self._member("b.o", ["f", "g"]))
        index = archive.symbol_index()
        assert index["f"].name == "a.o"
        assert index["g"].name == "b.o"

    def test_resolve_transitive(self):
        archive = Archive("lib.a")
        archive.add(self._member("a.o", ["f"], needs=["g"]))
        archive.add(self._member("b.o", ["g"]))
        archive.add(self._member("c.o", ["unused"]))
        members = archive.resolve({"f"})
        names = {m.name for m in members}
        assert names == {"a.o", "b.o"}

    def test_resolve_nothing_needed(self):
        archive = Archive("lib.a")
        archive.add(self._member("a.o", ["f"]))
        assert archive.resolve({"zzz"}) == []

    def test_duplicate_member_rejected(self):
        archive = Archive("lib.a")
        archive.add(self._member("a.o", ["f"]))
        with pytest.raises(ObjectFormatError):
            archive.add(self._member("a.o", ["g"]))

    def test_archive_roundtrip(self):
        archive = Archive("lib.a")
        archive.add(sample_object("m1.o"))
        archive.add(sample_object("m2.o"))
        clone = Archive.from_bytes(archive.to_bytes())
        assert [m.name for m in clone.members] == ["m1.o", "m2.o"]
        assert clone.member("m1.o") is not None
        assert clone.member("nope.o") is None


class TestInspectors:
    def test_nm_output(self):
        text = nm(sample_object())
        assert "T fn" in text
        assert "D var" in text
        assert "t local_lbl" in text
        assert "U external" in text

    def test_objdump_headers(self):
        text = objdump(sample_object())
        assert "sample.o" in text
        assert "entry: fn" in text
        assert "dynamic modules" in text
        assert "JUMP26" in text

    def test_objdump_disassembly(self):
        obj = assemble(".text\nnop\nadd t0, t1, t2")
        text = objdump(obj, disassemble=True)
        assert "nop" in text
        assert "add t0, t1, t2" in text
