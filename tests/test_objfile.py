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
