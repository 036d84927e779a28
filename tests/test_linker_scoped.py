"""linker/scoped.py edge cases: scope_chain traversal, peek_exports and
its per-kernel export table, and which segment files a scope scan
accepts.

The module-graph builders here (``chain_of``, ``diamond``) are also the
fixtures the symbol-audit tests in test_analyze.py run against, so the
static verifier is exercised on exactly the scope shapes the real
traversal produces.
"""

import pytest

from repro.bench.workloads import build_module_fanout, fanout_expected_exit
from repro.errors import FileNotFoundSimError, ObjectFormatError
from repro.fs.vfs import O_RDWR
from repro.linker.classes import SharingClass
from repro.linker.ldl import LoadedModule
from repro.linker.scoped import peek_exports, scope_chain
from repro.linker.segments import (
    TRAILER,
    TRAILER_MAGIC,
    read_segment_meta,
    update_segment_meta,
)
from repro.objfile.format import (
    ObjectFile,
    ObjectKind,
    SEC_ABS,
    SEC_TEXT,
    SectionLayout,
    Symbol,
)


def module(name, exports=(), kind=ObjectKind.SEGMENT, section=SEC_ABS):
    """A LoadedModule whose meta exports *exports* as (name, value)."""
    meta = ObjectFile(name, kind=kind)
    for sym, value in exports:
        meta.symbols[sym] = Symbol(sym, section, value)
    return LoadedModule(name, f"/shared/{name}", meta, 0x3000_0000, 0,
                        SharingClass.DYNAMIC_PUBLIC)


def chain_of(*specs):
    """Linear parent chain: first spec is the leaf, last the root."""
    modules = [module(name, exports) for name, exports in specs]
    for child, parent in zip(modules, modules[1:]):
        child.add_parent(parent)
    return modules


def diamond():
    """leaf -> (left, right) -> root; left and right share the root."""
    leaf = module("leaf")
    left = module("left", [("dup", 0x3000_1000)])
    right = module("right", [("dup", 0x3000_2000)])
    root = module("root", [("deep", 0x3000_3000)])
    leaf.add_parent(left)
    leaf.add_parent(right)
    left.add_parent(root)
    right.add_parent(root)
    return leaf, left, right, root


class TestScopeChain:
    def test_single_module_yields_itself(self):
        leaf = module("solo")
        assert list(scope_chain(leaf)) == [leaf]

    def test_linear_chain_order(self):
        leaf, mid, root = chain_of(("leaf", ()), ("mid", ()),
                                   ("root", ()))
        assert list(scope_chain(leaf)) == [leaf, mid, root]

    def test_diamond_visits_shared_root_once(self):
        leaf, left, right, root = diamond()
        walk = list(scope_chain(leaf))
        assert walk == [leaf, left, right, root]
        assert walk.count(root) == 1

    def test_bfs_level_order_beats_depth(self):
        # A deep chain on one side, a shallow parent on the other: the
        # shallow parent must be visited before the deep grandparents.
        leaf = module("leaf")
        deep1 = module("deep1")
        deep2 = module("deep2", [("target", 0x3000_1000)])
        shallow = module("shallow", [("target", 0x3000_2000)])
        leaf.add_parent(deep1)
        leaf.add_parent(shallow)
        deep1.add_parent(deep2)
        walk = list(scope_chain(leaf))
        assert walk.index(shallow) < walk.index(deep2)

    def test_shadowed_duplicate_resolves_to_nearest_level(self):
        # "children search up from their current position to the root":
        # the leaf's own export wins over the identically named export
        # two levels up.
        leaf, mid, root = chain_of(
            ("leaf", [("fn", 0x3000_0100)]),
            ("mid", ()),
            ("root", [("fn", 0x3000_9900)]),
        )
        for node in scope_chain(leaf):
            address = node.exports().get("fn")
            if address is not None:
                break
        assert address == 0x3000_0100

    def test_cycle_terminates(self):
        # add_parent refuses self, but a mutual cycle through the DAG
        # must still terminate thanks to the seen-set.
        a = module("a")
        b = module("b")
        a.add_parent(b)
        b.parents.append(a)  # bypass add_parent to force the cycle
        assert list(scope_chain(a)) == [a, b]


def template(*names):
    """Template bytes defining each of *names* as a text symbol."""
    obj = ObjectFile("m.o")
    obj.text.extend(bytes(4 * len(names)))
    for index, name in enumerate(names):
        obj.symbols[name] = Symbol(name, SEC_TEXT, 4 * index)
    return obj.to_bytes()


def segment_file(meta):
    """A segment file: a one-page image, *meta*, and the trailer."""
    meta_bytes = meta.to_bytes()
    image = bytes(4096)
    return image + meta_bytes + TRAILER.pack(
        TRAILER_MAGIC, len(image), len(meta_bytes), 0
    )


class TestPeekExports:
    def put(self, kernel, path, data):
        kernel.vfs.write_whole(path, data, 0)

    def test_template_exports_names(self, kernel, shell, dirs):
        obj = ObjectFile("m.o")
        obj.text.extend(bytes(4))
        obj.symbols["fn"] = Symbol("fn", SEC_TEXT, 0)
        self.put(kernel, "/src/m.o", obj.to_bytes())
        assert peek_exports(kernel, shell, "/src/m.o") == {"fn": 0}

    def test_segment_exports_absolute_addresses(self, kernel, shell,
                                                dirs):
        meta = ObjectFile("seg", kind=ObjectKind.SEGMENT)
        meta.layout["text"] = SectionLayout("text", 0x3000_0000, 4096)
        meta.symbols["fn"] = Symbol("fn", SEC_ABS, 0x3000_0010)
        self.put(kernel, "/src/seg", segment_file(meta))
        exports = peek_exports(kernel, shell, "/src/seg")
        assert exports == {"fn": 0x3000_0010}

    def test_local_symbols_not_exported(self, kernel, shell, dirs):
        from repro.hw.asm import assemble

        obj = assemble(".text\n.globl fn\nfn:\nlabel:\njr ra", "m.o")
        self.put(kernel, "/src/m.o", obj.to_bytes())
        exports = peek_exports(kernel, shell, "/src/m.o")
        assert "fn" in exports and "label" not in exports

    def test_non_module_file_is_none(self, kernel, shell, dirs):
        self.put(kernel, "/src/readme", b"just some prose, no trailer")
        assert peek_exports(kernel, shell, "/src/readme") is None

    def test_garbage_dot_o_is_none(self, kernel, shell, dirs):
        self.put(kernel, "/src/bad.o", b"XXXXnot an object at all")
        assert peek_exports(kernel, shell, "/src/bad.o") is None

    def test_short_file_is_none(self, kernel, shell, dirs):
        self.put(kernel, "/src/tiny", b"ab")
        assert peek_exports(kernel, shell, "/src/tiny") is None

    def test_missing_file_is_none(self, kernel, shell, dirs):
        assert peek_exports(kernel, shell, "/src/nope.o") is None

    def test_empty_chain_of_missing_parents(self, kernel, shell, dirs):
        # A root with no parents: the chain is just the root, and a
        # miss there is a miss, full stop.
        root = module("root")
        misses = [node.exports().get("nowhere")
                  for node in scope_chain(root)]
        assert misses == [None]


class TestExportTable:
    """peek_exports decodes a file only when its bytes differ from the
    bytes it last decoded for that inode, and charges the same either
    way."""

    PATH = "/shared/lib/m.o"

    def fresh(self, kernel):
        """What a peek must return: a full decode of the file now."""
        try:
            data = kernel.vfs.read_whole(self.PATH)
            obj = ObjectFile.from_bytes(data)
        except (FileNotFoundSimError, ObjectFormatError):
            return None
        return {s.name: s.value for s in obj.defined_globals()}

    def rewrite(self, kernel, shell, offset, data, size=None):
        sys = kernel.syscalls
        fd = sys.open(shell, self.PATH, O_RDWR)
        try:
            if size is not None:
                sys.ftruncate(shell, fd, size)
            sys.pwrite(shell, fd, offset, data)
        finally:
            sys.close(shell, fd)

    def peek_matches(self, kernel, shell):
        exports = peek_exports(kernel, shell, self.PATH)
        expected = self.fresh(kernel)
        assert (exports is None) == (expected is None)
        if expected is not None:
            assert dict(exports) == expected
        return exports

    def test_every_rewrite_is_seen(self, kernel, shell, dirs):
        original = template("fn")
        kernel.vfs.write_whole(self.PATH, original)
        inode = kernel.vfs.stat(self.PATH).st_ino
        assert set(self.peek_matches(kernel, shell)) == {"fn"}
        assert set(self.peek_matches(kernel, shell)) == {"fn"}
        # In place, same inode, different exports.
        self.rewrite(kernel, shell, 0, template("other", "more"), size=0)
        assert kernel.vfs.stat(self.PATH).st_ino == inode
        assert set(self.peek_matches(kernel, shell)) == {"other", "more"}
        # Truncated mid-object.
        self.rewrite(kernel, shell, 0, b"", size=20)
        assert self.peek_matches(kernel, shell) is None
        # Corrupted, then restored byte for byte.
        self.rewrite(kernel, shell, 0, original, size=0)
        self.rewrite(kernel, shell, 0, b"XXXX")
        assert self.peek_matches(kernel, shell) is None
        self.rewrite(kernel, shell, 0, original)
        assert set(self.peek_matches(kernel, shell)) == {"fn"}
        # Unlinked, then recreated with other contents.
        kernel.syscalls.unlink(shell, self.PATH)
        assert self.peek_matches(kernel, shell) is None
        kernel.vfs.write_whole(self.PATH, template("reborn"))
        assert set(self.peek_matches(kernel, shell)) == {"reborn"}

    def test_segment_meta_update_is_seen(self, kernel, shell, dirs):
        meta = ObjectFile("seg", kind=ObjectKind.SEGMENT)
        meta.layout["text"] = SectionLayout("text", 0x3000_0000, 4096)
        meta.symbols["fn"] = Symbol("fn", SEC_ABS, 0x3000_0010)
        kernel.vfs.write_whole("/shared/lib/seg", segment_file(meta))
        assert peek_exports(kernel, shell, "/shared/lib/seg") == \
            {"fn": 0x3000_0010}
        meta.symbols["late"] = Symbol("late", SEC_ABS, 0x3000_0020)
        update_segment_meta(kernel, shell, "/shared/lib/seg", meta)
        assert peek_exports(kernel, shell, "/shared/lib/seg") == \
            {"fn": 0x3000_0010, "late": 0x3000_0020}

    def test_hit_charges_what_a_miss_charges(self, kernel, shell, dirs,
                                             monkeypatch):
        kernel.vfs.write_whole(self.PATH, template("fn"))
        peek_exports(kernel, shell, self.PATH)  # pays the first-touch seek
        kernel.export_table.clear()
        parses = []
        decode = ObjectFile.from_bytes
        monkeypatch.setattr(ObjectFile, "from_bytes", classmethod(
            lambda cls, data, offset=0: parses.append(1)
            or decode(data, offset)))
        clock = kernel.clock

        def charged():
            cycles, by_category = clock.cycles, dict(clock.by_category)
            peek_exports(kernel, shell, self.PATH)
            return clock.cycles - cycles, {
                category: value - by_category.get(category, 0)
                for category, value in clock.by_category.items()
            }

        miss = charged()
        assert len(parses) == 1
        hit = charged()
        assert len(parses) == 1  # the hit decoded nothing
        assert miss[0] > 0
        assert hit == miss

    def test_exports_are_read_only(self, kernel, shell, dirs):
        kernel.vfs.write_whole(self.PATH, template("fn"))
        for _ in range(2):  # the decoded and the reused result
            exports = peek_exports(kernel, shell, self.PATH)
            with pytest.raises(TypeError):
                exports["fn"] = 1
            with pytest.raises(TypeError):
                del exports["fn"]

    def test_table_starts_empty_at_every_boot(self, kernel, shell, dirs):
        from repro import boot

        kernel.vfs.write_whole(self.PATH, template("fn"))
        peek_exports(kernel, shell, self.PATH)
        assert kernel.export_table
        assert boot().kernel.export_table == {}


class TestSegmentAcceptance:
    """The scope scan accepts exactly the segment files the mapper
    maps: SEGMENT metadata with a text layout."""

    def decoy(self, kind, layout):
        meta = ObjectFile("aaa", kind=kind)
        if layout:
            meta.layout["text"] = SectionLayout("text", 0x3000_0000, 4096)
        meta.symbols["helper_0"] = Symbol("helper_0", SEC_ABS, 0x3000_0010)
        return segment_file(meta)

    @pytest.mark.parametrize("kind,layout", [
        (ObjectKind.SEGMENT, False),
        (ObjectKind.RELOCATABLE, True),
    ])
    def test_scan_skips_a_decoy_the_mapper_refuses(self, kernel, shell,
                                                   kind, layout):
        # "aaa" sorts first in /shared/fan and claims helper_0.
        graph = build_module_fanout(kernel, shell, width=2, used=2,
                                    module_dir="/shared/fan")
        kernel.vfs.write_whole("/shared/fan/aaa", self.decoy(kind, layout))
        assert peek_exports(kernel, shell, "/shared/fan/aaa") is None
        proc = kernel.create_machine_process("p", graph.executable)
        assert kernel.run_until_exit(proc) == fanout_expected_exit(2)

    def test_mapper_refuses_metadata_without_a_text_layout(
            self, kernel, shell, dirs):
        kernel.vfs.write_whole("/shared/lib/aaa",
                               self.decoy(ObjectKind.SEGMENT, False))
        with pytest.raises(ObjectFormatError, match="no text layout"):
            read_segment_meta(kernel, shell, "/shared/lib/aaa")
