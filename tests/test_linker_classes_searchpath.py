"""Sharing classes (Table 1) and the module search strategy."""

import pytest

from repro.errors import LinkError
from repro.linker.classes import SharingClass
from repro.linker.searchpath import (
    DEFAULT_LIBRARY_DIRS,
    SearchPath,
    parse_library_path,
)


class TestTable1:
    """The sharing-class matrix, straight from Table 1."""

    def test_row_static_private(self):
        cls = SharingClass.STATIC_PRIVATE
        assert cls.when_linked == "static link time"
        assert cls.new_instance_per_process is True
        assert cls.address_portion == "private"

    def test_row_dynamic_private(self):
        cls = SharingClass.DYNAMIC_PRIVATE
        assert cls.when_linked == "run time"
        assert cls.new_instance_per_process is True
        assert cls.address_portion == "private"

    def test_row_static_public(self):
        cls = SharingClass.STATIC_PUBLIC
        assert cls.when_linked == "static link time"
        assert cls.new_instance_per_process is False
        assert cls.address_portion == "public"

    def test_row_dynamic_public(self):
        cls = SharingClass.DYNAMIC_PUBLIC
        assert cls.when_linked == "run time"
        assert cls.new_instance_per_process is False
        assert cls.address_portion == "public"

    def test_table1_order(self):
        assert [c.value for c in SharingClass.table1()] == [
            "static_private", "dynamic_private",
            "static_public", "dynamic_public",
        ]

    def test_predicates_consistent(self):
        for cls in SharingClass:
            assert cls.is_public != cls.is_private
            assert cls.new_instance_per_process == cls.is_private

    def test_parse(self):
        assert SharingClass.parse("dynamic public") is \
            SharingClass.DYNAMIC_PUBLIC
        assert SharingClass.parse("static-private") is \
            SharingClass.STATIC_PRIVATE
        assert SharingClass.parse("STATIC_PUBLIC") is \
            SharingClass.STATIC_PUBLIC

    def test_parse_unknown(self):
        with pytest.raises(LinkError):
            SharingClass.parse("sorta_shared")


class TestSearchOrder:
    def test_static_link_order(self):
        """lds: cwd, -L dirs, LD_LIBRARY_PATH, defaults (§3)."""
        search = SearchPath.for_static_link(
            "/work", ["/opt/libs"], "/env/a:/env/b"
        )
        assert search.directories[:4] == \
            ["/work", "/opt/libs", "/env/a", "/env/b"]
        assert search.directories[4:] == DEFAULT_LIBRARY_DIRS

    def test_run_time_order(self):
        """ldl: LD_LIBRARY_PATH *now*, then where lds searched."""
        static = SearchPath.for_static_link("/work", ["/opt"], "/old")
        run = SearchPath.for_run_time("/new", static.directories)
        assert run.directories[0] == "/new"
        assert run.directories[1:3] == ["/work", "/opt"]
        assert "/old" in run.directories

    def test_dedup(self):
        search = SearchPath.for_static_link("/a", ["/a", "/b"], "/b")
        counted = [d for d in search.directories if d in ("/a", "/b")]
        assert counted == ["/a", "/b"]

    def test_parse_library_path(self):
        assert parse_library_path("/a:/b::/c") == ["/a", "/b", "/c"]
        assert parse_library_path("") == []


class TestFind:
    def test_first_found_wins(self, kernel, shell):
        """'If there is more than one static module with the same name,
        lds uses the first one it finds.'"""
        kernel.vfs.makedirs("/first")
        kernel.vfs.makedirs("/second")
        kernel.vfs.write_whole("/first/m.o", b"1")
        kernel.vfs.write_whole("/second/m.o", b"2")
        search = SearchPath(["/first", "/second"])
        assert search.find(kernel.vfs, "m.o") == "/first/m.o"

    def test_absolute_bypasses_search(self, kernel, shell):
        kernel.vfs.write_whole("/abs.o", b"x")
        search = SearchPath(["/nowhere"])
        assert search.find(kernel.vfs, "/abs.o") == "/abs.o"
        assert search.find(kernel.vfs, "/missing.o") is None

    def test_explicit_relative(self, kernel, shell):
        kernel.vfs.makedirs("/work/sub")
        kernel.vfs.write_whole("/work/sub/m.o", b"x")
        search = SearchPath(["/elsewhere"])
        assert search.find(kernel.vfs, "./sub/m.o", cwd="/work") == \
            "/work/sub/m.o"

    def test_not_found(self, kernel, shell):
        assert SearchPath(["/nope"]).find(kernel.vfs, "m.o") is None

    def test_directory_is_not_a_module(self, kernel, shell):
        """Regression: a directory sharing a module's name must not
        shadow the real module (e.g. a template named 'shared.o' whose
        instantiated module 'shared' collides with the /shared mount)."""
        kernel.vfs.makedirs("/shared/lib")
        kernel.vfs.write_whole("/shared/lib/shared", b"module bytes")
        search = SearchPath(["/", "/shared/lib"])
        # '/' contains the *directory* /shared; the file must win.
        assert search.find(kernel.vfs, "shared") == "/shared/lib/shared"

    def test_only_directories_anywhere_finds_nothing(self, kernel, shell):
        kernel.vfs.makedirs("/a/shared")
        search = SearchPath(["/a"])
        assert search.find(kernel.vfs, "shared") is None
