"""File system tests: paths, volumes, VFS, mounts, symlinks, perms."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    BusySimError,
    FileExistsSimError,
    FileNotFoundSimError,
    FilesystemError,
    IsADirectorySimError,
    NotADirectorySimError,
    PermissionSimError,
)
from repro.fs.filesystem import Filesystem
from repro.fs.inode import InodeType
from repro.fs.path import basename, dirname, join, normalize, split_path
from repro.fs.vfs import (
    O_APPEND,
    O_CREAT,
    O_EXCL,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    Vfs,
)
from repro.vm.pages import PhysicalMemory


@pytest.fixture
def pm():
    return PhysicalMemory()


@pytest.fixture
def vfs(pm):
    return Vfs(Filesystem(pm, "root"))


def reference_normalize(path, cwd):
    """normalize's full stack algorithm, with no fast path: the oracle
    the fast path is checked against."""
    if not path.startswith("/"):
        path = cwd.rstrip("/") + "/" + path
    stack = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if stack:
                stack.pop()
            continue
        stack.append(part)
    return "/" + "/".join(stack)


class TestPaths:
    def test_normalize(self):
        assert normalize("/a/b/../c") == "/a/c"
        assert normalize("a/b", cwd="/home") == "/home/a/b"
        assert normalize("/a//b/./c") == "/a/b/c"
        assert normalize("/../..") == "/"
        assert normalize(".", cwd="/x") == "/x"

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(["/", "//", ".", "..", ".x", "a", "b"]),
                    max_size=12).map("".join),
           st.sampled_from(["/", "/a", "/a/b", "/a/b/", "/shared/fan",
                            "/.x/.."]))
    def test_normalize_matches_the_stack_algorithm(self, path, cwd):
        assert normalize(path, cwd) == reference_normalize(path, cwd)

    def test_canonical_path_is_returned_as_is(self):
        path = "/shared/fan/mod0.o"
        assert normalize(path, "/elsewhere") is path

    def test_split(self):
        assert split_path("/a/b/c") == ["a", "b", "c"]
        assert split_path("/") == []

    def test_join(self):
        assert join("/a", "b", "c") == "/a/b/c"
        assert join("/a", "/b") == "/b"
        assert join("", "x") == "x"

    def test_dirname_basename(self):
        assert dirname("/a/b/c") == "/a/b"
        assert basename("/a/b/c") == "c"
        assert dirname("/") == "/"
        assert basename("/") == ""


class TestFilesAndDirs:
    def test_create_write_read(self, vfs):
        vfs.write_whole("/hello.txt", b"hi there")
        assert vfs.read_whole("/hello.txt") == b"hi there"

    def test_mkdir_and_nesting(self, vfs):
        vfs.mkdir("/a")
        vfs.mkdir("/a/b")
        vfs.write_whole("/a/b/f", b"x")
        assert vfs.listdir("/a") == ["b"]
        assert vfs.listdir("/a/b") == ["f"]

    def test_makedirs(self, vfs):
        vfs.makedirs("/x/y/z")
        assert vfs.exists("/x/y/z")
        vfs.makedirs("/x/y/z")  # idempotent

    def test_open_missing_without_creat(self, vfs):
        with pytest.raises(FileNotFoundSimError):
            vfs.open("/nope", O_RDONLY)

    def test_excl_creation(self, vfs):
        vfs.open("/f", O_WRONLY | O_CREAT)
        with pytest.raises(FileExistsSimError):
            vfs.open("/f", O_WRONLY | O_CREAT | O_EXCL)

    def test_trunc(self, vfs):
        vfs.write_whole("/f", b"long content")
        vfs.open("/f", O_WRONLY | O_TRUNC)
        assert vfs.read_whole("/f") == b""

    def test_append(self, vfs):
        vfs.write_whole("/f", b"ab")
        handle = vfs.open("/f", O_WRONLY | O_APPEND)
        handle.write(b"cd")
        assert vfs.read_whole("/f") == b"abcd"

    def test_offset_semantics(self, vfs):
        vfs.write_whole("/f", b"0123456789")
        handle = vfs.open("/f", O_RDWR)
        assert handle.read(4) == b"0123"
        assert handle.read(4) == b"4567"
        handle.lseek(2)
        assert handle.read(2) == b"23"
        handle.lseek(-2, 2)
        assert handle.read(10) == b"89"

    def test_read_on_writeonly_rejected(self, vfs):
        handle = vfs.open("/f", O_WRONLY | O_CREAT)
        with pytest.raises(PermissionSimError):
            handle.read(1)

    def test_write_on_readonly_rejected(self, vfs):
        vfs.write_whole("/f", b"x")
        handle = vfs.open("/f", O_RDONLY)
        with pytest.raises(PermissionSimError):
            handle.write(b"y")

    def test_unlink(self, vfs):
        vfs.write_whole("/f", b"x")
        vfs.unlink("/f")
        assert not vfs.exists("/f")

    def test_unlink_directory_rejected(self, vfs):
        vfs.mkdir("/d")
        with pytest.raises(IsADirectorySimError):
            vfs.unlink("/d")

    def test_rmdir(self, vfs):
        vfs.mkdir("/d")
        vfs.rmdir("/d")
        assert not vfs.exists("/d")

    def test_rmdir_nonempty_rejected(self, vfs):
        vfs.makedirs("/d/sub")
        with pytest.raises(FilesystemError):
            vfs.rmdir("/d")

    def test_rename(self, vfs):
        vfs.write_whole("/a", b"data")
        vfs.rename("/a", "/b")
        assert not vfs.exists("/a")
        assert vfs.read_whole("/b") == b"data"

    def test_rename_replaces(self, vfs):
        vfs.write_whole("/a", b"new")
        vfs.write_whole("/b", b"old")
        vfs.rename("/a", "/b")
        assert vfs.read_whole("/b") == b"new"

    def test_rename_into_own_subtree_rejected(self, vfs):
        vfs.makedirs("/a/b")
        for target in ("/a/b/c", "/a/c"):
            with pytest.raises(FilesystemError, match="own subtree"):
                vfs.rename("/a", target)
        assert vfs.exists("/a/b")
        assert vfs.listdir("/") == ["a"]

    def test_rename_into_own_subtree_leaves_no_journal_record(self, pm):
        fs = Filesystem(pm)
        logged = []
        fs._log = lambda op, *fields: logged.append(op)
        outer = fs.mkdir(fs.root, "a", 0)
        inner = fs.mkdir(outer, "b", 0)
        logged.clear()
        with pytest.raises(FilesystemError):
            fs.rename(fs.root, "a", inner, "c")
        assert logged == []
        assert fs.root.entries["a"] is outer

    def test_stat(self, vfs):
        vfs.write_whole("/f", b"12345")
        info = vfs.stat("/f")
        assert info.st_size == 5
        assert info.st_type is InodeType.FILE
        assert info.st_nlink == 1

    def test_file_as_directory_component(self, vfs):
        vfs.write_whole("/f", b"x")
        with pytest.raises(NotADirectorySimError):
            vfs.resolve("/f/child")


class TestHardLinks:
    def test_link_shares_inode(self, vfs):
        vfs.write_whole("/a", b"shared")
        vfs.link("/a", "/b")
        assert vfs.stat("/a").st_ino == vfs.stat("/b").st_ino
        assert vfs.stat("/a").st_nlink == 2
        vfs.write_whole("/a", b"updated")
        assert vfs.read_whole("/b") == b"updated"

    def test_unlink_keeps_other_link(self, vfs):
        vfs.write_whole("/a", b"x")
        vfs.link("/a", "/b")
        vfs.unlink("/a")
        assert vfs.read_whole("/b") == b"x"


class TestSymlinks:
    def test_follow(self, vfs):
        vfs.write_whole("/target", b"data")
        vfs.symlink("/target", "/link")
        assert vfs.read_whole("/link") == b"data"
        assert vfs.readlink("/link") == "/target"

    def test_nofollow_stat(self, vfs):
        vfs.write_whole("/target", b"data")
        vfs.symlink("/target", "/link")
        assert vfs.stat("/link", follow=False).st_type is \
            InodeType.SYMLINK
        assert vfs.stat("/link").st_type is InodeType.FILE

    def test_relative_target(self, vfs):
        vfs.makedirs("/d")
        vfs.write_whole("/d/target", b"rel")
        vfs.symlink("target", "/d/link")
        assert vfs.read_whole("/d/link") == b"rel"

    def test_symlink_to_directory(self, vfs):
        vfs.makedirs("/real/dir")
        vfs.write_whole("/real/dir/f", b"y")
        vfs.symlink("/real/dir", "/alias")
        assert vfs.read_whole("/alias/f") == b"y"

    def test_dangling(self, vfs):
        vfs.symlink("/nowhere", "/link")
        with pytest.raises(FileNotFoundSimError):
            vfs.read_whole("/link")

    def test_loop_detected(self, vfs):
        vfs.symlink("/b", "/a")
        vfs.symlink("/a", "/b")
        with pytest.raises(FilesystemError):
            vfs.resolve("/a")


class TestPermissions:
    @pytest.fixture
    def home(self, vfs):
        """A directory owned by uid 1 (files cannot be created in the
        root-owned '/' by other users — correct Unix behaviour)."""
        vfs.mkdir("/home", uid=0, mode=0o777)
        vfs.mkdir("/home/u1", uid=1)
        return "/home/u1"

    def test_cannot_create_in_foreign_directory(self, vfs, home):
        with pytest.raises(PermissionSimError):
            vfs.write_whole("/f", b"x", uid=1)

    def test_mode_denies_other_write(self, vfs, home):
        vfs.write_whole(f"{home}/f", b"x", uid=1, mode=0o600)
        with pytest.raises(PermissionSimError):
            vfs.open(f"{home}/f", O_WRONLY, uid=2)

    def test_owner_allowed(self, vfs, home):
        vfs.write_whole(f"{home}/f", b"x", uid=1, mode=0o600)
        handle = vfs.open(f"{home}/f", O_RDWR, uid=1)
        handle.write(b"y")

    def test_root_bypasses(self, vfs, home):
        vfs.write_whole(f"{home}/f", b"x", uid=1, mode=0o000)
        vfs.open(f"{home}/f", O_RDWR, uid=0)

    def test_readonly_file_readable_by_other(self, vfs, home):
        vfs.write_whole(f"{home}/f", b"x", uid=1, mode=0o644)
        assert vfs.read_whole(f"{home}/f", uid=2) == b"x"

    def test_search_permission_required(self, vfs, home):
        vfs.mkdir(f"{home}/secret", uid=1, mode=0o700)
        vfs.write_whole(f"{home}/secret/f", b"x", uid=1, mode=0o644)
        with pytest.raises(PermissionSimError):
            vfs.read_whole(f"{home}/secret/f", uid=2)


class TestMounts:
    def test_mount_and_cross(self, pm):
        root = Filesystem(pm, "root")
        other = Filesystem(pm, "other")
        vfs = Vfs(root)
        vfs.mount("/mnt", other)
        vfs.write_whole("/mnt/f", b"inside")
        assert vfs.read_whole("/mnt/f") == b"inside"
        fs, _ = vfs.resolve("/mnt/f")
        assert fs is other

    def test_double_mount_rejected(self, pm):
        vfs = Vfs(Filesystem(pm))
        vfs.mount("/m", Filesystem(pm))
        with pytest.raises(FilesystemError):
            vfs.mount("/m", Filesystem(pm))

    def test_mount_point_cannot_be_removed_or_renamed(self, pm):
        vfs = Vfs(Filesystem(pm, "root"))
        other = Filesystem(pm, "other")
        vfs.mount("/shared", other)
        vfs.makedirs("/alias/inner")
        vfs.symlink("/", "/up")
        for attempt in (lambda: vfs.rmdir("/shared"),
                        lambda: vfs.rmdir("/up/shared"),
                        lambda: vfs.rename("/shared", "/moved"),
                        lambda: vfs.rename("/up/shared", "/alias/inner/x")):
            with pytest.raises(BusySimError):
                attempt()
        assert vfs.resolve("/shared") == (other, other.root)
        assert "shared" in vfs.listdir("/")

    def test_nested_mount_point_is_busy_too(self, pm):
        vfs = Vfs(Filesystem(pm, "root"))
        outer = Filesystem(pm, "outer")
        vfs.mount("/m", outer)
        vfs.mount("/m/n", Filesystem(pm, "inner"))
        with pytest.raises(BusySimError):
            vfs.rmdir("/m/n")
        vfs.mkdir("/m/free")
        vfs.rmdir("/m/free")  # a plain directory beside it still goes

    def test_mount_over_a_file_rejected(self, pm):
        vfs = Vfs(Filesystem(pm, "root"))
        vfs.write_whole("/f", b"still here")
        with pytest.raises(NotADirectorySimError):
            vfs.mount("/f", Filesystem(pm, "other"))
        assert vfs.read_whole("/f") == b"still here"
        assert vfs.filesystem_at("/f") is None

    def test_walk_errors_across_a_mount_keep_their_text(self, pm):
        vfs = Vfs(Filesystem(pm, "root"))
        vfs.mount("/shared", Filesystem(pm, "sfs"))
        vfs.makedirs("/shared/fan")
        vfs.write_whole("/shared/fan/mod0.o", b"x")
        vfs.mkdir("/shared/fan/locked", mode=0o700)
        vfs.write_whole("/shared/fan/locked/f", b"x")
        with pytest.raises(NotADirectorySimError) as info:
            vfs.resolve("/shared/fan/mod0.o/inner")
        assert str(info.value) == "/shared/fan/mod0.o is not a directory"
        with pytest.raises(PermissionSimError) as info:
            vfs.resolve("/shared/fan/locked/f", uid=1)
        assert str(info.value) == \
            "search permission denied on /shared/fan/locked"
        vfs.write_whole("/top", b"x")
        with pytest.raises(NotADirectorySimError) as info:
            vfs.resolve("/top/inner")
        assert str(info.value) == "/top is not a directory"

    def test_cross_volume_link_rejected(self, pm):
        vfs = Vfs(Filesystem(pm))
        vfs.mount("/m", Filesystem(pm))
        vfs.write_whole("/f", b"x")
        with pytest.raises(FilesystemError):
            vfs.link("/f", "/m/f")

    def test_cross_volume_rename_rejected(self, pm):
        vfs = Vfs(Filesystem(pm))
        vfs.mount("/m", Filesystem(pm))
        vfs.write_whole("/f", b"x")
        with pytest.raises(FilesystemError):
            vfs.rename("/f", "/m/f")


class TestWalk:
    def test_walk_visits_everything(self, pm):
        fs = Filesystem(pm)
        vfs = Vfs(fs)
        vfs.makedirs("/a/b")
        vfs.write_whole("/a/f1", b"1")
        vfs.write_whole("/a/b/f2", b"2")
        seen = []
        fs.walk(lambda path, inode: seen.append(path))
        assert set(seen) == {"/a", "/a/b", "/a/f1", "/a/b/f2"}


class _RecordingInjector:
    """Stands in for an armed injector's IO plane: records each read it
    filters and cuts the last byte, so a skipped or misplaced filter
    shows in the result."""

    def __init__(self) -> None:
        self.calls = []

    def filter_read(self, path, data, site="read", pid=0):
        self.calls.append((path, bytes(data), site))
        return data[:-1]


class TestReadWhole:
    """``read_whole`` makes ``open``'s read-only checks and one read of
    every byte without building a handle; every outcome must equal
    ``open(O_RDONLY)`` then ``pread(0, size)``."""

    @pytest.fixture
    def tree(self, vfs):
        vfs.mkdir("/d", mode=0o777)
        vfs.write_whole("/d/f", b"hello")
        vfs.write_whole("/d/empty", b"")
        vfs.write_whole("/d/big", bytes(range(256)) * 40)
        vfs.open("/d/sparse", O_WRONLY | O_CREAT).truncate(6000)
        vfs.symlink("f", "/d/link")
        vfs.write_whole("/d/secret", b"uid 1 only", uid=1, mode=0o600)
        vfs.rootfs.mkdir(vfs.rootfs.root, "priv", 1, 0o700)
        vfs.write_whole("/priv/f", b"private", uid=1)
        return vfs

    @pytest.mark.parametrize("armed", [False, True])
    @pytest.mark.parametrize("path, uid, cwd", [
        ("/d/f", 0, "/"), ("f", 2, "/d"), ("../d/./f", 1, "/priv"),
        ("/d/empty", 0, "/"), ("/d/big", 2, "/"), ("/d/sparse", 1, "/"),
        ("/d/link", 2, "/"), ("/d/missing", 0, "/"), ("/d", 0, "/"),
        ("/d/secret", 2, "/"), ("/d/secret", 1, "/"), ("/priv/f", 2, "/"),
        ("/priv/f", 1, "/"), ("/d/f/x", 0, "/"),
    ])
    def test_matches_open_and_pread(self, tree, path, uid, cwd, armed):
        def open_and_pread(path, uid, cwd):
            handle = tree.open(path, O_RDONLY, uid, cwd=cwd)
            return handle.pread(0, handle.inode.size)

        outcomes = []
        for read in (tree.read_whole, open_and_pread):
            tree.injector = _RecordingInjector() if armed else None
            try:
                result = read(path, uid, cwd)
            except FilesystemError as error:
                result = (type(error), error.args)
            outcomes.append((result, tree.injector and tree.injector.calls))
        assert outcomes[0] == outcomes[1]
