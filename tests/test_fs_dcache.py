"""Differential gate for the VFS path-walk cache.

``Vfs.resolve`` caches the outcome of each walk under its key
``(normalized path, uid, follow)``: the ``(fs, inode)`` it found, or the
class and message of the error it raised. ``Vfs._walk`` stays the
reference. Besides it, only a creating ``Vfs.open`` fills the cache, with
the walk to the file it created, and ``Filesystem.invalidate_walks``
keeps it exact.

After every step of a random sequence of namespace operations, every
probe must agree with a bare ``_walk``: the same ``(fs, inode)`` objects,
or the same exception class and message. A cached miss must raise a
fresh exception on every call. Three scenarios cover the mutations that
bypass the per-operation methods: an in-place ``restore_volume`` on a
warm kernel, crash recovery of a ``BlockDevice`` kernel, and the
independent caches of two cluster nodes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.disk import BlockDevice
from repro.disk.image import restore_volume, serialize_volume
from repro.errors import FilesystemError, PermissionSimError
from repro.fs.filesystem import Filesystem
from repro.fs.path import normalize
from repro.fs.vfs import O_CREAT, O_WRONLY, Vfs
from repro.net import Cluster
from repro.vm.pages import PhysicalMemory

SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

UIDS = (0, 1, 2)
NAMES = ("a", "b", "l")
CWDS = ("/", "/a", "/mnt")
MODES = (0o755, 0o700, 0o711, 0o750, 0o600)
# Relative, absolute, dangling and self-referential targets; "/chain0"
# needs more than 40 levels of links.
TARGETS = ("a", "b", "l", "../a", "a/b", "/a/b", "/mnt/a", "missing",
           ".", "..", "/", "/chain0", "/priv/f")
CHAIN = 45


def _tree_paths(prefix: str, depth: int):
    paths = [prefix or "/"]
    if depth:
        for name in NAMES:
            paths += _tree_paths(f"{prefix}/{name}", depth - 1)
    return paths


#: The (path, cwd) pairs checked after each step (with the paths the
#: step itself named): every canonical path up to two names deep on
#: each volume, the fixed links, the private directory and a few
#: spellings that only normalization makes equal.
PROBES = (
    [(path, "/") for path in _tree_paths("", 2) + _tree_paths("/mnt", 2)]
    + [("/chain0", "/"), ("/loop", "/"), ("/priv", "/"), ("/priv/f", "/"),
       ("/drop", "/"), ("/drop/a", "/"),
       ("//a//b/", "/"), ("/a/./b/..", "/"), ("b", "/a"), ("../l", "/a"),
       ("a/b", "/mnt"), (".", "/mnt"), ("l/a", "/")]
)


def _walk(vfs: Vfs, path: str, uid: int, follow: bool, cwd: str):
    """The reference outcome: a bare walk's (fs, inode) or its error."""
    try:
        fs, inode, _, _ = vfs._walk(normalize(path, cwd), uid, follow)
    except FilesystemError as error:
        return error
    return fs, inode


def assert_agrees(vfs: Vfs, path: str, uid: int, follow: bool,
                  cwd: str) -> None:
    expected = _walk(vfs, path, uid, follow, cwd)
    raised = []
    # The first call may fill the cache; the second one reads it.
    for _ in range(2):
        try:
            fs, inode = vfs.resolve(path, uid, follow=follow, cwd=cwd)
        except FilesystemError as error:
            assert isinstance(expected, FilesystemError), (
                path, uid, follow, cwd, error)
            assert type(error) is type(expected), (path, uid, follow)
            assert error.args == expected.args, (path, uid, follow)
            raised.append(error)
        else:
            assert not isinstance(expected, FilesystemError), (
                path, uid, follow, cwd, expected)
            assert fs is expected[0] and inode is expected[1], (
                path, uid, follow, cwd)
    if raised:
        assert raised[0] is not raised[1], "a cached miss shared its error"


def assert_all_agree(vfs: Vfs, probes=PROBES) -> None:
    for path, cwd in probes:
        for uid in UIDS:
            for follow in (True, False):
                assert_agrees(vfs, path, uid, follow, cwd)


def fresh_vfs() -> Vfs:
    """Two volumes, a directory every uid may write, a directory only
    uid 1 may search, a directory uid 2 may write but not search, a
    45-link chain and a self-loop."""
    physmem = PhysicalMemory()
    root = Filesystem(physmem, "root")
    vfs = Vfs(root)
    vfs.mount("/mnt", Filesystem(physmem, "other"))
    root.mkdir(root.root, "a", 0, 0o777)
    private = root.mkdir(root.root, "priv", 1, 0o700)
    root.mkdir(root.root, "drop", 1, 0o722)
    root.create_file(private, "f", 1)
    for index in range(CHAIN):
        root.symlink(root.root, f"chain{index}",
                     f"chain{index + 1}" if index + 1 < CHAIN else "/a", 0)
    root.symlink(root.root, "loop", "loop", 0)
    return vfs


# Mostly canonical paths from a small space, so that operations often
# name the same entry; sometimes relative or oddly spelled ones.
_canonical = st.builds(lambda lead, parts: lead + "/".join(parts),
                       st.sampled_from(["/", "/mnt/"]),
                       st.lists(st.sampled_from(NAMES), min_size=1,
                                max_size=2))
_spelled = st.builds(lambda lead, parts: lead + "/".join(parts),
                     st.sampled_from(["", "//", "/a/../", "/mnt/./"]),
                     st.lists(st.sampled_from(NAMES + (".", "..")),
                              min_size=1, max_size=3))
# Entries a creating open may add: in a directory uid 2 may write but
# not search, through a symlink, or named like a mount point ("mnt",
# or a name the mount operation used).
_created = st.builds(lambda parent, name: parent + name,
                     st.sampled_from(["/", "/a/", "/mnt/", "/drop/", "/l/",
                                      "/a/b/"]),
                     st.sampled_from(NAMES + ("mnt",)))
paths = st.one_of(_canonical, _canonical, _spelled, _created)
KINDS = ("create", "mkdir", "symlink", "link", "unlink", "rmdir", "rename",
         "mount", "resolve")
#: One operation: (kind, uid, cwd, path, other path, symlink target,
#: directory mode, follow, pick); each kind reads the fields it needs.
#: A *pick* replaces the path an unlink, rmdir, link or rename acts on
#: by one of the entries that exist, so removals hit warm entries.
operations = st.tuples(st.sampled_from(KINDS), st.sampled_from((0, 0, 1, 2)),
                       st.sampled_from(CWDS), paths, paths,
                       st.sampled_from(TARGETS), st.sampled_from(MODES),
                       st.booleans(), st.none() | st.integers(0, 63))


def existing_entries(vfs: Vfs):
    return [path for path, cwd in PROBES if cwd == "/" and path != "/"
            and not isinstance(_walk(vfs, path, 0, False, cwd),
                               FilesystemError)]


def apply(vfs: Vfs, op) -> None:
    kind, uid, cwd, path, other, target, mode, follow, pick = op
    existing = existing_entries(vfs)
    if pick is not None and existing:
        victim = existing[pick % len(existing)]
        if kind in ("unlink", "rmdir"):
            path = victim
        else:
            other = victim
    try:
        if kind == "create":
            vfs.open(path, O_WRONLY | O_CREAT, uid, cwd=cwd)
        elif kind == "mkdir":
            vfs.mkdir(path, uid, mode, cwd=cwd)
        elif kind == "symlink":
            vfs.symlink(target, path, uid, cwd=cwd)
        elif kind == "link":
            vfs.link(other, path, uid, cwd=cwd)
        elif kind == "unlink":
            vfs.unlink(path, uid, cwd=cwd)
        elif kind == "rmdir":
            vfs.rmdir(path, uid, cwd=cwd)
        elif kind == "rename":
            vfs.rename(other, path, uid, cwd=cwd)
        elif kind == "mount":
            volume = Filesystem(vfs.rootfs.physmem, "extra")
            volume.create_file(volume.root, "a", 0)
            vfs.mount(normalize(path, cwd), volume, uid)
        else:
            vfs.resolve(path, uid, follow=follow, cwd=cwd)
    except FilesystemError:
        pass


class TestDifferential:
    @settings(max_examples=80, **SETTINGS)
    @given(st.lists(operations, min_size=1, max_size=20))
    def test_cached_resolve_agrees_with_the_walk(self, ops):
        vfs = fresh_vfs()
        assert_all_agree(vfs)
        for op in ops:
            apply(vfs, op)
            _, _, cwd, path, other = op[:5]
            assert_all_agree(vfs, PROBES + [(path, cwd), (other, cwd)])

    @pytest.mark.parametrize("step", [
        lambda vfs: vfs.write_whole("/a/new", b""),
        lambda vfs: vfs.mkdir("/a/new"),
        lambda vfs: vfs.symlink("d", "/a/new"),
        lambda vfs: vfs.link("/a/f", "/a/new"),
        lambda vfs: vfs.unlink("/a/f"),
        lambda vfs: vfs.rmdir("/a/d/e"),
        lambda vfs: vfs.rename("/a/d", "/a/new"),
        lambda vfs: vfs.mount("/a/d", Filesystem(vfs.rootfs.physmem)),
    ], ids=["create", "mkdir", "symlink", "link", "unlink", "rmdir",
            "rename", "mount"])
    def test_each_namespace_change_on_a_warm_cache(self, step):
        vfs = fresh_vfs()
        vfs.write_whole("/a/f", b"")
        vfs.makedirs("/a/d/e")
        vfs.write_whole("/a/d/x", b"")
        probes = [(path, "/") for path in (
            "/a/f", "/a/d", "/a/d/x", "/a/d/e", "/a/new", "/a/new/x")]
        assert_all_agree(vfs, probes)
        step(vfs)
        assert_all_agree(vfs, probes)

    def test_every_kind_of_walk_error_is_cached_and_fresh(self):
        vfs = fresh_vfs()
        vfs.write_whole("/a/file", b"")
        for path, uid, follow in [("/chain0", 0, True),   # > 40 links
                                  ("/loop", 0, True),
                                  ("/priv/f", 2, True),   # no search
                                  ("/a/file/x", 0, True),  # not a dir
                                  ("/a/gone", 0, False)]:
            assert_agrees(vfs, path, uid, follow, "/")
            key = (path, uid, follow)
            assert key in vfs._missing and key not in vfs._found
        assert_agrees(vfs, "/priv/f", 1, True, "/")
        assert ("/priv/f", 1, True) in vfs._found

    def test_addition_keeps_found_walks_and_drops_misses(self):
        vfs = fresh_vfs()
        found = vfs.resolve("/a")
        with pytest.raises(FilesystemError):
            vfs.resolve("/a/new")
        vfs.write_whole("/a/new", b"")
        # The creating open seeded its own walk, and nothing else.
        assert vfs._found == {("/a", 0, True): found,
                              ("/a/new", 0, True): _walk(vfs, "/a/new", 0,
                                                         True, "/")}
        assert vfs._missing == {}
        assert_agrees(vfs, "/a/new", 0, True, "/")

    def test_creating_open_without_search_permission(self):
        """uid 2 may write /drop but not search it, so its creating open
        is refused by the walk and adds nothing. uid 1's open creates
        and seeds its own key only: uid 2 is still refused."""
        vfs = fresh_vfs()
        with pytest.raises(PermissionSimError):
            vfs.open("/drop/f", O_WRONLY | O_CREAT, 2)
        assert "f" not in vfs.resolve("/drop")[1].entries
        assert ("/drop/f", 2, True) not in vfs._found
        vfs.open("/drop/f", O_WRONLY | O_CREAT, 1)
        assert vfs._found[("/drop/f", 1, True)] == _walk(vfs, "/drop/f", 1,
                                                          True, "/")
        for uid in UIDS:
            assert_agrees(vfs, "/drop/f", uid, True, "/")

    def test_creating_open_under_a_stale_mount_point(self):
        """A volume stays mounted at /a/d after /a is renamed away; a
        file created as the new /a/d is covered by that mount, so the
        walk of /a/d reaches the volume's root, not the file."""
        vfs = fresh_vfs()
        vfs.mkdir("/a/d")
        volume = Filesystem(vfs.rootfs.physmem, "extra")
        vfs.mount("/a/d", volume)
        vfs.rename("/a", "/z")
        vfs.mkdir("/a")
        handle = vfs.open("/a/d", O_WRONLY | O_CREAT)
        assert ("/a/d", 0, True) not in vfs._found
        assert_agrees(vfs, "/a/d", 0, True, "/")
        assert vfs.resolve("/a/d") == (volume, volume.root)
        assert handle.inode is not volume.root

    def test_the_cap_clears_a_full_dict(self, monkeypatch):
        from repro.fs import vfs as vfs_module

        monkeypatch.setattr(vfs_module, "_WALK_CACHE_LIMIT", 4)
        vfs = fresh_vfs()
        for index in range(10):
            vfs.exists(f"/a/x{index}")
            vfs.resolve(f"/chain{index}", follow=False)
            assert len(vfs._missing) <= 4 and len(vfs._found) <= 4
        assert_all_agree(vfs)


# ---------------------------------------------------------------------------
# mutations that bypass the per-operation methods
# ---------------------------------------------------------------------------

KERNEL_PROBES = [(path, "/") for path in (
    "/", "/shared", "/shared/seg", "/shared/new", "/shared/dir",
    "/shared/dir/seg", "/shared/alias", "/work", "/work/notes",
    "/work/late")]


def populate(vfs: Vfs) -> None:
    vfs.write_whole("/shared/seg", b"first")
    vfs.mkdir("/shared/dir")
    vfs.symlink("dir/seg", "/shared/alias")
    vfs.makedirs("/work")
    vfs.write_whole("/work/notes", b"root volume")


def churn(vfs: Vfs) -> None:
    vfs.rename("/shared/seg", "/shared/dir/seg")
    vfs.write_whole("/shared/new", b"second")
    vfs.unlink("/work/notes")
    vfs.write_whole("/work/late", b"late")


class TestRestoreAndRecovery:
    def test_in_place_restore_on_a_warm_kernel(self):
        kernel = repro.boot().kernel
        volumes = [kernel.rootfs, kernel.sfs]
        populate(kernel.vfs)
        snapshot = [serialize_volume(fs) for fs in volumes]
        churn(kernel.vfs)
        assert_all_agree(kernel.vfs, KERNEL_PROBES)  # warm both dicts
        for fs, record in zip(volumes, snapshot):
            restore_volume(fs, record)
        # Every inode is a new object now: a stale hit would name the
        # old one, a stale miss would hide /shared/seg.
        assert_all_agree(kernel.vfs, KERNEL_PROBES)
        assert kernel.vfs.read_whole("/shared/seg") == b"first"
        assert not kernel.vfs.exists("/shared/new")

    def test_crash_recovery_of_a_disk_kernel(self):
        device = BlockDevice(nblocks=2048, seed=5)
        first = repro.boot(disk=device)
        populate(first.vfs)
        first.kernel.sync()
        churn(first.vfs)
        assert_all_agree(first.vfs, KERNEL_PROBES)
        first.kernel.crash()

        second = repro.boot(disk=device.reopen())
        assert not second.kernel.recovery.clean
        assert_all_agree(second.vfs, KERNEL_PROBES)
        assert second.vfs.read_whole("/shared/dir/seg") == b"first"
        second.vfs.rename("/shared/dir/seg", "/shared/seg")
        assert_all_agree(second.vfs, KERNEL_PROBES)


class TestCluster:
    def test_node_caches_stay_independent(self):
        cluster = Cluster(2, seed=3)
        try:
            vfs0, vfs1 = (machine.kernel.vfs for machine in cluster.machines)
            assert vfs0.rootfs.mounted_in == [vfs0]
            assert cluster.machines[1].kernel.sfs.mounted_in == [vfs1]
            probes = [("/shared/only0", "/"), ("/shared", "/")]
            assert_all_agree(vfs0, probes)
            assert_all_agree(vfs1, probes)
            vfs0.write_whole("/shared/only0", b"node 0")
            # Node 0's addition leaves node 1's cached miss in place,
            # and that miss is still what node 1's own walk says.
            assert ("/shared/only0", 0, True) in vfs1._missing
            assert ("/shared/only0", 0, True) not in vfs0._missing
            assert_all_agree(vfs0, probes)
            assert_all_agree(vfs1, probes)
            assert vfs0.exists("/shared/only0")
            assert not vfs1.exists("/shared/only0")
        finally:
            cluster.shutdown()
