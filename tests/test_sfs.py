"""Shared file system: paper constants, address mapping, boot scan."""

import pytest

from repro.errors import AddressMapError, FileLimitError, FilesystemError
from repro.fs.vfs import O_CREAT, O_WRONLY, Vfs
from repro.fs.filesystem import Filesystem
from repro.sfs.addrmap import BTreeAddressMap, LinearAddressMap
from repro.sfs.sharedfs import (
    MAX_FILE_SIZE,
    MAX_INODES,
    SEGMENT_SPAN,
    SFS_BASE,
    SharedFilesystem,
)
from repro.vm.layout import SFS_REGION
from repro.vm.pages import PhysicalMemory


@pytest.fixture
def pm():
    return PhysicalMemory()


@pytest.fixture
def sfs(pm):
    return SharedFilesystem(pm)


@pytest.fixture
def vfs(pm, sfs):
    root = Filesystem(pm)
    v = Vfs(root)
    v.mount("/shared", sfs)
    return v


class TestPaperConstants:
    def test_exactly_1024_inodes(self):
        assert MAX_INODES == 1024

    def test_one_megabyte_files(self):
        assert MAX_FILE_SIZE == 1 << 20

    def test_region_partitioning(self):
        """1024 slots x 1 MiB exactly tile the 1 GiB region."""
        assert MAX_INODES * SEGMENT_SPAN == SFS_REGION.size
        assert SFS_BASE == SFS_REGION.start

    def test_address_of_inode(self, sfs):
        assert sfs.address_of_inode(0) == 0x3000_0000
        assert sfs.address_of_inode(1) == 0x3010_0000
        assert sfs.address_of_inode(1023) == 0x6FF0_0000

    def test_address_of_inode_range(self, sfs):
        with pytest.raises(ValueError):
            sfs.address_of_inode(1024)


class TestLimits:
    def test_file_size_limit(self, vfs):
        vfs.write_whole("/shared/f", b"x")
        handle = vfs.open("/shared/f", O_WRONLY)
        handle.pwrite(MAX_FILE_SIZE - 1, b"z")  # exactly at the limit
        with pytest.raises(FileLimitError):
            handle.pwrite(MAX_FILE_SIZE, b"z")

    def test_inode_exhaustion(self, pm):
        sfs = SharedFilesystem(pm)
        # Root consumed one inode; files can use the other 1023.
        for index in range(MAX_INODES - 1):
            sfs.create_file(sfs.root, f"f{index}", uid=0)
        with pytest.raises(FileLimitError):
            sfs.create_file(sfs.root, "straw", uid=0)

    def test_inode_reuse_after_unlink(self, sfs):
        inode = sfs.create_file(sfs.root, "f", uid=0)
        number = inode.number
        sfs.unlink(sfs.root, "f")
        again = sfs.create_file(sfs.root, "g", uid=0)
        assert again.number == number  # slot (and address) reused

    def test_hard_links_prohibited(self, sfs):
        inode = sfs.create_file(sfs.root, "f", uid=0)
        with pytest.raises(FilesystemError):
            sfs.link(sfs.root, "g", inode)

    def test_symlinks_allowed(self, vfs):
        """Symlinks are fine — only hard links break the 1:1 mapping."""
        vfs.write_whole("/shared/target", b"x")
        vfs.symlink("/shared/target", "/shared/alias")
        assert vfs.read_whole("/shared/alias") == b"x"


class TestAddressTranslation:
    def test_forward_and_back(self, sfs):
        inode = sfs.create_file(sfs.root, "seg", uid=0)
        base = sfs.address_of_inode(inode.number)
        hit = sfs.inode_of_address(base + 1234)
        assert hit is not None
        found, offset = hit
        assert found is inode
        assert offset == 1234

    def test_unknown_address(self, sfs):
        assert sfs.inode_of_address(SFS_BASE + 5 * SEGMENT_SPAN) is None

    def test_directories_have_no_address(self, sfs):
        child = sfs.mkdir(sfs.root, "d", uid=0)
        assert sfs.inode_of_address(
            sfs.address_of_inode(child.number)
        ) is None

    def test_path_of_address(self, vfs, sfs):
        vfs.makedirs("/shared/lib")
        vfs.write_whole("/shared/lib/seg", b"data")
        ino = vfs.stat("/shared/lib/seg").st_ino
        base = sfs.address_of_inode(ino)
        hit = sfs.path_of_address(base + 10)
        assert hit == ("/lib/seg", 10)

    def test_unlink_unregisters(self, vfs, sfs):
        vfs.write_whole("/shared/seg", b"x")
        base = sfs.address_of_inode(vfs.stat("/shared/seg").st_ino)
        vfs.unlink("/shared/seg")
        assert sfs.inode_of_address(base) is None

    def test_segments_listing(self, vfs, sfs):
        vfs.makedirs("/shared/a")
        vfs.write_whole("/shared/a/s1", b"1")
        vfs.write_whole("/shared/s2", b"2")
        paths = {path for path, _ in sfs.segments()}
        assert paths == {"/a/s1", "/s2"}


class TestBootScan:
    def test_rebuild_matches_incremental(self, vfs, sfs):
        vfs.makedirs("/shared/d")
        for index in range(10):
            vfs.write_whole(f"/shared/d/f{index}", b"x")
        vfs.unlink("/shared/d/f3")
        before = sfs.addrmap.entries()
        count = sfs.rebuild_address_map()
        assert count == 9
        assert sfs.addrmap.entries() == before

    def test_rebuild_into_btree_map(self, pm):
        """The boot scan works for either map implementation."""
        sfs = SharedFilesystem(pm)
        sfs.addrmap = BTreeAddressMap()
        inode = sfs.create_file(sfs.root, "f", uid=0)
        sfs.rebuild_address_map()
        base = sfs.address_of_inode(inode.number)
        assert sfs.addrmap.lookup_address(base) == (inode.number, 0)


class TestAddressMaps:
    @pytest.mark.parametrize("factory",
                             [LinearAddressMap, BTreeAddressMap])
    def test_map_contract(self, factory):
        amap = factory()
        amap.register(0x3000_0000, SEGMENT_SPAN, 0)
        amap.register(0x3020_0000, SEGMENT_SPAN, 2)
        assert amap.lookup_address(0x3000_0000) == (0, 0)
        assert amap.lookup_address(0x3000_0000 + 100) == (0, 100)
        assert amap.lookup_address(0x3020_0000 + SEGMENT_SPAN - 1) == \
            (2, SEGMENT_SPAN - 1)
        assert amap.lookup_address(0x3010_0000) is None
        assert amap.lookup_inode(2) == 0x3020_0000
        assert amap.lookup_inode(9) is None
        amap.unregister(0)
        assert amap.lookup_address(0x3000_0000) is None
        assert amap.entries() == [(0x3020_0000, SEGMENT_SPAN, 2)]

    @pytest.mark.parametrize("factory",
                             [LinearAddressMap, BTreeAddressMap])
    def test_rebuild(self, factory):
        amap = factory()
        amap.register(0x3000_0000, SEGMENT_SPAN, 0)
        amap.rebuild([(0x3050_0000, SEGMENT_SPAN, 5)])
        assert amap.lookup_address(0x3000_0000) is None
        assert amap.lookup_address(0x3050_0000) == (5, 0)

    @pytest.mark.parametrize("factory",
                             [LinearAddressMap, BTreeAddressMap])
    def test_duplicate_inode_rejected(self, factory):
        """Regression: re-registering an inode used to silently replace
        the tree entry while the old ino->base row went stale, so a
        later unregister could delete a live segment."""
        amap = factory()
        amap.register(0x3000_0000, SEGMENT_SPAN, 7)
        with pytest.raises(AddressMapError):
            amap.register(0x3040_0000, SEGMENT_SPAN, 7)
        # The original registration must be untouched.
        assert amap.lookup_inode(7) == 0x3000_0000
        assert amap.lookup_address(0x3040_0000) is None
        amap.unregister(7)
        assert amap.lookup_address(0x3000_0000) is None

    @pytest.mark.parametrize("factory",
                             [LinearAddressMap, BTreeAddressMap])
    @pytest.mark.parametrize("base", [
        0x3000_0000,                       # exact duplicate range
        0x3000_0000 - SEGMENT_SPAN // 2,   # overlaps from below
        0x3000_0000 + SEGMENT_SPAN // 2,   # overlaps from above
    ])
    def test_overlapping_range_rejected(self, factory, base):
        amap = factory()
        amap.register(0x3000_0000, SEGMENT_SPAN, 1)
        with pytest.raises(AddressMapError):
            amap.register(base, SEGMENT_SPAN, 2)
        assert amap.lookup_inode(2) is None
        assert amap.entries() == [(0x3000_0000, SEGMENT_SPAN, 1)]

    @pytest.mark.parametrize("factory",
                             [LinearAddressMap, BTreeAddressMap])
    def test_adjacent_ranges_allowed(self, factory):
        amap = factory()
        amap.register(0x3000_0000, SEGMENT_SPAN, 1)
        amap.register(0x3000_0000 + SEGMENT_SPAN, SEGMENT_SPAN, 2)
        amap.register(0x3000_0000 - SEGMENT_SPAN, SEGMENT_SPAN, 3)
        assert len(amap.entries()) == 3

    @pytest.mark.parametrize("factory",
                             [LinearAddressMap, BTreeAddressMap])
    def test_rejection_does_not_count_comparisons(self, factory):
        amap = factory()
        for index in range(10):
            amap.register(SFS_BASE + index * SEGMENT_SPAN, SEGMENT_SPAN,
                          index)
        before = amap.comparisons
        with pytest.raises(AddressMapError):
            amap.register(SFS_BASE, SEGMENT_SPAN, 99)
        assert amap.comparisons == before

    @pytest.mark.parametrize("factory",
                             [LinearAddressMap, BTreeAddressMap])
    def test_rebuild_resets_comparison_counter(self, factory):
        """Regression: rebuild() reset the counter on the B-tree map but
        not the linear one, skewing cross-implementation A2 numbers."""
        amap = factory()
        amap.register(0x3000_0000, SEGMENT_SPAN, 0)
        amap.lookup_address(0x3000_0000)
        amap.lookup_inode(0)
        amap.rebuild([(0x3050_0000, SEGMENT_SPAN, 5)])
        assert amap.comparisons == 0

    def test_linear_cost_grows_linearly(self):
        amap = LinearAddressMap()
        for index in range(100):
            amap.register(SFS_BASE + index * SEGMENT_SPAN, SEGMENT_SPAN,
                          index)
        amap.lookup_address(SFS_BASE + 99 * SEGMENT_SPAN)
        linear_cost = amap.comparisons
        assert linear_cost >= 100  # scanned the whole table

    def test_btree_cost_is_logarithmic(self):
        amap = BTreeAddressMap()
        for index in range(1000):
            amap.register(SFS_BASE + index * SEGMENT_SPAN, SEGMENT_SPAN,
                          index)
        before = amap.comparisons
        amap.lookup_address(SFS_BASE + 999 * SEGMENT_SPAN)
        assert amap.comparisons - before < 40
