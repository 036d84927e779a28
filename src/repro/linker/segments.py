"""Public-module segment files in the shared file system.

A public module "resides in the same directory as its template (.o)
file, and has a name obtained by dropping the final '.o'. It also has a
unique, globally agreed-upon virtual address, and is internally
relocated on the assumption that it resides at that address. Public
modules are persistent; like traditional files they continue to exist
until explicitly destroyed." (§2)

On-file layout::

    [segment image, padded to a page boundary]   <- mapped at the address
    [serialized SEGMENT metadata (HOF)]          <- symbols, relocs, scope
    [16-byte trailer: magic, image_len, meta_len, reserved]

The image region is what gets mapped; the metadata rides along in the
same file (read through the ordinary file interface), so a segment is
self-describing — ldl can map a module it has never seen before.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import FileLimitError, LinkError, ObjectFormatError
from repro.fs.path import dirname, basename, join
from repro.fs.vfs import O_CREAT, O_EXCL, O_RDWR, O_WRONLY
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.linker.branch_islands import insert_branch_islands
from repro.linker.module import ModuleImage, Resolver
from repro.objfile.format import (
    SEC_TEXT,
    TRAILER,
    TRAILER_MAGIC,
    ObjectFile,
    ObjectKind,
    unpack_trailer,
)
from repro.sfs.sharedfs import MAX_FILE_SIZE
from repro.util.bits import align_up
from repro.vm.layout import PAGE_SIZE


def module_path_for_template(template_path: str) -> str:
    """Public module path: template directory + name minus '.o'."""
    name = basename(template_path)
    if not name.endswith(".o"):
        raise LinkError(
            f"template {template_path!r} does not end in '.o'"
        )
    return join(dirname(template_path), name[:-2])


def public_module_exists(kernel: Kernel, proc: Process,
                         module_path: str) -> bool:
    return kernel.vfs.exists(module_path, proc.uid, cwd=proc.cwd)


def create_public_module(kernel: Kernel, proc: Process,
                         template: ObjectFile, module_path: str,
                         resolver: Optional[Resolver] = None
                         ) -> Tuple[ObjectFile, int]:
    """Create and initialize a public module from its template.

    The module file must land on the shared partition — that is what
    gives it its address. Returns (segment metadata, base address).
    Raises if the file already exists (creation is serialized by the
    caller with a file lock).
    """
    sys = kernel.syscalls
    fs, _parent = kernel.vfs._resolve_dir(dirname(module_path), proc.uid)
    if fs is not kernel.sfs:
        raise LinkError(
            f"public module {module_path!r} must reside on the shared "
            f"file system ({kernel.sfs_mount})"
        )
    fd = sys.open(proc, module_path, O_WRONLY | O_CREAT | O_EXCL)
    try:
        info = sys.fstat(proc, fd)
        base = kernel.sfs.address_of_inode(info.st_ino)

        image = ModuleImage(template, name=basename(module_path))
        if insert_branch_islands(image.obj):
            # keep the symbol table in name order, as a clone leaves it
            image.obj.symbols = dict(sorted(image.obj.symbols.items()))
        image.layout_contiguous(base)
        image.apply_relocations(resolver)
        meta = image.to_segment_meta()

        raw_image = image.image_bytes()
        image_len = align_up(max(len(raw_image), 1), PAGE_SIZE)
        meta_bytes = meta.to_bytes()
        total = image_len + len(meta_bytes) + TRAILER.size
        if total > MAX_FILE_SIZE:
            raise FileLimitError(
                f"module {module_path!r} needs {total} bytes; shared "
                f"files are limited to {MAX_FILE_SIZE}"
            )
        sys.pwrite(proc, fd, 0, raw_image)
        sys.ftruncate(proc, fd, image_len)  # zero-fill pad + bss + heap
        sys.pwrite(proc, fd, image_len, meta_bytes)
        sys.pwrite(proc, fd, image_len + len(meta_bytes),
                   TRAILER.pack(TRAILER_MAGIC, image_len, len(meta_bytes),
                                0))
        return meta, base
    finally:
        sys.close(proc, fd)


def read_segment_meta(kernel: Kernel, proc: Process,
                      module_path: str) -> Tuple[ObjectFile, int, int]:
    """Read a segment file's metadata.

    Returns (metadata, base address, image length in bytes).
    """
    meta_bytes, image_len, _key = kernel.syscalls.read_module(
        proc, module_path, segment=True)
    meta = ObjectFile.from_bytes(meta_bytes)
    return meta, segment_base(meta, module_path), image_len


def segment_base(meta: ObjectFile, module_path: str) -> int:
    """The base address of segment metadata *meta*.

    This is the one acceptance check for segment files: the mapper and
    the scope scan both refuse metadata that is not SEGMENT metadata
    with a text layout.
    """
    if meta.kind is not ObjectKind.SEGMENT:
        raise ObjectFormatError(
            f"{module_path!r} metadata is not segment metadata"
        )
    text = meta.layout.get(SEC_TEXT)
    if text is None:
        raise ObjectFormatError(
            f"{module_path!r} segment metadata has no text layout"
        )
    return text.base


def update_segment_meta(kernel: Kernel, proc: Process, module_path: str,
                        meta: ObjectFile) -> None:
    """Rewrite a segment file's metadata in place (after run-time
    resolution fixed some of its retained relocations)."""
    sys = kernel.syscalls
    fd = sys.open(proc, module_path, O_RDWR)
    try:
        size = sys.fstat(proc, fd).st_size
        if size < TRAILER.size:
            raise ObjectFormatError(
                f"{module_path!r} is too small to be a segment"
            )
        image_len, _meta_len = unpack_trailer(
            sys.pread(proc, fd, size - TRAILER.size, TRAILER.size),
            module_path)
        meta_bytes = meta.to_bytes()
        sys.ftruncate(proc, fd, image_len)
        sys.pwrite(proc, fd, image_len, meta_bytes)
        sys.pwrite(proc, fd, image_len + len(meta_bytes),
                   TRAILER.pack(TRAILER_MAGIC, image_len, len(meta_bytes),
                                0))
    finally:
        sys.close(proc, fd)


def destroy_public_module(kernel: Kernel, proc: Process,
                          module_path: str) -> None:
    """Explicit destruction — the only way a public module goes away."""
    kernel.syscalls.unlink(proc, module_path)
