"""lds — Hemlock's static linker (the wrapper around ld, §3).

At static link time lds:

* creates a load image containing a new instance of every static private
  module (plus crt0);
* creates any static public modules that do not yet exist — in the same
  directory as their templates, internally relocated to their globally
  agreed SFS addresses — but leaves them in separate files;
* resolves references to symbols in static modules, including references
  to absolute addresses in static public modules (which the wrapped ld
  refuses to do);
* does *not* resolve references to symbols in dynamic modules — it does
  not even insist the modules exist yet (a warning, not an error);
* saves the dynamic module names, the search strategy, and the retained
  relocations in explicit data structures in the load image, for ldl;
* rewrites over-long 26-bit jumps through branch islands;
* optionally (``verify=True`` or ``REPRO_LINT=1``) runs the reprolint
  static verifier over the finished image and refuses to write it if
  any ERROR-severity finding turns up. The gate analyzes only
  in-memory state, so it charges zero simulated cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ModuleNotFoundLinkError, UndefinedSymbolError
from repro.fs.vfs import O_CREAT, O_TRUNC, O_WRONLY
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.linker.branch_islands import insert_branch_islands, is_external
from repro.linker.classes import SharingClass
from repro.linker.crt0 import crt0_template
from repro.linker.module import ModuleImage, merge_objects
from repro.linker.searchpath import SearchPath
from repro.linker.segments import (
    create_public_module,
    module_path_for_template,
    read_segment_meta,
)
from repro.objfile.archive import Archive
from repro.objfile.format import ObjectFile, ObjectKind
from repro.vm.layout import HEAP_REGION, TEXT_BASE


@dataclass
class LinkRequest:
    """One module named on the lds command line with its sharing class."""

    module: str
    sharing: SharingClass = SharingClass.STATIC_PRIVATE


@dataclass
class LinkResult:
    """What a link produced."""

    executable: ObjectFile
    path: str
    warnings: List[str] = field(default_factory=list)
    static_publics: List[Tuple[str, int]] = field(default_factory=list)
    islands: int = 0
    retained_relocations: int = 0


def load_template(kernel: Kernel, proc: Process, path: str) -> ObjectFile:
    """Read a HOF relocatable from the simulated file system."""
    injector = kernel.injector
    if injector is not None:
        injector.on_link(proc, "load_template", path)
    data, _image_len, _key = kernel.syscalls.read_module(proc, path)
    return ObjectFile.from_bytes(data)


def store_object(kernel: Kernel, proc: Process, path: str,
                 obj: ObjectFile) -> None:
    """Write a HOF object to the simulated file system."""
    injector = kernel.injector
    if injector is not None:
        injector.on_link(proc, "store_object", path)
    sys = kernel.syscalls
    fd = sys.open(proc, path, O_WRONLY | O_CREAT | O_TRUNC)
    try:
        sys.pwrite(proc, fd, 0, obj.to_bytes())
    finally:
        sys.close(proc, fd)


class Lds:
    """The static linker, bound to one kernel instance.

    *verify* arms the post-link reprolint gate for every link; None
    defers to the ``REPRO_LINT`` environment variable at link time.
    """

    def __init__(self, kernel: Kernel,
                 verify: Optional[bool] = None) -> None:
        self.kernel = kernel
        self.verify = verify

    # ------------------------------------------------------------------

    def link(self, proc: Process, requests: Sequence[LinkRequest],
             output: str = "a.out",
             search_dirs: Sequence[str] = (),
             archives: Sequence[Archive] = (),
             entry: Optional[str] = None,
             with_crt0: bool = True,
             strict_dynamic: bool = False,
             use_jumptable: bool = False,
             verify: Optional[bool] = None) -> LinkResult:
        """Perform a static link; writes the executable to *output*.

        *strict_dynamic* turns the missing-dynamic-module warning into an
        error (useful in tests). *use_jumptable* routes external function
        calls through SunOS-style PLT entries instead of plain branch
        islands — the lazy *function* binding baseline of §3 (data
        references are unaffected; they cannot be deferred this way).
        *verify* overrides the linker-wide setting for this one link;
        when armed, an image with ERROR-severity reprolint findings is
        rejected with :class:`repro.errors.LintError` before anything is
        written to the file system.
        """
        search = SearchPath.for_static_link(
            proc.cwd, list(search_dirs),
            proc.getenv("LD_LIBRARY_PATH"),
        )
        warnings: List[str] = []

        static_private: List[ObjectFile] = []
        if with_crt0:
            static_private.append(crt0_template())
        public_exports: Dict[str, int] = {}
        static_publics: List[Tuple[str, int]] = []
        dynamic_list: List[Tuple[str, str]] = []

        for request in requests:
            if request.sharing is SharingClass.STATIC_PRIVATE:
                path = self._require(proc, search, request.module)
                static_private.append(load_template(self.kernel, proc, path))
            elif request.sharing is SharingClass.STATIC_PUBLIC:
                module_path, base, meta = self._ensure_public(
                    proc, search, request.module, public_exports,
                )
                static_publics.append((module_path, base))
                dynamic_list.append((module_path,
                                     SharingClass.STATIC_PUBLIC.value))
                for name, address in _exports_of(meta).items():
                    public_exports.setdefault(name, address)
            else:
                # Dynamic classes: record, warn if nothing locatable yet.
                dynamic_list.append((request.module,
                                     request.sharing.value))
                if not self._locatable(proc, search, request.module):
                    message = (
                        f"dynamic module {request.module!r} not found at "
                        f"static link time (searched: "
                        f"{':'.join(search.directories)})"
                    )
                    if strict_dynamic:
                        raise ModuleNotFoundLinkError(
                            request.module, search.directories
                        )
                    warnings.append(message)

        merged = merge_objects(static_private, output)

        # Archive members that satisfy remaining undefineds join the image.
        undefined = set(merged.undefined_symbols()) \
            - {s.name for s in merged.defined_globals()}
        undefined -= set(public_exports)
        for archive in archives:
            members = archive.resolve(undefined)
            if members:
                static_private.extend(m.clone() for m in members)
                merged = merge_objects(static_private, output)
                undefined = set(merged.undefined_symbols()) \
                    - {s.name for s in merged.defined_globals()}
                undefined -= set(public_exports)

        if use_jumptable:
            from repro.linker.jumptable import insert_jump_table

            insert_jump_table(
                merged, lambda symbol: is_external(merged, symbol)
            )
        islands = insert_branch_islands(merged)

        image = ModuleImage(merged, output)
        image.layout_split(TEXT_BASE, HEAP_REGION.start)
        remaining = image.apply_relocations(
            lambda symbol: public_exports.get(symbol)
        )

        # Anything still unresolved must belong to a dynamic module; if
        # there are no dynamic modules at all, that's a plain link error.
        if remaining and not dynamic_list:
            raise UndefinedSymbolError(sorted({r.symbol for r in remaining}))

        executable = image.to_executable()
        executable.kind = ObjectKind.EXECUTABLE
        executable.link_info.dynamic_modules = dynamic_list
        executable.link_info.search_path = list(search.directories)
        if entry is not None:
            executable.entry_symbol = entry
        elif not executable.entry_symbol:
            executable.entry_symbol = "_start" if with_crt0 else "main"

        if self._should_verify(verify):
            self._verify(executable, output, public_exports, dynamic_list)

        store_object(self.kernel, proc, output, executable)
        return LinkResult(
            executable=executable,
            path=output,
            warnings=warnings,
            static_publics=static_publics,
            islands=islands,
            retained_relocations=len(executable.relocations),
        )

    # ------------------------------------------------------------------

    def add_link_info(self, template: ObjectFile,
                      search_dirs: Sequence[str] = (),
                      modules: Sequence[Tuple[str, str]] = ()) -> ObjectFile:
        """lds -r mode: emit a new template carrying search-strategy and
        module-list information (the hooks scoped linking uses)."""
        out = template.clone()
        out.link_info.search_path.extend(search_dirs)
        out.link_info.dynamic_modules.extend(modules)
        return out

    # ------------------------------------------------------------------

    def _should_verify(self, override: Optional[bool]) -> bool:
        if override is not None:
            return override
        if self.verify is not None:
            return self.verify
        from repro.analyze.pipeline import lint_enabled_default

        return lint_enabled_default()

    def _verify(self, executable: ObjectFile, output: str,
                public_exports: Dict[str, int],
                dynamic_list: List[Tuple[str, str]]) -> None:
        """The reprolint gate: refuse to write a broken image.

        The context is built purely from state this link already holds
        in memory (no syscalls), so the gate cannot perturb simulated
        cycle counts.
        """
        from repro.analyze.context import LintContext, ScopeModule
        from repro.analyze.pipeline import verify_image

        level = []
        if public_exports:
            level.append(ScopeModule(
                "<static-public>", sharing=SharingClass.STATIC_PUBLIC.value,
                exports=dict(public_exports),
            ))
        level.extend(
            ScopeModule(name, sharing=sclass, exports=None)
            for name, sclass in dynamic_list
            if sclass != SharingClass.STATIC_PUBLIC.value
        )
        dynamic = [s for _n, s in dynamic_list
                   if s != SharingClass.STATIC_PUBLIC.value]
        context = LintContext(
            scope_levels=[level] if level else [],
            closed_world=not dynamic,
            expect_public=False,
        )
        verify_image(executable, context, subject=output)

    def _require(self, proc: Process, search: SearchPath,
                 name: str) -> str:
        """Locate a static module or abort the link."""
        path = search.find(self.kernel.vfs, name, proc.uid, proc.cwd)
        if path is None:
            raise ModuleNotFoundLinkError(name, search.directories)
        return path

    def _locatable(self, proc: Process, search: SearchPath,
                   name: str) -> bool:
        if search.find(self.kernel.vfs, name, proc.uid, proc.cwd):
            return True
        if name.endswith(".o"):
            return search.find(self.kernel.vfs, name[:-2], proc.uid,
                               proc.cwd) is not None
        return False

    def _ensure_public(self, proc: Process, search: SearchPath,
                       template_name: str,
                       known_exports: Dict[str, int]
                       ) -> Tuple[str, int, ObjectFile]:
        """Create-or-open a static public module; returns
        (module path, base address, segment metadata)."""
        template_path = self._require(proc, search, template_name)
        module_path = module_path_for_template(template_path)
        if self.kernel.vfs.exists(module_path, proc.uid):
            meta, base, _image_len = read_segment_meta(
                self.kernel, proc, module_path
            )
            return module_path, base, meta
        template = load_template(self.kernel, proc, template_path)
        meta, base = create_public_module(
            self.kernel, proc, template, module_path,
            resolver=lambda symbol: known_exports.get(symbol),
        )
        return module_path, base, meta


def _exports_of(meta: ObjectFile) -> Dict[str, int]:
    return {s.name: s.value for s in meta.defined_globals()}
