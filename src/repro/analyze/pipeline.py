"""The reprolint pipeline — run every check over an object and report.

Entry points:

* :func:`analyze_object` — run the five check categories over one
  :class:`~repro.objfile.format.ObjectFile` and return a
  :class:`~repro.analyze.report.Report`;
* :func:`analyze_archive` — per-member reports merged into one;
* :func:`verify_image` — the gate ``lds``/``ldl`` call: analyze, then
  raise :class:`~repro.errors.LintError` if any ERROR finding exists.
  Gate contexts are built from in-memory linker state only, so gating
  charges **zero simulated cycles**;
* :func:`context_from_kernel` — build a :class:`LintContext` for the
  ``reprolint`` CLI by peeking module exports through the simulated
  file system (this one *does* spend simulated cycles — it is
  tooling, not a load path);
* :func:`lint_enabled_default` — the ``REPRO_LINT=1`` env toggle the
  linkers consult when no explicit ``verify=`` was passed.

Invariant checked on every relocatable: the REL004 far-call findings
must agree one-for-one with
:func:`repro.linker.branch_islands.count_far_jumps` — the advisory and
the transform can never drift.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Tuple

from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.linker.branch_islands import count_far_jumps
from repro.linker.scoped import peek_exports
from repro.linker.searchpath import SearchPath
from repro.objfile.archive import Archive
from repro.objfile.format import ObjectFile, ObjectKind, RelocType
from repro.analyze.context import LintContext, ScopeModule
from repro.analyze.report import Report, Severity
from repro.analyze.relocs import check_relocations
from repro.analyze.symbols import check_symbols
from repro.analyze.cfg import check_cfg
from repro.analyze.layout import check_layout
from repro.analyze.sharing import check_sharing
from repro.analyze.sanitize import check_sanitize

# Ordered registry: (category name, check function). Category names are
# what ``reprolint --only`` matches on.
CHECKS: List[Tuple[str, Callable[..., None]]] = [
    ("relocations", check_relocations),
    ("symbols", check_symbols),
    ("cfg", check_cfg),
    ("layout", check_layout),
    ("sharing", check_sharing),
    ("sanitize", check_sanitize),
]


def lint_enabled_default() -> bool:
    """The linkers' default when ``verify=None``: the REPRO_LINT env."""
    return os.environ.get("REPRO_LINT", "0") not in ("", "0")


def analyze_object(obj: ObjectFile, context: Optional[LintContext] = None,
                   subject: str = "",
                   only: Optional[List[str]] = None) -> Report:
    """Run the checks (optionally a subset) over *obj*."""
    context = context if context is not None else LintContext()
    report = Report(subject or obj.name)
    for name, check in CHECKS:
        if only is not None and name not in only:
            continue
        check(obj, context, report)
    if obj.kind is ObjectKind.RELOCATABLE \
            and (only is None or "relocations" in only):
        _assert_far_jump_agreement(obj, report)
    return report


def analyze_archive(archive: Archive,
                    context: Optional[LintContext] = None,
                    subject: str = "") -> Report:
    """Analyze every member; the merged report keeps member names."""
    merged = Report(subject or archive.name)
    for member in archive.members:
        merged.merge(analyze_object(member, context))
    return merged


def verify_image(obj: ObjectFile, context: Optional[LintContext] = None,
                 subject: str = "") -> Report:
    """The lds/ldl gate: raise LintError on any ERROR finding.

    Pure in-memory analysis — no syscalls, no simulated cycles — so an
    enabled gate cannot perturb the cycle counts experiments measure.
    """
    report = analyze_object(obj, context, subject=subject)
    report.raise_if(Severity.ERROR)
    return report


def _assert_far_jump_agreement(obj: ObjectFile, report: Report) -> None:
    """REL004 must equal count_far_jumps.

    Skipped when a JUMP26 site itself is malformed (REL003 supersedes
    the advisory for that site, so the counts legitimately differ).
    """
    bad_sites = {(f.section, f.offset) for f in report.by_code("REL003")}
    jumps = [r for r in obj.relocations if r.type is RelocType.JUMP26]
    if any((r.section, r.offset) in bad_sites for r in jumps):
        return
    far = count_far_jumps(obj)
    found = report.count("REL004")
    assert found == far, (
        f"{obj.name}: reprolint saw {found} far call sites but "
        f"count_far_jumps sees {far}; the advisory and the island "
        f"transform have drifted apart"
    )


# ---------------------------------------------------------------------------
# context builders
# ---------------------------------------------------------------------------


def context_from_kernel(kernel: Kernel, proc: Process, obj: ObjectFile,
                        expect_public: Optional[bool] = None
                        ) -> LintContext:
    """Build the CLI's scope context by peeking the object's own
    link_info module list through the simulated file system."""
    search = SearchPath(list(obj.link_info.search_path) or [proc.cwd])
    level: List[ScopeModule] = []
    for name, sclass in obj.link_info.dynamic_modules:
        path = _locate(kernel, proc, search, name)
        exports = None
        if path is not None:
            exports = peek_exports(kernel, proc, path)
        level.append(ScopeModule(name=name, sharing=sclass,
                                 exports=exports))
    try:
        entries = kernel.sfs.addrmap.entries()
    except AttributeError:
        entries = []
    return LintContext(
        scope_levels=[level] if level else [],
        closed_world=False,
        addrmap_entries=entries,
        expect_public=expect_public,
    )


def _locate(kernel: Kernel, proc: Process, search: SearchPath,
            name: str) -> Optional[str]:
    for candidate in _name_variants(name):
        path = search.find(kernel.vfs, candidate, proc.uid, proc.cwd)
        if path is not None:
            return path
    return None


def _name_variants(name: str) -> List[str]:
    if name.startswith("/"):
        return [name]
    if name.endswith(".o"):
        return [name[:-2], name]  # placed module first, then template
    return [name, name + ".o"]
