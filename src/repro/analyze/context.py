"""Scope context handed to the checks — what the verifier may assume.

The symbol-resolution audit reproduces :mod:`repro.linker.scoped`
semantics *statically*: an object's undefined references resolve against
its own scope level first (the modules on its link_info module list and
search path), then against its ancestors' levels, up toward the root.
:class:`LintContext` carries that chain as a list of levels, innermost
first, plus the layout facts (address-map entries, expected placement)
the layout and sharing checks audit against.

Everything here is plain in-memory data. The ``lds``/``ldl`` gates build
contexts from state the linkers already hold, so gating an image costs
zero simulated cycles; only the ``reprolint`` CLI goes through the
simulated file system to peek at module exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


@dataclass
class ScopeModule:
    """One module visible at some level of the scope chain.

    *exports* maps symbol name to value (section offsets for templates,
    absolute addresses for placed segments). ``exports=None`` means the
    module is declared but unlocatable right now — the open-world case
    lds tolerates with a warning — so the audit must not claim any
    symbol is unresolvable.

    *text_symbols* names the exports that live in (or point into) text,
    which the sharing checker uses to catch stores into read-only code.
    """

    name: str
    sharing: str = "dynamic_public"
    exports: Optional[Mapping[str, int]] = None
    text_symbols: frozenset = frozenset()

    @property
    def known(self) -> bool:
        return self.exports is not None


@dataclass
class LintContext:
    """Assumptions for one analysis run (all optional)."""

    # Scope chain, innermost level first. Level 0 holds the modules the
    # object itself can see; deeper levels are its ancestors'.
    scope_levels: List[List[ScopeModule]] = field(default_factory=list)

    # True when the chain is complete: every symbol must resolve against
    # the object + chain, so a miss is an ERROR (SYM001) rather than a
    # deferred run-time resolution.
    closed_world: bool = False

    # Live (base, span, ino) rows from the kernel address map; the
    # layout audit flags overlaps against them (LAY002).
    addrmap_entries: Sequence[Tuple[int, int, int]] = ()

    # Base address of the object's own segment, excluded from the
    # overlap check (a mapped segment always "overlaps" itself).
    self_base: Optional[int] = None

    # Whether the image is being placed in the public (SFS) range.
    # None = infer from the object's layout.
    expect_public: Optional[bool] = None

    # -- chain queries -----------------------------------------------

    def all_modules(self) -> List[ScopeModule]:
        return [m for level in self.scope_levels for m in level]

    def providers(self, symbol: str) -> List[Tuple[int, ScopeModule]]:
        """(level, module) pairs whose exports define *symbol*,
        innermost level first, module-list order within a level."""
        out: List[Tuple[int, ScopeModule]] = []
        for depth, level in enumerate(self.scope_levels):
            for module in level:
                if module.known and symbol in module.exports:
                    out.append((depth, module))
        return out

    def resolve(self, symbol: str) -> Optional[int]:
        """Scoped resolution: first provider wins (nearest level)."""
        hits = self.providers(symbol)
        if not hits:
            return None
        return hits[0][1].exports[symbol]

    def has_unknown_modules(self) -> bool:
        return any(not m.known for m in self.all_modules())
