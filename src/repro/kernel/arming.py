"""The arming registry: what attaches to every kernel booted while armed.

The tools turn unmodified scripts into experiments by arming a
subsystem *ambiently*: every :class:`~repro.kernel.kernel.Kernel`
booted while a hook is armed gets that subsystem attached, and
``Kernel.__init__`` makes exactly one call here to do it. Each
subsystem owns one context manager that arms its slot —
``tracing()``, ``injecting()``, ``recording()``, ``sanitizing()`` and
``durable()`` — and this module owns the one decision they share:
the order.

Hooks run in the fixed slot order of :data:`SLOTS`, whatever order the
callers armed them in:

1. ``trace`` — the tracer must be bound before anything else emits;
   disk recovery emits events at boot.
2. ``inject`` — ``DiskStore.attach`` copies ``kernel.injector`` onto
   the device, so the injector must exist before the disk mounts.
3. ``rr`` — a :class:`~repro.rr.recorder.Recorder` makes its first
   checkpoint due at ``clock.cycles + interval``; formatting a disk charges
   journal cycles at boot, so recording must attach before the disk or
   every checkpoint moves.
4. ``sanitize`` — joins the kernel to the shared sanitizer.
5. ``disk`` — mounts the durable store last. An explicit ``disk=``
   device given to the kernel wins over an armed durable campaign.

With nothing armed a boot pays one empty-dict probe per slot.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator

from repro.errors import KernelError

#: Attach order; see the module docstring for why it is this one.
SLOTS = ("trace", "inject", "rr", "sanitize", "disk")

Hook = Callable[[object], None]

# The armed hook per slot; an absent slot attaches nothing.
_HOOKS: Dict[str, Hook] = {}


def arm(slot: str, hook: Hook) -> None:
    """Arm *hook* in *slot* for the rest of the process (the
    ``REPRO_TRACE`` / ``REPRO_SAN`` environment arms use this)."""
    if slot not in SLOTS:
        raise KernelError(f"unknown arming slot {slot!r} "
                          f"(slots: {', '.join(SLOTS)})")
    _HOOKS[slot] = hook


@contextmanager
def armed(slot: str, hook: Hook) -> Iterator[None]:
    """Arm *hook* in *slot* for every kernel booted inside the block;
    whatever the slot held before is re-armed on exit."""
    previous = _HOOKS.get(slot)
    arm(slot, hook)
    try:
        yield
    finally:
        if previous is None:
            del _HOOKS[slot]
        else:
            _HOOKS[slot] = previous


@contextmanager
def suspended() -> Iterator[None]:
    """Hide every armed hook inside the block (boots attach nothing)."""
    saved = dict(_HOOKS)
    _HOOKS.clear()
    try:
        yield
    finally:
        _HOOKS.clear()
        _HOOKS.update(saved)


def attach(kernel, disk=None) -> None:
    """Run the armed hooks on a freshly booted *kernel* in slot order.

    *disk* is the kernel's explicit block device; it replaces the
    ``disk`` slot's hook for this boot.
    """
    for slot in SLOTS:
        hook = _HOOKS.get(slot)
        if slot == "disk" and disk is not None:
            from repro.disk.mount import DiskStore

            DiskStore.attach(kernel, disk)
        elif hook is not None:
            hook(kernel)
