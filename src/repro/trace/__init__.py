"""repro.trace — kernel-wide event tracing and metrics.

The observability layer for the reproduction: every interesting kernel,
VM, linker, and IPC event (syscalls, page faults, signal deliveries,
scheduling slices, mappings, per-symbol resolutions, branch islands,
message traffic, disk seeks) can be recorded as a structured event
stamped with the deterministic clock. Exporters turn the stream into
JSONL, a ``chrome://tracing`` file, or a plain-text top-N report; the
``reprotrace`` CLI (``repro.tools.cli``) runs any example under tracing.

Tracing is off by default and costs one attribute check per site; it
never charges the clock, so enabling it cannot perturb any benchmark.

This module deliberately re-exports only the event/tracer API. Import
:mod:`repro.trace.export` explicitly for the exporters — it depends on
:mod:`repro.vm`, which is itself instrumented, and keeping it out of
the package import keeps the dependency graph acyclic.
"""

from repro.trace.events import (
    ALL_KINDS,
    ALL_MASK,
    Event,
    EventKind,
    kinds_mask,
)
from repro.trace.tracer import (
    DEFAULT_CAPACITY,
    NULL_TRACER,
    NullTracer,
    Tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "ALL_KINDS",
    "ALL_MASK",
    "Event",
    "EventKind",
    "kinds_mask",
    "DEFAULT_CAPACITY",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "set_tracer",
    "tracing",
]
