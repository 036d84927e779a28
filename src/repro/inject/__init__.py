"""repro.inject — deterministic, seed-driven fault injection.

Named injection planes sit at the four choke points Hemlock's
correctness argument rests on (syscall dispatch, page-fault delivery,
SFS/VFS I/O, and linker resolution). A :class:`FaultPlan` installed on a
kernel decides — under a seeded RNG — when each plane misbehaves, and
every trigger is recorded as an ``EventKind.INJECT`` trace event, so an
identical seed and plan set reproduce a bit-identical fault schedule.
See DESIGN.md §8.
"""

from repro.inject.injector import (
    CAMPAIGN,
    Injector,
    InjectStats,
    injecting,
    install_injector,
    remove_injector,
)
from repro.inject.plan import FaultKind, FaultPlan, Plane

__all__ = [
    "CAMPAIGN",
    "FaultKind",
    "FaultPlan",
    "Injector",
    "InjectStats",
    "Plane",
    "injecting",
    "install_injector",
    "remove_injector",
]
