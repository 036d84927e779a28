"""repro.sanitize — shared-segment race detector + heap sanitizer.

The dynamic half of "reprosan": an Eraser-style lockset +
happens-before race detector over public shared segments, armed at the
VM load/store choke points, plus a shmalloc heap sanitizer (redzones,
use-after-free, double-free, leaks at segment close). The static half
lives in :mod:`repro.analyze.sanitize` (the ``SAN*`` reprolint family).

Typical use::

    from repro.sanitize import sanitizing

    with sanitizing() as sanitizer:
        kernel = repro.boot()        # joins the armed sanitizer
        ...                          # run the workload
    print(sanitizer.report.render())

``sanitizing()`` arms the ``sanitize`` slot of
:mod:`repro.kernel.arming`, the one way a kernel gets a sanitizer;
``REPRO_SAN=1`` arms it for every boot of the process. Reports are
deterministic per seed, and the sanitizer never charges the simulated
clock.
"""

from repro.sanitize.report import (
    AccessSite,
    HeapFinding,
    RaceFinding,
    SanReport,
)
from repro.sanitize.sanitizer import (
    SanStats,
    Sanitizer,
    sanitizing,
)
from repro.sanitize.shadow import (
    Access,
    ThreadState,
    WordState,
    happens_before,
    vc_join,
)

__all__ = [
    "Access",
    "AccessSite",
    "HeapFinding",
    "RaceFinding",
    "SanReport",
    "SanStats",
    "Sanitizer",
    "ThreadState",
    "WordState",
    "happens_before",
    "sanitizing",
    "vc_join",
]
