"""repro.net — a deterministic multi-node Hemlock cluster.

Extends the single-machine prototype to N machines sharing the paper's
global segment address space over a simulated network: a seeded fabric
(:mod:`repro.net.link`), a round-based cluster scheduler
(:mod:`repro.net.cluster`), and a single-writer-invalidation coherence
protocol that piggybacks on the existing SIGSEGV plumbing
(:mod:`repro.net.coherence`). Arm ``Cluster(..., ha=True)`` to add the
failure model of :mod:`repro.net.ha`: seeded node crashes, netd
wedges, partitions and reboots, with lease-based reclamation and
round-based membership. Everything is bit-identical per ``(seed,
fault plan)``; an unbooted cluster costs a single attribute check per
public fault, and an un-armed HA plane a single ``is None`` check per
frame.
"""

from repro.net.cluster import Cluster, Machine
from repro.net.ha import HA_PORT, HaConfig, HaManager
from repro.net.coherence import (
    COHERENCE_PORT,
    CoherenceAgent,
    SegmentDirectory,
    SegmentState,
)
from repro.net.link import (
    Fabric,
    Frame,
    FrameKind,
    MAX_RETRANSMITS,
    Nic,
    mix_seed,
)

__all__ = [
    "Cluster",
    "Machine",
    "HA_PORT",
    "HaConfig",
    "HaManager",
    "COHERENCE_PORT",
    "CoherenceAgent",
    "SegmentDirectory",
    "SegmentState",
    "Fabric",
    "Frame",
    "FrameKind",
    "MAX_RETRANSMITS",
    "Nic",
    "mix_seed",
]
