"""The injector: seeded, deterministic fault decisions at the planes.

Design constraints, mirroring :mod:`repro.trace`:

1. **Zero perturbation when absent.** Every choke point costs one
   ``injector is not None`` attribute check when no injector is
   installed; no simulated cycles are ever charged by the injector
   itself (retry *backoff* is charged by the retrying layer, which is a
   modelled cost of the hardened ``ldl``, not of injection).
2. **Deterministic.** Each installed plan gets its own
   :class:`~repro.util.rng.DeterministicRng` seeded from
   ``mix(injector_seed, plan_index)``; decisions depend only on the
   seed, the plan list, and the (deterministic) simulation itself, so
   identical seed + plans => a bit-identical ``EventKind.INJECT`` stream.
3. **Observable.** Every trigger emits one ``INJECT`` trace event
   (``name="plane:kind:site"``, ``value=`` running trigger count), and
   ``Injector.stats`` counts checks/matches/triggers/containments.

Arming, like tracing, is either explicit::

    injector = install_injector(kernel, [FaultPlan(...)], seed=7)

or ambient for every kernel booted inside the block (what the
``reprochaos`` CLI does), through the ``inject`` slot of
:mod:`repro.kernel.arming`::

    with injecting([FaultPlan(...)], seed=7):
        system = boot()     # Kernel.__init__ attaches a fresh injector
"""

from __future__ import annotations

from contextlib import contextmanager
from fnmatch import fnmatchcase
from types import SimpleNamespace
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
)

from repro.errors import (
    InjectedDiskFullError,
    InjectedFaultError,
    InjectedIOError,
    InjectedLinkError,
    InjectedModuleNotFoundError,
    InjectedSyscallError,
)
from repro.inject.plan import (
    READ_KINDS,
    WRITE_KINDS,
    FaultKind,
    FaultPlan,
    Plane,
)
from repro.kernel import arming
from repro.trace import tracer as _trace
from repro.trace.events import EventKind
from repro.util.rng import DeterministicRng
from repro.vm.faults import AccessKind, PageFaultError

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix(seed: int, index: int) -> int:
    """Derive a per-plan seed (splitmix64-style finalizer)."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class _PlanState:
    """Mutable per-boot decision state for one installed plan."""

    __slots__ = ("plan", "rng", "matched", "triggered")

    def __init__(self, plan: FaultPlan, rng: DeterministicRng) -> None:
        self.plan = plan
        self.rng = rng
        self.matched = 0
        self.triggered = 0


class Injector:
    """Seeded fault source attached to one booted kernel."""

    def __init__(self, kernel, plans: Sequence[FaultPlan] = (),
                 seed: int = 0) -> None:
        self.kernel = kernel
        self.seed = seed
        # Counters the chaos campaigns and ``kernel.metrics()`` report.
        self.stats = SimpleNamespace(
            checked=0,       # decision-point evaluations with plans armed
            matched=0,       # predicate matches (eligible or not)
            triggered=0,     # faults actually injected
            contained=0,     # injected faults absorbed at a kernel boundary
            retries=0,       # transient faults absorbed by retry/backoff
            by_kind={},
        )
        self._installed = 0
        self._states: Dict[Plane, List[_PlanState]] = {
            plane: [] for plane in Plane
        }
        for plan in plans:
            self.install(plan)

    def install(self, plan: FaultPlan) -> None:
        """Arm *plan*. Each plan draws from its own derived-seed RNG so
        adding a plan never perturbs the decisions of earlier ones."""
        state = _PlanState(
            plan, DeterministicRng(_mix(self.seed, self._installed))
        )
        self._installed += 1
        self._states[plan.plane].append(state)

    def plans(self) -> List[FaultPlan]:
        return [state.plan
                for states in self._states.values() for state in states]

    def resume_from(self, previous: "Injector") -> None:
        """Adopt *previous*'s per-plan decision state.

        A machine reboot builds a fresh kernel and with it a fresh
        injector, but a fault campaign is scoped to the whole cluster
        run, not to one boot: ``after`` offsets, ``max_faults`` caps
        and the per-plan RNG streams must keep counting across the
        reboot, or a capped CRASH plan would re-arm every time its
        victim came back up. Only planes whose plan lists are identical
        are adopted — a differing list means the ambient campaign
        changed between the boots, and fresh state is the honest
        interpretation."""
        for plane, states in previous._states.items():
            mine = self._states[plane]
            if [s.plan for s in states] == [s.plan for s in mine]:
                self._states[plane] = states

    # ------------------------------------------------------------------
    # the decision core
    # ------------------------------------------------------------------

    def _decide(self, plane: Plane, site: str, subject: str, pid: int,
                kinds: Optional[FrozenSet[FaultKind]] = None,
                addr: int = 0) -> Optional[_PlanState]:
        """First plan that fires at this point, or None.

        Probability draws happen only for plans that pass every
        predicate, so unrelated operations never consume RNG state —
        that is what keeps streams identical across reruns even when a
        workload's *untargeted* operation mix varies by plan set.
        """
        states = self._states[plane]
        if not states:
            return None
        stats = self.stats
        stats.checked += 1
        for state in states:
            plan = state.plan
            if kinds is not None and plan.kind not in kinds:
                continue
            if plan.pid is not None and plan.pid != pid:
                continue
            if plan.site != "*" and not fnmatchcase(site, plan.site):
                continue
            if plan.match != "*" and not fnmatchcase(subject, plan.match):
                continue
            state.matched += 1
            stats.matched += 1
            if state.matched <= plan.after:
                continue
            if plan.max_faults is not None \
                    and state.triggered >= plan.max_faults:
                continue
            if plan.probability < 1.0 \
                    and state.rng.random() >= plan.probability:
                continue
            state.triggered += 1
            stats.triggered += 1
            key = f"{plane.value}:{plan.kind.value}"
            stats.by_kind[key] = stats.by_kind.get(key, 0) + 1
            tracer = _trace.TRACER
            if tracer.enabled:
                tracer.emit(EventKind.INJECT,
                            name=f"{key}:{site}", pid=pid, addr=addr,
                            value=stats.triggered)
            return state
        return None

    def _stamp(self, error: InjectedFaultError, plane: Plane, site: str,
               plan: FaultPlan) -> InjectedFaultError:
        error.plane = plane.value
        error.site = site
        error.fault_kind = plan.kind.value
        error.transient = plan.transient
        return error

    # ------------------------------------------------------------------
    # plane entry points
    # ------------------------------------------------------------------

    def on_syscall(self, proc, name: str) -> None:
        """Syscall plane: called from the trap site; may raise."""
        state = self._decide(Plane.SYSCALL, name, name, proc.pid)
        if state is None:
            return
        plan = state.plan
        raise self._stamp(
            InjectedSyscallError(plan.errno,
                                 f"injected {plan.errno} in {name}()"),
            Plane.SYSCALL, name, plan,
        )

    def filter_read(self, path: str, data: bytes,
                    site: str = "read", pid: int = 0) -> bytes:
        """IO plane, read side: may raise, truncate, or corrupt."""
        state = self._decide(Plane.IO, site, path, pid, kinds=READ_KINDS)
        if state is None:
            return data
        plan = state.plan
        if plan.kind is FaultKind.SHORT_READ:
            return data[:state.rng.randint(0, len(data) - 1)] \
                if data else data
        if plan.kind is FaultKind.CORRUPT:
            return self._corrupt(state, data)
        raise self._stamp(
            InjectedIOError(f"injected I/O error reading {path!r}"),
            Plane.IO, site, plan,
        )

    def filter_write(self, path: str, data: bytes, site: str = "write",
                     pid: int = 0):
        """IO plane, write side.

        Returns ``(data, pending_error)``: TORN_WRITE hands back the
        surviving prefix plus the error the caller must raise *after*
        persisting it (the torn-write contract: bytes hit the device,
        then the failure surfaces). ENOSPC and ERROR raise immediately.
        """
        state = self._decide(Plane.IO, site, path, pid, kinds=WRITE_KINDS)
        if state is None:
            return data, None
        plan = state.plan
        if plan.kind is FaultKind.ENOSPC:
            raise self._stamp(
                InjectedDiskFullError(
                    f"injected ENOSPC writing {path!r}"),
                Plane.IO, site, plan,
            )
        if plan.kind is FaultKind.TORN_WRITE:
            keep = state.rng.randint(0, max(len(data) - 1, 0))
            error = self._stamp(
                InjectedIOError(
                    f"injected torn write to {path!r} "
                    f"({keep}/{len(data)} bytes persisted)"),
                Plane.IO, site, plan,
            )
            return data[:keep], error
        if plan.kind is FaultKind.CORRUPT:
            return self._corrupt(state, data), None
        raise self._stamp(
            InjectedIOError(f"injected I/O error writing {path!r}"),
            Plane.IO, site, plan,
        )

    def _corrupt(self, state: _PlanState, data: bytes) -> bytes:
        if not data:
            return data
        mutable = bytearray(data)
        for _ in range(1 + state.rng.randint(0, 7)):
            position = state.rng.randint(0, len(mutable) - 1)
            mutable[position] ^= 1 << state.rng.randint(0, 7)
        return bytes(mutable)

    def on_sfs(self, site: str, subject: str) -> None:
        """IO plane at the SFS policy hooks: injected device-full."""
        state = self._decide(Plane.IO, site, subject, 0,
                             kinds=frozenset({FaultKind.ENOSPC}))
        if state is None:
            return
        raise self._stamp(
            InjectedDiskFullError(
                f"injected ENOSPC on the shared partition ({site})"),
            Plane.IO, site, state.plan,
        )

    def on_fault_delivery(self, proc, fault) -> bool:
        """VM plane, DROP kind: True = suppress handler resolution, so
        the fault stands as if no handler had resolved it."""
        state = self._decide(Plane.VMFAULT, "deliver",
                             f"0x{fault.address:08x}", proc.pid,
                             kinds=frozenset({FaultKind.DROP}),
                             addr=fault.address)
        return state is not None

    def on_access(self, space_name: str, address: int,
                  access: AccessKind) -> None:
        """VM plane, SPURIOUS kind: fault an access whose page is fine.

        Raised with ``present=True`` so neither the lazy linker nor the
        segment mapper claims it — the victim dies, the kernel survives.
        """
        state = self._decide(Plane.VMFAULT, access.value,
                             f"0x{address:08x}", 0,
                             kinds=frozenset({FaultKind.SPURIOUS}),
                             addr=address)
        if state is None:
            return
        fault = PageFaultError(address, access, present=True)
        fault.injected = True
        raise fault

    def on_disk_record(self, site: str, subject: str) -> bool:
        """Disk plane, CRASH kind at a journal-record boundary.

        True = the device loses power exactly as this record would be
        written: the record (and everything after it) never persists,
        pending writes resolve through the device's reorder window.
        """
        state = self._decide(Plane.DISK, site, subject, 0,
                             kinds=frozenset({FaultKind.CRASH}))
        return state is not None

    def filter_disk_write(self, subject: str, data: bytes,
                          site: str = "block-write"):
        """Disk plane, block-write side.

        Returns ``(data, action)`` — *action* is ``None`` (persist
        *data*, possibly torn/corrupted), ``"drop"`` (acknowledge but
        never persist), or ``"crash"`` (power loss at this write).
        """
        state = self._decide(
            Plane.DISK, site, subject, 0,
            kinds=frozenset({FaultKind.TORN_WRITE, FaultKind.DROP,
                             FaultKind.CORRUPT, FaultKind.CRASH}))
        if state is None:
            return data, None
        plan = state.plan
        if plan.kind is FaultKind.DROP:
            return data, "drop"
        if plan.kind is FaultKind.CRASH:
            return data, "crash"
        if plan.kind is FaultKind.TORN_WRITE:
            keep = state.rng.randint(0, max(len(data) - 1, 0))
            return data[:keep], None
        return self._corrupt(state, data), None

    def filter_disk_read(self, subject: str, data: bytes,
                         site: str = "block-read") -> bytes:
        """Disk plane, read side: bit-rot on the transferred block."""
        state = self._decide(Plane.DISK, site, subject, 0,
                             kinds=frozenset({FaultKind.CORRUPT}))
        if state is None:
            return data
        return self._corrupt(state, data)

    _NET_KINDS = frozenset({FaultKind.DROP, FaultKind.CORRUPT,
                            FaultKind.DUP, FaultKind.DELAY})

    def filter_frame(self, subject: str, data: bytes,
                     site: str = "send"):
        """Net plane: one frame crossing the simulated wire.

        *subject* is ``"src->dst:port"`` for fnmatch targeting. Returns
        ``(data, action)`` — *action* is ``None`` (deliver *data*,
        possibly corrupted), ``"drop"`` (the frame is lost), ``"dup"``
        (delivered twice), or ``("delay", rounds)`` (held back *rounds*
        extra scheduling rounds, drawn from the plan's RNG).
        """
        state = self._decide(Plane.NET, site, subject, 0,
                             kinds=self._NET_KINDS)
        if state is None:
            return data, None
        plan = state.plan
        if plan.kind is FaultKind.DROP:
            return data, "drop"
        if plan.kind is FaultKind.DUP:
            return data, "dup"
        if plan.kind is FaultKind.DELAY:
            return data, ("delay", state.rng.randint(1, 4))
        return self._corrupt(state, data), None

    _NODE_KINDS = frozenset({FaultKind.CRASH, FaultKind.WEDGE,
                             FaultKind.PARTITION, FaultKind.REBOOT})

    def on_node(self, site: str, subject: str,
                kinds: Optional[FrozenSet[FaultKind]] = None
                ) -> Optional[_PlanState]:
        """Node plane: one whole-machine failure decision point.

        Called by the cluster's HA manager once per scheduling round
        per live node (*site* ``"crash"``/``"wedge"``, *subject*
        ``"nodeN"``), per crashed node (*site* ``"reboot"``), and once
        per round for the cluster-wide partition draw (*site*
        ``"partition"``, *subject* ``"cluster"``). Returns the fired
        plan state — the caller reads ``state.plan.kind`` and draws
        window lengths / node splits from ``state.rng`` so failure
        schedules stay bit-identical per seed.
        """
        return self._decide(Plane.NODE, site, subject, 0,
                            kinds=kinds or self._NODE_KINDS)

    def on_link(self, proc, site: str, name: str,
                as_syscall: bool = False) -> None:
        """Linker plane: template loads, public mapping/creation, and
        (with ``as_syscall=True``) the address-based segment open, whose
        errors must travel the syscall errno path."""
        state = self._decide(Plane.LINKER, site, name,
                             proc.pid if proc is not None else 0)
        if state is None:
            return
        plan = state.plan
        if plan.kind is FaultKind.MISSING:
            raise self._stamp(
                InjectedModuleNotFoundError(name, ["<injected>"]),
                Plane.LINKER, site, plan,
            )
        if as_syscall:
            raise self._stamp(
                InjectedSyscallError(
                    plan.errno, f"injected {plan.errno} at {site}"),
                Plane.LINKER, site, plan,
            )
        raise self._stamp(
            InjectedLinkError(
                f"injected link failure at {site} for {name!r}"),
            Plane.LINKER, site, plan,
        )

    # ------------------------------------------------------------------
    # containment accounting
    # ------------------------------------------------------------------

    def note_contained(self) -> None:
        """An injected fault was absorbed at a kernel boundary (victim
        terminated, errno returned, fault declined) without escaping."""
        self.stats.contained += 1

    def note_retry(self) -> None:
        """A transient injected fault was absorbed by retry/backoff."""
        self.stats.retries += 1


# ----------------------------------------------------------------------
# explicit and ambient installation
# ----------------------------------------------------------------------

def install_injector(kernel, plans: Sequence[FaultPlan] = (),
                     seed: int = 0) -> Injector:
    """Attach a fresh injector to *kernel* and every plane under it."""
    injector = Injector(kernel, plans, seed=seed)
    kernel.injector = injector
    kernel.vfs.injector = injector
    kernel.sfs.injector = injector
    disk = getattr(kernel, "disk", None)
    if disk is not None:
        disk.device.injector = injector
    for proc in kernel.processes.values():
        proc.address_space.injector = injector
    return injector


def remove_injector(kernel) -> None:
    """Detach the kernel's injector; all planes fall silent."""
    kernel.injector = None
    kernel.vfs.injector = None
    kernel.sfs.injector = None
    disk = getattr(kernel, "disk", None)
    if disk is not None:
        disk.device.injector = None
    for proc in kernel.processes.values():
        proc.address_space.injector = None


#: Injectors created while armed, oldest first — the campaign record.
CAMPAIGN: List[Injector] = []


@contextmanager
def injecting(plans: Iterable[FaultPlan],
              seed: int = 0) -> Iterator[List[Injector]]:
    """Arm injection for every kernel booted inside the block; each
    boot gets a fresh injector with the same plans and seed (so reruns
    of a script are bit-identical). Yields :data:`CAMPAIGN`, cleared on
    entry; kernels keep their injectors after the block."""
    plans = tuple(plans)
    CAMPAIGN.clear()

    def attach(kernel) -> None:
        CAMPAIGN.append(install_injector(kernel, plans, seed))

    with arming.armed("inject", attach):
        yield CAMPAIGN
