"""The four reprobench workloads.

Each workload drives the simulator only through its public API and runs
in a closed loop: one client, one op in flight, one host thread. A
workload splits its work into ``setup`` (boot, toolchain build, cluster
construction) and ``op`` (the timed part). ``op`` wraps the timed region
in ``timed(kind)`` so the runner can time it and, in a traced run, tag
the spans it records; it returns an :class:`OpResult` with the output
check and the exact simulated counts of the op.

Sizes are scaled down from the larger shapes of the E2, E10 and E12
experiments so one op takes 0.07-0.13 host seconds on a 2-vCPU VM:
enough samples in a 25-second run for a steady median and a tail with
at least ten samples beyond it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, ContextManager, List, Optional

from repro import boot
from repro.apps.presto import PrestoApp
from repro.apps.rwho.cluster import (
    run_cluster_rwho,
    single_kernel_rwho,
    synth_statuses,
)
from repro.bench.workloads import (
    build_module_fanout,
    fanout_expected_exit,
    make_shell,
)
from repro.disk import BlockDevice
from repro.net import Cluster

Timed = Callable[[str], ContextManager[None]]


@dataclass
class OpResult:
    """What one op produced, beside its host time."""

    ok: bool
    check: str
    #: (cycles, elapsed, frames): simulated work, makespan and fabric
    #: frames of the op. Deterministic, so every op of a run and the
    #: traced run must agree exactly.
    sim: tuple
    instructions: int


@dataclass
class State:
    """The freshly booted system one op runs against."""

    kernels: list
    cluster: Optional[Cluster] = None
    extra: dict = field(default_factory=dict)


def _instructions(kernels) -> int:
    """Instructions retired so far by every machine process. Read from
    the CPUs: the clock's "instructions" category leaves out quanta that
    end blocked in a syscall, most of Presto's."""
    return sum(proc.cpu.instructions_executed for kernel in kernels
               for proc in kernel.processes.values()
               if proc.cpu is not None)


class Workload:
    name = ""
    why = ""
    #: whether --seed changes the inputs
    seeded = False
    #: the layers predicted to take most of the traced op time
    dominant: tuple = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> State:
        raise NotImplementedError

    def op(self, state: State, timed: Timed) -> OpResult:
        raise NotImplementedError


class PrestoSmp(Workload):
    name = "presto_smp"
    why = ("interpreter-bound Presto on 4 simulated cores: Cpu.step and "
           "the SmpCoordinator, with the linker, fs and net idle")
    dominant = ("hw",)

    # Every op is the first instance in a freshly booted kernel: later
    # instances in one kernel slow down as its process table and
    # /shared/tmp grow, which would tie op time to how many ops a run
    # manages.

    NCORES = 4
    NWORKERS = 8
    NITEMS = 64
    COMPUTE_ITERS = 20

    def setup(self) -> State:
        kernel = boot(ncores=self.NCORES).kernel
        shell = make_shell(kernel)
        app = PrestoApp(kernel, shell, nitems=self.NITEMS,
                        compute_iters=self.COMPUTE_ITERS)
        return State([kernel], extra={"app": app})

    def op(self, state: State, timed: Timed) -> OpResult:
        kernel = state.kernels[0]
        app = state.extra["app"]
        cycles, elapsed = kernel.clock.cycles, kernel.clock.elapsed
        instructions = _instructions(state.kernels)
        with timed("op"):
            result = app.run_instance(nworkers=self.NWORKERS)
        return OpResult(
            result.total == app.expected_total(),
            "presto total == expected_total()",
            (kernel.clock.cycles - cycles,
             kernel.clock.elapsed - elapsed, 0),
            _instructions(state.kernels) - instructions,
        )


class LinkFanout(Workload):
    name = "link_fanout"
    why = ("cold lazy scoped link of 24 public modules plus helpers on a "
           "journaled disk, then warm execs: ldl, objfile, fs and disk")
    dominant = ("linker", "objfile", "fs")
    WIDTH = 24
    WARM_EXECS = 1
    MODULE_DIR = "/shared/fan"

    def setup(self) -> State:
        kernel = boot(disk=BlockDevice()).kernel
        shell = make_shell(kernel)
        graph = build_module_fanout(kernel, shell, width=self.WIDTH,
                                    used=self.WIDTH,
                                    module_dir=self.MODULE_DIR)
        return State([kernel], extra={"executable": graph.executable})

    def _exec(self, kernel, executable) -> int:
        proc = kernel.create_machine_process("fanout", executable)
        return kernel.run_until_exit(proc)

    def op(self, state: State, timed: Timed) -> OpResult:
        kernel = state.kernels[0]
        executable = state.extra["executable"]
        expected = fanout_expected_exit(self.WIDTH)
        cycles, elapsed = kernel.clock.cycles, kernel.clock.elapsed
        instructions = _instructions(state.kernels)
        with timed("op"):
            codes = [self._exec(kernel, executable)]
        sim = (kernel.clock.cycles - cycles,
               kernel.clock.elapsed - elapsed, 0)
        ran = _instructions(state.kernels) - instructions
        for _ in range(self.WARM_EXECS):
            with timed("warm"):
                codes.append(self._exec(kernel, executable))
        return OpResult(
            all(code == expected for code in codes),
            f"cold and warm exit codes == fanout_expected_exit("
            f"{self.WIDTH})",
            sim, ran,
        )


class _Rwho(Workload):
    seeded = True
    implementation = ""

    NNODES = 4
    NHOSTS = 512
    SERVER = 0
    READERS = [1, 2, 3]
    MAX_ROUNDS = 500_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        statuses = synth_statuses(self.NHOSTS)
        random.Random(seed).shuffle(statuses)
        self.statuses = statuses
        self.oracle = single_kernel_rwho(statuses)

    def setup(self) -> State:
        cluster = Cluster(self.NNODES, seed=self.seed)
        return State([m.kernel for m in cluster.machines], cluster)

    def op(self, state: State, timed: Timed) -> OpResult:
        cluster = state.cluster
        kernels = state.kernels
        cycles = [k.clock.cycles for k in kernels]
        elapsed = [k.clock.elapsed for k in kernels]
        frames = cluster.fabric.stats.frames_sent
        instructions = _instructions(kernels)
        with timed("op"):
            result = run_cluster_rwho(cluster, self.statuses,
                                      self.implementation,
                                      server=self.SERVER,
                                      readers=self.READERS,
                                      max_rounds=self.MAX_ROUNDS)
        cluster.shutdown()
        outputs = result["outputs"]
        ok = sorted(outputs) == self.READERS and all(
            text == self.oracle for text in outputs.values())
        return OpResult(
            ok,
            "every reader's output == single_kernel_rwho(statuses)",
            (sum(k.clock.cycles for k in kernels) - sum(cycles),
             max(k.clock.elapsed - e for k, e in zip(kernels, elapsed)),
             cluster.fabric.stats.frames_sent - frames),
            _instructions(kernels) - instructions,
        )


class RwhoShm(_Rwho):
    name = "rwho_shm"
    why = ("cluster rwho over one shared segment: native memory access "
           "through runtime.views, vm and coherence FETCH/GRANT")
    dominant = ("runtime.views", "vm")
    implementation = "shm"


class RwhoFile(_Rwho):
    name = "rwho_file"
    why = ("the paper's file baseline on the same cluster: one LIST plus "
           "one GET RPC per host per reader through net.link and fs")
    dominant = ("net", "fs")
    implementation = "file"


WORKLOADS: List[type] = [PrestoSmp, LinkFanout, RwhoShm, RwhoFile]
BY_NAME = {workload.name: workload for workload in WORKLOADS}
