"""Synthetic module graphs for the linking experiments.

Two generators mirror the paper's stories:

* :func:`build_module_fanout` — a program with a huge "reachability
  graph" of external references (§3 Lazy Dynamic Linking): W dynamic
  public modules, each depending on a helper module found via its own
  search path. A run touches only the first *used* entry points, so
  lazy linking should do work proportional to *used*, eager to W.
* :func:`build_module_chain` — the recursive inclusion chain of
  Figure 2: module i's code calls into module i+1, discovered through
  scoped linking when module i is first touched.

:func:`run_fanout` runs the full-width fanout on an already booted
system; every A-series guard compares its cycles with
:data:`FANOUT_CYCLES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.hw.asm import assemble
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.linker.classes import SharingClass
from repro.linker.lds import Lds, LinkRequest, store_object
from repro.objfile.format import ObjectFile

if TYPE_CHECKING:
    from repro import System

#: Width of the fanout the A-series guards run, every module used.
FANOUT_WIDTH = 12

#: The exact simulated cycle count of :func:`run_fanout` on a freshly
#: booted, unarmed, one-core machine. Arming lint, injection, the
#: sanitizer or recording, or booting next to a cluster, may not move
#: it by a single cycle.
FANOUT_CYCLES = 2_603_166


def make_shell(kernel: Kernel, name: str = "shell") -> Process:
    """A native process used purely as a context for toolchain calls."""

    def body(_kernel, _proc):
        return
        yield  # pragma: no cover - makes the body a generator

    return kernel.create_native_process(name, body)


@dataclass
class ModuleGraph:
    """What a generator produced."""

    executable: ObjectFile
    module_dir: str
    width: int
    used: int


def _helper_source(index: int) -> str:
    return f"""
        .text
        .globl  helper_{index}
helper_{index}:
        li      v0, {100 + index}
        jr      ra
"""


def _module_source(index: int, module_dir: str,
                   calls: str = "") -> str:
    body = calls or f"        jal     helper_{index}\n"
    return f"""
        .searchdir {module_dir}
        .text
        .globl  func_{index}
func_{index}:
        addi    sp, sp, -8
        sw      ra, 0(sp)
{body}        addi    v0, v0, {index}
        lw      ra, 0(sp)
        addi    sp, sp, 8
        jr      ra
"""


def _main_source(used: int) -> str:
    calls = "".join(
        f"        jal     func_{index}\n"
        f"        add     s0, s0, v0\n"
        for index in range(used)
    )
    return f"""
        .text
        .globl  main
main:
        addi    sp, sp, -8
        sw      ra, 0(sp)
        move    s0, zero
{calls}        move    v0, s0
        lw      ra, 0(sp)
        addi    sp, sp, 8
        jr      ra
"""


def build_module_fanout(kernel: Kernel, shell: Process, width: int,
                        used: int, module_dir: str,
                        build_dir: str = "/opt/fanout") -> ModuleGraph:
    """W dynamic public modules + W helper modules; main uses *used*."""
    if used > width:
        raise ValueError("cannot use more modules than exist")
    kernel.vfs.makedirs(module_dir, shell.uid)
    kernel.vfs.makedirs(build_dir, shell.uid)

    requests: List[LinkRequest] = []
    for index in range(width):
        store_object(kernel, shell, f"{module_dir}/mod{index}.o",
                     assemble(_module_source(index, module_dir),
                              f"mod{index}.o"))
        store_object(kernel, shell, f"{module_dir}/helper_{index}.o",
                     assemble(_helper_source(index), f"helper_{index}.o"))
        requests.append(LinkRequest(f"mod{index}.o",
                                    SharingClass.DYNAMIC_PUBLIC))

    main_path = f"{build_dir}/main.o"
    store_object(kernel, shell, main_path,
                 assemble(_main_source(used), "main.o"))

    result = Lds(kernel).link(
        shell,
        [LinkRequest(main_path, SharingClass.STATIC_PRIVATE)] + requests,
        output=f"{build_dir}/main",
        search_dirs=[module_dir],
    )
    return ModuleGraph(result.executable, module_dir, width, used)


def fanout_expected_exit(used: int) -> int:
    """main's expected return: func_i returns helper_i() + i = 100 + 2i."""
    return sum(100 + 2 * index for index in range(used))


def run_fanout(system: "System") -> Process:
    """Build the :data:`FANOUT_WIDTH`-module fanout on *system*, run
    main (every module used) to exit, and return the toolchain shell.

    The caller boots and arms *system* (lint, injector, sanitizer,
    disk) and reads the clock afterwards.
    """
    kernel = system.kernel
    shell = make_shell(kernel)
    graph = build_module_fanout(kernel, shell, width=FANOUT_WIDTH,
                                used=FANOUT_WIDTH,
                                module_dir="/shared/fan")
    proc = kernel.create_machine_process("p", graph.executable)
    code = kernel.run_until_exit(proc)
    assert code == fanout_expected_exit(FANOUT_WIDTH), code
    return shell


def build_module_chain(kernel: Kernel, shell: Process, depth: int,
                       module_dir: str,
                       build_dir: str = "/opt/chain") -> ModuleGraph:
    """A Figure 2 chain: func_0 -> func_1 -> ... -> func_{depth-1}."""
    if depth < 1:
        raise ValueError("chain depth must be >= 1")
    kernel.vfs.makedirs(module_dir, shell.uid)
    kernel.vfs.makedirs(build_dir, shell.uid)

    for index in range(depth):
        if index == depth - 1:
            calls = "        li      v0, 1000\n"
        else:
            calls = f"        jal     func_{index + 1}\n"
        store_object(kernel, shell, f"{module_dir}/chain{index}.o",
                     assemble(_module_source(index, module_dir,
                                             calls=calls),
                              f"chain{index}.o"))

    main_path = f"{build_dir}/main.o"
    store_object(kernel, shell, main_path,
                 assemble(_main_source(1), "main.o"))

    result = Lds(kernel).link(
        shell,
        [LinkRequest(main_path, SharingClass.STATIC_PRIVATE),
         LinkRequest("chain0.o", SharingClass.DYNAMIC_PUBLIC)],
        output=f"{build_dir}/main",
        search_dirs=[module_dir],
    )
    return ModuleGraph(result.executable, module_dir, depth, 1)


def chain_expected_exit(depth: int) -> int:
    """main's expected return for a chain of *depth* modules."""
    return 1000 + sum(range(depth))
