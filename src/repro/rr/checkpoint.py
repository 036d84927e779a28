"""Full-machine checkpoint capture, digest, diff, and materialize.

A checkpoint is a pure-data state tree (ints, strings, bytes, None,
nested lists — exactly what :mod:`repro.disk.codec` encodes), built
from the same volume serialization ``reprofsck`` trusts
(:func:`repro.disk.image.serialize_volume`) plus everything the disk
image does not cover: clock cycles and per-category charges, scheduler
state (runqueue order, pid counter, wait set), and per-process CPU
registers, VM mappings, materialized page contents, descriptor tables,
and captured stdout.

Three consumers, three levels of fidelity:

* :func:`state_digest` — the divergence oracle compares digests, so
  two captures are equal iff their encodings are byte-identical;
* :func:`diff_states` — walks two state trees and names the first
  mismatching path, turning a digest mismatch into a usable report;
* :func:`materialize` — rebuilds a *runnable* kernel from a state
  tree. Only **machine-pure** states qualify: native processes are
  live Python generators and cannot be serialized, so a state with a
  live native process (or a process blocked on an unserialized kernel
  object) raises :class:`~repro.errors.RRError`, and callers fall
  back to replay-from-boot (which the deterministic substrate makes
  equivalent, just slower).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.disk.codec import encode_fields
from repro.disk.image import restore_volume, serialize_volume
from repro.errors import RRError
from repro.kernel import arming
from repro.kernel.process import ProcessState
from repro.vm.layout import PAGE_SHIFT, PAGE_SIZE

STATE_MACHINE = "machine"
STATE_CLUSTER = "cluster"

_STATES = {state.value: state for state in ProcessState}


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------

def _volume_table(kernel) -> List[Tuple[str, object]]:
    """The mounted volumes in a stable order."""
    return [("rootfs", kernel.rootfs), ("sfs", kernel.sfs)]


def _backing_maps(kernel):
    """id(memobj) -> ("vol", key, ino) for every file-backed object."""
    backing: Dict[int, list] = {}
    for key, fs in _volume_table(kernel):
        for inode in fs.inodes():
            if inode.memobj is not None:
                backing[id(inode.memobj)] = ["vol", key, inode.number]
    return backing


def _capture_object(memobj) -> list:
    """An inline (non-volume) memory object: name, size, pages."""
    pages = [[index, bytes(memobj._pages[index].data).rstrip(b"\0")]
             for index in sorted(memobj._pages)]
    return [memobj.name, memobj.size, pages]


def _capture_process(proc, backing, objects, object_index,
                     handle_index) -> list:
    cpu = None
    if proc.cpu is not None:
        cpu = [proc.cpu.pc, proc.cpu.instructions_executed,
               list(proc.cpu.regs)]
    space = proc.address_space
    mappings: List[list] = []
    mapping_slot: Dict[int, int] = {}
    for mapping in space.mappings():
        mapping_slot[id(mapping)] = len(mappings)
        if mapping.memobj is None:
            ref = ["anon"]
        else:
            ref = backing.get(id(mapping.memobj))
            if ref is None:
                slot = object_index.get(id(mapping.memobj))
                if slot is None:
                    slot = len(objects)
                    object_index[id(mapping.memobj)] = slot
                    objects.append(_capture_object(mapping.memobj))
                ref = ["obj", slot]
        mappings.append([mapping.start, mapping.npages, mapping.prot,
                         mapping.flags, mapping.name, mapping.obj_page,
                         ref])
    pages: List[list] = []
    for vpn in sorted(space._pages):
        pte = space._pages[vpn]
        if pte.frame is None:
            continue  # never materialized: restores lazily, for free
        mapping = pte.mapping
        slot = mapping_slot[id(mapping)]
        shared_frame = False
        if mapping.memobj is not None:
            obj_page = mapping.obj_page \
                + (vpn - (mapping.start >> PAGE_SHIFT))
            shared_frame = mapping.memobj.page(obj_page) is pte.frame
        if shared_frame:
            # Content lives in the backing object (volume or inline
            # capture); only the reference needs recording.
            pages.append([vpn, pte.prot, int(pte.cow), "obj", None,
                          slot])
        else:
            pages.append([vpn, pte.prot, int(pte.cow), "priv",
                          bytes(pte.frame.data).rstrip(b"\0"), slot])
    fds = [[fd, handle_index[id(proc.fds[fd])]]
           for fd in sorted(proc.fds)]
    handlers = [[signal.value, len(chain)]
                for signal, chain in
                sorted(proc.signal_handlers.items(),
                       key=lambda item: item[0].value)
                if chain]
    return [
        proc.pid, proc.ppid, proc.uid, proc.name, proc.state.value,
        proc.exit_code, proc.death_reason, int(proc.reaped), proc.cwd,
        proc.brk, proc._next_fd, proc.block_reason,
        "m" if proc.cpu is not None else "n",
        cpu,
        bytes(proc.stdout),
        [[key, value] for key, value in sorted(proc.environ.items())],
        handlers,
        fds,
        mappings,
        pages,
    ]


def capture_machine(kernel) -> list:
    """One kernel's complete state as a codec-encodable tree."""
    clock = kernel.clock
    backing = _backing_maps(kernel)
    objects: List[list] = []
    object_index: Dict[int, int] = {}
    # Open-file descriptions are shared across fork'd processes, so
    # they go through an identity table exactly like memory objects.
    handles: List[list] = []
    handle_index: Dict[int, int] = {}
    fs_keys = {id(fs): key for key, fs in _volume_table(kernel)}
    for pid in sorted(kernel.processes):
        proc = kernel.processes[pid]
        for fd in sorted(proc.fds):
            handle = proc.fds[fd]
            if id(handle) in handle_index:
                continue
            handle_index[id(handle)] = len(handles)
            handles.append([fs_keys.get(id(handle.fs)),
                            handle.inode.number, handle.path,
                            handle.flags, handle.offset,
                            handle.refcount])
    procs = [_capture_process(kernel.processes[pid], backing, objects,
                              object_index, handle_index)
             for pid in sorted(kernel.processes)]
    return [
        STATE_MACHINE,
        [clock.cycles,
         [[name, clock.by_category[name]]
          for name in sorted(clock.by_category)],
         clock.elapsed, clock.ncores,
         [[core, clock.core_cycles[core]]
          for core in sorted(clock.core_cycles)]],
        kernel._next_pid,
        kernel.quantum,
        list(kernel._runqueue),
        sorted(kernel._wait_blocked),
        kernel.queues.backlog(),
        [[key, serialize_volume(fs)] for key, fs in
         _volume_table(kernel)],
        handles,
        objects,
        procs,
    ]


def capture_cluster(cluster) -> list:
    """A whole cluster at a round boundary: the global round counter,
    fabric traffic counters and in-flight count, every member
    machine's full state in node order, and — when the failure model
    is armed — the HA plane (fault windows, membership, generations,
    directory rows with leases)."""
    stats = cluster.fabric.stats
    state = [
        STATE_CLUSTER,
        cluster.round,
        cluster.nnodes,
        cluster.seed,
        [stats.frames_sent, stats.frames_delivered,
         cluster.fabric.pending(),
         [len(machine.nic.inbox) for machine in cluster.machines]],
        [capture_machine(machine.kernel)
         for machine in cluster.machines],
    ]
    ha = getattr(cluster, "ha", None)
    if ha is not None:
        state.append(ha.capture())
    return state


def state_digest(state: list) -> bytes:
    """sha256 over the canonical encoding: equal digests iff the
    captures are byte-identical."""
    return hashlib.sha256(encode_fields(state)).digest()


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------

_MACHINE_FIELDS = ["tag", "clock", "next_pid", "quantum", "runqueue",
                   "wait_blocked", "queue_backlog", "volumes", "handles",
                   "objects", "procs"]


def _diff_walk(path: str, a, b) -> Optional[str]:
    if type(a) is not type(b):
        return (f"{path}: type {type(a).__name__} vs "
                f"{type(b).__name__}")
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} vs {len(b)}"
        for index, (left, right) in enumerate(zip(a, b)):
            found = _diff_walk(f"{path}[{index}]", left, right)
            if found is not None:
                return found
        return None
    if a != b:
        return f"{path}: {a!r} vs {b!r}"
    return None


def diff_states(recorded: list, replayed: list) -> Optional[str]:
    """The first mismatching path between two state trees, or None.

    Top-level machine fields are named (``clock``, ``procs``, ...) so
    a divergence report says *what kind* of state drifted, not just
    where in a nested list it lives.
    """
    if (isinstance(recorded, list) and isinstance(replayed, list)
            and recorded[:1] == replayed[:1]
            and recorded[:1] in ([STATE_MACHINE], [STATE_CLUSTER])
            and len(recorded) == len(replayed)):
        names = (_MACHINE_FIELDS if recorded[0] == STATE_MACHINE
                 else ["tag", "round", "nnodes", "seed", "fabric",
                       "nodes"])
        for name, left, right in zip(names, recorded, replayed):
            found = _diff_walk(name, left, right)
            if found is not None:
                return found
        return None
    return _diff_walk("state", recorded, replayed)


# ---------------------------------------------------------------------------
# materialize
# ---------------------------------------------------------------------------

_OPTIONAL_INT = (int, type(None))
_OPTIONAL_STR = (str, type(None))
_CLOCK_ROW = (int, list, int, int, list)
_HANDLE_ROW = (_OPTIONAL_STR, int, str, int, int, int)
_OBJECT_ROW = (str, int, list)
_PROCESS_ROW = (int, int, int, str, str, _OPTIONAL_INT, _OPTIONAL_STR,
                int, str, int, int, _OPTIONAL_STR, str,
                (list, type(None)), bytes, list, list, list, list, list)
_MAPPING_ROW = (int, int, int, int, str, int, list)
_PAGE_ROW = (int, int, int, str, (bytes, type(None)), int)
#: a mapping's backing reference, by its tag
_REF_ROWS = {"anon": (str,), "obj": (str, int), "vol": (str, str, int)}


def _row(value, types: tuple, what: str) -> list:
    """*value*, a list with one field of each of *types*; anything else
    is a malformed *what*."""
    if type(value) is not list or len(value) != len(types) \
            or not all(map(isinstance, value, types)):
        raise RRError(f"malformed {what} in machine state")
    return value


def _rows(value, types: tuple, what: str) -> list:
    """*value*, a list of :func:`_row` rows of *types*."""
    if type(value) is not list:
        raise RRError(f"malformed {what} list in machine state")
    for row in value:
        _row(row, types, what)
    return value


def _ints(value, what: str, count: Optional[int] = None) -> None:
    """Refuse *value* unless it is a list of ints (of *count* of them)."""
    if type(value) is not list \
            or not all(isinstance(item, int) for item in value) \
            or (count is not None and len(value) != count):
        raise RRError(f"malformed {what} in machine state")


def _check_machine_rows(clock_row, runqueue, wait_blocked, volumes,
                        handles, objects, procs) -> None:
    """Refuse with :class:`RRError` any row :func:`materialize` indexes
    that does not have the shape :func:`capture_machine` writes, and any
    slot that points past the table it indexes."""
    _, categories, _, _, core_cycles = _row(clock_row, _CLOCK_ROW,
                                            "clock row")
    _rows(categories, (str, int), "clock category")
    _rows(core_cycles, (int, int), "core total")
    _ints(runqueue, "run queue")
    _ints(wait_blocked, "wait set")
    _rows(volumes, (str, list), "volume")
    _rows(handles, _HANDLE_ROW, "open file")
    for _name, _size, pages in _rows(objects, _OBJECT_ROW, "memory object"):
        _rows(pages, (int, bytes), "memory object page")
    for row in _rows(procs, _PROCESS_ROW, "process"):
        (_pid, _ppid, _uid, _name, state_tag, _code, _reason, _reaped,
         _cwd, _brk, _next_fd, _block, kind, cpu_row, _stdout, environ,
         _handlers, fds, mappings, pages) = row
        if state_tag not in _STATES or kind not in ("m", "n") \
                or (kind == "m") != (cpu_row is not None):
            raise RRError(f"malformed process {row[0]} in machine state")
        if cpu_row is not None:
            _, _, regs = _row(cpu_row, (int, int, list), "cpu row")
            _ints(regs, "register file", 32)
        _rows(environ, (str, str), "environment")
        for _fd, slot in _rows(fds, (int, int), "descriptor"):
            if not 0 <= slot < len(handles):
                raise RRError(f"descriptor names missing open file {slot}")
        for mapping in _rows(mappings, _MAPPING_ROW, "mapping"):
            ref = mapping[6]
            shape = _REF_ROWS.get(ref[0]) \
                if ref and type(ref[0]) is str else None
            if shape is None:
                raise RRError("malformed mapping reference in machine "
                              "state")
            _row(ref, shape, "mapping reference")
            if ref[0] == "obj" and not 0 <= ref[1] < len(objects):
                raise RRError(
                    f"mapping names missing memory object {ref[1]}")
        for page in _rows(pages, _PAGE_ROW, "page"):
            if not 0 <= page[5] < len(mappings) \
                    or (page[3] != "obj" and type(page[4]) is not bytes):
                raise RRError("malformed page in machine state")


def materialize(state: list):
    """A runnable kernel rebuilt from a machine state tree, with the
    default cost model and the lazy, scoped runtime attached.

    Only machine-pure states qualify (see the module docstring): a
    live native process, a blocked process, or undrained message
    queues raise :class:`~repro.errors.RRError` and the caller should
    replay from boot instead. The returned kernel re-executes forward
    bit-identically to the original run — the Hypothesis round-trip
    property in ``tests/test_rr.py`` pins exactly that.
    """
    from repro.fs.vfs import OpenFile
    from repro.hw.cpu import Cpu
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.kernel.signals import Signal
    from repro.runtime.libshared import HemlockRuntime, attach_runtime
    from repro.trace import tracer as _trace
    from repro.vm.address_space import AddressSpace
    from repro.vm.pages import MemoryObject

    try:
        (tag, clock_row, next_pid, quantum, runqueue, wait_blocked,
         queue_backlog, volumes, handles, objects, procs) = state
    except (ValueError, TypeError):
        raise RRError("malformed machine state tree")
    if tag != STATE_MACHINE:
        raise RRError(
            f"cannot materialize a {tag!r} state: cluster states "
            f"replay from boot (round-based re-execution)")
    if queue_backlog:
        raise RRError(
            f"state has {queue_backlog} undrained message(s); message "
            f"queues are not serializable — replay from boot")
    _check_machine_rows(clock_row, runqueue, wait_blocked, volumes,
                        handles, objects, procs)
    for row in procs:
        state_tag, kind, block_reason = row[4], row[12], row[11]
        if kind == "n" and state_tag != ProcessState.ZOMBIE.value:
            raise RRError(
                f"process {row[0]} ({row[3]!r}) is a live native "
                f"process; generators are not serializable — replay "
                f"from boot")
        if state_tag == ProcessState.BLOCKED.value:
            raise RRError(
                f"process {row[0]} ({row[3]!r}) is blocked on "
                f"{block_reason!r}; kernel wait objects are not "
                f"serializable — replay from boot")

    previous_tracer = _trace.TRACER
    _trace.set_tracer(None)
    try:
        cycles, categories, elapsed, ncores, core_cycles = clock_row
        # Nothing armed attaches to the rebuilt kernel: it is a copy of
        # a captured machine, not a new boot of the armed workload.
        with arming.suspended():
            kernel = Kernel(ncores=ncores)
        attach_runtime(kernel)
        volume_table = dict(_volume_table(kernel))
        for key, record in volumes:
            fs = volume_table.get(key)
            if fs is None:
                raise RRError(f"state names unknown volume {key!r}")
            restore_volume(fs, record)
        kernel.clock.cycles = cycles
        kernel.clock.by_category = {name: value
                                    for name, value in categories}
        kernel.clock.elapsed = elapsed
        kernel.clock.core_cycles = {core: value
                                    for core, value in core_cycles}
        kernel._next_pid = next_pid
        kernel.quantum = quantum
        kernel._runqueue = list(runqueue)
        kernel._wait_blocked = set(wait_blocked)

        restored_handles = []
        for volkey, ino, path, flags, offset, refcount in handles:
            fs = volume_table.get(volkey)
            inode = fs.inode_by_number(ino) if fs is not None else None
            if inode is None:
                raise RRError(
                    f"open file {path!r} names missing inode "
                    f"{volkey}:{ino}")
            handle = OpenFile(vfs=kernel.vfs, fs=fs, inode=inode,
                              path=path, flags=flags, offset=offset,
                              refcount=refcount)
            restored_handles.append(handle)

        inline_objects = []
        for name, size, pages in objects:
            memobj = MemoryObject(kernel.physmem, size, name=name)
            for index, data in pages:
                memobj._pages[index] = kernel.physmem.alloc(data)
            inline_objects.append(memobj)

        for row in procs:
            (pid, ppid, uid, name, state_tag, exit_code, death_reason,
             reaped, cwd, brk, next_fd, block_reason, kind, cpu_row,
             stdout, environ, _handlers, fds, mappings, pages) = row
            space = AddressSpace(kernel.physmem, name=f"pid{pid}")
            space.injector = kernel.injector
            proc = Process(pid, ppid, uid, space, name)
            # Core placement is pid % ncores, so rebinding from the pid
            # reproduces the original placement exactly.
            kernel._bind_core(proc)
            proc.state = _STATES[state_tag]
            proc.exit_code = exit_code
            proc.death_reason = death_reason
            proc.reaped = bool(reaped)
            proc.cwd = cwd
            proc.brk = brk
            proc._next_fd = next_fd
            proc.block_reason = block_reason
            proc.stdout = bytearray(stdout)
            proc.environ = {key: value for key, value in environ}
            if kind == "m":
                proc.cpu = Cpu(space)
                pc, executed, regs = cpu_row
                proc.cpu.pc = pc
                proc.cpu.instructions_executed = executed
                proc.cpu.regs[:] = regs
                # Reinstall the SIGSEGV chain (runtime first, then the
                # machine-program hook), matching exec's wiring;
                # zombies keep theirs too — terminate() never strips
                # handlers, so captures of dead processes carry them.
                HemlockRuntime(kernel, proc)
            mapping_objs = []
            for (start, npages, prot, flags, mname, obj_page,
                 ref) in mappings:
                memobj = None
                if ref[0] == "vol":
                    _, volkey, ino = ref
                    fs = volume_table.get(volkey)
                    inode = (fs.inode_by_number(ino)
                             if fs is not None else None)
                    if inode is None or inode.memobj is None:
                        raise RRError(
                            f"mapping {mname!r} names missing segment "
                            f"{volkey}:{ino}")
                    memobj = inode.memobj
                elif ref[0] == "obj":
                    memobj = inline_objects[ref[1]]
                mapping = space.map(start, npages * PAGE_SIZE,
                                    memobj=memobj,
                                    offset=obj_page * PAGE_SIZE,
                                    prot=prot, flags=flags, name=mname)
                mapping_objs.append(mapping)
            for vpn, prot, cow, page_kind, data, slot in pages:
                pte = space._pages.get(vpn)
                if pte is None:
                    raise RRError(f"page 0x{vpn:x} lies in no mapping")
                pte.prot = prot
                mapping = mapping_objs[slot]
                if page_kind == "obj":
                    obj_page = mapping.obj_page \
                        + (vpn - (mapping.start >> PAGE_SHIFT))
                    frame = mapping.memobj.ensure_page(obj_page)
                    pte.frame = kernel.physmem.retain(frame)
                else:
                    pte.frame = kernel.physmem.alloc(data)
                pte.cow = bool(cow)
            for fd, slot in fds:
                proc.fds[fd] = restored_handles[slot]
            kernel.processes[pid] = proc
        return kernel
    finally:
        _trace.set_tracer(previous_tracer)
