"""``Syscalls.read_module``, the one way the linkers read a module file,
against the per-call sequences it replaced.

Each example builds two identical machines. On one, ``peek_exports``,
``read_segment_meta`` or ``load_template`` reads a file through the
service; on its twin, the same file is read by the open/fstat/pread/
close sequence those functions made themselves (spelled out below).
The twins must agree on the result or the error, and on every piece
of kernel state the sequence touches: the clock (total, categories in
insertion order, makespan, per-core totals, checkpoint firings), the
process's next descriptor, the warm-inode set and the export table.
Armed with a tracer or an injector, they must also emit the same
events and consult the injector at the same sites.
"""

from types import MappingProxyType

from hypothesis import given, settings, strategies as st

from repro import boot
from repro.errors import ObjectFormatError, SimulationError
from repro.fs.vfs import O_RDONLY
from repro.inject import FaultKind, FaultPlan, Plane, install_injector
from repro.kernel.timing import CostModel
from repro.linker.lds import load_template
from repro.linker.scoped import _decode_exports, peek_exports
from repro.linker.segments import read_segment_meta, segment_base
from repro.objfile.format import (
    TRAILER,
    TRAILER_MAGIC,
    ObjectFile,
    ObjectKind,
    SEC_ABS,
    SEC_TEXT,
    SectionLayout,
    Symbol,
    unpack_trailer,
)
from repro.trace.tracer import tracing


def _template_bytes() -> bytes:
    obj = ObjectFile("big.o")
    obj.text.extend(bytes(64))
    for index in range(6):
        obj.symbols[f"fn{index}"] = Symbol(f"fn{index}", SEC_TEXT,
                                           4 * index)
    return obj.to_bytes()


def _segment_bytes(magic: bytes = TRAILER_MAGIC) -> bytes:
    meta = ObjectFile("seg", kind=ObjectKind.SEGMENT)
    meta.layout["text"] = SectionLayout("text", 0x3000_0000, 4096)
    meta.symbols["fn"] = Symbol("fn", SEC_ABS, 0x3000_0010)
    meta_bytes = meta.to_bytes()
    image = bytes(4096)
    return image + meta_bytes + TRAILER.pack(magic, len(image),
                                             len(meta_bytes), 0)


#: path -> (contents, mode); None contents is a directory
FILES = {
    "/shared/lib/big.o": (_template_bytes(), 0o644),
    "/shared/lib/seg": (_segment_bytes(), 0o644),
    "/shared/lib/badmagic": (_segment_bytes(b"NOPE"), 0o644),
    "/shared/lib/tiny": (b"0123456789", 0o644),
    "/shared/lib/secret.o": (_template_bytes(), 0o600),
    "/shared/lib/sub.o": (None, 0o755),
    "/src/local.o": (_template_bytes(), 0o644),
}
PATHS = sorted(FILES) + ["/shared/lib/small.o", "/shared/lib/missing.o",
                         "/shared/lib/gone"]


# ---------------------------------------------------------------------------
# the sequences the linkers made before read_module (with a short read
# of a segment trailer refused as a typed error, not a struct.error)
# ---------------------------------------------------------------------------

def _calls(kernel, proc, path, segment, probe):
    sys = kernel.syscalls
    try:
        fd = sys.open(proc, path, O_RDONLY)
    except SimulationError:
        if probe:
            return None
        raise
    try:
        size = sys.fstat(proc, fd).st_size
        if not segment:
            if probe and size < 4:
                return None
            data, image_len = sys.pread(proc, fd, 0, size), 0
        else:
            if size < TRAILER.size:
                raise ObjectFormatError(
                    f"{path!r} is too small to be a segment")
            image_len, meta_len = unpack_trailer(
                sys.pread(proc, fd, size - TRAILER.size, TRAILER.size),
                path)
            data = sys.pread(proc, fd, image_len, meta_len)
        handle = proc.fd(fd)
        return data, image_len, (id(handle.fs), handle.inode.number)
    finally:
        sys.close(proc, fd)


def parent_peek(kernel, proc, path):
    template = path.endswith(".o")
    try:
        read = _calls(kernel, proc, path, not template, True)
    except ObjectFormatError:
        return None
    if read is None:
        return None
    data, _, key = read
    entry = kernel.export_table.get(key)
    if entry is not None and entry[0] == template and entry[1] == data:
        return entry[2]
    exports = _decode_exports(data, template, path)
    kernel.export_table[key] = (template, data, exports)
    return exports


def parent_read_segment_meta(kernel, proc, path):
    data, image_len, _ = _calls(kernel, proc, path, True, False)
    meta = ObjectFile.from_bytes(data)
    return meta, segment_base(meta, path), image_len


def parent_load_template(kernel, proc, path):
    if kernel.injector is not None:
        kernel.injector.on_link(proc, "load_template", path)
    data, _, _ = _calls(kernel, proc, path, False, False)
    return ObjectFile.from_bytes(data)


SERVICE = {"peek": peek_exports, "meta": read_segment_meta,
           "template": load_template}
PARENT = {"peek": parent_peek, "meta": parent_read_segment_meta,
          "template": parent_load_template}


# ---------------------------------------------------------------------------
# twins
# ---------------------------------------------------------------------------

def _body(_kernel, _proc):
    return
    yield  # pragma: no cover - makes the body a generator


def twin(case):
    """A machine set up as *case* says, the process, and its record of
    checkpoint firings."""
    kernel = boot(ncores=case["ncores"]).kernel
    vfs = kernel.vfs
    vfs.makedirs("/shared/lib")
    vfs.makedirs("/src")
    for path, (data, mode) in FILES.items():
        if data is None:
            vfs.mkdir(path, 0, mode)
        else:
            vfs.write_whole(path, data, 0, mode)
    vfs.write_whole("/shared/lib/small.o", case["small"], 0)
    proc = kernel.create_native_process("reader", _body, uid=case["uid"])
    if case["warm"]:
        try:
            kernel.syscalls.close(
                proc, kernel.syscalls.open(proc, case["path"]))
        except SimulationError:
            pass
    if case["armed"] == "inject":
        injector = install_injector(kernel, case["plans"],
                                    seed=case["seed"])
        sites = []
        decide = injector._decide

        def logged(plane, site, subject, pid, *args, **kwargs):
            sites.append((plane, site, subject, pid))
            return decide(plane, site, subject, pid, *args, **kwargs)
        injector._decide = logged
        injector.sites = sites
    clock = kernel.clock
    clock.current_core = case["core"]
    fired = []
    clock.on_checkpoint = lambda c: fired.append(
        (c.cycles, list(c.by_category.items())))
    if case["offset"] is not None:
        clock.checkpoint_at = clock.cycles + case["offset"]
    return kernel, proc, fired


def outcome(kernel, op, read, proc, path):
    try:
        result = read(kernel, proc, path)
    except SimulationError as error:
        return ("error", type(error).__name__, str(error))
    if op == "peek":
        return None if result is None else dict(result)
    if op == "meta":
        meta, base, image_len = result
        return meta.to_bytes(), base, image_len
    return result.to_bytes()


def state(kernel, proc, fired):
    volumes = {id(kernel.rootfs): "root", id(kernel.sfs): "sfs"}
    clock = kernel.clock
    table = {}
    for (fs, ino), (template, data, exports) in \
            kernel.export_table.items():
        assert exports is None or isinstance(exports, MappingProxyType)
        table[volumes[fs], ino] = (
            template, data, None if exports is None else dict(exports))
    return {
        "cycles": clock.cycles,
        "by_category": list(clock.by_category.items()),
        "elapsed": clock.elapsed,
        "core_cycles": list(clock.core_cycles.items()),
        "checkpoint_at": clock.checkpoint_at,
        "fired": fired,
        "next_fd": proc._next_fd,
        "fds": sorted(proc.fds),
        "warm": sorted((volumes[fs], ino)
                       for fs, ino in kernel.syscalls._warm_inodes),
        "export_table": table,
    }


def run(case, reads):
    kernel, proc, fired = twin(case)
    sys = kernel.syscalls
    opens = []
    raw_open = sys.open
    sys.open = lambda *args, **kwargs: (opens.append(args[1]),
                                        raw_open(*args, **kwargs))[1]
    events = None
    if case["armed"] == "trace":
        with tracing(kernel) as tracer:
            result = outcome(kernel, case["op"], reads[case["op"]], proc,
                             case["path"])
        events = [(e.kind, e.name, e.pid, e.addr, e.value, e.dur,
                   e.cycle) for e in tracer.events()]
    else:
        result = outcome(kernel, case["op"], reads[case["op"]], proc,
                         case["path"])
    snapshot = state(kernel, proc, fired)
    snapshot["events"] = events
    if case["armed"] == "inject":
        stats = kernel.injector.stats
        snapshot["inject"] = (kernel.injector.sites, stats.checked,
                              stats.matched, stats.triggered,
                              dict(stats.by_kind))
    return result, snapshot, opens


def _bound(case):
    """The service's merge bound for *case*'s file, when it has one."""
    entry = FILES.get(case["path"])
    if case["path"] == "/shared/lib/small.o":
        size = len(case["small"])
    elif entry is not None and entry[0] is not None:
        size = len(entry[0])
    else:
        return 0
    costs = CostModel()
    return 5 * costs.syscall + costs.disk_seek \
        + ((2 * size + 3) // 4) * costs.file_io_per_word


PLANS = st.lists(st.sampled_from([
    FaultPlan(Plane.SYSCALL, FaultKind.ERROR, probability=0.5),
    FaultPlan(Plane.IO, FaultKind.CORRUPT, probability=0.5),
    FaultPlan(Plane.IO, FaultKind.SHORT_READ, probability=0.5),
    FaultPlan(Plane.LINKER, FaultKind.ERROR, probability=0.5),
]), min_size=1, max_size=3)


@st.composite
def cases(draw):
    case = {
        "op": draw(st.sampled_from(sorted(SERVICE))),
        "path": draw(st.sampled_from(PATHS)),
        "small": draw(st.one_of(st.binary(max_size=5),
                                st.just(_template_bytes()))),
        "uid": draw(st.sampled_from([0, 2])),
        "warm": draw(st.booleans()),
        "ncores": draw(st.sampled_from([1, 2])),
        "armed": draw(st.sampled_from([None, None, None, "trace",
                                       "inject"])),
        "plans": draw(PLANS),
        "seed": draw(st.integers(0, 3)),
    }
    case["core"] = draw(st.sampled_from([None, 1])) \
        if case["ncores"] == 2 else None
    bound = _bound(case)
    case["offset"] = draw(st.one_of(
        st.none(), st.integers(0, bound + 1),
        st.sampled_from([0, 1, max(bound - 1, 0), bound, bound + 1])))
    return case


class TestReadModule:
    @settings(max_examples=250, deadline=None)
    @given(cases())
    def test_service_matches_the_per_call_sequence(self, case):
        got, got_state, opens = run(case, SERVICE)
        want, want_state, _ = run(case, PARENT)
        assert got == want
        assert got_state == want_state
        path, (data, mode) = case["path"], FILES.get(case["path"],
                                                     (b"", 0o644))
        readable = path != "/shared/lib/missing.o" \
            and path != "/shared/lib/gone" and data is not None \
            and (case["uid"] == 0 or mode & 0o004)
        if case["armed"] is None and readable \
                and (case["offset"] is None
                     or case["offset"] > _bound(case)):
            assert opens == [], "the merged branch should have run"

    def test_merged_branch_consumes_one_descriptor(self, kernel, shell,
                                                   dirs):
        kernel.vfs.write_whole("/shared/lib/m.o", _template_bytes())
        before = shell._next_fd
        data, image_len, _ = kernel.syscalls.read_module(
            shell, "/shared/lib/m.o")
        assert (data, image_len) == (_template_bytes(), 0)
        assert shell._next_fd == before + 1 and not shell.fds
