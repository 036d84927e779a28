"""Command-line front ends for the simulated toolchain.

§3: "Our current static linker is implemented as a wrapper, lds, around
the standard IRIX ld linker. The wrapper processes new command line
options directly related to its functionality and passes the others to
ld. Lds-specific options allow for the association of sharing classes
with modules and the specification of search paths to be used when
locating modules."

These functions give the toolchain that argv surface (each runs in the
context of a simulated process, reading and writing the simulated file
system):

* :func:`lds_main` — ``lds [-o out] [-L dir]... [-e sym] [--strict]
  [--no-crt0] [-l lib.a]... module.o... [--dynamic-public m.o]...``
* :func:`toycc_main` — ``toycc -o out.o source.c``
* :func:`asm_main` — ``as -o out.o source.s``
* :func:`nm_main` / :func:`objdump_main` — inspection, returning text;
* :func:`ar_main` — ``ar archive.a member.o...``;
* :func:`reprolint_main` — ``reprolint [--strict] [--only cat,cat]
  [--quiet] path...`` runs the :mod:`repro.analyze` static verifier
  over objects, archives, and segment files (auto-detected by magic)
  and renders every finding with its stable diagnostic code. ERROR
  findings raise :class:`repro.errors.LintError`; ``--strict``
  promotes WARNINGs to failures too.

Six tools run on the *host* instead of inside the simulation, each
also installed as a console script of the same name; each ``*_main``
docstring gives its command line:

* :func:`reprotrace_main` runs a host script with kernel-wide tracing
  armed and exports the event stream;
* :func:`reprochaos_main` soaks host scripts under :mod:`repro.inject`
  fault planes, through the :mod:`repro.rr` divergence oracle, or
  (``--crash``) crashes a durable :mod:`repro.disk` store at every
  journal-record boundary;
* :func:`repronet_main` inspects, runs and soaks a
  :class:`repro.net.Cluster`;
* :func:`reprofsck_main` checks saved device images for damage;
* :func:`reprorr_main` records, replays and seeks inside runs;
* :func:`reprosan_main` drives the :mod:`repro.sanitize` race detector
  and heap sanitizer.

Every tool but ``lds`` reads its argv through one option table: a
:class:`_Parser` (stdlib :mod:`argparse` with no ``-h`` and no
abbreviated flags) and one set of value types. A seed is any integer,
a count is >= 0, ``--max-points``/``--capacity``/``--nodes`` are >= 1,
``--rate`` is a number in [0, 1], and ``--planes``/``--kinds``/
``--only`` are comma lists checked against the known names. Any bad
argv is a :class:`UsageError` naming the tool; the console scripts
print it and exit with status 2. ``lds`` keeps a hand loop because its
module order is link order (see :func:`lds_main`).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import runpy
import sys
from typing import Callable, List, NoReturn, Optional, Sequence, TextIO, \
    Tuple

from repro.errors import LinkError, SimulationError
from repro.hw.asm import assemble
from repro.inject.plan import Plane
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.linker.classes import SharingClass
from repro.linker.lds import Lds, LinkRequest, LinkResult, load_template, \
    store_object
from repro.objfile.archive import Archive
from repro.objfile.format import ObjectFile
from repro.objfile.inspect import nm, objdump
from repro.toyc import compile_source
from repro.trace.events import EventKind

_CLASS_FLAGS = {
    "--static-private": SharingClass.STATIC_PRIVATE,
    "-spr": SharingClass.STATIC_PRIVATE,
    "--static-public": SharingClass.STATIC_PUBLIC,
    "-sp": SharingClass.STATIC_PUBLIC,
    "--dynamic-public": SharingClass.DYNAMIC_PUBLIC,
    "-dp": SharingClass.DYNAMIC_PUBLIC,
    "--dynamic-private": SharingClass.DYNAMIC_PRIVATE,
    "-dr": SharingClass.DYNAMIC_PRIVATE,
}


class UsageError(SimulationError):
    """Bad command-line arguments."""


class _Parser(argparse.ArgumentParser):
    """argparse held to the tools' conventions.

    A tool accepts exactly the flags it declares: there is no ``-h``
    and no abbreviated ``--se`` for ``--seed``. Every error is a
    :class:`UsageError` worded ``tool: --flag needs ...`` (a subcommand
    reports under its tool's name too), followed by the usage line.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        # argparse words a bad value "argument --seed: expected one
        # argument"; the tools say "--seed needs a value".
        message = re.sub(r"^argument (\S+): ", r"\1 ", message)
        message = message.replace("expected one argument", "needs a value")
        tool = self.prog.split()[0]
        raise UsageError(f"{tool}: {message}\n"
                         f"{self.format_usage().rstrip()}")


def _integer(minimum: Optional[int]) -> Callable[[str], int]:
    """The option type of an integer >= *minimum* (any if None)."""
    wanted = "an integer" if minimum is None \
        else f"an integer >= {minimum}"

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = None
        if value is None or (minimum is not None and value < minimum):
            raise argparse.ArgumentTypeError(
                f"needs {wanted}, got {raw!r}")
        return value

    return parse


_seed = _integer(None)
_count = _integer(0)
_positive = _integer(1)


def _rate(raw: str) -> float:
    """The option type of a fault trigger probability."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"needs a number in [0, 1], got {raw!r}")
    return value


def _names(what: str, known: Sequence[str]) -> Callable[[str], List[str]]:
    """The option type of a comma list of *known* names, matched in any
    case and returned as spelled in *known*."""
    spelling = {name.upper(): name for name in known}

    def parse(raw: str) -> List[str]:
        names = [name.strip() for name in raw.split(",") if name.strip()]
        for name in names:
            if name.upper() not in spelling:
                raise argparse.ArgumentTypeError(
                    f"unknown {what} {name!r} (known: {', '.join(known)})")
        return [spelling[name.upper()] for name in names]

    return parse


_planes = _names("injection plane", [plane.value for plane in Plane])
_kinds = _names("event kind", [kind.name for kind in EventKind])


def _script(parser: _Parser,
            command: List[str]) -> Tuple[str, List[str]]:
    """The script and its arguments, from a ``command`` positional with
    ``nargs=REMAINDER``. Everything after the script, ``--`` included,
    passes through verbatim: one positional holds the script and its
    arguments because a separate script positional would swallow a
    ``--`` right after it."""
    if not command:
        parser.error("no script given")
    if not os.path.isfile(command[0]):
        parser.error(f"no such script: {command[0]}")
    return command[0], command[1:]


def lds_main(kernel: Kernel, proc: Process,
             argv: Sequence[str]) -> LinkResult:
    """Run an lds command line; returns the LinkResult."""
    # Not argparse: module order on the command line is link order, and
    # argparse cannot keep positional modules and -dp/-sp modules in
    # their relative argv order.
    output = "a.out"
    search_dirs: List[str] = []
    archives: List[Archive] = []
    requests: List[LinkRequest] = []
    entry: Optional[str] = None
    with_crt0 = True
    strict = False
    use_jumptable = False
    verify: Optional[bool] = None

    args = list(argv)
    index = 0
    while index < len(args):
        arg = args[index]
        if arg == "-o":
            output = _value(args, index, "-o", "lds")
            index += 2
        elif arg == "-L":
            search_dirs.append(_value(args, index, "-L", "lds"))
            index += 2
        elif arg == "-e":
            entry = _value(args, index, "-e", "lds")
            index += 2
        elif arg == "-l":
            path = _value(args, index, "-l", "lds")
            archives.append(load_archive(kernel, proc, path))
            index += 2
        elif arg == "--no-crt0":
            with_crt0 = False
            index += 1
        elif arg == "--strict":
            strict = True
            index += 1
        elif arg == "--jumptable":
            use_jumptable = True
            index += 1
        elif arg == "--verify":
            verify = True
            index += 1
        elif arg == "--no-verify":
            verify = False
            index += 1
        elif arg in _CLASS_FLAGS:
            module = _value(args, index, arg, "lds")
            requests.append(LinkRequest(module, _CLASS_FLAGS[arg]))
            index += 2
        elif arg.startswith("-"):
            raise UsageError(f"lds: unknown option {arg!r}")
        else:
            requests.append(LinkRequest(arg))
            index += 1

    if not requests:
        raise UsageError("lds: no input modules")
    return Lds(kernel).link(
        proc, requests, output=output, search_dirs=search_dirs,
        archives=archives, entry=entry, with_crt0=with_crt0,
        strict_dynamic=strict, use_jumptable=use_jumptable,
        verify=verify,
    )


def toycc_main(kernel: Kernel, proc: Process,
               argv: Sequence[str]) -> str:
    """Run a toycc command line; returns the output path."""
    output, source_path = _one_output_one_input(argv, "toycc", ".c")
    source = kernel.vfs.read_whole(source_path, proc.uid,
                                   cwd=proc.cwd).decode("latin-1")
    name = output.rsplit("/", 1)[-1]
    store_object(kernel, proc, output, compile_source(source, name))
    return output


def asm_main(kernel: Kernel, proc: Process, argv: Sequence[str]) -> str:
    """Run an as command line; returns the output path."""
    output, source_path = _one_output_one_input(argv, "as", ".s")
    source = kernel.vfs.read_whole(source_path, proc.uid,
                                   cwd=proc.cwd).decode("latin-1")
    name = output.rsplit("/", 1)[-1]
    store_object(kernel, proc, output, assemble(source, name))
    return output


def nm_main(kernel: Kernel, proc: Process, argv: Sequence[str]) -> str:
    """nm <object>: the symbol table as text."""
    if len(argv) != 1:
        raise UsageError("nm takes exactly one object file")
    return nm(_load_any(kernel, proc, argv[0]))


def objdump_main(kernel: Kernel, proc: Process,
                 argv: Sequence[str]) -> str:
    """objdump [-d] <object>."""
    args = list(argv)
    disassemble = "-d" in args
    if disassemble:
        args.remove("-d")
    if len(args) != 1:
        raise UsageError("objdump takes exactly one object file")
    return objdump(_load_any(kernel, proc, args[0]),
                   disassemble=disassemble)


def ar_main(kernel: Kernel, proc: Process, argv: Sequence[str]) -> str:
    """ar <archive> <member.o>...: build an archive file."""
    if len(argv) < 2:
        raise UsageError("ar takes an archive name and members")
    archive_path = argv[0]
    archive = Archive(archive_path.rsplit("/", 1)[-1])
    for member_path in argv[1:]:
        archive.add(load_template(kernel, proc, member_path))
    kernel.vfs.write_whole(archive_path, archive.to_bytes(), proc.uid,
                           cwd=proc.cwd)
    return archive_path


def segls_main(kernel: Kernel, proc: Process,
               argv: Sequence[str] = ()) -> str:
    """segls: peruse every segment on the shared partition.

    The §5 garbage-collection affordance: manual cleanup requires "the
    ability to peruse all of the segments in existence". Lists path,
    base address, and size; with ``-l`` also whether the file is a
    linked module (has segment metadata).
    """
    long_form = "-l" in argv
    from repro.linker.segments import read_segment_meta

    lines = []
    mount = kernel.sfs_mount.rstrip("/")
    for vol_path, inode in kernel.sfs.segments():
        base = kernel.sfs.address_of_inode(inode.number)
        line = (f"0x{base:012x}  {inode.size:9d}  "
                f"{mount}{vol_path}")
        if long_form:
            try:
                read_segment_meta(kernel, proc, mount + vol_path)
                line += "  [module]"
            except SimulationError:
                line += "  [data]"
        lines.append(line)
    return "\n".join(sorted(lines))


def reprolint_main(kernel: Kernel, proc: Process,
                   argv: Sequence[str]) -> str:
    """reprolint [--strict] [--only cat,cat] [--quiet] <path>...

    Statically verify HOF objects, ``HAR1`` archives, and ``HSEG``
    segment files (detected by magic, like ``file(1)`` would). Returns
    the rendered reports; raises :class:`repro.errors.LintError` when
    any finding meets the failure threshold — ERROR by default,
    WARNING under ``--strict``. ``--only`` restricts to a subset of
    check categories (relocations, symbols, cfg, layout, sharing);
    ``--quiet`` hides INFO findings from the rendering.
    """
    from repro.analyze.pipeline import CHECKS
    from repro.analyze.report import Report, Severity

    parser = _Parser(prog="reprolint")
    parser.add_argument("--strict", action="store_true")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--only", type=_names(
        "category", sorted(name for name, _check in CHECKS)))
    parser.add_argument("paths", nargs="+")
    args = parser.parse_intermixed_args(argv)

    combined = Report(subject=", ".join(args.paths))
    pieces: List[str] = []
    for path in args.paths:
        report = _lint_path(kernel, proc, path, args.only)
        combined.merge(report)
        pieces.append(report.render(
            Severity.WARNING if args.quiet else Severity.INFO
        ))
    text = "\n".join(pieces)
    threshold = Severity.WARNING if args.strict else Severity.ERROR
    combined.raise_if(threshold)
    return text


def _lint_path(kernel: Kernel, proc: Process, path: str,
               only: Optional[List[str]]):
    """Analyze one path, dispatching on file magic."""
    from repro.analyze.context import LintContext
    from repro.analyze.pipeline import analyze_object, \
        context_from_kernel
    from repro.analyze.report import Report
    from repro.linker.segments import TRAILER, TRAILER_MAGIC, \
        read_segment_meta
    from repro.objfile.archive import ARCHIVE_MAGIC
    from repro.objfile.format import MAGIC as HOF_MAGIC

    data = kernel.vfs.read_whole(path, proc.uid, cwd=proc.cwd)
    if data[:4] == ARCHIVE_MAGIC:
        archive = Archive.from_bytes(data)
        merged = Report(subject=path)
        for member in archive.members:
            context = context_from_kernel(kernel, proc, member)
            merged.merge(analyze_object(member, context, only=only))
        return merged
    if data[:4] == HOF_MAGIC:
        obj = ObjectFile.from_bytes(data)
        context = context_from_kernel(kernel, proc, obj)
        return analyze_object(obj, context, subject=path, only=only)
    if len(data) >= TRAILER.size \
            and data[-TRAILER.size:][:4] == TRAILER_MAGIC:
        meta, base, _image_len = read_segment_meta(kernel, proc, path)
        context = context_from_kernel(kernel, proc, meta,
                                      expect_public=True)
        context.self_base = base
        return analyze_object(meta, context, subject=path, only=only)
    raise LinkError(f"{path!r}: not a HOF object, archive, or segment")


def reprotrace_main(argv: Sequence[str],
                    stdout: Optional[TextIO] = None) -> int:
    """Run a host script under kernel-wide tracing; export and report.

    ``reprotrace [-o DIR] [--kinds FAULT,LINK_RESOLVE,...]
    [--capacity N] [--top N] script.py [script args...]``

    Tracing is armed before the script runs, so every kernel the script
    boots binds the tracer to its clock (multiple boots are
    distinguished by the events' ``boot`` field). Afterwards the event
    stream is written to ``DIR/<script>.trace.jsonl`` and
    ``DIR/<script>.chrome.json`` (load the latter in chrome://tracing
    or https://ui.perfetto.dev), and a top-N report is printed.
    Exports are deterministic: identical runs produce identical bytes.
    """
    from repro.trace import tracer as trace_state
    from repro.trace.tracer import tracing

    parser = _Parser(prog="reprotrace")
    parser.add_argument("-o", dest="outdir", default=".")
    parser.add_argument("--kinds", type=_kinds)
    parser.add_argument("--capacity", type=_positive, default=1 << 16)
    parser.add_argument("--top", type=_count, default=10)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    script, script_args = _script(parser, args.command)
    out = stdout if stdout is not None else sys.stdout

    saved_argv = sys.argv
    sys.argv = [script] + script_args
    try:
        with tracing(kinds=args.kinds, capacity=args.capacity):
            runpy.run_path(script, run_name="__main__")
            tracer = trace_state.TRACER
        if not tracer.enabled:
            print(f"reprotrace: {script} never booted a kernel; "
                  f"no events recorded", file=out)
            return 1
        from repro.trace.export import (
            top_report,
            write_chrome,
            write_jsonl,
        )

        os.makedirs(args.outdir, exist_ok=True)
        stem = os.path.splitext(os.path.basename(script))[0]
        jsonl_path = os.path.join(args.outdir, f"{stem}.trace.jsonl")
        chrome_path = os.path.join(args.outdir, f"{stem}.chrome.json")
        events = tracer.events()
        write_jsonl(events, jsonl_path)
        write_chrome(events, chrome_path)
        print(file=out)
        print(top_report(tracer, top=args.top), file=out)
        print(f"\nwrote {len(events)} events to {jsonl_path}", file=out)
        print(f"wrote chrome trace to {chrome_path} "
              f"(open in chrome://tracing)", file=out)
        return 0
    finally:
        sys.argv = saved_argv


# ----------------------------------------------------------------------
# reprochaos — seeded fault-injection soak campaigns
# ----------------------------------------------------------------------

#: Planes a campaign arms by default (all of them).
_CHAOS_PLANES = ("syscall", "io", "linker", "vmfault")


def _campaign_plans(planes: Sequence[str], rate: float) -> List:
    """The standard soak plan set for *planes* at trigger rate *rate*.

    One representative plan per plane: failing syscalls, short reads
    and torn writes, transient linker failures (exercising the
    retry/backoff hardening), and — far rarer, since every memory
    access is a decision point — spurious page faults.
    """
    from repro.inject import FaultKind, FaultPlan, Plane

    plans = []
    for name in planes:
        plane = Plane.parse(name)
        if plane is Plane.SYSCALL:
            plans.append(FaultPlan(plane, FaultKind.ERROR,
                                   probability=rate, errno="EIO"))
        elif plane is Plane.IO:
            plans.append(FaultPlan(plane, FaultKind.SHORT_READ,
                                   site="read", probability=rate))
            plans.append(FaultPlan(plane, FaultKind.TORN_WRITE,
                                   site="write", probability=rate))
        elif plane is Plane.LINKER:
            plans.append(FaultPlan(plane, FaultKind.ERROR,
                                   probability=rate, transient=True))
        elif plane is Plane.VMFAULT:
            plans.append(FaultPlan(plane, FaultKind.SPURIOUS,
                                   probability=rate / 16.0))
        elif plane is Plane.DISK:
            # Only fires when a durable store is mounted (boot(disk=)
            # or an armed durable() campaign); harmless — and
            # deterministically idle — otherwise.
            plans.append(FaultPlan(plane, FaultKind.TORN_WRITE,
                                   site="block-write",
                                   probability=rate))
            plans.append(FaultPlan(plane, FaultKind.CORRUPT,
                                   site="block-read",
                                   probability=rate / 4.0))
        elif plane is Plane.NET:
            plans.append(FaultPlan(plane, FaultKind.DROP,
                                   probability=rate))
            plans.append(FaultPlan(plane, FaultKind.DUP,
                                   probability=rate))
            plans.append(FaultPlan(plane, FaultKind.DELAY,
                                   probability=rate))
            plans.append(FaultPlan(plane, FaultKind.CORRUPT,
                                   probability=rate / 4.0))
        elif plane is Plane.NODE:
            # Whole-machine failures: a few crashes and one wedge per
            # run, a partition window, and an eager reboot draw so a
            # crashed node comes back within a handful of rounds.
            plans.append(FaultPlan(plane, FaultKind.CRASH,
                                   site="crash", probability=rate,
                                   max_faults=2))
            plans.append(FaultPlan(plane, FaultKind.WEDGE,
                                   site="wedge",
                                   probability=rate / 2.0,
                                   max_faults=1))
            plans.append(FaultPlan(plane, FaultKind.PARTITION,
                                   site="partition", probability=rate,
                                   max_faults=2))
            plans.append(FaultPlan(plane, FaultKind.REBOOT,
                                   site="reboot", probability=0.25))
    return plans


def reprochaos_main(argv: Sequence[str],
                    stdout: Optional[TextIO] = None) -> int:
    """Soak host scripts under seeded fault injection.

    ``reprochaos [--seed N] [--runs N] [--planes syscall,io,...]
    [--rate F] script.py...``

    Every (script, seed) configuration is recorded and replayed
    through the :mod:`repro.rr` oracle: all trace events, per-boot
    cycle totals, periodic checkpoint digests and the outcome must
    replay bit-for-bit, and a mismatch is printed as the first
    divergent event with its cycle ("replay drift"). Returns non-zero
    if any run died outside the simulation's typed error channels or
    any replay drifted.

    ``reprochaos --crash [--seed N] [--stride N] [--max-points N]
    [--nblocks N] script.py...``

    The crash-recovery soak: each script runs once per journal-record
    boundary with a durable store mounted and a ``DISK``-plane CRASH
    plan armed to kill the power mid-record; every surviving image must
    pass ``reprofsck`` with zero findings and remount with every public
    segment reopenable by address.

    ``reprochaos --net [--nodes N] ...`` adds the ``net`` plane
    (drop/dup/delay/corrupt frames) to the campaign and exports
    ``REPRO_CLUSTER=N`` so cluster-aware scripts boot an N-node
    :class:`repro.net.Cluster` instead of one kernel.

    ``reprochaos --ha [--nodes N] ...`` is the availability soak: on
    top of ``--net`` it arms the ``node`` plane (seeded crashes,
    wedges, partitions, reboots) and exports ``REPRO_HA=1`` so
    cluster-aware scripts run the self-healing scenario and assert
    re-convergence to the single-kernel oracle. Both variables are
    captured into each recording's manifest, so replays inherit them.
    """
    from repro.rr import record_script, replay_script
    from repro.rr.oracle import applied_env, capture_env

    parser = _Parser(prog="reprochaos")
    parser.add_argument("--seed", type=_seed, default=1993)
    parser.add_argument("--runs", type=_count, default=1)
    parser.add_argument("--planes", type=_planes)
    parser.add_argument("--rate", type=_rate, default=0.005)
    parser.add_argument("--crash", action="store_true")
    parser.add_argument("--stride", type=_count, default=1)
    parser.add_argument("--max-points", type=_positive)
    parser.add_argument("--nblocks", type=_count, default=2048)
    parser.add_argument("--net", action="store_true")
    parser.add_argument("--ha", action="store_true")
    parser.add_argument("--nodes", type=_positive, default=4)
    parser.add_argument("scripts", nargs="+")
    args = parser.parse_intermixed_args(argv)
    for script in args.scripts:
        if not os.path.isfile(script):
            parser.error(f"no such script: {script}")
    if args.crash and (args.net or args.ha):
        parser.error("--net/--ha and --crash are separate soaks; pick one")
    out = stdout if stdout is not None else sys.stdout

    if args.crash:
        print(f"reprochaos: crash soak, {len(args.scripts)} script(s), "
              f"seed {args.seed}, stride {args.stride}"
              + (f", max {args.max_points} point(s)"
                 if args.max_points else ""),
              file=out)
        from repro.disk import soak_crashes
        from repro.rr.oracle import script_runner

        failures: List[str] = []
        for script in args.scripts:
            matrix = soak_crashes(script_runner(script, ()), args.seed,
                                  args.nblocks, args.stride,
                                  args.max_points)
            found = matrix.failures()
            failures.extend(found)
            if matrix.sampled:
                verdict = f"{len(found)} failure(s)" if found else "clean"
                print(f"  {script}: {len(matrix.sampled)}/"
                      f"{matrix.total_records} crash point(s): {verdict}",
                      file=out)
            elif not found:
                print(f"  {script}: wrote no journal records; nothing "
                      f"to crash", file=out)
        if failures:
            for text in failures[:20]:
                print(f"  FAIL {text}", file=out)
            print(f"reprochaos: FAILED ({len(failures)} crash-recovery "
                  f"failure(s))", file=out)
            return 1
        print("reprochaos: OK (every crash point recovered; fsck clean, "
              "segments reopen by address)", file=out)
        return 0
    net = args.net or args.ha  # --ha layers the node plane on --net
    planes = args.planes
    if planes is None:
        # The availability soak targets the failure model: the default
        # syscall/io fuzz would kill the differential oracle before
        # recovery is ever exercised.
        planes = [] if args.ha else list(_CHAOS_PLANES)
    env = {}
    if net:
        if "net" not in planes:
            planes.append("net")
        # Cluster-aware scripts (examples/rwho_network.py) read this to
        # boot a cluster instead of a single kernel.
        env["REPRO_CLUSTER"] = str(args.nodes)
    if args.ha:
        if "node" not in planes:
            planes.append("node")
        env["REPRO_HA"] = "1"
    plans = _campaign_plans(planes, args.rate)

    print(f"reprochaos: {len(args.scripts)} script(s) x {args.runs} "
          f"run(s), base seed {args.seed}, rate {args.rate:g}"
          + (f", cluster of {args.nodes}" if net else "")
          + (" (HA armed)" if args.ha else ""), file=out)
    for plan in plans:
        print(f"  plan: {plan.describe()}", file=out)

    failures = 0
    # The recording captures REPRO_* into its manifest, so the replay
    # runs under the same variables.
    with applied_env({**capture_env(), **env}):
        for script in args.scripts:
            for run in range(args.runs):
                run_seed = args.seed + run
                recording = record_script(script, plans=plans,
                                          inject_seed=run_seed)
                totals = _campaign_totals(plans)
                report = replay_script(recording)
                verdict = recording.outcome
                if not report.ok:
                    verdict += " REPLAY-DRIFT"
                if recording.outcome == "kernel-death" or not report.ok:
                    failures += 1
                line = (f"  {script} seed={run_seed}: {verdict} "
                        f"boots={totals['boots']} "
                        f"injected={totals['triggered']} "
                        f"contained={totals['contained']} "
                        f"retries={totals['retries']} "
                        f"events={len(recording.events)}")
                if recording.detail:
                    line += f" [{recording.detail}]"
                print(line, file=out)
                if not report.ok:
                    _print_indented(report.render(), out)
    if failures:
        print(f"reprochaos: FAILED ({failures} kernel death(s) or "
              f"replay drift(s))", file=out)
        return 1
    print("reprochaos: OK (all faults contained, all replays "
          "bit-identical)", file=out)
    return 0


def _campaign_totals(plans: Sequence) -> dict:
    """Boot and fault counts of the injection campaign just recorded."""
    from repro.inject import CAMPAIGN

    injectors = CAMPAIGN if plans else []
    return {
        "boots": len(injectors),
        "triggered": sum(i.stats.triggered for i in injectors),
        "contained": sum(i.stats.contained for i in injectors),
        "retries": sum(i.stats.retries for i in injectors),
    }


def _print_indented(text: str, out: TextIO) -> None:
    for line in text.splitlines():
        print(f"    {line}", file=out)


# ----------------------------------------------------------------------
# repronet — deterministic cluster runs and soaks
# ----------------------------------------------------------------------

def _net_scenario(nnodes: int, seed: int, nhosts: int,
                  implementation: str,
                  readers: Optional[List[int]] = None) -> dict:
    """Boot a cluster, run the rwho scale scenario, shut down."""
    from repro.apps.rwho.cluster import run_cluster_rwho, synth_statuses
    from repro.net import Cluster

    cluster = Cluster(nnodes, seed=seed)
    result = run_cluster_rwho(cluster, synth_statuses(nhosts),
                              implementation, readers=readers)
    cluster.shutdown()
    result["rounds"] = cluster.round
    return result


def repronet_main(argv: Sequence[str],
                  stdout: Optional[TextIO] = None) -> int:
    """Inspect and soak the deterministic cluster.

    ``repronet topo [--nodes N] [--seed N]`` prints the cluster shape:
    node count, per-node inode stripes (hence segment address ranges),
    and the seeded per-link delay parameters.

    ``repronet run [--nodes N] [--seed N] [--hosts N] [--impl shm|file]
    [--readers a,b]`` boots a cluster, runs the rwho scale scenario
    once, and prints the traffic/cycle accounting.

    ``repronet soak [--nodes N] [--seed N] [--hosts N] [--rate F]
    [--runs N] [--impl shm|file]`` is the cluster replay-drift soak:
    each seeded configuration runs the scenario under NET-plane faults
    (drop/dup/delay/corrupt), recorded and replayed through the
    :mod:`repro.rr` oracle. The replay must match bit-for-bit on every
    trace event, per-node cycle counts, checkpoint digests and the
    outcome, the two runs' reader outputs must be equal, and no fault
    may escape the simulation's typed error channels.
    """
    parser = _Parser(prog="repronet")
    parser.add_argument("command", choices=("topo", "run", "soak"))
    parser.add_argument("--nodes", type=_positive, default=4)
    parser.add_argument("--seed", type=_seed, default=1993)
    parser.add_argument("--hosts", type=_count, default=64)
    parser.add_argument("--impl", choices=("shm", "file"), default="shm")
    parser.add_argument("--readers", type=lambda raw: [
        _count(node) for node in raw.split(",") if node])
    parser.add_argument("--rate", type=_rate, default=0.01)
    parser.add_argument("--runs", type=_count, default=1)
    args = parser.parse_args(argv)
    nodes, seed = args.nodes, args.seed
    if args.readers and max(args.readers) >= nodes:
        parser.error(f"--readers needs node numbers below --nodes "
                     f"{nodes}, got {max(args.readers)}")
    out = stdout if stdout is not None else sys.stdout

    if args.command == "topo":
        from repro.net import Fabric, mix_seed
        from repro.net.coherence import HOME
        from repro.net.link import LINK_DELAY
        from repro.sfs.sharedfs import MAX_INODES

        fabric = Fabric(nodes, seed)
        stripe = MAX_INODES // nodes
        print(f"repronet: {nodes} node(s), seed {seed}, "
              f"{stripe} inos/stripe", file=out)
        for node in range(nodes):
            lo = node * stripe
            home = " (directory home)" if node == HOME else ""
            print(f"  node {node}: inos [{lo}, {lo + stripe}){home}",
                  file=out)
        for (src, dst), link in sorted(fabric._links.items()):
            print(f"  link {src}->{dst}: base {LINK_DELAY} "
                  f"round(s) + jitter 0..{link.jitter}, "
                  f"seed {mix_seed(seed, src * nodes + dst):#018x}",
                  file=out)
        return 0

    if args.command == "run":
        result = _net_scenario(nodes, seed, args.hosts, args.impl,
                               args.readers)
        print(f"repronet: {args.impl} rwho over {nodes} node(s), "
              f"{result['nhosts']} host(s), seed {seed}", file=out)
        print(f"  rounds: {result['broadcast_rounds']} broadcast + "
              f"{result['read_rounds']} read", file=out)
        print(f"  frames: {result['frames_sent']} sent, "
              f"{result['frames_delivered']} delivered "
              f"({result['bytes_sent']} -> {result['bytes_delivered']} "
              f"bytes)", file=out)
        kinds = ", ".join(f"{kind}={count}" for kind, count
                          in sorted(result["by_kind"].items()))
        print(f"  by kind: {kinds}", file=out)
        for node in range(nodes):
            print(f"  node {node}: {result['cycles'][node]} cycles "
                  f"({result['net_cycles'][node]} net)", file=out)
        for node in sorted(result["outputs"]):
            lines = result["outputs"][node].count("\n") + 1
            print(f"  reader on node {node}: {lines} line(s)", file=out)
        return 0

    # soak
    from repro.rr import record_call, replay_call

    plans = _campaign_plans(["net"], args.rate)
    print(f"repronet: soak, {nodes} node(s) x {args.hosts} host(s) x "
          f"{args.runs} run(s), base seed {seed}, rate {args.rate:g}",
          file=out)
    for plan in plans:
        print(f"  plan: {plan.describe()}", file=out)
    failures = 0
    for run in range(args.runs):
        run_seed = seed + run
        outputs: List[Optional[dict]] = []

        def workload() -> None:
            # The oracle does not record reader outputs; keep one per
            # run (None if the scenario failed) and compare them here.
            outputs.append(None)
            outputs[-1] = _net_scenario(nodes, run_seed, args.hosts,
                                        args.impl)["outputs"]

        recording = record_call(workload, plans=plans,
                                inject_seed=run_seed)
        totals = _campaign_totals(plans)
        report = replay_call(recording, workload)
        drift = not report.ok or outputs[0] != outputs[1]
        verdict = recording.outcome
        if drift:
            verdict += " REPLAY-DRIFT"
        if recording.outcome == "kernel-death" or drift:
            failures += 1
        line = (f"  seed={run_seed}: {verdict} "
                f"boots={totals['boots']} "
                f"injected={totals['triggered']} "
                f"contained={totals['contained']} "
                f"events={len(recording.events)}")
        if recording.detail:
            line += f" [{recording.detail}]"
        print(line, file=out)
        if not report.ok:
            _print_indented(report.render(), out)
        elif drift:
            print("    reader outputs differ between record and replay",
                  file=out)
    if failures:
        print(f"repronet: FAILED ({failures} kernel death(s) or "
              f"replay drift(s))", file=out)
        return 1
    print("repronet: OK (all faults contained, all replays "
          "bit-identical)", file=out)
    return 0


# ----------------------------------------------------------------------
# reprofsck — offline disk-image checking
# ----------------------------------------------------------------------


def reprofsck_main(argv: Sequence[str],
                   stdout: Optional[TextIO] = None) -> int:
    """Check saved device images for damage.

    ``reprofsck [--verbose] image...``

    Each *image* is a host file written by ``BlockDevice.save``. All
    findings carry stable ``DSK###`` codes (see repro.analyze.report);
    a torn journal tail is reported as a statistic, never a finding —
    it is the designed outcome of a crash, not damage. Exit status: 0
    when every image is clean, 1 when any image has findings, 2 on
    usage errors.
    """
    from repro.disk import BlockDevice, fsck
    from repro.errors import DiskError

    parser = _Parser(prog="reprofsck")
    parser.add_argument("-v", "--verbose", action="store_true")
    parser.add_argument("images", nargs="+")
    args = parser.parse_intermixed_args(argv)
    out = stdout if stdout is not None else sys.stdout

    dirty = 0
    for path in args.images:
        if not os.path.isfile(path):
            parser.error(f"no such image: {path}")
        try:
            result = fsck(BlockDevice.load(path), subject=path)
        except DiskError as error:
            print(f"{path}: unreadable: {error}", file=out)
            dirty += 1
            continue
        stats = result.stats
        if len(result.report):
            dirty += 1
            print(result.report.render(), file=out)
        else:
            print(f"{path}: clean", file=out)
        if args.verbose:
            inodes = ", ".join(f"{key}={count}" for key, count
                               in sorted(stats.inodes.items()))
            print(f"  generation {stats.generation}, applied txn "
                  f"{stats.applied_txid}, {stats.committed_txns} "
                  f"committed txn(s) in the journal "
                  f"({stats.replayed_txns} beyond the checkpoint), "
                  f"{stats.discarded_records} torn-tail record(s) "
                  f"discarded", file=out)
            print(f"  inodes: {inodes}; {stats.addrmap_segments} public "
                  f"segment(s)", file=out)
    return 1 if dirty else 0


# ----------------------------------------------------------------------
# reprorr — whole-machine record/replay with a divergence oracle
# ----------------------------------------------------------------------

def _rr_load(path: str):
    from repro.errors import RRError
    from repro.rr import Recording

    if not os.path.isfile(path):
        raise UsageError(f"reprorr: no such recording: {path}")
    try:
        return Recording.load(path)
    except RRError as error:
        raise UsageError(f"reprorr: {path}: {error}")


def reprorr_main(argv: Sequence[str],
                 stdout: Optional[TextIO] = None) -> int:
    """Record, replay, and seek inside deterministic runs.

    ``reprorr record [-o FILE] [--interval N] [--planes P,P]
    [--rate F] [--seed N] [--kinds K,K] [--capacity N] [--nodes N]
    script.py [args...]``

    Records one run: the manifest (script, argv, ``REPRO_*``
    environment, fault plans, seeds, cluster topology) plus the full
    trace-event stream and periodic whole-machine checkpoints every
    ``--interval`` cycles (cluster runs checkpoint at round
    boundaries). ``--nodes N`` exports ``REPRO_CLUSTER=N`` so
    cluster-aware scripts boot an N-node cluster; the variable is
    captured into the manifest, so replays inherit it automatically.
    The recording is written to ``FILE`` (default ``<script>.rrr``).

    ``reprorr replay [--script PATH] recording.rrr``

    The divergence oracle: re-executes the recorded run from its
    manifest and compares the trace-event stream, per-boot cycle
    totals, checkpoint digests, and outcome. Exit 0 when bit-identical;
    exit 1 with the first divergent event and its cycle otherwise.

    ``reprorr seek --cycle N [--script PATH] recording.rrr``

    Time travel: restores the nearest checkpoint at or before cycle N
    (verifying its state digest) and re-executes forward, checking the
    event stream from cycle N onward is bit-identical — which also
    gives reverse-step: seek to any earlier cycle of the same
    recording.

    ``reprorr info recording.rrr`` prints the manifest summary.
    """
    from repro.rr import record_script, replay_script, seek_script
    from repro.rr.oracle import applied_env, capture_env
    from repro.rr.recorder import DEFAULT_INTERVAL

    parser = _Parser(prog="reprorr")
    modes = parser.add_subparsers(dest="mode", required=True)
    record = modes.add_parser("record")
    record.add_argument("-o", dest="output")
    record.add_argument("--interval", type=_count, default=DEFAULT_INTERVAL)
    record.add_argument("--planes", type=_planes, default=[])
    record.add_argument("--rate", type=_rate, default=0.005)
    record.add_argument("--seed", type=_seed, default=1993)
    record.add_argument("--kinds", type=_kinds)
    record.add_argument("--capacity", type=_positive)
    record.add_argument("--nodes", type=_positive)
    record.add_argument("command", nargs=argparse.REMAINDER)
    replay, seek = modes.add_parser("replay"), modes.add_parser("seek")
    for mode in (replay, seek):
        mode.add_argument("--script")
        mode.add_argument("recording")
    seek.add_argument("--cycle", type=_count, required=True)
    modes.add_parser("info").add_argument("recording")
    args = parser.parse_args(argv)
    out = stdout if stdout is not None else sys.stdout

    if args.mode == "info":
        print(_rr_load(args.recording).describe(), file=out)
        return 0

    if args.mode in ("replay", "seek"):
        recording = _rr_load(args.recording)
        if args.script is None and recording.manifest.get("script") \
                and not os.path.isfile(recording.manifest["script"]):
            raise UsageError(
                f"reprorr: recorded script "
                f"{recording.manifest['script']!r} not found; "
                f"pass --script"
            )
        if args.mode == "replay":
            report = replay_script(recording, args.script)
            print(report.render(), file=out)
            return 0 if report.ok else 1
        result = seek_script(recording, args.cycle, args.script)
        print(result.render(), file=out)
        return 0 if result.digest_ok and result.suffix_identical else 1

    script, script_args = _script(record, args.command)
    plans = _campaign_plans(args.planes, args.rate)
    env = {} if args.nodes is None else {"REPRO_CLUSTER": str(args.nodes)}
    extra = {} if args.capacity is None else {"capacity": args.capacity}
    with applied_env({**capture_env(), **env}):
        recording = record_script(script, script_args,
                                  interval=args.interval, plans=plans,
                                  inject_seed=args.seed, kinds=args.kinds,
                                  **extra)
    output = args.output
    if output is None:
        stem = os.path.splitext(os.path.basename(script))[0]
        output = f"{stem}.rrr"
    recording.save(output)
    size = os.path.getsize(output)
    print(f"recorded {script}: {len(recording.events)} event(s), "
          f"{len(recording.boots)} boot(s), "
          f"{len(recording.checkpoints)} checkpoint(s), outcome "
          f"{recording.outcome}", file=out)
    print(f"wrote {output} ({size} bytes)", file=out)
    return 0 if recording.outcome != "kernel-death" else 1


def _san_armed_run(body) -> "tuple":
    """Run *body* with a fresh sanitizer armed; return (report, stats)."""
    from repro.sanitize import sanitizing

    with sanitizing() as sanitizer:
        body()
    return sanitizer.report, sanitizer.stats


def _san_examples_dir() -> str:
    """The in-repo ``examples/`` directory (next to ``src/``)."""
    import repro as _repro

    package = os.path.dirname(os.path.abspath(_repro.__file__))
    return os.path.join(os.path.dirname(os.path.dirname(package)),
                        "examples")


def _san_record(case):
    """Record one armed run of corpus *case* through the rr oracle.

    Returns ``(recording, runner, reports)``: *runner* replays the case
    and *reports* collects the sanitizer report of every run of it
    (None where the case failed), since the oracle records no report.
    """
    from repro.rr import record_call

    reports: list = []

    def runner() -> None:
        reports.append(None)
        reports[-1] = case.run()

    return record_call(runner), runner, reports


def _san_replay(case, out: TextIO, output: Optional[str]) -> int:
    """Record one armed run of *case*, then time-travel to the first
    finding: seek the recording to the earliest racing access (or heap
    misuse) cycle and verify the suffix replays bit-identically."""
    from repro.rr import seek_call

    recording, runner, reports = _san_record(case)
    report = reports[0]
    if report is None or report.clean:
        print(f"{case.name}: no findings to replay to", file=out)
        return 1
    if report.races:
        race = report.races[0]
        target = min(race.first.cycle, race.second.cycle)
        print(f"first racing pair ({race.kind} "
              f"{race.segment}+0x{race.offset:x}):", file=out)
        print(f"  first:  {race.first.render()}", file=out)
        print(f"  second: {race.second.render()}", file=out)
    else:
        finding = report.heap[0]
        target = finding.cycle
        print(f"first heap finding: {finding.render()}", file=out)
    if output is not None:
        recording.save(output)
        print(f"wrote {output} ({os.path.getsize(output)} bytes)",
              file=out)
    result = seek_call(recording, target, runner)
    print(result.render(), file=out)
    return 0 if result.digest_ok and result.suffix_identical else 1


def reprosan_main(argv: Sequence[str],
                  stdout: Optional[TextIO] = None) -> int:
    """The sanitizer front end — report, soak, and replay-to-race.

    ``reprosan list``

    Shows the seeded race/heap-misuse corpus
    (:func:`repro.sanitize.corpus.san_cases`), one line per case.

    ``reprosan run CASE [--limit N] [--replay] [-o FILE]``

    Arms the sanitizer, runs the named corpus case, and renders the
    deterministic report. Exit 0 when the case's expected finding
    fired; 1 otherwise. With ``--replay`` the case is instead run
    under the :mod:`repro.rr` recorder and the run is re-executed with
    a seek to the first racing access pair (earliest cycle of the
    pair), verifying the event suffix is bit-identical; ``-o FILE``
    additionally saves the recording.

    ``reprosan soak``

    CI's sanitize-soak: every corpus case is recorded and replayed
    through the :mod:`repro.rr` oracle, which must report zero
    divergence; the expected finding must fire in both runs and both
    reports must render byte-identically. Exit 1 on any miss or drift.

    ``reprosan sweep [DIR]``

    The false-positive gate: runs every ``examples/`` program (or
    every ``*.py`` under DIR) with the sanitizer armed and fails if
    *anything* fires — the examples are race-free by construction.
    """
    import io

    from repro.sanitize.corpus import case_named, san_cases

    parser = _Parser(prog="reprosan")
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("list")
    run = modes.add_parser("run")
    run.add_argument("case")
    run.add_argument("--limit", type=_count, default=256)
    run.add_argument("--replay", action="store_true")
    run.add_argument("-o", dest="output")
    modes.add_parser("soak")
    modes.add_parser("sweep").add_argument("directory", nargs="?")
    args = parser.parse_args(argv)
    out = stdout if stdout is not None else sys.stdout

    if args.mode == "list":
        for case in san_cases():
            print(f"{case.name:24s} [{case.kind}] {case.title}",
                  file=out)
        return 0

    if args.mode == "run":
        try:
            case = case_named(args.case)
        except KeyError as error:
            run.error(error.args[0])
        if args.replay:
            return _san_replay(case, out, args.output)
        with contextlib.redirect_stdout(io.StringIO()):
            report = case.run(report_limit=args.limit)
        print(report.render(), file=out)
        fired = case.expect in report.render()
        print(f"expected {case.expect!r}: "
              f"{'fired' if fired else 'MISSING'}", file=out)
        return 0 if fired else 1

    if args.mode == "soak":
        from repro.rr import replay_call

        failures = 0
        for case in san_cases():
            recording, runner, reports = _san_record(case)
            replay = replay_call(recording, runner)
            first, second = (report.render() if report else ""
                             for report in reports)
            fired = case.expect in first
            stable = replay.ok and first == second  # fired in both
            verdict = "ok" if fired and stable else \
                ("DRIFT" if fired else "MISSING")
            findings = (first.splitlines()[0].split(": ", 1)[1]
                        if first else recording.outcome)
            print(f"{case.name:24s} {verdict:8s} {findings}", file=out)
            if not replay.ok:
                _print_indented(replay.render(), out)
            if verdict != "ok":
                failures += 1
        print(f"soak: {len(san_cases()) - failures}/{len(san_cases())} "
              f"case(s) ok", file=out)
        return 0 if failures == 0 else 1

    # sweep
    directory = args.directory or _san_examples_dir()
    if not os.path.isdir(directory):
        parser.error(f"no such directory: {directory}")
    scripts = sorted(entry for entry in os.listdir(directory)
                     if entry.endswith(".py"))
    if not scripts:
        parser.error(f"no *.py scripts in {directory}")
    dirty = 0
    for script in scripts:
        path = os.path.join(directory, script)
        with contextlib.redirect_stdout(io.StringIO()):
            report, stats = _san_armed_run(
                lambda: runpy.run_path(path, run_name="__main__"))
        if report.clean:
            print(f"{script:24s} clean ({stats.accesses} access(es), "
                  f"{stats.hb_edges} hb edge(s))", file=out)
        else:
            dirty += 1
            print(f"{script:24s} {len(report.races)} race(s), "
                  f"{len(report.heap)} heap finding(s):", file=out)
            print(report.render(), file=out)
    print(f"sweep: {len(scripts) - dirty}/{len(scripts)} script(s) "
          f"clean", file=out)
    return 0 if dirty == 0 else 1


def load_archive(kernel: Kernel, proc: Process, path: str) -> Archive:
    data = kernel.vfs.read_whole(path, proc.uid, cwd=proc.cwd)
    return Archive.from_bytes(data)


def _load_any(kernel: Kernel, proc: Process, path: str) -> ObjectFile:
    try:
        return load_template(kernel, proc, path)
    except SimulationError as error:
        raise LinkError(f"{path!r} is not a HOF object: {error}")


def _value(args: List[str], index: int, flag: str, tool: str) -> str:
    if index + 1 >= len(args):
        raise UsageError(f"{tool}: {flag} needs a value")
    return args[index + 1]


def _one_output_one_input(argv: Sequence[str], tool: str,
                          extension: str) -> "tuple[str, str]":
    parser = _Parser(prog=tool)
    parser.add_argument("-o", dest="output")
    parser.add_argument("source")
    args = parser.parse_args(argv)
    if args.output is not None:
        return args.output, args.source
    source = args.source
    base = source[: -len(extension)] if source.endswith(extension) \
        else source
    return base + ".o", source


def _entry(main: Callable[[Sequence[str]], int]) -> Callable[[], int]:
    """A console-script entry point: *main* on ``sys.argv[1:]``, with a
    :class:`UsageError` printed to stderr as exit status 2."""

    def entry() -> int:
        try:
            return main(sys.argv[1:])
        except UsageError as error:
            print(error, file=sys.stderr)
            return 2

    return entry


reprotrace_entry = _entry(reprotrace_main)
reprochaos_entry = _entry(reprochaos_main)
repronet_entry = _entry(repronet_main)
reprofsck_entry = _entry(reprofsck_main)
reprorr_entry = _entry(reprorr_main)
reprosan_entry = _entry(reprosan_main)


if __name__ == "__main__":  # pragma: no cover - console convenience
    # ``python -m repro.tools.cli [TOOL] args...`` runs one host-side
    # tool, reprotrace when TOOL is omitted; the rest run inside the
    # simulation.
    _ENTRIES = {"reprotrace": reprotrace_entry,
                "reprochaos": reprochaos_entry,
                "repronet": repronet_entry,
                "reprofsck": reprofsck_entry,
                "reprorr": reprorr_entry,
                "reprosan": reprosan_entry}
    if sys.argv[1:2] and sys.argv[1] in _ENTRIES:
        sys.exit(_ENTRIES[sys.argv.pop(1)]())
    sys.exit(reprotrace_entry())
