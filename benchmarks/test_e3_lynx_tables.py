"""E3 — Lynx compiler tables: persistent shared module vs translation.

Paper: the C version of the tables "is over 5400 lines, and takes 18
seconds to compile on a Sparcstation 1"; switching to a shared module
"would eliminate between 20 and 25% of code in the utility programs."

Three pipelines are measured for the compiler's table acquisition:
1. ASCII translate: parse the generators' numeric output on every run;
2. compile-and-link: emit (Toy) C source, compile it, link it in;
3. Hemlock: map the persistent shared segment and use it directly.
"""

from __future__ import annotations

import time

from repro import boot
from repro.apps.lynx import (
    build_expression_tables,
    parse_expression,
    read_tables_segment,
    tables_to_toyc,
    write_tables_segment,
)
from repro.apps.lynx.tablegen import load_tables_ascii, save_tables_ascii
from repro.bench.harness import Experiment, ratio
from repro.bench.workloads import make_shell
from repro.toyc import compile_source


def run_pipelines():
    system = boot()
    kernel = system.kernel
    generator = make_shell(kernel, "tablegen")
    compiler = make_shell(kernel, "lynx-compiler")

    tables = build_expression_tables()
    # Generator side: produce all three artifacts once.
    save_tables_ascii(kernel, generator, tables, "/tables.txt")
    write_tables_segment(kernel, generator, tables, "/shared/lynxtabs")
    c_source = tables_to_toyc(tables)

    # Warm the ASCII file so the comparison excludes the first-touch
    # disk seek (both paths would pay it equally).
    load_tables_ascii(kernel, compiler, "/tables.txt")
    read_tables_segment(kernel, compiler, "/shared/lynxtabs")

    start = kernel.clock.snapshot()
    ascii_tables = load_tables_ascii(kernel, compiler, "/tables.txt")
    ascii_cycles = kernel.clock.snapshot() - start

    start = kernel.clock.snapshot()
    shared_tables = read_tables_segment(kernel, compiler,
                                        "/shared/lynxtabs")
    shared_cycles = kernel.clock.snapshot() - start

    # The compile path is host work (the compiler itself); wall-time it.
    wall_start = time.perf_counter()
    compile_source(c_source, "lynx_tables.o")
    compile_seconds = time.perf_counter() - wall_start

    # Both table copies must drive the parser identically.
    for text, value in (("2+3*4", 14), ("(2+3)*4", 20)):
        assert parse_expression(ascii_tables, text) == value
        assert parse_expression(shared_tables, text) == value
    return ascii_cycles, shared_cycles, compile_seconds, c_source


def test_e3_lynx_tables(report, benchmark):
    ascii_cycles, shared_cycles, compile_seconds, c_source = \
        benchmark.pedantic(run_pipelines, rounds=1, iterations=1)

    experiment = Experiment(
        "E3", "Lynx compiler tables: shared module vs translation",
        "'the C version of the tables is over 5400 lines, and takes 18 "
        "seconds to compile'; sharing eliminates 20-25% of utility code",
    )
    experiment.add("table acquisition, ASCII translate", ascii_cycles)
    experiment.add("table acquisition, shared segment", shared_cycles)
    experiment.add("translate/shared ratio",
                   ratio(ascii_cycles, shared_cycles), unit="x")
    experiment.add("emitted table source", c_source.count("\n"),
                   unit="lines",
                   detail="paper's was 5400+ lines for the full grammar")
    experiment.note(f"compile-and-link pipeline: "
                    f"{compile_seconds * 1000:.3f} ms wall (paper's took "
                    f"18 s on a Sparcstation 1)")

    # The 20-25% code-elimination claim, measured on our own code: the
    # translation layer the shared pipeline no longer needs.
    import inspect
    from repro.apps.lynx import tablegen

    translation_lines = (
        len(inspect.getsource(tablegen.tables_to_ascii).splitlines())
        + len(inspect.getsource(tablegen.tables_from_ascii).splitlines())
        + len(inspect.getsource(tablegen.save_tables_ascii).splitlines())
        + len(inspect.getsource(tablegen.load_tables_ascii).splitlines())
    )
    module_lines = len(inspect.getsource(tablegen).splitlines())
    eliminated = 100 * translation_lines / module_lines
    experiment.add("translation code eliminated",
                   round(eliminated, 1), unit="% of pipeline module",
                   detail="paper reports 20-25%")
    report(experiment)

    assert shared_cycles < ascii_cycles
    assert 10 <= eliminated <= 50
