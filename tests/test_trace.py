"""repro.trace — ring buffer, masks, spans, determinism, zero overhead.

The tracing subsystem's contract has two halves: it must *observe*
faithfully (every instrumented event, in order, with exact counters even
past ring overflow) and it must *not perturb* (identical cycle totals
with tracing on, off, or absent — the regression tests pin the seed's
totals for the E2 workload).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro import boot
from repro.bench.workloads import (
    build_module_fanout,
    fanout_expected_exit,
    make_shell,
)
from repro.tools.cli import reprotrace_main
from repro.trace import (
    NULL_TRACER,
    Event,
    EventKind,
    Tracer,
    kinds_mask,
    set_tracer,
    tracing,
)
from repro.trace import tracer as tracer_state
from repro.trace.export import (
    chrome_trace,
    jsonl_lines,
    top_report,
    write_chrome,
    write_jsonl,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

# Seed cycle totals for the E2 workload (benchmarks/test_e2_lazy_linking
# run_fanout(width=12, used=1)), captured before the tracing subsystem
# existed. Tracing must never move these.
SEED_E2_LAZY_TOTAL = 584_767
SEED_E2_EAGER_TOTAL = 1_614_169


class FakeClock:
    """A duck-typed clock the tracer can stamp events from."""

    def __init__(self) -> None:
        self.cycles = 0


def run_fanout(width: int, used: int, lazy: bool):
    """The E2 benchmark workload (duplicated here so the tier-1 suite
    does not depend on the benchmarks directory)."""
    system = boot(lazy=lazy)
    kernel = system.kernel
    shell = make_shell(kernel)
    graph = build_module_fanout(kernel, shell, width=width, used=used,
                                module_dir="/shared/fan")
    start = kernel.clock.snapshot()
    proc = kernel.create_machine_process("p", graph.executable)
    code = kernel.run_until_exit(proc)
    total = kernel.clock.delta(start)
    assert code == fanout_expected_exit(used)
    return total


class TestRingBuffer:
    def test_append_below_capacity(self):
        tracer = Tracer(FakeClock(), capacity=8)
        for i in range(5):
            tracer.emit(EventKind.SYSCALL, name=f"call{i}")
        assert len(tracer) == 5
        assert tracer.dropped == 0
        assert [e.name for e in tracer.events()] == \
            [f"call{i}" for i in range(5)]

    def test_overflow_drops_oldest_keeps_order(self):
        tracer = Tracer(FakeClock(), capacity=4)
        for i in range(10):
            tracer.emit(EventKind.SYSCALL, name=f"call{i}")
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert tracer.emitted == 10
        assert [e.name for e in tracer.events()] == \
            ["call6", "call7", "call8", "call9"]

    def test_counters_exact_past_overflow(self):
        tracer = Tracer(FakeClock(), capacity=2)
        for _ in range(7):
            tracer.emit(EventKind.FAULT, name="read", addr=0x1000)
        for _ in range(3):
            tracer.emit(EventKind.SYSCALL, name="open")
        assert tracer.counts_by_kind[EventKind.FAULT] == 7
        assert tracer.counts_by_kind[EventKind.SYSCALL] == 3
        assert tracer.counts_by_name[(EventKind.FAULT, "read")] == 7

    def test_wraparound_overwrites_in_place(self):
        tracer = Tracer(FakeClock(), capacity=3)
        for i in range(3):
            tracer.emit(EventKind.IPC, name=f"m{i}")
        tracer.emit(EventKind.IPC, name="m3")  # overwrites m0
        assert [e.name for e in tracer.events()] == ["m1", "m2", "m3"]
        tracer.emit(EventKind.IPC, name="m4")  # overwrites m1
        assert [e.name for e in tracer.events()] == ["m2", "m3", "m4"]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(FakeClock(), capacity=0)


class TestCursor:
    """The checkpoint-safe cursor: a cursor taken at any moment replays
    exactly the events emitted after it — never a duplicate, never out
    of order — or fails loudly when the ring has overflowed past it."""

    def test_cursor_is_monotonic_emitted(self):
        tracer = Tracer(FakeClock(), capacity=8)
        assert tracer.cursor() == 0
        tracer.emit(EventKind.SYSCALL, name="a")
        tracer.emit(EventKind.SYSCALL, name="b")
        assert tracer.cursor() == 2

    def test_events_since_returns_exact_suffix(self):
        tracer = Tracer(FakeClock(), capacity=8)
        tracer.emit(EventKind.SYSCALL, name="a")
        cursor = tracer.cursor()
        tracer.emit(EventKind.SYSCALL, name="b")
        tracer.emit(EventKind.SYSCALL, name="c")
        assert [e.name for e in tracer.events_since(cursor)] \
            == ["b", "c"]
        # a fresh cursor yields an empty suffix, not a duplicate
        assert tracer.events_since(tracer.cursor()) == []

    def test_events_since_survives_partial_overflow(self):
        tracer = Tracer(FakeClock(), capacity=4)
        for i in range(3):
            tracer.emit(EventKind.SYSCALL, name=f"e{i}")
        cursor = tracer.cursor()  # at 3; ring still holds e0..e2
        for i in range(3, 6):
            tracer.emit(EventKind.SYSCALL, name=f"e{i}")
        # ring now holds e2..e5; the cursor's suffix is intact
        assert [e.name for e in tracer.events_since(cursor)] \
            == ["e3", "e4", "e5"]

    def test_events_since_rejects_overflowed_cursor(self):
        from repro.errors import TraceCursorError

        tracer = Tracer(FakeClock(), capacity=2)
        cursor = tracer.cursor()
        for i in range(5):
            tracer.emit(EventKind.SYSCALL, name=f"e{i}")
        with pytest.raises(TraceCursorError):
            tracer.events_since(cursor)

    def test_events_since_rejects_bogus_cursor(self):
        from repro.errors import TraceCursorError

        tracer = Tracer(FakeClock(), capacity=4)
        tracer.emit(EventKind.SYSCALL, name="a")
        with pytest.raises(TraceCursorError):
            tracer.events_since(-1)
        with pytest.raises(TraceCursorError):
            tracer.events_since(tracer.emitted + 1)


class TestKindMasks:
    def test_mask_filters_at_emit(self):
        tracer = Tracer(FakeClock(), kinds=[EventKind.FAULT])
        tracer.emit(EventKind.SYSCALL, name="open")
        tracer.emit(EventKind.FAULT, name="read", addr=0x2000)
        assert len(tracer) == 1
        assert tracer.events()[0].kind is EventKind.FAULT
        assert EventKind.SYSCALL not in tracer.counts_by_kind

    def test_mask_from_names(self):
        mask = kinds_mask(["fault", "LINK_RESOLVE"])
        assert mask == EventKind.FAULT.bit | EventKind.LINK_RESOLVE.bit

    def test_enable_disable(self):
        tracer = Tracer(FakeClock(), kinds=[])
        assert not tracer.wants(EventKind.DISK)
        tracer.enable_kind(EventKind.DISK)
        assert tracer.wants(EventKind.DISK)
        tracer.disable_kind(EventKind.DISK)
        tracer.emit(EventKind.DISK, name="/f")
        assert len(tracer) == 0

    def test_masked_span_is_noop(self):
        tracer = Tracer(FakeClock(), kinds=[EventKind.FAULT])
        with tracer.span(EventKind.SWITCH, name="p"):
            pass
        assert len(tracer) == 0


class TestSpans:
    def test_span_duration_from_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span(EventKind.SWITCH, name="slice", pid=3):
            clock.cycles += 250
        (event,) = tracer.events()
        assert event.dur == 250
        assert event.cycle == 0          # entry stamp
        assert event.pid == 3

    def test_nested_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span(EventKind.LINK_RESOLVE, name="outer"):
            clock.cycles += 10
            with tracer.span(EventKind.LINK_RESOLVE, name="inner"):
                clock.cycles += 100
            clock.cycles += 10
        inner, outer = tracer.events()   # inner exits (and emits) first
        assert inner.name == "inner" and inner.dur == 100
        assert outer.name == "outer" and outer.dur == 120
        assert outer.cycle == 0 and inner.cycle == 10
        assert tracer.cycles_by_name[
            (EventKind.LINK_RESOLVE, "outer")] == 120

    def test_span_cycles_aggregate(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        for _ in range(3):
            with tracer.span(EventKind.SWITCH, name="p"):
                clock.cycles += 7
        assert tracer.cycles_by_name[(EventKind.SWITCH, "p")] == 21


class TestNoopTracer:
    def test_default_global_is_disabled(self):
        assert tracer_state.TRACER is NULL_TRACER
        assert NULL_TRACER.enabled is False

    def test_noop_operations(self):
        NULL_TRACER.emit(EventKind.FAULT, name="read", addr=1)
        with NULL_TRACER.span(EventKind.SWITCH, name="x"):
            pass
        assert NULL_TRACER.events() == []

    def test_set_tracer_none_restores_null(self):
        tracer = Tracer(FakeClock())
        set_tracer(tracer)
        assert tracer_state.TRACER is tracer
        set_tracer(None)
        assert tracer_state.TRACER is NULL_TRACER


class TestInstrumentation:
    """The choke points actually emit when tracing is on."""

    def test_fanout_emits_all_core_kinds(self):
        system = boot()
        with tracing(system.kernel) as tracer:
            kernel = system.kernel
            shell = make_shell(kernel)
            graph = build_module_fanout(kernel, shell, width=3, used=2,
                                        module_dir="/shared/fan")
            proc = kernel.create_machine_process("p", graph.executable)
            kernel.run_until_exit(proc)
        kinds = set(tracer.counts_by_kind)
        assert EventKind.SYSCALL in kinds
        assert EventKind.FAULT in kinds
        assert EventKind.SIGNAL in kinds
        assert EventKind.SWITCH in kinds
        assert EventKind.MAP in kinds
        assert EventKind.LINK_RESOLVE in kinds
        assert EventKind.ISLAND in kinds
        assert EventKind.DISK in kinds
        # Lazy linking: exactly `used` modules linked as spans.
        links = [name for (kind, name) in tracer.counts_by_name
                 if kind is EventKind.LINK_RESOLVE
                 and name.startswith("link:")]
        assert len(links) == 2

    def test_events_carry_cycle_stamps_and_pids(self):
        system = boot()
        with tracing(system.kernel) as tracer:
            kernel = system.kernel
            shell = make_shell(kernel)
            graph = build_module_fanout(kernel, shell, width=2, used=1,
                                        module_dir="/shared/fan")
            proc = kernel.create_machine_process("p", graph.executable)
            kernel.run_until_exit(proc)
        events = tracer.events()
        assert events, "no events recorded"
        # Instant events are appended in clock order. (Span events are
        # recorded at exit but stamped with their *entry* cycle, so the
        # combined stream is not globally sorted.)
        instants = [e.cycle for e in events if e.dur == 0]
        assert instants == sorted(instants)
        assert any(e.pid == proc.pid for e in events
                   if e.kind is EventKind.SYSCALL)
        faults = [e for e in events if e.kind is EventKind.FAULT
                  and e.name in ("read", "write", "exec")]
        assert faults and all(e.addr for e in faults)

    def test_ipc_events(self, kernel, shell):
        with tracing(kernel) as tracer:
            kernel.syscalls.msgget(shell, 7)
            kernel.syscalls.msgsnd(shell, 7, b"hello")
            assert kernel.syscalls.msgrcv(shell, 7) == b"hello"
        assert tracer.counts_by_name[(EventKind.IPC, "msgsnd")] == 1
        assert tracer.counts_by_name[(EventKind.IPC, "msgrcv")] == 1


class TestExport:
    def _traced_run(self):
        system = boot()
        with tracing(system.kernel) as tracer:
            kernel = system.kernel
            shell = make_shell(kernel)
            graph = build_module_fanout(kernel, shell, width=3, used=2,
                                        module_dir="/shared/fan")
            proc = kernel.create_machine_process("p", graph.executable)
            kernel.run_until_exit(proc)
        return tracer

    def test_jsonl_deterministic_across_runs(self):
        first = jsonl_lines(self._traced_run().events())
        second = jsonl_lines(self._traced_run().events())
        assert first == second

    def test_jsonl_roundtrip(self):
        lines = jsonl_lines(self._traced_run().events())
        parsed = [json.loads(line) for line in lines]
        assert all(
            list(obj) == ["kind", "cycle", "pid", "addr", "name",
                          "value", "dur", "boot"]
            for obj in parsed
        )
        assert any(obj["kind"] == "FAULT" for obj in parsed)

    def test_chrome_trace_shape(self):
        document = chrome_trace(self._traced_run().events())
        assert "traceEvents" in document
        for record in document["traceEvents"]:
            assert record["ph"] in ("X", "i")
            if record["ph"] == "X":
                assert record["dur"] > 0

    def test_write_files(self, tmp_path):
        tracer = self._traced_run()
        jsonl = tmp_path / "t.trace.jsonl"
        chrome = tmp_path / "t.chrome.json"
        count = write_jsonl(tracer.events(), str(jsonl))
        assert count == len(tracer.events())
        write_chrome(tracer.events(), str(chrome))
        json.load(open(chrome))          # must be valid JSON

    def test_top_report_sections(self):
        report = top_report(self._traced_run(), top=5)
        assert "hottest syscalls" in report
        assert "faultiest pages" in report
        assert "most-resolved symbols" in report
        assert "costliest timed regions" in report


class TestReprotraceCli:
    def test_tour_example_end_to_end(self, tmp_path, capsys):
        script = str(REPO_ROOT / "examples" / "lazy_linking_tour.py")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert reprotrace_main(["-o", str(out_a), script]) == 0
        assert reprotrace_main(["-o", str(out_b), script]) == 0
        capsys.readouterr()
        jsonl_a = (out_a / "lazy_linking_tour.trace.jsonl").read_bytes()
        jsonl_b = (out_b / "lazy_linking_tour.trace.jsonl").read_bytes()
        assert jsonl_a == jsonl_b        # byte-identical reruns
        events = [json.loads(line)
                  for line in jsonl_a.decode().splitlines()]
        assert any(e["kind"] == "FAULT" for e in events)
        assert any(e["kind"] == "LINK_RESOLVE" for e in events)
        assert all(isinstance(e["cycle"], int) for e in events)
        chrome = json.load(open(out_a / "lazy_linking_tour.chrome.json"))
        assert chrome["traceEvents"]

    def test_kinds_filter(self, tmp_path, capsys):
        script = str(REPO_ROOT / "examples" / "lazy_linking_tour.py")
        assert reprotrace_main(
            ["-o", str(tmp_path), "--kinds", "FAULT", script]) == 0
        capsys.readouterr()
        events = [
            json.loads(line) for line in
            (tmp_path / "lazy_linking_tour.trace.jsonl").read_text()
            .splitlines()
        ]
        assert events
        assert {e["kind"] for e in events} == {"FAULT"}

    def test_cli_restores_noop_tracer(self, tmp_path, capsys):
        script = str(REPO_ROOT / "examples" / "quickstart.py")
        reprotrace_main(["-o", str(tmp_path), script])
        capsys.readouterr()
        assert tracer_state.TRACER is NULL_TRACER

    def test_usage_error_without_script(self):
        from repro.tools.cli import UsageError

        with pytest.raises(UsageError):
            reprotrace_main([])

    def test_usage_error_for_missing_script(self):
        from repro.tools.cli import UsageError

        with pytest.raises(UsageError, match="no such script"):
            reprotrace_main(["/no/such/script.py"])

    @pytest.mark.parametrize("flag,value", [
        ("--capacity", "big"), ("--capacity", "0"), ("--top", "big")])
    def test_bad_number_is_a_usage_error(self, flag, value, monkeypatch,
                                         capsys):
        from repro.tools.cli import reprotrace_entry

        script = str(REPO_ROOT / "examples" / "quickstart.py")
        monkeypatch.setattr(sys, "argv",
                            ["reprotrace", flag, value, script])
        assert reprotrace_entry() == 2
        assert f"{flag} needs an integer" in capsys.readouterr().err


class TestClockPerturbation:
    """Tracing must not move the deterministic clock — pinned to seed."""

    def test_e2_totals_match_seed_with_tracing_disabled(self):
        assert run_fanout(12, 1, lazy=True) == SEED_E2_LAZY_TOTAL
        assert run_fanout(12, 1, lazy=False) == SEED_E2_EAGER_TOTAL

    def test_e2_totals_match_seed_with_tracing_enabled(self):
        set_tracer(Tracer(FakeClock()))
        try:
            assert run_fanout(12, 1, lazy=True) == SEED_E2_LAZY_TOTAL
            assert run_fanout(12, 1, lazy=False) == SEED_E2_EAGER_TOTAL
        finally:
            set_tracer(None)

    def test_clock_delta_helper(self):
        system = boot()
        clock = system.kernel.clock
        start = clock.snapshot()
        clock.syscall()
        clock.page_fault()
        assert clock.delta(start) == \
            clock.costs.syscall + clock.costs.page_fault
