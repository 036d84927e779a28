"""The arming registry (repro.kernel.arming): one ordered hook list for
trace, inject, rr, sanitize and disk, and the environment arms."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import boot
from repro.disk import BlockDevice, durable
from repro.errors import KernelError
from repro.inject import injecting
from repro.kernel import arming
from repro.rr.recorder import recording
from repro.sanitize import sanitizing
from repro.trace import tracer as tracer_state
from repro.trace.tracer import NULL_TRACER, tracing

SRC = Path(__file__).resolve().parent.parent / "src"


class TestAttachOrder:
    def test_all_five_attach_in_slot_order(self):
        """Armed in reverse, attached trace → inject → rr → sanitize →
        disk: the first checkpoint is due one interval after boot (rr
        before the disk's 2,520 format cycles), the device shares the
        kernel's injector, and the tracer saw the sanitizer join and
        the disk format."""
        with durable(nblocks=2048) as stores, \
                sanitizing() as sanitizer, \
                recording(interval=1_000_000) as recorders, \
                injecting([], seed=0) as injectors, \
                tracing():
            kernel = boot().kernel
            tracer = tracer_state.TRACER
        assert kernel.clock.cycles == 2520
        assert [(r.interval, r.due) for r in recorders] \
            == [(1_000_000, 1_000_000)]
        assert kernel.disk.device.injector is kernel.injector
        assert tracer._clock is kernel.clock
        assert [(event.kind.name, event.name, event.cycle)
                for event in tracer.events()] == [
            ("SAN", "armed", 0), ("DISK", "checkpoint", 2520)]
        assert kernel.sanitizer is sanitizer
        assert stores == [kernel.disk]
        assert [r.kernel for r in recorders] == [kernel]
        assert [i.kernel for i in injectors] == [kernel]
        assert tracer_state.TRACER is NULL_TRACER

    def test_explicit_disk_wins_over_durable_campaign(self):
        device = BlockDevice(nblocks=2048, seed=3)
        with durable(nblocks=2048) as stores:
            kernel = boot(disk=device).kernel
        assert kernel.disk.device is device
        assert kernel.recovery is kernel.disk.recovery
        assert stores == []


class TestRegistry:
    def test_nested_arm_restores_the_outer_hook(self):
        with sanitizing() as outer:
            with sanitizing() as inner:
                assert boot().kernel.sanitizer is inner
            assert boot().kernel.sanitizer is outer
        assert boot().kernel.sanitizer is None

    def test_suspended_hides_every_slot(self):
        with injecting([], seed=0) as injectors, sanitizing(), \
                durable(nblocks=2048) as stores:
            with arming.suspended():
                kernel = boot().kernel
            assert boot().kernel.injector is not None
        assert kernel.injector is None
        assert kernel.sanitizer is None
        assert kernel.disk is None
        assert len(injectors) == 1 and len(stores) == 1

    def test_unknown_slot_is_refused(self):
        with pytest.raises(KernelError, match="unknown arming slot"):
            with arming.armed("net", lambda kernel: None):
                pass


def _run_with_env(env: dict, code: str) -> subprocess.CompletedProcess:
    full = dict(os.environ)
    for name in ("REPRO_TRACE", "REPRO_TRACE_KINDS",
                 "REPRO_TRACE_CAPACITY", "REPRO_SAN"):
        full.pop(name, None)
    full.update(env)
    full["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-c", code], env=full,
                          capture_output=True, text=True, timeout=120)


class TestEnvironmentArms:
    def test_repro_trace_arms_every_boot(self):
        result = _run_with_env(
            {"REPRO_TRACE": "1", "REPRO_TRACE_KINDS": "FAULT"},
            "from repro import boot\n"
            "from repro.trace import tracer\n"
            "from repro.trace.events import EventKind\n"
            "kernel = boot().kernel\n"
            "t = tracer.TRACER\n"
            "print(t.enabled, t._clock is kernel.clock,\n"
            "      t.mask == EventKind.FAULT.bit)\n")
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True", "True", "True"]

    def test_repro_san_arms_every_boot(self):
        result = _run_with_env(
            {"REPRO_SAN": "1"},
            "from repro import boot\n"
            "print(boot().kernel.sanitizer is not None)\n")
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True"]


class TestEnvironmentRefusals:
    """Bad REPRO_TRACE settings: importing still works, the first boot
    is refused with a KernelError (like REPRO_CORES=two)."""

    REFUSAL = ("import repro\n"
               "from repro.errors import KernelError\n"
               "try:\n"
               "    repro.boot()\n"
               "except KernelError as error:\n"
               "    print('KernelError', error)\n")

    def test_bad_kind(self):
        result = _run_with_env(
            {"REPRO_TRACE": "1", "REPRO_TRACE_KINDS": "NOPE"},
            self.REFUSAL)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("KernelError REPRO_TRACE_KINDS")
