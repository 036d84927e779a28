#!/usr/bin/env python3
"""reprobench: one steady host-time benchmark of the Hemlock simulator.

Run from the root of the repository::

    python3 reprobench/run.py --workload presto_smp --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` spends half
the time on an untraced phase and half on a traced one, and reports the
per-layer metrics, the tracing overhead and the layer table. Every op's
output is checked. Host times are given at a fixed reference speed of
the machine, measured by a calibration loop around every timed block
(see ``calibrate``). Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Results (and, traced, the spans) are also
written under ``reprobench/out/``. See ``reprobench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from tracing import (
    COUNTS,
    CYCLE_CATEGORIES,
    GROUPS,
    ROOT as TRACE_ROOT,
    Recorder,
    dominance,
    layer_metrics,
    layer_table,
    snapshot,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: seconds the calibration loop takes at the reference speed: its time
#: in the fast phases of a 2-vCPU Intel Xeon VM under Python 3.11.7
CALIB_REF_S = 0.009
#: fewest samples in a phase, whatever --seconds says: the tail needs
#: ten samples beyond it
MIN_SAMPLES = 11

#: (name, unit, better, bound) of every end-to-end metric
END_TO_END = [
    ("op_s_p50", "s", "lower", 0.25),
    ("op_s_tail", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sim_cycles", "cycles", "lower", 0.05),
    ("sim_elapsed", "cycles", "lower", 0.05),
]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [("trace.overhead", "x", "lower"),
            ("sim_ips", "1/s", "higher"),
            ("warm_s_p50", "s", "lower"),
            ("sim_frames", "frames", "lower")]
    for group in GROUPS:
        if group != TRACE_ROOT:
            spec.append((group + ".calls", "count", "lower"))
        spec.append((group + ".self_s", "s", "lower"))
    spec += [(key, "bytes" if "bytes" in key else "count", "lower")
             for key in COUNTS]
    spec += [("hw.decode_hit_ratio", "ratio", "higher"),
             ("vm.tlb_hit_ratio", "ratio", "higher"),
             ("linker.peek_per_resolve", "ratio", "lower")]
    spec += [("kernel.cycles." + category, "cycles", "lower")
             for category in CYCLE_CATEGORIES]
    return spec


def tail(samples):
    """(value, percentile, n): the highest percentile that has at least
    ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - 11], 100 * (n - 10) // n, n


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "commit": commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def commit():
    """HEAD of the checkout, read from .git without running git; a
    checkout without .git has only the source digest."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrate():
    """Host seconds of a fixed loop of dict, bytearray and slice work,
    the operations the simulator's interpreter and memory views spend
    their time on. Other tenants slow it down by the same factor as the
    ops next to it: over runs whose raw op times were 1.0 to 2.3 times
    the quiet ones, log op time grew as 0.94 to 0.99 times log
    calibration time on every workload."""
    table = {}
    buffer = bytearray(4096)
    total = 0
    start = time.perf_counter()
    for i in range(30000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        buffer[i & 4095] = i & 255
        total += len(buffer[key:key + 16])
    return time.perf_counter() - start


@contextmanager
def measured(raw, adjusted):
    """Time the block; append its host seconds to *raw* and its seconds
    at the reference speed to *adjusted*. The machine's speed comes from
    the calibration loop, timed right before and right after."""
    before = calibrate()
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        speed = CALIB_REF_S * 2 / (before + calibrate())
        raw.append(elapsed)
        adjusted.append(elapsed * speed)


def run_phase(workload, seconds, recorder=None):
    """Closed loop for *seconds* (and at least MIN_SAMPLES samples): set
    up a fresh system, then execute one op against it."""
    times = {"op": [], "warm": [], "setup": []}
    raw = {"op": [], "warm": [], "setup": []}
    results = []
    counters = Counter()
    state = None

    @contextmanager
    def timed(kind):
        before = None
        if recorder is not None and kind == "op":
            before = snapshot(state.kernels, state.cluster)
        with measured(raw[kind], times[kind]):
            if recorder is not None:
                recorder.begin((len(results), kind), len(times["op"]))
            try:
                yield
            finally:
                if recorder is not None:
                    recorder.end()
        if before is not None:
            counters.update(snapshot(state.kernels, state.cluster) - before)

    deadline = time.perf_counter() + seconds
    while len(results) < MIN_SAMPLES or time.perf_counter() < deadline:
        state = None
        gc.collect()
        with measured(raw["setup"], times["setup"]):
            state = workload.setup()
        gc.collect()
        results.append(workload.op(state, timed))
    return {
        "times": times,
        "raw": raw,
        "results": results,
        "counters": counters,
    }


def summarize(phase):
    """End-to-end numbers of one phase plus its correctness findings."""
    results = phase["results"]
    ops = phase["times"]["op"]
    warm = phase["times"]["warm"]
    value, percentile, n = tail(ops)
    sims = {result.sim for result in results}
    problems = []
    for index, result in enumerate(results):
        if not result.ok:
            problems.append(f"op {index} failed check: {result.check}")
    if len(sims) != 1:
        problems.append(f"simulated counts differ between ops: "
                        f"{sorted(sims)}")
    cycles, elapsed, frames = results[0].sim
    raw = phase["raw"]
    return {
        "op_s_p50": statistics.median(ops),
        "op_s_tail": value,
        "tail_percentile": percentile,
        "samples": n,
        "warm_s_p50": statistics.median(warm) if warm else 0.0,
        "setup_s": statistics.median(phase["times"]["setup"]),
        "raw_op_s_p50": statistics.median(raw["op"]),
        "raw_setup_s": statistics.median(raw["setup"]),
        "raw_s": raw,
        "sim_cycles": cycles,
        "sim_elapsed": elapsed,
        "sim_frames": frames,
        "sim_ips": sum(r.instructions for r in results) / sum(ops),
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
    }, problems


def benchmark(name, seed, seconds, trace):
    """Run one workload; returns (result line dict, report lines)."""
    from workloads import BY_NAME

    workload = BY_NAME[name](seed)
    lines = [f"workload {name}: {workload.why}",
             f"seed {seed}: " + ("drives Cluster(seed=) and the host-record "
                                 "order" if workload.seeded else
                                 "no randomness in this workload by "
                                 "construction; the seed is recorded only")]
    env = environment()
    lines.append("env " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    phase_s = seconds / 2 if trace else seconds
    plain = run_phase(workload, phase_s)
    base, problems = summarize(plain)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "untraced": base}
    for key in ("op_s_p50", "op_s_tail", "warm_s_p50", "setup_s"):
        lines.append(f"{key:<12} {base[key]:.6f} s")
    lines.append(f"tail is p{base['tail_percentile']} of {base['samples']} "
                 f"samples, one per op execution on its own setup")
    lines.append(f"host times are at the reference speed; raw medians "
                 f"op {base['raw_op_s_p50']:.6f} s, setup "
                 f"{base['raw_setup_s']:.6f} s")
    for key in ("sim_cycles", "sim_elapsed", "sim_frames"):
        lines.append(f"{key:<12} {base[key]} per op")
    lines.append(f"sim_ips      {base['sim_ips']:.0f} instructions/s")
    lines.append(f"failed_frac  {base['failed'] / base['attempted']:.4f} "
                 f"({base['failed']} of {base['attempted']})")
    attempted, failed = base["attempted"], base["failed"]

    if trace:
        recorder = Recorder()
        recorder.install()
        try:
            traced = run_phase(workload, phase_s, recorder)
        finally:
            recorder.uninstall()
        summary, traced_problems = summarize(traced)
        problems += traced_problems
        attempted += summary["attempted"]
        failed += summary["failed"]
        for key in ("sim_cycles", "sim_elapsed", "sim_frames"):
            if summary[key] != base[key]:
                problems.append(f"tracing perturbed {key}: "
                                f"{summary[key]} traced vs {base[key]}")
        metrics = layer_metrics(recorder.table, traced["counters"],
                                len(traced["times"]["op"]),
                                len(traced["times"]["setup"]))
        metrics["trace.overhead"] = summary["op_s_p50"] / base["op_s_p50"]
        for key in ("sim_ips", "warm_s_p50", "sim_frames"):
            metrics[key] = base[key]
        units = {name: unit for name, unit, _ in per_layer_spec()}
        lines.append(f"trace.overhead {metrics['trace.overhead']:.3f}x")
        lines.append("layer table (self seconds per traced block):")
        lines += layer_table(recorder.table)
        lines.append(dominance(recorder.table, workload.dominant))
        lines.append("counters per op: " + ", ".join(
            f"{key}={metrics[key]:g}" for key, _, _ in per_layer_spec()
            if not key.endswith((".calls", ".self_s"))))
        record["traced"] = summary
        record["per_layer"] = metrics
        recorder.dump(OUT / f"{name}-seed{seed}.spans.json")
    else:
        base["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lines.append(f"peak_rss_mb  {base['peak_rss_mb']:.1f} MB")
        units = {name: unit for name, unit, _, _ in END_TO_END}
        metrics = {key: base[key] for key in units}

    lines += problems
    record["problems"] = problems
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as out:
        json.dump(record, out, indent=1, sort_keys=True)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }
    return result, lines


def prepare():
    """Put the checkout's simulator source on the path; False (with a
    message) when the checkout has none."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"reprobench: no simulator source at {SRC / 'repro'}",
              file=sys.stderr)
        return False
    # The simulator reads REPRO_* switches (cores, TLB, tracing, lint,
    # sanitizer) from the environment; the benchmark pins them off.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare():
        return 2
    from workloads import BY_NAME

    if args.workload not in BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(BY_NAME)}")
    result, lines = benchmark(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
