#!/usr/bin/env python3
"""Print the layer table of every reprobench workload.

Run from the root of the repository::

    python3 reprobench/layers.py [--seed N] [--seconds S]

For each workload this makes the same traced run as
``run.py --trace 1`` and prints each span group's self seconds and
share of traced op time, whether the predicted dominant layers hold,
and the layer counters per op. The kept spans of each run are written
to ``reprobench/out/<workload>-seed<N>.spans.json``.
"""

from __future__ import annotations

import argparse
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args(argv)
    if not run.prepare():
        return 2
    from workloads import WORKLOADS

    correct = True
    for workload in WORKLOADS:
        result, lines = run.benchmark(workload.name, args.seed,
                                      args.seconds, trace=True)
        correct &= result["correct"]
        print(f"== {workload.name}")
        for line in lines:
            if not line.startswith("env "):
                print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
