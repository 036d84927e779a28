"""The one counter dump: ``Kernel.metrics()`` and ``Cluster.metrics()``.

``reprobench/tracing.py``'s :func:`snapshot` reads the simulator's
counters one by one, around each timed op of the four benchmark
workloads. Every key it reports must equal the sum of the ``metrics()``
keys it stands for (:data:`SNAPSHOT_KEYS`), so the dump and the
benchmark can never disagree about a counter. ``reprobench/`` is
imported by file path and never edited.
"""

from __future__ import annotations

import contextlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

REPROBENCH = Path(__file__).resolve().parent.parent / "reprobench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_reprobench_{name}", REPROBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")

#: snapshot key -> the ``metrics()`` keys it sums, as regular
#: expressions; ``{0}`` repeats the snapshot key's group. A cluster
#: member's keys carry a ``node<i>.`` prefix (:data:`MEMBER`).
SNAPSHOT_KEYS = {
    r"kernel\.cycles\.(\w+)": r"kernel\.cycles\.{0}",
    r"vm\.shootdowns": r"smp\.(tlb|decode)_shootdowns\.\d+",
    r"sfs\.addrmap\.comparisons": r"sfs\.addrmap\.comparisons",
    r"disk\.journal\.records": r"disk\.journal\.records",
    r"disk\.blocks_written": r"disk\.blocks_written",
    r"tlb\.hits": r"tlb\.hits",
    r"tlb\.misses": r"tlb\.misses",
    r"vm\.tlb_fills": r"tlb\.fills",
    r"hw\.instructions": r"hw\.instructions",
    r"decode\.hits": r"hw\.decode_hits",
    r"decode\.misses": r"hw\.decode_misses",
    r"linker\.modules_created": r"linker\.modules_created",
    r"linker\.directory_scans": r"linker\.directory_scans",
    r"linker\.retries": r"linker\.transient_retries",
    r"net\.frames_sent": r"net\.frames_sent",
    r"net\.bytes_sent": r"net\.bytes_sent",
    r"net\.retransmits": r"net\.retransmits",
    r"net\.coherence\.bytes_fetched": r"coherence\.bytes_fetched",
    r"net\.rounds": r"net\.rounds",
}
MEMBER = r"(?:node\d+\.)?"
SEED = 1


def _run(workload_class):
    """setup() and one op() of *workload_class*; the state and its
    dump."""
    workload = workload_class(SEED)
    state = workload.setup()
    result = workload.op(state, lambda _kind: contextlib.nullcontext())
    assert result.ok, result.check
    owner = state.cluster if state.cluster is not None \
        else state.kernels[0]
    return state, owner.metrics()


@pytest.fixture(scope="module", params=workloads.WORKLOADS,
                ids=lambda workload: workload.name)
def run(request):
    return (request.param,) + _run(request.param)


def test_snapshot_keys_are_sums_of_metrics_keys(run):
    _workload, state, metrics = run
    snapshot = tracing.snapshot(state.kernels, state.cluster)
    assert snapshot
    for key, value in snapshot.items():
        rows = [(match, template)
                for match, template in (
                    (re.fullmatch(pattern, key), template)
                    for pattern, template in SNAPSHOT_KEYS.items())
                if match]
        assert len(rows) == 1, f"{key}: no single SNAPSHOT_KEYS row"
        match, template = rows[0]
        wanted = re.compile(MEMBER + template.format(*match.groups()))
        assert sum(count for name, count in metrics.items()
                   if wanted.fullmatch(name)) == value, key


def test_dump_is_flat_sorted_and_integral(run):
    _workload, _state, metrics = run
    assert any(key.endswith("kernel.cycles") and value
               for key, value in metrics.items())
    assert list(metrics) == sorted(metrics)
    assert all(type(value) is int for value in metrics.values())


def test_identical_runs_give_equal_dumps(run):
    workload, _state, metrics = run
    assert _run(workload)[1] == metrics


def test_cluster_dump_nests_member_dumps():
    from repro.net import Cluster

    cluster = Cluster(2, seed=SEED)
    metrics = cluster.metrics()
    for node, machine in enumerate(cluster.machines):
        member = machine.kernel.metrics()
        assert member["coherence.fetches"] == 0
        assert {key[len(f"node{node}."):]: value
                for key, value in metrics.items()
                if key.startswith(f"node{node}.")} == member
    assert metrics["net.rounds"] == cluster.round
    assert not any(key.startswith("ha.") for key in metrics)
