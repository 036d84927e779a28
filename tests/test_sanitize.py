"""repro.sanitize: the race detector, heap sanitizer, and reprosan.

Covers the acceptance contract of the sanitize plane:

* every seeded corpus case fires its expected finding, with full
  attribution (segment path, offset, absolute address, both access
  sites) and >= 8 true races across the corpus;
* armed reports are byte-identical across two runs of the same seed,
  and arming never changes the simulated cycle count (pay-for-use);
* the Hypothesis shadow-consistency property: the incrementally
  maintained tracked-page view equals the recomputed-from-scratch
  view across map/write/mprotect/unmap — and across fork/COW and
  cluster FETCH/INVALIDATE traffic in the deterministic variants;
* no false positives: every ``examples/`` program runs clean armed;
* the shared diagnostic CATALOG rejects duplicate registrations;
* the static SAN pass: the seeded broken corpus is in the analyze
  corpus and clean compiled code produces no SAN findings;
* the ``reprosan`` CLI surface, including ``--replay`` seeking an rr
  recording to the first racing access pair.
"""

import io
import runpy
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import boot
from repro.analyze import CATALOG, DuplicateCodeError, Severity, \
    register_codes
from repro.analyze.corpus import broken_objects
from repro.analyze.pipeline import analyze_object
from repro.runtime.libshared import runtime_for
from repro.runtime.views import Mem
from repro.sanitize import sanitizing
from repro.sanitize import state as san_state
from repro.sanitize.corpus import SEG, san_cases, case_named
from repro.tools.cli import UsageError, reprosan_main
from repro.vm.address_space import PROT_READ, PROT_RW
from repro.vm.layout import is_public_address

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(scope="module")
def corpus_reports():
    """One armed run of every corpus case (cases arm themselves)."""
    return {case.name: case.run() for case in san_cases()}


# ---------------------------------------------------------------------------
# the seeded corpus: every case fires, with attribution
# ---------------------------------------------------------------------------


class TestCorpus:
    @pytest.mark.parametrize("name",
                             [case.name for case in san_cases()])
    def test_case_fires_expected_finding(self, corpus_reports, name):
        case = case_named(name)
        report = corpus_reports[name]
        assert case.expect in report.render()
        if case.kind == "race":
            assert report.races
        else:
            assert report.heap

    @pytest.mark.parametrize("name",
                             [case.name for case in san_cases()
                              if case.kind == "race"])
    def test_race_attribution(self, corpus_reports, name):
        """Every race names the segment, offset, absolute address,
        and both access sites with cycle stamps and locksets."""
        for race in corpus_reports[name].races:
            assert race.segment.startswith("/")
            assert race.address % 4 == 0
            assert is_public_address(race.address)
            assert (race.address - race.offset) % 4096 == 0
            assert race.first.label != race.second.label
            assert race.first.kind in ("read", "write")
            assert race.second.kind in ("read", "write")
            assert 0 < race.first.cycle <= race.second.cycle
            assert isinstance(race.first.locks, tuple)

    def test_at_least_eight_true_races(self, corpus_reports):
        race_cases = [case for case in san_cases()
                      if case.kind == "race"]
        assert len(race_cases) >= 8
        total = sum(len(corpus_reports[case.name].races)
                    for case in race_cases)
        assert total >= 8

    def test_flock_one_sided_attribution(self, corpus_reports):
        """The canonical Eraser shape: the locked site shows its
        lockset, the bare site shows none."""
        report = corpus_reports["flock-one-sided"]
        assert len(report.races) == 1
        race = report.races[0]
        assert race.segment == SEG
        assert race.offset == 0x10
        assert race.kind == "write-write"
        assert any(name.startswith("flock:")
                   for name in race.first.locks)
        assert race.second.locks == ()

    def test_cluster_races_cross_label_nodes(self, corpus_reports):
        report = corpus_reports["cluster-piggyback-write"]
        race = report.races[0]
        assert race.first.label.startswith("n")
        assert "/" in race.first.label

    def test_heap_findings_attributed(self, corpus_reports):
        for name in ("heap-use-after-free", "heap-redzone",
                     "heap-double-free", "heap-leak"):
            finding = corpus_reports[name].heap[0]
            assert finding.segment == SEG
            assert is_public_address(finding.address)
            assert finding.label.startswith("pid")
            assert finding.cycle > 0

    def test_use_after_free_names_the_free_site(self, corpus_reports):
        finding = corpus_reports["heap-use-after-free"].heap[0]
        assert finding.kind == "use-after-free"
        assert "freed @cycle" in finding.detail


# ---------------------------------------------------------------------------
# determinism: replay-stable reports, pay-for-use cycles
# ---------------------------------------------------------------------------


def _store_loop_cycles() -> int:
    """A small shared-segment workload; returns its cycle total."""
    kernel = boot().kernel

    def body(kern, proc):
        runtime = runtime_for(kern, proc)
        base = runtime.create_segment("/shared/pay.seg", 4096)
        mem = Mem(kern, proc)
        yield
        for index in range(8):
            mem.store_u32(base + 4 * index, index)
            yield
        runtime.delete_segment("/shared/pay.seg")

    kernel.create_native_process("pay", body)
    kernel.schedule()
    return kernel.clock.cycles


class TestDeterminism:
    def test_armed_reports_byte_identical(self):
        case = case_named("counter-unsync")
        assert case.run().render() == case.run().render()

    def test_arming_never_charges_the_clock(self):
        disarmed = _store_loop_cycles()
        with sanitizing() as sanitizer:
            armed = _store_loop_cycles()
        assert armed == disarmed
        assert sanitizer.stats.accesses > 0

    def test_a_block_restores_the_sanitizer_before_it(self):
        """Leaving a ``sanitizing()`` block inside another (or under
        ``REPRO_SAN=1``) leaves the outer sanitizer active, so
        ``shmalloc`` still reports to it."""
        before = san_state.ACTIVE
        with sanitizing() as outer:
            with sanitizing() as inner:
                assert san_state.ACTIVE is inner
            assert san_state.ACTIVE is outer
            boot()  # boots still join the outer sanitizer
            assert len(outer.kernels) == 1 and not inner.kernels
        assert san_state.ACTIVE is before


# ---------------------------------------------------------------------------
# shadow consistency: incremental view == recomputed view
# ---------------------------------------------------------------------------


class TestShadowConsistency:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=4),
                  st.integers(min_value=0, max_value=2)),
        min_size=1, max_size=12))
    def test_segment_lifecycle_property(self, ops):
        """Any interleaving of create/delete/store/mprotect/load over
        a pool of public segments keeps the incrementally maintained
        tracked-page index equal to the from-scratch recomputation —
        checked after every single operation."""
        with sanitizing() as sanitizer:
            kernel = boot().kernel

            def driver(kern, proc):
                runtime = runtime_for(kern, proc)
                mem = Mem(kern, proc)
                live = {}
                yield
                for op, index in ops:
                    path = f"/shared/hyp{index}.seg"
                    if op == 0 and path not in live:
                        live[path] = runtime.create_segment(path, 4096)
                    elif op == 1 and path in live:
                        runtime.delete_segment(path)
                        del live[path]
                    elif op == 2 and path in live:
                        mem.store_u32(live[path], op)
                    elif op == 3 and path in live:
                        kern.syscalls.mprotect(proc, live[path],
                                               4096, PROT_READ)
                        kern.syscalls.mprotect(proc, live[path],
                                               4096, PROT_RW)
                    elif op == 4 and path in live:
                        mem.load_u32(live[path])
                    assert sanitizer.tracked_index() \
                        == sanitizer.recomputed_index()
                    yield
                for path in list(live):
                    runtime.delete_segment(path)

            kernel.create_native_process("hyp", driver)
            kernel.schedule()
        assert sanitizer.tracked_index() == sanitizer.recomputed_index()

    def test_fork_and_cow_keep_index_consistent(self):
        """Machine fork duplicates the space COW; the child joins the
        tracked index and no finding fires (fork is an HB edge)."""
        from repro.apps.libsys import build_libsys
        from repro.linker.baseline_ld import link_static
        from repro.toyc import compile_source

        with sanitizing() as sanitizer:
            kernel = boot().kernel
            obj = compile_source("""
                int main() {
                    int status = 0;
                    if (fork() == 0) { return 7; }
                    wait(&status);
                    return status;
                }
            """, "m.o")
            image = link_static([obj], archives=[build_libsys()])
            parent = kernel.create_machine_process("parent", image)
            kernel.schedule()
            assert parent.exit_code == 7
        assert sanitizer.tracked_index() == sanitizer.recomputed_index()
        assert sanitizer.report.clean

    def test_cluster_coherence_keeps_index_consistent(self):
        """FETCH/INVALIDATE traffic maps, unmaps, and reprotects the
        per-node replicas; the index must survive all of it."""
        case = case_named("cluster-stale-read")
        with sanitizing() as sanitizer:
            case.body()
        assert sanitizer.tracked_index() == sanitizer.recomputed_index()
        assert sanitizer.report.races      # and the seeded race fired


# ---------------------------------------------------------------------------
# no false positives: every example runs clean armed
# ---------------------------------------------------------------------------


class TestNoFalsePositives:
    @pytest.mark.parametrize(
        "script",
        sorted(path.name for path in EXAMPLES_DIR.glob("*.py")))
    def test_example_is_clean(self, script, capsys):
        with sanitizing() as sanitizer:
            runpy.run_path(str(EXAMPLES_DIR / script),
                           run_name="__main__")
        capsys.readouterr()
        assert sanitizer.report.clean, \
            f"{script}:\n{sanitizer.report.render()}"


# ---------------------------------------------------------------------------
# the shared CATALOG guard
# ---------------------------------------------------------------------------


class TestCatalogGuard:
    def test_duplicate_registration_raises(self):
        before = dict(CATALOG)
        with pytest.raises(DuplicateCodeError):
            register_codes({"REL001": (Severity.ERROR, "impostor")})
        assert dict(CATALOG) == before

    def test_direct_assignment_is_guarded_too(self):
        with pytest.raises(DuplicateCodeError):
            CATALOG["SAN001"] = (Severity.ERROR, "impostor")

    def test_san_family_registered(self):
        for code in ("SAN001", "SAN002", "SAN003", "SAN004"):
            severity, _title = CATALOG[code]
            assert severity in (Severity.ERROR, Severity.WARNING)


# ---------------------------------------------------------------------------
# the static SAN pass
# ---------------------------------------------------------------------------


class TestStaticSan:
    def test_seeded_corpus_covers_every_san_code(self):
        codes = set()
        for entry in broken_objects():
            if entry.code.startswith("SAN"):
                hits = entry.analyze().by_code(entry.code)
                assert len(hits) == 1, entry.title
                codes.add(entry.code)
        assert codes == {"SAN001", "SAN002", "SAN003", "SAN004"}

    def test_clean_compiled_code_has_no_san_findings(self, kernel,
                                                     shell):
        from repro.toyc import compile_source

        obj = compile_source("""
            int counter;
            int main() {
                counter = counter + 1;
                return counter;
            }
        """, "clean.o")
        report = analyze_object(obj, only=["sanitize"])
        assert not [f for f in report.findings
                    if f.code.startswith("SAN")]


# ---------------------------------------------------------------------------
# the reprosan CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_list_names_every_case(self):
        out = io.StringIO()
        assert reprosan_main(["list"], stdout=out) == 0
        text = out.getvalue()
        for case in san_cases():
            assert case.name in text

    def test_run_renders_report_and_verdict(self):
        out = io.StringIO()
        assert reprosan_main(["run", "counter-unsync"],
                             stdout=out) == 0
        text = out.getvalue()
        assert "race write-write /shared/san.seg" in text
        assert "fired" in text

    def test_run_unknown_case_is_a_usage_error(self):
        with pytest.raises(UsageError):
            reprosan_main(["run", "no-such-case"])

    def test_bad_mode_is_a_usage_error(self):
        with pytest.raises(UsageError):
            reprosan_main(["frobnicate"])

    def test_sweep_rejects_missing_directory(self):
        with pytest.raises(UsageError):
            reprosan_main(["sweep", "/no/such/dir"])

    def test_replay_seeks_to_the_first_racing_pair(self):
        """--replay records the case, then re-executes with a seek to
        the earlier cycle of the first racing pair; the event suffix
        must be bit-identical."""
        out = io.StringIO()
        assert reprosan_main(["run", "counter-unsync", "--replay"],
                             stdout=out) == 0
        text = out.getvalue()
        assert "first racing pair" in text
        assert "bit-identical" in text
