"""The toolchain command-line front ends (the lds wrapper surface)."""

import io
import sys
from pathlib import Path

import pytest

from repro.tools.cli import (
    UsageError,
    ar_main,
    asm_main,
    lds_main,
    nm_main,
    objdump_main,
    toycc_main,
)


@pytest.fixture
def workspace(kernel, shell, dirs):
    """Sources on the simulated FS, ready for the toolchain."""
    kernel.vfs.write_whole("/src/main.c", b"""
extern int shared_fn();
int main() { return shared_fn(); }
""")
    kernel.vfs.write_whole("/shared/lib/shared1.c", b"""
int shared_fn() { return 6; }
""")
    kernel.vfs.write_whole("/src/util.s", b"""
        .text
        .globl util_fn
util_fn:
        li v0, 3
        jr ra
""")
    return dirs


class TestCompilers:
    def test_toycc(self, kernel, shell, workspace):
        out = toycc_main(kernel, shell, ["-o", "/src/main.o",
                                         "/src/main.c"])
        assert out == "/src/main.o"
        assert kernel.vfs.exists("/src/main.o")

    def test_toycc_default_output(self, kernel, shell, workspace):
        out = toycc_main(kernel, shell, ["/src/main.c"])
        assert out == "/src/main.o"

    def test_as(self, kernel, shell, workspace):
        out = asm_main(kernel, shell, ["-o", "/src/util.o",
                                       "/src/util.s"])
        assert kernel.vfs.exists(out)

    def test_bad_option(self, kernel, shell, workspace):
        with pytest.raises(UsageError):
            toycc_main(kernel, shell, ["--frob", "/src/main.c"])

    def test_exactly_one_input(self, kernel, shell, workspace):
        with pytest.raises(UsageError):
            toycc_main(kernel, shell, ["/src/main.c", "/src/other.c"])


class TestLds:
    def _build(self, kernel, shell):
        toycc_main(kernel, shell, ["/src/main.c"])
        toycc_main(kernel, shell, ["-o", "/shared/lib/shared1.o",
                                   "/shared/lib/shared1.c"])

    def test_full_link_and_run(self, kernel, shell, workspace):
        self._build(kernel, shell)
        result = lds_main(kernel, shell, [
            "-o", "/bin/prog",
            "-L", "/shared/lib",
            "/src/main.o",
            "--dynamic-public", "shared1.o",
        ])
        proc = kernel.create_machine_process("p", result.executable)
        assert kernel.run_until_exit(proc) == 6

    def test_class_short_flags(self, kernel, shell, workspace):
        self._build(kernel, shell)
        result = lds_main(kernel, shell, [
            "-o", "/bin/prog", "-L", "/shared/lib",
            "/src/main.o", "-sp", "shared1.o",
        ])
        # static public: created at link time, refs resolved.
        assert kernel.vfs.exists("/shared/lib/shared1")
        assert result.retained_relocations == 0

    def test_entry_option(self, kernel, shell, workspace):
        self._build(kernel, shell)
        result = lds_main(kernel, shell, [
            "-o", "/bin/prog", "-L", "/shared/lib", "--no-crt0",
            "/src/main.o", "-dp", "shared1.o", "-e", "main",
        ])
        assert result.executable.entry_symbol == "main"

    def test_strict_flag(self, kernel, shell, workspace):
        self._build(kernel, shell)
        from repro.errors import ModuleNotFoundLinkError

        with pytest.raises(ModuleNotFoundLinkError):
            lds_main(kernel, shell, [
                "-o", "/bin/prog", "/src/main.o",
                "--strict", "-dp", "ghost.o",
            ])

    def test_archives(self, kernel, shell, workspace):
        asm_main(kernel, shell, ["/src/util.s"])
        ar_main(kernel, shell, ["/src/libutil.a", "/src/util.o"])
        kernel.vfs.write_whole("/src/uses_util.c", b"""
extern int util_fn();
int main() { return util_fn(); }
""")
        toycc_main(kernel, shell, ["/src/uses_util.c"])
        result = lds_main(kernel, shell, [
            "-o", "/bin/prog", "/src/uses_util.o",
            "-l", "/src/libutil.a",
        ])
        proc = kernel.create_machine_process("p", result.executable)
        assert kernel.run_until_exit(proc) == 3

    def test_no_inputs(self, kernel, shell, workspace):
        with pytest.raises(UsageError):
            lds_main(kernel, shell, ["-o", "/bin/prog"])

    def test_missing_value(self, kernel, shell, workspace):
        with pytest.raises(UsageError):
            lds_main(kernel, shell, ["/src/x.o", "-o"])

    def test_unknown_option(self, kernel, shell, workspace):
        with pytest.raises(UsageError):
            lds_main(kernel, shell, ["--wat", "/src/x.o"])


class TestInspectors:
    def test_nm(self, kernel, shell, workspace):
        toycc_main(kernel, shell, ["/src/main.c"])
        text = nm_main(kernel, shell, ["/src/main.o"])
        assert "T main" in text
        assert "U shared_fn" in text

    def test_objdump_disassembly(self, kernel, shell, workspace):
        asm_main(kernel, shell, ["/src/util.s"])
        text = objdump_main(kernel, shell, ["-d", "/src/util.o"])
        assert "jr ra" in text

    def test_nm_rejects_non_object(self, kernel, shell, workspace):
        from repro.errors import LinkError

        with pytest.raises(LinkError):
            nm_main(kernel, shell, ["/src/main.c"])

    def test_nm_usage(self, kernel, shell, workspace):
        with pytest.raises(UsageError):
            nm_main(kernel, shell, [])


class TestSegls:
    def test_lists_segments_with_addresses(self, kernel, shell, dirs):
        from repro.runtime.libshared import runtime_for
        from repro.tools.cli import segls_main

        runtime = runtime_for(kernel, shell)
        base = runtime.create_segment("/shared/lib/data1", 4096)
        runtime.create_segment("/shared/lib/data2", 8192)
        listing = segls_main(kernel, shell)
        assert "/shared/lib/data1" in listing
        assert "/shared/lib/data2" in listing
        assert f"0x{base:012x}" in listing

    def test_long_form_tags_modules(self, kernel, shell, workspace):
        from repro.tools.cli import segls_main

        toycc_main(kernel, shell, ["-o", "/shared/lib/shared1.o",
                                   "/shared/lib/shared1.c"])
        toycc_main(kernel, shell, ["/src/main.c"])
        lds_main(kernel, shell, [
            "-o", "/bin/prog", "-L", "/shared/lib",
            "/src/main.o", "-sp", "shared1.o",
        ])
        from repro.runtime.libshared import runtime_for

        runtime_for(kernel, shell).create_segment("/shared/plain", 4096)
        listing = segls_main(kernel, shell, ["-l"])
        module_lines = [l for l in listing.splitlines()
                        if "/shared1" in l and ".o" not in l]
        assert any("[module]" in l for l in module_lines)
        assert any("[data]" in l for l in listing.splitlines()
                   if "/plain" in l)


class TestReprochaosReplay:
    DRIFTING = """\
import os

from repro import boot

counter = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "runs.txt")
earlier = int(open(counter).read()) if os.path.exists(counter) else 0
with open(counter, "w") as handle:
    handle.write(str(earlier + 1))


def body(kernel, proc):
    for _ in range(earlier + 1):
        yield
    return 0


system = boot()
system.kernel.create_native_process("drifter", body)
system.kernel.schedule()
system.kernel.shutdown()
"""

    def test_fault_free_drift_fails_the_soak(self, tmp_path):
        """A script that does more simulated work on every run fires no
        fault, so only a full record/replay comparison can catch it."""
        import io

        from repro.tools.cli import reprochaos_main

        script = tmp_path / "drifting.py"
        script.write_text(self.DRIFTING)
        out = io.StringIO()
        status = reprochaos_main(["--runs", "1", "--rate", "0",
                                  str(script)], stdout=out)
        text = out.getvalue()
        assert status == 1, text
        assert "REPLAY-DRIFT" in text
        assert "first divergence" in text
        assert (tmp_path / "runs.txt").read_text() == "2"


class TestNumericOptions:
    """A malformed or missing option value is a UsageError (exit 2)
    that names the tool being run, never a raw ValueError."""

    @pytest.mark.parametrize("argv,message", [
        (["reprochaos", "--seed", "big", "x.py"],
         "reprochaos: --seed needs an integer"),
        (["repronet", "soak", "--seed", "big"],
         "repronet: --seed needs an integer"),
        (["reprorr", "record", "--interval", "big", "x.py"],
         "reprorr: --interval needs an integer"),
        (["reprosan", "run", "x", "--limit", "big"],
         "reprosan: --limit needs an integer"),
        (["reprochaos", "--rate", "often", "x.py"],
         "reprochaos: --rate needs a number"),
        (["repronet", "soak", "--runs"],
         "repronet: --runs needs a value"),
        (["reprorr", "record", "--interval"],
         "reprorr: --interval needs a value"),
        (["reprosan", "run", "x", "--limit"],
         "reprosan: --limit needs a value"),
        (["repronet", "soak", "--rate", "nan"],
         "repronet: --rate needs a number"),
        (["repronet", "soak", "--rate", "5"],
         "repronet: --rate needs a number"),
    ])
    def test_bad_value_is_a_usage_error(self, argv, message,
                                        monkeypatch, capsys):
        import sys

        from repro.tools import cli

        monkeypatch.setattr(sys, "argv", argv)
        assert getattr(cli, f"{argv[0]}_entry")() == 2
        assert capsys.readouterr().err.startswith(message)


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestCrashSoak:
    def test_ci_invocation_prints_exactly(self, monkeypatch):
        """The CI crash soak, run from the repository root as CI runs
        it: sampled crash points per script, every one clean."""
        from repro.tools.cli import reprochaos_main

        monkeypatch.chdir(EXAMPLES.parent)
        out = io.StringIO()
        status = reprochaos_main(
            ["--crash", "--seed", "1993", "--max-points", "12",
             "examples/quickstart.py", "examples/admin_database.py"],
            stdout=out)
        assert status == 0
        assert out.getvalue() == (
            "reprochaos: crash soak, 2 script(s), seed 1993, stride 1, "
            "max 12 point(s)\n"
            "  examples/quickstart.py: 12/63 crash point(s): clean\n"
            "  examples/admin_database.py: 12/27 crash point(s): clean\n"
            "reprochaos: OK (every crash point recovered; fsck clean, "
            "segments reopen by address)\n")


class TestRefusals:
    """Argv the tools used to crash on, or to run as something other
    than what was asked, is a UsageError (exit 2)."""

    @pytest.mark.parametrize("argv,message", [
        (["repronet", "topo", "--nodes", "0"],
         "repronet: --nodes needs an integer >= 1"),
        (["reprochaos", "--net", "--nodes", "0",
          str(EXAMPLES / "rwho_network.py")],
         "reprochaos: --nodes needs an integer >= 1"),
        (["reprorr", "record", "--nodes", "0",
          str(EXAMPLES / "quickstart.py")],
         "reprorr: --nodes needs an integer >= 1"),
        (["repronet", "run", "--nodes", "2", "--readers", "9"],
         "repronet: --readers needs node numbers below --nodes 2"),
        (["reprorr", "record", "--kinds", "NOPE",
          str(EXAMPLES / "quickstart.py")],
         "reprorr: --kinds unknown event kind 'NOPE'"),
    ])
    def test_bad_argv_is_a_usage_error(self, argv, message, monkeypatch,
                                       capsys):
        from repro.tools import cli

        monkeypatch.setattr(sys, "argv", argv)
        assert getattr(cli, f"{argv[0]}_entry")() == 2
        assert capsys.readouterr().err.startswith(message)


class TestReprofsck:
    @pytest.fixture
    def image(self, tmp_path):
        from repro import boot
        from repro.disk import BlockDevice

        device = BlockDevice(nblocks=512)
        boot(disk=device).kernel.shutdown()
        path = str(tmp_path / "clean.hdsk")
        device.save(path)
        return path

    def test_clean_image(self, image):
        from repro.tools.cli import reprofsck_main

        out = io.StringIO()
        assert reprofsck_main([image], stdout=out) == 0
        assert out.getvalue() == f"{image}: clean\n"

    def test_verbose_prints_the_generation(self, image):
        from repro.tools.cli import reprofsck_main

        out = io.StringIO()
        assert reprofsck_main(["--verbose", image], stdout=out) == 0
        assert out.getvalue() == (
            f"{image}: clean\n"
            "  generation 2, applied txn 0, 0 committed txn(s) in the "
            "journal (0 beyond the checkpoint), 0 torn-tail record(s) "
            "discarded\n"
            "  inodes: root=2, sfs=1; 0 public segment(s)\n")

    def test_verbose_on_a_crashed_image_is_exact(self, tmp_path):
        from repro.tools.cli import reprofsck_main
        from tests.test_disk import _crashed_image

        path = str(tmp_path / "crashed.hdsk")
        _crashed_image().save(path)
        out = io.StringIO()
        assert reprofsck_main(["--verbose", path], stdout=out) == 0
        assert out.getvalue() == (
            f"{path}: clean\n"
            "  generation 1, applied txn 0, 4 committed txn(s) in the "
            "journal (4 beyond the checkpoint), 0 torn-tail record(s) "
            "discarded\n"
            "  inodes: root=2, sfs=3; 1 public segment(s)\n")

    def test_garbage_image_is_unreadable(self, tmp_path):
        from repro.tools.cli import reprofsck_main

        path = tmp_path / "bad.hdsk"
        path.write_bytes(b"garbage")
        out = io.StringIO()
        assert reprofsck_main([str(path)], stdout=out) == 1
        assert out.getvalue().startswith(f"{path}: unreadable: ")

    def test_no_image_is_a_usage_error(self):
        from repro.tools.cli import reprofsck_main

        with pytest.raises(UsageError):
            reprofsck_main([])
