"""hgen: cross-language interface generation (§6 Language Heterogeneity)."""

import pytest

from repro.linker.classes import SharingClass
from repro.linker.lds import LinkRequest, store_object
from repro.runtime.libshared import runtime_for
from repro.tools.hgen import (
    generate_python_accessors,
    generate_toyc_header,
    load_python_accessors,
)
from repro.toyc import compile_source

MODULE_SOURCE = """
int counter = 5;
int table[6];
char tag[8];
int bump() { counter = counter + 1; return counter; }
"""


@pytest.fixture
def module():
    return compile_source(MODULE_SOURCE, "state.o")


class TestHeaderGeneration:
    def test_declarations(self, module):
        header = generate_toyc_header(module)
        assert "extern int counter;" in header
        assert "extern int table[6];" in header
        assert "extern char tag[8];" in header
        assert "extern int bump();" in header

    def test_header_compiles_and_links(self, system, shell, module):
        """The generated header really does let a C-side consumer name
        the module's objects."""
        kernel = system.kernel
        kernel.vfs.makedirs("/shared/lib")
        store_object(kernel, shell, "/shared/lib/state.o", module)
        header = generate_toyc_header(module)
        consumer = header + """
            int main() {
                table[2] = 7;
                bump();
                return counter * 10 + table[2];
            }
        """
        store_object(kernel, shell, "/main.o",
                     compile_source(consumer, "main.o"))
        exe = system.lds.link(
            shell,
            [LinkRequest("/main.o"),
             LinkRequest("state.o", SharingClass.DYNAMIC_PUBLIC)],
            output="/bin", search_dirs=["/shared/lib"],
        ).executable
        proc = kernel.create_machine_process("p", exe)
        assert kernel.run_until_exit(proc) == 67  # counter 6, table[2] 7

    def test_internal_symbols_filtered(self, module):
        header = generate_toyc_header(module)
        assert "__" not in header


class TestPythonAccessors:
    def test_source_shape(self, module):
        source = generate_python_accessors(module, "State")
        assert "class State:" in source
        assert "def get_counter(self):" in source
        assert "def set_table(self, index, value):" in source
        assert "def get_tag(self):" in source
        # Functions don't get accessors — they need a CPU to run.
        assert "def get_bump" not in source

    def test_live_cross_language_access(self, system, shell, module):
        """The killer demo: a machine (C-side) process and a Python-side
        accessor read and write the same shared abstraction."""
        kernel = system.kernel
        kernel.vfs.makedirs("/shared/lib")
        store_object(kernel, shell, "/shared/lib/state.o", module)
        store_object(kernel, shell, "/main.o", compile_source("""
            extern int bump();
            extern int table[6];
            int main() { table[0] = 41; return bump(); }
        """, "main.o"))
        exe = system.lds.link(
            shell,
            [LinkRequest("/main.o"),
             LinkRequest("state.o", SharingClass.DYNAMIC_PUBLIC)],
            output="/bin", search_dirs=["/shared/lib"],
        ).executable
        proc = kernel.create_machine_process("p", exe)
        assert kernel.run_until_exit(proc) == 6  # bump: 5 -> 6

        runtime = runtime_for(kernel, shell)
        runtime.start_native(search_dirs=["/shared/lib"])
        state = load_python_accessors(module, runtime, class_name="State")
        assert state.get_counter() == 6       # sees the C side's bump
        assert state.get_table(0) == 41
        state.set_counter(100)
        state.set_tag("py")
        assert state.get_tag() == "py"

        # And the C side sees Python's writes on its next run.
        proc2 = kernel.create_machine_process("p2", exe)
        assert kernel.run_until_exit(proc2) == 101

    def test_unknown_symbol_raises(self, system, shell, module):
        runtime = runtime_for(system.kernel, shell)
        runtime.start_native()
        state = load_python_accessors(module, runtime)
        with pytest.raises(KeyError):
            state.get_counter()  # module never linked in this scope

    def test_array_bounds_asserted(self, system, shell, module):
        kernel = system.kernel
        kernel.vfs.makedirs("/shared/lib")
        store_object(kernel, shell, "/shared/lib/state.o", module)
        runtime = runtime_for(kernel, shell)
        runtime.start_native(search_dirs=["/shared/lib"])
        state = load_python_accessors(module, runtime)
        state.set_table(5, 1)
        with pytest.raises(IndexError):
            state.get_table(6)
        with pytest.raises(IndexError):
            state.set_table(-1, 1)
