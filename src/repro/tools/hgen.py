"""hgen — cross-language interface generation for shared modules.

§6, "Language Heterogeneity": "We are interested in the possibility of
automatically translating definitions of shared abstractions written in
one language into definitions and optimized access routines written in
another language."

hgen reads a module's symbol table (a template ``.o`` or a placed
segment's metadata — nothing language-specific survives to that level,
which is exactly why the object file is Hemlock's lowest common
denominator) and emits:

* a Toy C header of ``extern`` declarations, so C-side programs can
  name the module's objects directly; and
* a Python accessor class over :class:`~repro.runtime.views.Mem`, so
  native (Python-bodied) processes get the same names with get/set
  routines — the "optimized access routines written in another
  language".

Shape recovery uses the symbol size recorded by the compiler
(``.size``): 4 bytes → ``int``; a multiple of 4 → ``int[n/4]``;
anything else → ``char[n]``; text-section symbols are functions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.objfile.format import ObjectFile, SEC_ABS, SEC_TEXT
from repro.runtime.libshared import HemlockRuntime
from repro.runtime.views import Mem


def _is_function(symbol) -> bool:
    if symbol.kind == "func":
        return False  # explicit data-kind override never happens; guard
    return symbol.section == SEC_TEXT or (
        symbol.section == SEC_ABS and symbol.size == 0 and not symbol.kind
    )


def _shape_of(symbol) -> str:
    """'int', 'int[n]', 'char[n]', or 'ptr' from the recorded size and
    the compiler's element-kind hint."""
    size = symbol.size or 4
    if symbol.kind == "char":
        return "char" if size == 1 else f"char[{size}]"
    if symbol.kind == "ptr":
        return "ptr"
    if size == 4:
        return "int"
    if size % 4 == 0:
        return f"int[{size // 4}]"
    return f"char[{size}]"


def generate_toyc_header(module: ObjectFile) -> str:
    """Extern declarations for every defined global in *module*."""
    lines = [
        f"/* generated by hgen from {module.name} — do not edit */",
    ]
    for symbol in sorted(module.defined_globals(), key=lambda s: s.name):
        if symbol.name.startswith("__"):
            continue  # compiler-internal labels
        if _is_function(symbol):
            lines.append(f"extern int {symbol.name}();")
            continue
        shape = _shape_of(symbol)
        if shape == "int":
            lines.append(f"extern int {symbol.name};")
        elif shape == "char":
            lines.append(f"extern char {symbol.name};")
        elif shape == "ptr":
            # The pointee's type is not recorded; int* is the
            # conservative C-side declaration.
            lines.append(f"extern int *{symbol.name};")
        elif shape.startswith("int["):
            count = shape[4:-1]
            lines.append(f"extern int {symbol.name}[{count}];")
        else:
            count = shape[5:-1]
            lines.append(f"extern char {symbol.name}[{count}];")
    return "\n".join(lines) + "\n"


def generate_python_accessors(module: ObjectFile,
                              class_name: str = "SharedModule") -> str:
    """Python source for an accessor class over the module's globals.

    The generated class resolves each symbol through the Hemlock
    runtime once, then reads/writes it through fault-transparent typed
    access — following a pointer into the segment maps it on demand,
    exactly as compiled code would experience.
    """
    variables: List[str] = []
    for symbol in sorted(module.defined_globals(), key=lambda s: s.name):
        if symbol.name.startswith("__") or _is_function(symbol):
            continue
        shape = _shape_of(symbol)
        if shape in ("int", "ptr", "char"):
            variables.append(_scalar_methods(symbol.name))
        elif shape.startswith("int["):
            variables.append(
                _array_methods(symbol.name, int(shape[4:-1]))
            )
        else:
            variables.append(
                _string_methods(symbol.name, int(shape[5:-1]))
            )
    body = "\n".join(variables) or "    pass\n"
    return (
        f"# generated by hgen from {module.name} — do not edit\n"
        f"class {class_name}:\n"
        f"    \"\"\"Typed access to the shared module's globals.\"\"\"\n"
        f"\n"
        f"    def __init__(self, runtime, mem):\n"
        f"        self._runtime = runtime\n"
        f"        self._mem = mem\n"
        f"        self._addresses = {{}}\n"
        f"\n"
        f"    def _addr(self, name):\n"
        f"        address = self._addresses.get(name)\n"
        f"        if address is None:\n"
        f"            address = self._runtime.resolve_symbol(name)\n"
        f"            if address is None:\n"
        f"                raise KeyError(name)\n"
        f"            self._addresses[name] = address\n"
        f"        return address\n"
        f"\n"
        f"{body}"
    )


def _scalar_methods(name: str) -> str:
    return (
        f"    def get_{name}(self):\n"
        f"        return self._mem.load_i32(self._addr({name!r}))\n"
        f"\n"
        f"    def set_{name}(self, value):\n"
        f"        self._mem.store_i32(self._addr({name!r}), value)\n"
    )


def _array_methods(name: str, count: int) -> str:
    # An explicit raise, not an assert: ``python -O`` strips asserts,
    # and the accessor would then read or write past the array.
    check = (
        f"        if not 0 <= index < {count}:\n"
        f"            raise IndexError("
        f"{name + ' index out of range'!r})\n"
    )
    return (
        f"    def get_{name}(self, index):\n"
        f"{check}"
        f"        return self._mem.load_i32(self._addr({name!r})"
        f" + 4 * index)\n"
        f"\n"
        f"    def set_{name}(self, index, value):\n"
        f"{check}"
        f"        self._mem.store_i32(self._addr({name!r})"
        f" + 4 * index, value)\n"
    )


def _string_methods(name: str, count: int) -> str:
    return (
        f"    def get_{name}(self):\n"
        f"        return self._mem.load_cstring(self._addr({name!r}),"
        f" {count})\n"
        f"\n"
        f"    def set_{name}(self, value):\n"
        f"        self._mem.store_cstring(self._addr({name!r}),"
        f" value, {count})\n"
    )


def load_python_accessors(module: ObjectFile, runtime: HemlockRuntime,
                          mem: Optional[Mem] = None,
                          class_name: str = "SharedModule"):
    """Generate, compile, and instantiate the accessor class."""
    source = generate_python_accessors(module, class_name)
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<hgen:{module.name}>", "exec"), namespace)
    cls = namespace.get(class_name)
    if cls is None:
        raise SimulationError("hgen failed to produce the class")
    if mem is None:
        mem = Mem(runtime.kernel, runtime.proc)
    return cls(runtime, mem)
