"""libsys — the tiny C library for Toy C programs.

Assembly wrappers for the syscalls a Toy C program needs: I/O,
semaphores, message queues, environment access, process identity.
Shipped as an archive so the linkers pull in only what a program
references, the way ``libc.a`` behaves.
"""

from __future__ import annotations

from repro.hw.asm import assemble
from repro.objfile.archive import Archive

_WRAPPERS = {
    # name: (syscall number, number of register args)
    "exit": (1, 1),
    "write": (2, 3),
    "read": (3, 3),
    "open": (4, 3),
    "close": (5, 1),
    "fork": (6, 0),
    "getpid": (7, 0),
    "sbrk": (8, 1),
    "wait": (9, 1),
    "mmap": (10, 4),
    "munmap": (11, 2),
    "mprotect": (12, 3),
    "put_int": (14, 1),
    "addr_to_path": (20, 3),
    "open_by_addr": (21, 2),
    "flock": (22, 2),
    "msg_get": (23, 1),
    "msg_send": (24, 3),
    "msg_recv": (25, 3),
    "sem_get": (26, 2),
    "sem_p": (27, 1),
    "sem_v": (28, 1),
    "get_env": (30, 3),
    "unlink": (31, 1),
    "symlink": (32, 2),
    "mkdir": (33, 1),
    "stat": (34, 2),
}


def _wrapper_source(name: str, number: int) -> str:
    return f"""
        .text
        .globl  {name}
{name}:
        li      v0, {number}
        syscall
        jr      ra
"""

_STRLEN = """
        .text
        .globl  strlen
strlen:
        move    v0, zero
strlen_loop:
        add     t0, a0, v0
        lbu     t1, 0(t0)
        beqz    t1, strlen_done
        addi    v0, v0, 1
        b       strlen_loop
strlen_done:
        jr      ra
"""

_PUT_STR = """
        .text
        .globl  put_str
put_str:
        # write(1, s, strlen(s))
        addi    sp, sp, -8
        sw      ra, 0(sp)
        sw      a0, 4(sp)
        jal     strlen
        move    a2, v0
        lw      a1, 4(sp)
        li      a0, 1
        li      v0, 2
        syscall
        lw      ra, 0(sp)
        addi    sp, sp, 8
        jr      ra
"""


def build_libsys() -> Archive:
    """The libsys archive, freshly assembled."""
    archive = Archive("libsys.a")
    for name, (number, _nargs) in sorted(_WRAPPERS.items()):
        archive.add(assemble(_wrapper_source(name, number),
                             f"sys_{name}.o"))
    archive.add(assemble(_STRLEN, "strlen.o"))
    archive.add(assemble(_PUT_STR, "put_str.o"))
    return archive
