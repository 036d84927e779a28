"""Lynx compiler tables — sharing pointer-rich/numeric tables (§4).

"The Wisconsin tools produce numeric tables which a pair of utility
programs translate into initialized data structures for separately-
developed scanner and parser drivers. ... With Hemlock, the utility
programs that read the numeric output of the scanner and parser
generators would share a persistent module (the tables) with the Lynx
compiler. The utility programs would initialize the tables; the
compiler would link them in and use them."

* :mod:`slr` — a genuine SLR(1) parser generator (the "Wisconsin tool");
* :mod:`tablegen` — the utility programs: emit the numeric tables as an
  ASCII file (baseline), as Toy C source to be compiled and linked (the
  paper's 5400-line / 18-second path), or directly into a persistent
  shared segment (the Hemlock path);
* :mod:`driver` — the table-driven scanner and parser drivers, able to
  run from in-memory tables or straight out of the shared segment.
"""

from repro.apps.lynx.slr import Grammar, build_slr_tables, EXPR_GRAMMAR
from repro.apps.lynx.tablegen import (
    tables_to_ascii,
    tables_from_ascii,
    tables_to_toyc,
    write_tables_segment,
    read_tables_segment,
    TableSet,
    build_expression_tables,
)
from repro.apps.lynx.driver import parse_expression, tokenize_expression

__all__ = [
    "Grammar",
    "build_slr_tables",
    "EXPR_GRAMMAR",
    "TableSet",
    "build_expression_tables",
    "tables_to_ascii",
    "tables_from_ascii",
    "tables_to_toyc",
    "write_tables_segment",
    "read_tables_segment",
    "parse_expression",
    "tokenize_expression",
]
