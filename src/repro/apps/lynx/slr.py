"""An SLR(1) parser generator — the stand-in for the Wisconsin tools.

Builds the LR(0) automaton, FIRST/FOLLOW sets, and the numeric
ACTION/GOTO tables for a context-free grammar. The tables are plain
integer matrices, exactly the kind of "numeric tables" the Lynx
tool-chain shuttles between programs.

ACTION encoding: 0 = error, positive s = shift to state s-1,
negative r = reduce by production -r-1 (so -1 reduces production 0,
which is accept for the augmented start production).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.errors import SimulationError

END = "$"
EPSILON = "<eps>"


@dataclass
class Grammar:
    """A context-free grammar. Production 0 must be the augmented start
    ``S' -> start``."""

    terminals: List[str]
    nonterminals: List[str]
    productions: List[Tuple[str, Tuple[str, ...]]]

    def __post_init__(self) -> None:
        if END not in self.terminals:
            self.terminals = list(self.terminals) + [END]
        symbols = set(self.terminals) | set(self.nonterminals)
        for head, body in self.productions:
            if head not in self.nonterminals:
                raise SimulationError(f"unknown nonterminal {head!r}")
            for symbol in body:
                if symbol not in symbols:
                    raise SimulationError(f"unknown symbol {symbol!r}")


# The paper's running example domain: arithmetic expressions.
EXPR_GRAMMAR = Grammar(
    terminals=["num", "+", "*", "(", ")"],
    nonterminals=["S'", "E", "T", "F"],
    productions=[
        ("S'", ("E",)),
        ("E", ("E", "+", "T")),
        ("E", ("T",)),
        ("T", ("T", "*", "F")),
        ("T", ("F",)),
        ("F", ("(", "E", ")")),
        ("F", ("num",)),
    ],
)

Item = Tuple[int, int]  # (production index, dot position)


@dataclass
class SlrTables:
    """The generated numeric tables."""

    grammar: Grammar
    action: List[List[int]]          # [state][terminal index]
    goto: List[List[int]]            # [state][nonterminal index] (-1 = err)
    terminal_index: Dict[str, int] = field(default_factory=dict)
    nonterminal_index: Dict[str, int] = field(default_factory=dict)

    @property
    def nstates(self) -> int:
        return len(self.action)


def build_slr_tables(grammar: Grammar) -> SlrTables:
    """Run the full SLR(1) construction."""
    first = _first_sets(grammar)
    follow = _follow_sets(grammar, first)
    states, transitions = _lr0_automaton(grammar)

    term_index = {t: i for i, t in enumerate(grammar.terminals)}
    nonterm_index = {n: i for i, n in enumerate(grammar.nonterminals)}
    action = [[0] * len(grammar.terminals) for _ in states]
    goto = [[-1] * len(grammar.nonterminals) for _ in states]

    for (state, symbol), target in transitions.items():
        if symbol in term_index:
            action[state][term_index[symbol]] = target + 1
        else:
            goto[state][nonterm_index[symbol]] = target

    for state_index, items in enumerate(states):
        for prod_index, dot in items:
            head, body = grammar.productions[prod_index]
            if dot != len(body):
                continue
            targets = [END] if prod_index == 0 else follow[head]
            for terminal in targets:
                column = term_index[terminal]
                existing = action[state_index][column]
                encoded = -(prod_index + 1)
                if existing not in (0, encoded):
                    raise SimulationError(
                        f"SLR conflict in state {state_index} on "
                        f"{terminal!r}: {existing} vs {encoded}"
                    )
                action[state_index][column] = encoded
    return SlrTables(grammar, action, goto, term_index, nonterm_index)


# ---------------------------------------------------------------------------
# set construction
# ---------------------------------------------------------------------------

def _first_sets(grammar: Grammar) -> Dict[str, Set[str]]:
    first: Dict[str, Set[str]] = {t: {t} for t in grammar.terminals}
    for nonterminal in grammar.nonterminals:
        first[nonterminal] = set()
    changed = True
    while changed:
        changed = False
        for head, body in grammar.productions:
            before = len(first[head])
            if not body:
                first[head].add(EPSILON)
            else:
                for symbol in body:
                    first[head] |= first[symbol] - {EPSILON}
                    if EPSILON not in first[symbol]:
                        break
                else:
                    first[head].add(EPSILON)
            changed = changed or len(first[head]) != before
    return first


def _follow_sets(grammar: Grammar,
                 first: Dict[str, Set[str]]) -> Dict[str, Set[str]]:
    follow: Dict[str, Set[str]] = {n: set() for n in grammar.nonterminals}
    follow[grammar.productions[0][0]].add(END)
    changed = True
    while changed:
        changed = False
        for head, body in grammar.productions:
            trailer = set(follow[head])
            for symbol in reversed(body):
                if symbol in follow:  # nonterminal
                    before = len(follow[symbol])
                    follow[symbol] |= trailer
                    changed = changed or len(follow[symbol]) != before
                    if EPSILON in first[symbol]:
                        trailer = trailer | (first[symbol] - {EPSILON})
                    else:
                        trailer = first[symbol] - {EPSILON}
                else:
                    trailer = first[symbol] - {EPSILON}
    return follow


# ---------------------------------------------------------------------------
# LR(0) automaton
# ---------------------------------------------------------------------------

def _closure(grammar: Grammar, items: Set[Item]) -> FrozenSet[Item]:
    out = set(items)
    frontier = list(items)
    while frontier:
        prod_index, dot = frontier.pop()
        _, body = grammar.productions[prod_index]
        if dot >= len(body):
            continue
        symbol = body[dot]
        if symbol not in grammar.nonterminals:
            continue
        for index, (head, _b) in enumerate(grammar.productions):
            if head == symbol:
                item = (index, 0)
                if item not in out:
                    out.add(item)
                    frontier.append(item)
    return frozenset(out)


def _advance(grammar: Grammar, items: FrozenSet[Item],
             symbol: str) -> FrozenSet[Item]:
    moved = {
        (prod, dot + 1)
        for prod, dot in items
        if dot < len(grammar.productions[prod][1])
        and grammar.productions[prod][1][dot] == symbol
    }
    return _closure(grammar, moved) if moved else frozenset()


def _lr0_automaton(grammar: Grammar) -> Tuple[
        List[FrozenSet[Item]], Dict[Tuple[int, str], int]]:
    start = _closure(grammar, {(0, 0)})
    states: List[FrozenSet[Item]] = [start]
    index_of: Dict[FrozenSet[Item], int] = {start: 0}
    transitions: Dict[Tuple[int, str], int] = {}
    symbols = list(grammar.terminals) + list(grammar.nonterminals)
    frontier = [0]
    while frontier:
        state_index = frontier.pop(0)
        for symbol in symbols:
            if symbol == END:
                continue
            target = _advance(grammar, states[state_index], symbol)
            if not target:
                continue
            if target not in index_of:
                index_of[target] = len(states)
                states.append(target)
                frontier.append(index_of[target])
            transitions[(state_index, symbol)] = index_of[target]
    return states, transitions


def flatten_tables(tables: SlrTables) -> Dict[str, Sequence[int]]:
    """The numeric form shuttled between the tools and the compiler."""
    action_flat = [cell for row in tables.action for cell in row]
    goto_flat = [cell for row in tables.goto for cell in row]
    prod_heads = [tables.nonterminal_index[head]
                  for head, _ in tables.grammar.productions]
    prod_lengths = [len(body) for _, body in tables.grammar.productions]
    return {
        "dims": [tables.nstates, len(tables.grammar.terminals),
                 len(tables.grammar.nonterminals),
                 len(tables.grammar.productions)],
        "action": action_flat,
        "goto": goto_flat,
        "prod_heads": prod_heads,
        "prod_lengths": prod_lengths,
    }
