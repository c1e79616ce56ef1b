"""Compile FO formulas over marked alphabets into classifier DFAs.

A classifier is a deterministic complete automaton with two accepting sets:
F holds the words that are valid encodings and satisfy the formula, G the
valid encodings that falsify it, and everything else is rejected.  It is
stored as a dense table: states 1..n, state 1 initial, a row of successor
numbers per state over the sorted letters, and one verdict per state.

Every classifier comes out of the same two steps.  An implicit DFA, given
by a start state, a successor function and a verdict function, is
explored once into a table (``_table``), and the table is minimized once
by Moore refinement from the {F, G, reject} partition (``minimize``).
Atomic formulas are small semantic cores run alongside the validity DFA;
negation swaps F and G, the binary connectives are synchronous products,
and the existential quantifier is a mark-erasing subset construction run
alongside validity over the remaining variables.
"""

from __future__ import annotations

import functools

from .automata import Nfa, explore, image
from .errors import InputError
from .logic.encoding import lift_table, marked_letters
from .logic.syntax import (
    And, EqVar, Exists, Forall, FoTrue, Implies, Leq, LetterAt, Lt, Not, Or,
    RunAtom, free_vars,
)


class ClassifierDfa:
    """Dense table of a deterministic complete automaton over the marked
    alphabet with the three-way F / G / reject classification.

    States are 1..n, numbered breadth-first from the initial state 1 over
    `letters` (sorted by letter_key); delta[s - 1][i] is the successor of
    s on letters[i], and verdicts[s - 1] is True for F, False for G and
    None for reject."""

    __slots__ = ("letters", "delta", "verdicts", "base_alphabet", "vars",
                 "_nfa")

    def __init__(self, letters, delta, verdicts, base_alphabet, vars):
        self.letters = letters
        self.delta = delta
        self.verdicts = verdicts
        self.base_alphabet = frozenset(base_alphabet)
        self.vars = tuple(vars)
        self._nfa = None

    @property
    def nfa(self) -> Nfa:
        """The table as an Nfa: initial state 1, final set F and the
        accepting set G; built on first use."""
        if self._nfa is None:
            trans = {(s, a, d) for s, row in enumerate(self.delta, 1)
                     for a, d in zip(self.letters, row)}
            verdicts = list(enumerate(self.verdicts, 1))
            self._nfa = Nfa(range(1, len(self.delta) + 1), self.letters,
                            trans, {1}, {s for s, v in verdicts if v},
                            {"G": {s for s, v in verdicts if v is False}})
        return self._nfa

    def classify(self, letters):
        """'F', 'G', or None (rejected / invalid encoding)."""
        index = {a: i for i, a in enumerate(self.letters)}
        s = 1
        for a in letters:
            s = self.delta[s - 1][index[a]]
        verdict = self.verdicts[s - 1]
        return None if verdict is None else "F" if verdict else "G"

    def __repr__(self):
        return "ClassifierDfa(%d states, %d vars)" % (
            len(self.delta), len(self.vars))


def _table(start, step, verdict, base, vars) -> ClassifierDfa:
    """Tabulate the part of an implicit DFA reachable from start.

    step(state) lists the successors of a state in letter order, and
    verdict(state) is true for F, false for G and None for reject.  States
    are numbered 1..n in the order explore first reaches them, which is
    breadth-first over the sorted letters."""
    letters = marked_letters(base, vars)
    number = {start: 1}
    flat = []
    for (_, _, d) in explore([start], lambda s: enumerate(step(s))):
        flat.append(number.setdefault(d, len(number) + 1))
    k = len(letters)
    delta = tuple(tuple(flat[i * k:(i + 1) * k]) for i in range(len(number)))
    return ClassifierDfa(letters, delta, tuple(map(verdict, number)),
                         base, vars)


_CLASS = {True: 0, False: 1, None: 2}


def minimize(c: ClassifierDfa) -> ClassifierDfa:
    """Moore refinement from the {F, G, reject} partition.

    Every round numbers the blocks by their first state.  On a table
    numbered breadth-first this numbers the quotient breadth-first too
    (its states in the shortlex order of their shortest words), so equal
    classifiers come out as equal tables and repeated compilations are
    byte-identical."""
    block = [None] + [_CLASS[v] for v in c.verdicts]    # block[s], s >= 1
    count = len(set(c.verdicts))
    while True:
        sigs = {}
        new = [None] + [
            sigs.setdefault((block[s], *[block[d] for d in row]), len(sigs))
            for s, row in enumerate(c.delta, 1)]
        if len(sigs) == count:
            break
        block, count = new, len(sigs)
    if count == len(c.delta):
        return c
    first = {}
    for s in range(1, len(new)):
        first.setdefault(new[s], s)
    delta = tuple(tuple(new[d] + 1 for d in c.delta[s - 1])
                  for s in first.values())
    verdicts = tuple(c.verdicts[s - 1] for s in first.values())
    return ClassifierDfa(c.letters, delta, verdicts, c.base_alphabet, c.vars)


def _on_validity(core, base, vars) -> ClassifierDfa:
    """Minimal classifier of a core run alongside the validity DFA.

    A core (start, step, yes) is an implicit DFA over the marked letters
    whose yes(state) is the right answer on valid encodings.  The product
    is in F where the core says yes on a valid word and in G where it says
    no.  Validity states are the bit masks of the variables marked so far,
    and -1 once some variable is marked twice."""
    start, step, yes = core
    step = functools.lru_cache(maxsize=None)(step)
    masks = [sum(b << i for i, b in enumerate(a[1])) if vars else 0
             for a in marked_letters(base, vars)]
    full = (1 << len(vars)) - 1

    @functools.lru_cache(maxsize=None)
    def marks(seen):
        return [-1 if seen < 0 or seen & m else seen | m for m in masks]

    return minimize(_table(
        (start, 0), lambda s: zip(step(s[0]), marks(s[1])),
        lambda s: yes(s[0]) if s[1] == full else None, base, vars))


def _base_of(letter, vars):
    return letter[0] if vars else letter


# ---------------------------------------------------------------------------
# semantic cores: (start, step, yes) triples, correct on valid words


def _core_true(letters):
    return 0, lambda s: [0] * len(letters), lambda s: True


def _core_letter_at(phi: LetterAt, letters, vars):
    # pending (0) until the mark, then yes (1) or no (2) for good
    i = vars.index(phi.var)
    pending = [(1 if a[0] == phi.letter else 2) if a[1][i] else 0
               for a in letters]
    rows = (pending, [1] * len(letters), [2] * len(letters))
    return 0, rows.__getitem__, lambda s: s == 1


def _core_order(phi, letters, vars):
    # neither mark seen (0) / x seen first (1) / yes (2) / no (3); a y
    # mark before the x mark decides no at once
    ix, iy = vars.index(phi.left), vars.index(phi.right)
    on_both = 3 if isinstance(phi, Lt) else 2
    on_x = 3 if isinstance(phi, EqVar) else 1
    neither = [on_both if a[1][ix] and a[1][iy] else on_x if a[1][ix]
               else 3 if a[1][iy] else 0 for a in letters]
    xfirst = [2 if a[1][iy] else 1 for a in letters]
    rows = (neither, xfirst, [2] * len(letters), [3] * len(letters))
    return 0, rows.__getitem__, lambda s: s == 2


def _core_run_atom(phi: RunAtom, letters, vars):
    nfa, p, q = phi.nfa, phi.p, phi.q
    if p not in nfa.states or q not in nfa.states:
        raise InputError("run atom %s uses unknown states" % phi.name)

    num = nfa.numbered()
    rows = dict(zip(num.letters, num.masks))
    stuck = (0,) * len(nfa.states)
    final = 1 << num.pos[q]

    def fired(a, v):
        return v is not None and a[1][vars.index(v)]

    # the automaton is simulated on subsets of positions, as bit masks
    fires = [(fired(a, phi.lo), fired(a, phi.hi),
              rows.get(_base_of(a, vars), stuck)) for a in letters]
    done = {True: ("d", True), False: ("d", False)}
    simulate = ("s", 1 << num.pos[p])
    wait = ("w",)

    def step(state):
        if state[0] == "d":
            return [state] * len(fires)
        if state == wait:        # hi before lo: the factor is empty
            return [done[p == q] if hi else simulate if lo else wait
                    for lo, hi, _ in fires]
        # the factor stops before a hi mark
        return [done[bool(state[1] & final)] if hi
                else ("s", image(row, state[1]))
                for _, hi, row in fires]

    def yes(state):
        # without a hi bound the verdict is read at the end of the word
        return state == done[True] or (
            phi.hi is None and state[0] == "s" and bool(state[1] & final))

    # without a lo bound the simulation starts at once, else at the lo mark
    return simulate if phi.lo is None else wait, step, yes


def _core(phi, letters, vars):
    if isinstance(phi, FoTrue):
        return _core_true(letters)
    if isinstance(phi, LetterAt):
        return _core_letter_at(phi, letters, vars)
    if isinstance(phi, (Leq, Lt, EqVar)):
        return _core_order(phi, letters, vars)
    if isinstance(phi, RunAtom):
        return _core_run_atom(phi, letters, vars)
    raise InputError("not an FO formula: %r" % (phi,))


# ---------------------------------------------------------------------------
# connectives


def _swap(c: ClassifierDfa) -> ClassifierDfa:
    """Negation: F and G trade places."""
    verdicts = tuple(None if v is None else not v for v in c.verdicts)
    return ClassifierDfa(c.letters, c.delta, verdicts, c.base_alphabet,
                         c.vars)


def _combine(c1: ClassifierDfa, c2: ClassifierDfa, take) -> ClassifierDfa:
    """Synchronous product; a valid pair lands in F when take(inF1, inF2)."""
    rows1, rows2 = c1.delta, c2.delta

    def verdict(state):
        v1, v2 = c1.verdicts[state[0] - 1], c2.verdicts[state[1] - 1]
        return None if v1 is None or v2 is None else take(v1, v2)

    return minimize(_table(
        (1, 1), lambda s: zip(rows1[s[0] - 1], rows2[s[1] - 1]), verdict,
        c1.base_alphabet, c1.vars))


def _exists(c: ClassifierDfa, var) -> ClassifierDfa:
    """Erase var's mark row nondeterministically: a subset construction,
    run alongside validity over the remaining variables."""
    vars = tuple(v for v in c.vars if v != var)
    lifts = lift_table(c.base_alphabet, vars, var)
    rows = c.delta
    accept = frozenset(s for s, v in enumerate(c.verdicts, 1) if v)

    def step(subset):
        return [frozenset(rows[s - 1][i] for s in subset for i in (i0, i1))
                for _, i0, i1 in lifts]

    return _on_validity(
        (frozenset([1]), step, lambda subset: not accept.isdisjoint(subset)),
        c.base_alphabet, vars)


def dfa_from_nfa(nfa: Nfa) -> ClassifierDfa:
    """Subset-construction DFA over the plain alphabet: F = L(nfa), G = its
    complement (no reject class).  Subsets are bit masks of positions in
    the automaton's `order`."""
    num = nfa.numbered()
    final = num.mask(nfa.final)
    return minimize(_table(
        num.mask(nfa.initial),
        lambda subset: [image(rows, subset) for rows in num.masks],
        lambda subset: bool(subset & final), nfa.alphabet, ()))


def compile_fo(phi, alphabet, vars=None, memo=None) -> ClassifierDfa:
    """Classifier automaton for phi over the marked alphabet: F iff valid
    and satisfied, G iff valid and falsified, reject iff invalid.

    memo maps (subformula, variable context) to its classifier; callers
    compiling several formulas over one alphabet pass one dict to share
    their common subformulas."""
    if vars is None:
        vars = sorted(free_vars(phi))
    vars = tuple(sorted(set(vars)))
    missing = free_vars(phi) - set(vars)
    if missing:
        raise InputError("free variables not in scope: %s"
                         % ", ".join(sorted(missing)))
    return _compile(phi, frozenset(alphabet), vars,
                    {} if memo is None else memo)


_TAKE = {And: lambda a, b: a and b, Or: lambda a, b: a or b,
         Implies: lambda a, b: (not a) or b}


def _compile(phi, base, vars, memo) -> ClassifierDfa:
    key = (phi, vars)
    c = memo.get(key)
    if c is None:
        c = memo[key] = _compile_node(phi, base, vars, memo)
    return c


def _compile_node(phi, base, vars, memo) -> ClassifierDfa:
    if isinstance(phi, Not):
        return _swap(_compile(phi.sub, base, vars, memo))
    if isinstance(phi, (And, Or, Implies)):
        return _combine(_compile(phi.left, base, vars, memo),
                        _compile(phi.right, base, vars, memo),
                        _TAKE[type(phi)])
    if isinstance(phi, (Exists, Forall)):
        if phi.var in vars:
            raise InputError("variable %s is shadowed" % phi.var)
        inner_vars = tuple(sorted(vars + (phi.var,)))
        if isinstance(phi, Exists):
            return _exists(_compile(phi.body, base, inner_vars, memo),
                           phi.var)
        inner = _swap(_compile(phi.body, base, inner_vars, memo))
        return _swap(_exists(inner, phi.var))
    return _on_validity(_core(phi, marked_letters(base, vars), vars), base,
                        vars)
