"""Compile FO formulas over marked alphabets into classifier DFAs.

A classifier is a deterministic complete automaton with two accepting sets:
F holds the words that are valid encodings and satisfy the formula, G the
valid encodings that falsify it, and everything else is rejected.  It is
stored as a dense table: states 1..n, state 1 initial, a row of successor
numbers per state over the sorted letters, and one verdict per state.

Every classifier comes out of the same two steps.  A core (an implicit
DFA: a start state, a successor function and a yes function) is run
alongside the validity DFA over its variables, whose words that mark a
variable twice all end in one reject sink, and tabulated in one loop
(``_on_validity``, which steps each core state once and looks each
successor up once); the table is minimized once by Moore refinement
(``minimize``) from the partition by breadth-first distance to F and to
G, which most tables leave stable after one round; each round reads each
distinct letter column of the table once.  Negation swaps F and G.  A
chain of ``&`` is one classifier (``_conjunction``): the synchronous
product of its operands' cores, in which every tuple with a settled "no"
in it is one dead state, so an atom inside a conjunction is never
tabulated alone; a chain of ``|`` and ``->`` are its duals (a | b =
!(!a & !b), a -> b = !(a & !b)).  Every other core is one subset
construction of a bit-mask automaton (``_subsets``), which steps a
subset by OR-ing its states' successor vectors and cuts it to the states
that can still reach acceptance, so a subset that can never accept is
the empty one and most tables reach ``minimize`` already minimal.  The
atoms are automata of 1, 2 or 3 bits, or a run atom's automaton plus two
bits; the existential quantifier erases a variable's mark row from the
body's table; ``dfa_from_nfa`` determinizes an Nfa, with no variables.

Since ``minimize`` numbers the quotient by shortlex-least access words, a
classifier's table depends only on its F / G / reject language, not on
how the product that recognizes it was built or how far its subsets
were trimmed.
"""

from __future__ import annotations

from .automata import Nfa, _coreachable, _distances, _table_preds
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

    def __repr__(self):
        return "ClassifierDfa(%d states, %d vars)" % (
            len(self.delta), len(self.vars))


def minimize(c: ClassifierDfa) -> ClassifierDfa:
    """Moore refinement from the partition by distance to F and to G.

    The seed block of a state is its pair of breadth-first distances to
    the nearest F state and the nearest G state (-1 where there is none),
    which also tells its verdict.  Equivalent states have equal distances,
    so the coarsest congruence refining the seed is still the one refining
    {F, G, reject}, reached in far fewer rounds.  A round gives each state
    the signature of its block and the blocks of its successors, read
    column by column: one column per distinct letter column of the table,
    since two letters with the same successors refine alike.  Every round
    numbers the blocks by their first state.  On a table numbered
    breadth-first this numbers the quotient breadth-first too (its states
    in the shortlex order of their shortest words), so equal classifiers
    come out as equal tables and repeated compilations are
    byte-identical."""
    n = len(c.delta)
    cols = list(dict.fromkeys(zip(*c.delta)))
    preds = _table_preds(cols, n)
    to_f = _distances(preds, [s for s, v in enumerate(c.verdicts, 1) if v])
    to_g = _distances(preds, [s for s, v in enumerate(c.verdicts, 1)
                              if v is False])
    block = [f * (n + 2) + g for f, g in zip(to_f, to_g)]   # block[s], s >= 1
    count = len(set(block[1:]))
    while count < n:                    # a partition into singletons is stable
        sigs = {}
        new = [None] + [
            sigs.setdefault(sig, len(sigs)) for sig in zip(
                block[1:], *[map(block.__getitem__, col) for col in cols])]
        if len(sigs) == count:
            break
        block, count = new, len(sigs)
    if count == n:
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
    no.  Validity states are the bit masks of the variables marked so far;
    once some variable is marked twice the word is rejected for good, so
    every such state is the one reject sink (None, -1).  States are
    numbered 1..n as they are first reached, breadth-first over the
    sorted letters, and each core state is stepped once."""
    start, step, yes = core
    letters = marked_letters(base, vars)
    masks = [sum(b << i for i, b in enumerate(a[1])) if vars else 0
             for a in letters]
    full = (1 << len(vars)) - 1
    # marks[seen]: the validity successors, and marks[-1] the sink's
    marks = [[-1 if seen & m else seen | m for m in masks]
             for seen in range(full + 1)] + [[-1] * len(masks)]
    sink = (None, -1)
    number = {(start, 0): 1}
    order = [(start, 0)]                # order grows during the loop
    steps, delta = {None: masks}, []    # None: the sink's core state
    for s, seen in order:
        ds = steps.get(s)
        if ds is None:
            ds = steps[s] = step(s)
        succs = [(d, m) if m >= 0 else sink for d, m in zip(ds, marks[seen])]
        row = list(map(number.get, succs))
        if None in row:
            for i, d in enumerate(succs):
                if row[i] is None:
                    row[i] = number.setdefault(d, len(order) + 1)
                    if row[i] > len(order):
                        order.append(d)
        delta.append(tuple(row))
    return minimize(ClassifierDfa(
        letters, tuple(delta),
        tuple(yes(s) if seen == full else None for s, seen in order),
        base, vars))


def _subsets(start, rows, accept, live=None):
    """The subset construction of a bit-mask automaton, as a core: rows[j][i]
    is the mask of the states that state i reaches on the j-th marked
    letter, and a subset says yes when it meets `accept`.  The start and
    every successor are cut to `live` (by default the states that can
    still reach accept), so a subset that can never accept is the empty
    one, a settled no.

    The rows are transposed once, into each state's successor vector; a
    subset of one state steps to its vector, a larger one to the OR of
    its states' vectors, each packed into one int of len(rows) fields of
    n bits when a larger subset first needs it."""
    def yes(subset):
        return bool(subset & accept)

    if not rows:                        # no letters: no successors
        return start, lambda subset: (), yes
    n, k = len(rows[0]), len(rows)
    if live is None:
        live = _coreachable(rows, n, accept)
    vectors = [(0,) * k, *zip(*rows)]    # vectors[i + 1]: state i's successors
    packed = [None] * len(vectors)

    def step(subset):
        if not subset & (subset - 1):
            return [mask & live for mask in vectors[subset.bit_length()]]
        acc = 0
        while subset:
            low = subset & -subset
            i = low.bit_length()
            if packed[i] is None:
                packed[i] = sum(mask << n * j
                                for j, mask in enumerate(vectors[i]))
            acc |= packed[i]
            subset ^= low
        return [acc >> n * j & live for j in range(k)]

    return start & live, step, yes


# ---------------------------------------------------------------------------
# atoms: bit-mask automata (start, rows, accept[, live]), correct on valid
# words; a word that settles "no" leaves the empty subset


def _atom(phi, letters, vars, memo):
    if isinstance(phi, FoTrue):
        return 1, [(1,)] * len(letters), 1
    if isinstance(phi, LetterAt):
        # pending (1) until the mark, then yes (2) for good
        i = vars.index(phi.var)
        return 1, [((2 if a[0] == phi.letter else 0) if a[1][i] else 1, 2)
                   for a in letters], 2
    if isinstance(phi, (Leq, Lt, EqVar)):
        # neither mark seen (1) / x seen first (2) / yes (4); a y mark
        # before the x mark decides no at once
        ix, iy = vars.index(phi.left), vars.index(phi.right)
        on_both = 0 if isinstance(phi, Lt) else 4
        on_x = 0 if isinstance(phi, EqVar) else 2
        return 1, [((on_both if a[1][iy] else on_x) if a[1][ix]
                    else 0 if a[1][iy] else 1, 4 if a[1][iy] else 2, 4)
                   for a in letters], 4
    if isinstance(phi, RunAtom):
        return _run_atom(phi, letters, vars, memo)
    raise InputError("not an FO formula: %r" % (phi,))


def _run_atom(phi: RunAtom, letters, vars, memo):
    """The atom automaton's positions, then a wait bit (before the lo
    mark) and a yes bit (the hi mark was read while q was in the
    subset); and the live ones: yes, the positions that reach q (once
    per automaton and q in memo), and wait if it can reach yes."""
    nfa, p, q = phi.nfa, phi.p, phi.q
    if p not in nfa.states or q not in nfa.states:
        raise InputError("run atom %s uses unknown states" % phi.name)
    succ = dict(zip(nfa.letters, nfa.masks))
    n = len(nfa.order)
    start, wait, yes = 1 << nfa.pos[p], 1 << n, 2 << n
    key = (nfa, q, _run_atom)
    to_q = memo.get(key)
    if to_q is None:
        to_q = memo[key] = _coreachable(nfa.masks, n, 1 << nfa.pos[q])
    live = to_q | yes | (
        wait if p == q or (phi.lo != phi.hi and start & to_q) else 0)
    ends = [yes if i == nfa.pos[q] else 0 for i in range(n)]

    def fired(a, v):
        return v is not None and a[1][vars.index(v)]

    rows = []
    for a in letters:
        if fired(a, phi.hi):
            # the factor stops before the hi mark; from wait it is empty
            row = [*ends, ends[nfa.pos[p]]]
        else:
            row = [*succ.get(a[0] if vars else a, (0,) * n),
                   start if fired(a, phi.lo) else wait]
        rows.append((*row, yes))
    # without a lo bound the simulation starts at once, else at the lo
    # mark; without a hi bound the verdict is read at the end of the word
    return (start if phi.lo is None else wait, rows,
            yes | (1 << nfa.pos[q] if phi.hi is None else 0), live)


# ---------------------------------------------------------------------------
# connectives


def _swap(c: ClassifierDfa) -> ClassifierDfa:
    """Negation: F and G trade places."""
    verdicts = tuple(None if v is None else not v for v in c.verdicts)
    return ClassifierDfa(c.letters, c.delta, verdicts, c.base_alphabet,
                         c.vars)


def _chain(roots, kind):
    """The operands of the chains of `kind` nodes at roots, left to right,
    each once; the chains are walked on an explicit stack."""
    out, stack = {}, roots[::-1]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            stack += (node.right, node.left)
        else:
            out[node] = None
    return list(out)


def _live(c: ClassifierDfa):
    """A classifier as a conjunction operand's core: its table, with every
    state that cannot reach F (a settled no) renamed 0."""
    n = len(c.delta)
    to_f = _distances(_table_preds(set(zip(*c.delta)), n),
                      [s for s, v in enumerate(c.verdicts, 1) if v])
    name = [0, *(s if to_f[s] >= 0 else 0 for s in range(1, n + 1))]
    rows = [(), *(tuple(map(name.__getitem__, row)) for row in c.delta)]
    yes = [False, *(v is True for v in c.verdicts)]
    return name[1], rows.__getitem__, yes.__getitem__


def _core(phi, base, vars, memo):
    """The core of a conjunction operand, memoized beside the classifiers,
    in which state 0 is a settled no: an atom's subset construction (where
    the empty subset is one) or any other formula's live classifier."""
    key = (phi, vars, _core)
    core = memo.get(key)
    if core is None:
        if isinstance(phi, (Not, Or, Implies, Exists, Forall)):
            core = _live(_compile(phi, base, vars, memo))
        else:
            core = _subsets(*_atom(phi, marked_letters(base, vars), vars,
                                   memo))
        memo[key] = core
    return core


def _conjunction(operands, base, vars, memo) -> ClassifierDfa:
    """One classifier for the conjunction of operands: the product of
    their cores, in which every tuple that holds a 0 is the one dead
    state 0, run alongside validity, tabulated and minimized once."""
    cores = [_core(op, base, vars, memo) for op in _chain(operands, And)]
    steps = [step for _, step, _ in cores]
    yeses = [yes for _, _, yes in cores]
    start = tuple(start for start, _, _ in cores)
    dead = [0] * len(marked_letters(base, vars))

    def step(state):
        if not state:
            return dead
        return [0 if 0 in t else t
                for t in zip(*[f(s) for f, s in zip(steps, state)])]

    def yes(state):
        return bool(state) and all(y(s) for y, s in zip(yeses, state))

    return _on_validity((0 if 0 in start else start, step, yes), base, vars)


def _exists(c: ClassifierDfa, var) -> ClassifierDfa:
    """Erase var's mark row nondeterministically: the subset construction
    of the erased table (bit s for state s), run alongside validity over
    the remaining variables."""
    vars = tuple(v for v in c.vars if v != var)
    rows = [(0, *(1 << row[i0] | 1 << row[i1] for row in c.delta))
            for _, i0, i1 in lift_table(c.base_alphabet, vars, var)]
    accept = sum(1 << s for s, v in enumerate(c.verdicts, 1) if v)
    return _on_validity(_subsets(2, rows, accept), c.base_alphabet, vars)


def dfa_from_nfa(nfa: Nfa) -> ClassifierDfa:
    """Subset-construction DFA over the plain alphabet: F = L(nfa), G = its
    complement (no reject class).  Subsets are bit masks of positions in
    the automaton's `order`."""
    return _on_validity(
        _subsets(nfa.mask(nfa.initial), nfa.masks, nfa.mask(nfa.final)),
        nfa.alphabet, ())


def compile_fo(phi, alphabet, vars=None, memo=None) -> ClassifierDfa:
    """Classifier automaton for phi over the marked alphabet: F iff valid
    and satisfied, G iff valid and falsified, reject iff invalid.

    memo maps (subformula, variable context) to its classifier, and
    (subformula, variable context, _core) to its core as a conjunction
    operand; callers compiling several formulas over one alphabet pass
    one dict to share their common subformulas."""
    free = free_vars(phi)
    vars = tuple(sorted(free if vars is None else set(vars)))
    missing = free - set(vars)
    if missing:
        raise InputError("free variables not in scope: %s"
                         % ", ".join(sorted(missing)))
    return _compile(phi, frozenset(alphabet), vars,
                    {} if memo is None else memo)


def _compile(phi, base, vars, memo) -> ClassifierDfa:
    key = (phi, vars)
    c = memo.get(key)
    if c is None:
        c = memo[key] = _compile_node(phi, base, vars, memo)
    return c


def _compile_node(phi, base, vars, memo) -> ClassifierDfa:
    if isinstance(phi, Not):
        return _swap(_compile(phi.sub, base, vars, memo))
    if isinstance(phi, And):
        return _conjunction([phi], base, vars, memo)
    if isinstance(phi, Or):             # a | b = !(!a & !b)
        return _swap(_conjunction([Not(op) for op in _chain([phi], Or)],
                                  base, vars, memo))
    if isinstance(phi, Implies):        # a -> b = !(a & !b)
        return _swap(_conjunction([phi.left, Not(phi.right)], base, vars,
                                  memo))
    if isinstance(phi, (Exists, Forall)):
        if phi.var in vars:
            raise InputError("variable %s is shadowed" % phi.var)
        inner_vars = tuple(sorted(vars + (phi.var,)))
        if isinstance(phi, Exists):
            return _exists(_compile(phi.body, base, inner_vars, memo),
                           phi.var)
        inner = _swap(_compile(phi.body, base, inner_vars, memo))
        return _swap(_exists(inner, phi.var))
    return _on_validity(_core(phi, base, vars, memo), base, vars)
