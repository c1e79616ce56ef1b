"""Compile weighted FO sentences into weighted automata.

The pipeline follows the structure of the formula.  A position product
becomes a bimachine: a forward component walks the condition classifiers
over the prefix, a backward component carries their verdicts on the
suffix, and together they decode the bit vector of the FO conditions at
each position, which picks the weight from the if-then-else cascade
(Schutzenberger's bimachine, "A remark on finite transducers", 1961).
A position reads only the conditions whose classifier can still accept
on some suffix, and the suffix tables are bytes, so the product costs
about its states and transitions plus its classifiers' tables
(quadratic on chain-N).  The weighted if-then-else is a classifier
product, + a disjoint union, and the variable sum a two-copy projection.
Every stage is built as the part of its construction reachable from the
initial states (`automata.reachable_nfa`), so no state is made only to
be pruned, and names its states by flat int tuples: its tags and its
inputs' positions.  Outputs are aperiodic and SCC-unambiguous; without
variable sums they are finite unions of unambiguous automata, and
without sums at all they are unambiguous.
"""

from __future__ import annotations

import functools
from operator import itemgetter

from .automata import (
    WeightedAutomaton, _coreachable, explore, reachable_nfa, weighted_union,
)
from .errors import InputError
from .fo_compiler import compile_fo
from .logic.encoding import lift_table, marked_letters
from .logic.syntax import (
    Const, FoTrue, Not, Plus, ProdX, StepIte, SumX, WIte, Zero,
    fo_conditions, free_vars, uses_sumx,
)


# verdict codes inside the suffix tables; tables are numbered in sorted
# order, so these values fix the order the output's states are numbered in
_CODE = {True: 2, False: 1, None: 0}


def _cascade(step, cond_index):
    """The if-then-else cascade of a step formula as nested tuples
    (condition index, then, else) over its leaves, built without
    recursion."""
    stack, built = [(step, False)], []
    while stack:
        psi, ready = stack.pop()
        if not isinstance(psi, StepIte):
            built.append(psi)
        elif ready:
            els, then = built.pop(), built.pop()
            built.append((cond_index[psi.cond], then, els))
        else:
            stack += [(psi, True), (psi.els, False), (psi.then, False)]
    return built[0]


def _suffix_tables(c, lifted):
    """One classifier's suffix tables as `bytes`, reachable from the
    verdict codes of the empty suffix, in sorted order (codes of one
    length sort as their tuples would); the rank of that first table; and
    back[n][r], the rank of the table for the n-th letter of `lifted`
    (read unmarked) followed by the suffix of table r."""
    cols = [[row[j0] - 1 for row in c.delta] for _, j0, _ in lifted]
    # one gather per letter: the new table reads the old one at each
    # state's successor; a one-index itemgetter would return a scalar
    gathers = ([itemgetter(*col) for col in cols] if len(c.delta) > 1
               else [bytes] * len(cols))

    def unwind(t):
        for n, gather in enumerate(gathers):
            yield n, bytes(gather(t))

    end = bytes(_CODE[v] for v in c.verdicts)
    edges = list(explore([end], unwind))
    tables = sorted({t for (t, _, _) in edges})
    rank = {t: r for r, t in enumerate(tables)}
    back = [[0] * len(tables) for _ in cols]
    for (t, n, t2) in edges:
        back[n][rank[t]] = rank[t2]
    return tables, rank[end], back


def _can_accept(c, lifted):
    """Per state of classifier c (by index), whether some word of the
    unmarked letters of `lifted` leads it to an accepting state: exactly
    where some suffix table reads 2.  One backward sweep from F over the
    unmarked columns."""
    live = _coreachable(
        [[1 << row[j0] - 1 for row in c.delta] for _, j0, _ in lifted],
        len(c.delta), sum(1 << s for s, v in enumerate(c.verdicts) if v))
    return [live >> s & 1 for s in range(len(c.delta))]


def compile_product(step, var, alphabet, vars=()) -> WeightedAutomaton:
    """Automaton for the position product of a step formula: each
    position's transition is weighted by the cascade under the bit
    vector of the FO conditions at that position.

    The condition transducers are synchronized in bimachine form: a
    forward component walks the product of the condition classifiers
    over the unmarked word, a backward component carries the verdict
    each classifier state would reach on the remaining suffix, and the
    two meet at every position to decode its bit vector outright.  The
    suffix component is guessed up front and consumed co-
    deterministically, so every word keeps exactly one accepting run.
    A transition is decoded from lookups alone: the forward state's
    marked successors are kept per letter, the first classifier alone
    tells an invalid encoding (all k reject together), only the
    conditions that some suffix can still make true are read, and the
    cascade, built once as a tree over condition indices, is walked once
    per distinct set of true conditions, so a step costs its candidates,
    not k.
    (Guess-and-verify per position, as in the underlying proof, builds
    sets of pending verification threads; those power-set states made
    translations of modest automata unbuildable.)"""
    vars = tuple(sorted(vars))
    if var in vars:
        raise InputError("position variable %s is shadowed" % var)
    conds = fo_conditions(step)
    if not conds:
        step = StepIte(FoTrue(), step, step)
        conds = [FoTrue()]
    inner_vars = tuple(sorted(vars + (var,)))
    memo = {}
    try:
        clss = [compile_fo(c, alphabet, inner_vars, memo) for c in conds]
    except InputError:
        # the scope is checked on the error path only, so that each
        # condition is walked once, by compile_fo
        if any(not free_vars(c) <= set(inner_vars) for c in conds):
            raise InputError("free variables of the condition not in scope")
        raise
    rows = [c.delta for c in clss]
    k = len(clss)
    lifted = lift_table(frozenset(alphabet), vars, var)
    letters = [a for a, _, _ in lifted]

    # Forward component: deterministic joint walk of the unmarked word,
    # from the classifiers' initial states 1.
    def walk(d):
        for _, j0, _ in lifted:
            yield j0, tuple(rows[i][d[i] - 1][j0] for i in range(k))

    d0 = (1,) * k
    walked = list(explore([d0], walk))

    # Backward component: per classifier, the suffix table of the verdict
    # (2 accept, 1 refute, 0 invalid) every state would reach on the rest
    # of the word, one byte per state.  Each classifier's tables are
    # explored on their own and numbered by rank in sorted order, and a
    # joint suffix state is the tuple of the k ranks: it sorts as the
    # tuple of the k tables would, so one lookup per classifier and letter
    # steps it.  A transition steps back from the suffix state it enters
    # to the one it leaves, so the exploration below needs the
    # compositions inverted.
    tables, ends, backs = zip(*(_suffix_tables(c, lifted) for c in clss))
    back = list(zip(*backs))        # back[n][i]: classifier i on letter n

    def unwind(f):
        for n, (_, j0, _) in enumerate(lifted):
            yield j0, tuple(map(list.__getitem__, back[n], f))

    unwound = list(explore([ends], unwind))

    # Both components are numbered by rank in sorted order, which is
    # state_key order on these all-int tuples of one shape, so the
    # product's states are flat triples ordered as the tuples would be.
    forward = sorted({d for (d, _, _) in walked})
    suffixes = sorted({f for (f, _, _) in unwound})
    d_rank = {d: r for r, d in enumerate(forward)}
    f_rank = {f: r for r, f in enumerate(suffixes)}
    prefix_next = {(d_rank[d], j0): d_rank[d2] for (d, j0, d2) in walked}
    # composed_from[(f_src, j0)]: each suffix state that steps back to
    # f_src on j0, with its k tables
    joint = [[tables[i][r] for i, r in enumerate(f)] for f in suffixes]
    composed_from = {}
    for (f, j0, f_src) in unwound:
        f = f_rank[f]
        composed_from.setdefault((f_rank[f_src], j0), []).append(
            (f, joint[f]))

    # A state is (forward rank, suffix rank, started flag).  A transition
    # consumes one position: the forward tuple advances, the suffix tables
    # unwind by one composition, and the verdicts of the mark-here
    # successors decode the position's bit vector, which picks the
    # weight.  Every classifier runs over the same variables, so their
    # verdicts are 0 (an invalid encoding) together: classifier 0 alone
    # tells validity.  A condition whose marked successor reaches no
    # accepting state on any suffix is false whatever the suffix table, so
    # a valid position reads only the other, candidate, conditions and
    # walks the cascade once per distinct set of true ones.  The started
    # flag keeps the empty word out of the support.
    cascade = _cascade(step, {c: i for i, c in enumerate(conds)})

    @functools.cache        # one walk per distinct set of true conditions
    def decode(true):
        psi = cascade
        while type(psi) is tuple:
            i, then, els = psi
            psi = then if i in true else els
        if not isinstance(psi, Const):
            raise InputError("not a step formula: %r" % (psi,))
        return psi.weight

    # moves[d]: per letter of `lifted`, the letter, its unmarked index, the
    # forward successor of forward[d], classifier 0's marked successor and
    # the candidates: each condition, with its classifier's marked
    # successor, that some suffix can still make true
    live = [_can_accept(c, lifted) for c in clss]
    moves = []
    for d, here in enumerate(forward):
        row = []
        for a, j0, j1 in lifted:
            marked = [rows[i][s - 1][j1] - 1 for i, s in enumerate(here)]
            row.append((a, j0, prefix_next[(d, j0)], marked[0],
                        [(i, m) for i, m in enumerate(marked) if live[i][m]]))
        moves.append(row)

    def advance(state):
        d, f_src, _ = state
        for a, j0, d2, m0, candidates in moves[d]:
            for f, tabs in composed_from.get((f_src, j0), ()):
                if not tabs[0][m0]:
                    continue
                yield a, (d2, f, 1), decode(tuple(
                    i for i, m in candidates if tabs[i][m] == 2))

    end = f_rank[ends]
    return WeightedAutomaton.from_weights(*reachable_nfa(
        [(d_rank[d0], f, 0) for f in range(len(suffixes))], advance, letters,
        lambda s: s[1] == end and s[2] == 1))


def compile_ite(cond, then_wa: WeightedAutomaton, else_wa: WeightedAutomaton,
                alphabet, vars=()) -> WeightedAutomaton:
    """Weighted if-then-else: product of the condition's classifier with
    the disjoint union of the branches, on (tag, classifier state, branch
    position).  A final state needs F in the then-branch (tag 0) and G in
    the else-branch, so invalid encodings and the wrong branch die
    together."""
    vars = tuple(sorted(vars))
    cls = compile_fo(cond, alphabet, vars)
    letters = cls.letters
    if frozenset(then_wa.nfa.alphabet) != frozenset(letters) \
            or frozenset(else_wa.nfa.alphabet) != frozenset(letters):
        raise InputError("branch alphabet mismatch")
    branches = (then_wa, else_wa)
    # both branches read their letters in the classifier's order
    finals = [wa.nfa.mask(wa.nfa.final) for wa in branches]

    def step(state):
        (tag, c, i) = state
        succ, weights = branches[tag].nfa.succ, branches[tag].weights
        for a, c2, out in zip(letters, cls.delta[c - 1], succ):
            for d, t in out[i]:
                yield a, (tag, c2, d), weights[t]

    def final(state):
        (tag, c, i) = state
        v = cls.verdicts[c - 1]
        return finals[tag] >> i & 1 and (v is False if tag else v)

    return WeightedAutomaton.from_weights(*reachable_nfa(
        [(tag, 1, wa.nfa.pos[q0]) for tag, wa in enumerate(branches)
         for q0 in wa.nfa.initial], step, letters, final))


def compile_sum_var(a: WeightedAutomaton, var, alphabet,
                    vars) -> WeightedAutomaton:
    """Sum over a variable: erase its mark row and keep two copies of the
    automaton; the bit flips 0 to 1 exactly on the transition that read
    the mark, so accepted runs correspond to (position, original run).
    A state is (position in the body's `order`, flag)."""
    vars = tuple(sorted(vars))
    if var not in vars:
        raise InputError("sum variable %s not present" % var)
    out_vars = tuple(v for v in vars if v != var)
    # one row (a, i0, i1) per output letter a: the body reads a with the
    # mark unset as its letter i0 and with the mark set as its letter i1
    lifted = lift_table(frozenset(alphabet), out_vars, var)
    succ, weights = a.nfa.succ, a.weights
    final = a.nfa.mask(a.nfa.final)

    def step(state):
        i, c = state
        for out_l, i0, i1 in lifted:
            for j, c2 in ((i0, c),) if c else ((i0, 0), (i1, 1)):
                for d, t in succ[j][i]:
                    yield out_l, (d, c2), weights[t]

    return WeightedAutomaton.from_weights(*reachable_nfa(
        [(a.nfa.pos[q], 0) for q in a.nfa.initial], step,
        [row[0] for row in lifted],
        lambda s: s[1] == 1 and final >> s[0] & 1))


def compile_wfo(phi, alphabet, vars=()) -> WeightedAutomaton:
    """Weighted automaton over the (marked) alphabet equivalent to phi.
    With the default empty variable context, phi must be a sentence."""
    for _, wa in compile_stages(phi, alphabet, vars):
        pass
    return wa


def compile_stages(phi, alphabet, vars=()):
    """The induction on phi: yields (subterm, automaton) for every
    weighted subterm, children before parents and phi last.  Automata keep
    only reachable states, each an int or a flat tuple of ints."""
    vars = tuple(sorted(set(vars)))
    missing = free_vars(phi) - set(vars)
    if missing:
        raise InputError("free variables not in scope: %s"
                         % ", ".join(sorted(missing)))
    base = frozenset(alphabet)
    if not base:
        raise InputError("alphabet must not be empty")
    yield from _stages(phi, base, vars)


def _stages(phi, base, vars):
    """Yield the stages of phi and return its automaton.  A stage names
    its states by its tags and its children's positions (ranks in `order`)
    rather than by nested copies of their names; a construction compares
    names of one child only, after its tags, so the bytes stay the same."""
    if isinstance(phi, Zero):
        wa = WeightedAutomaton.from_weights(*reachable_nfa(
            [0], lambda s: (), marked_letters(base, vars), lambda s: False))
    elif isinstance(phi, ProdX):
        if phi.var in vars:
            raise InputError("variable %s is shadowed" % phi.var)
        wa = compile_product(phi.step, phi.var, base, vars)
    elif isinstance(phi, WIte):
        then_wa = yield from _stages(phi.then, base, vars)
        else_wa = yield from _stages(phi.els, base, vars)
        wa = compile_ite(phi.cond, then_wa, else_wa, base, vars)
    elif isinstance(phi, Plus):
        left = yield from _stages(phi.left, base, vars)
        right = yield from _stages(phi.right, base, vars)
        wa = weighted_union(left, right)
    elif isinstance(phi, SumX):
        if phi.var in vars:
            raise InputError("variable %s is shadowed" % phi.var)
        inner_vars = tuple(sorted(vars + (phi.var,)))
        body = yield from _stages(phi.body, base, inner_vars)
        wa = compile_sum_var(body, phi.var, base, inner_vars)
    else:
        raise InputError("not a weighted formula: %r" % (phi,))
    yield phi, wa
    return wa


def rewrite_sum_normal_form(phi):
    """Rewrite a variable-sum-free formula into a sum of terms, each of
    them Zero, a position product, or a guarded formula with else Zero
    whose then-branch is free of + (still no variable sums anywhere)."""
    if uses_sumx(phi):
        raise InputError("variable sums cannot be normalized away")
    terms = _terms(phi)
    if not terms:
        return Zero()
    out = terms[0]
    for t in terms[1:]:
        out = Plus(out, t)
    return out


def _terms(phi):
    if isinstance(phi, Zero):
        return []
    if isinstance(phi, ProdX):
        return [phi]
    if isinstance(phi, Plus):
        return _terms(phi.left) + _terms(phi.right)
    if isinstance(phi, WIte):
        pos = [WIte(phi.cond, t, Zero()) for t in _terms(phi.then)]
        neg = [WIte(Not(phi.cond), t, Zero()) for t in _terms(phi.els)]
        return pos + neg
    raise InputError("not a weighted formula: %r" % (phi,))
