"""Compile FO formulas over marked alphabets into classifier DFAs.

A classifier is a deterministic complete automaton with two accepting sets:
F holds the words that are valid encodings and satisfy the formula, G the
valid encodings that falsify it, and everything else is rejected.  Negation
swaps F and G, conjunction is a product, and the existential quantifier is
a mark-erasing projection followed by a subset construction.  Every step
ends with a Moore minimization seeded with the {F, G, reject} partition.
"""

from __future__ import annotations

from .automata import Nfa, explore, letter_key
from .errors import InputError
from .logic.encoding import ext_alphabet
from .logic.syntax import (
    And, EqVar, Exists, Forall, FoTrue, Implies, Leq, LetterAt, Lt, Not, Or,
    RunAtom, free_vars,
)


class ClassifierDfa:
    """Deterministic complete automaton over the marked alphabet with the
    three-way F / G / reject classification."""

    __slots__ = ("nfa", "base_alphabet", "vars", "_delta")

    def __init__(self, nfa: Nfa, base_alphabet, vars):
        self.nfa = nfa
        self.base_alphabet = frozenset(base_alphabet)
        self.vars = tuple(sorted(vars))
        self._delta = None
        if "G" not in nfa.accepting:
            raise InputError("classifier needs an accepting G set")
        if len(nfa.initial) != 1:
            raise InputError("classifier needs a unique initial state")

    @property
    def f(self):
        return self.nfa.final

    @property
    def g(self):
        return self.nfa.accepting["G"]

    @property
    def initial_state(self):
        (s,) = self.nfa.initial
        return s

    def letters(self):
        return sorted(ext_alphabet(self.base_alphabet, self.vars),
                      key=letter_key)

    def step(self, state, letter):
        if self._delta is None:
            table = {}
            for (s, a, d) in self.nfa.transitions:
                table[(s, a)] = d
            self._delta = table
        return self._delta[(state, letter)]

    def run(self, letters):
        s = self.initial_state
        for a in letters:
            s = self.step(s, a)
        return s

    def classify(self, letters):
        """'F', 'G', or None (rejected / invalid encoding)."""
        s = self.run(letters)
        if s in self.f:
            return "F"
        if s in self.g:
            return "G"
        return None

    def check_deterministic_complete(self):
        seen = {}
        for (s, a, d) in self.nfa.transitions:
            if (s, a) in seen:
                raise InputError("nondeterministic at %r" % ((s, a),))
            seen[(s, a)] = d
        letters = self.letters()
        for s in self.nfa.states:
            for a in letters:
                if (s, a) not in seen:
                    raise InputError("missing transition %r" % ((s, a),))
        if self.f & self.g:
            raise InputError("F and G overlap")
        return True

    def __repr__(self):
        return "ClassifierDfa(%d states, %d vars)" % (
            len(self.nfa.states), len(self.vars))


def _make_classifier(edges, initial, verdict, base, vars):
    """Classifier from its transitions (state, letter, successor);
    verdict(state) is true for F, false for G and None for reject."""
    transitions = set(edges)
    states = {initial} | {s for (s, _, _) in transitions} \
        | {d for (_, _, d) in transitions}
    f, g = set(), set()
    for s in states:
        v = verdict(s)
        if v is not None:
            (f if v else g).add(s)
    nfa = Nfa(states, ext_alphabet(base, vars), transitions, {initial}, f,
              {"G": g})
    return ClassifierDfa(nfa, base, vars)


def validity_dfa(alphabet, vars) -> ClassifierDfa:
    """Accepts (in F) exactly the valid encodings: every mark row fires
    exactly once.  States are the mark subsets seen so far plus a sink;
    all 2^|vars| + 1 states are materialized."""
    vars = tuple(sorted(vars))
    base = frozenset(alphabet)
    letters = ext_alphabet(base, vars)
    subsets = [frozenset()]
    for v in vars:
        subsets += [s | {v} for s in subsets]
    sink = ("sink",)
    edges = [(sink, a, sink) for a in letters]
    for seen in subsets:
        for a in letters:
            fired = _marks(a, vars)
            edges.append((seen, a, sink if fired & seen else seen | fired))
    full = frozenset(vars)
    return _make_classifier(edges, frozenset(),
                            lambda s: True if s == full else None,
                            base, vars)


def _marks(letter, vars):
    if not vars:
        return frozenset()
    _, bits = letter
    return frozenset(v for v, b in zip(vars, bits) if b)


def _mark(letter, vars, v):
    if not vars:
        return False
    return letter[1][vars.index(v)]


def _base_of(letter, vars):
    return letter[0] if vars else letter


# ---------------------------------------------------------------------------
# semantic cores: total DFAs with a yes-predicate, correct on valid words

def _core_true(letters, vars):
    return {("t",): {a: ("t",) for a in letters}}, ("t",), {("t",)}


def _core_letter_at(phi: LetterAt, letters, vars):
    pending, yes, no = ("p",), ("y",), ("n",)
    delta = {pending: {}, yes: {}, no: {}}
    for a in letters:
        delta[yes][a] = yes
        delta[no][a] = no
        if _mark(a, vars, phi.var):
            delta[pending][a] = yes if _base_of(a, vars) == phi.letter else no
        else:
            delta[pending][a] = pending
    return delta, pending, {yes}


def _core_order(kind, x, y, letters, vars):
    # neither mark seen / x seen first / decided; y-first decides at once
    neither, xfirst, yes, no = ("n",), ("x",), ("y",), ("f",)
    on_both = {"leq": yes, "lt": no, "eq": yes}[kind]
    on_y_first = no
    delta = {s: {} for s in (neither, xfirst, yes, no)}
    for a in letters:
        bx, by = _mark(a, vars, x), _mark(a, vars, y)
        delta[yes][a] = yes
        delta[no][a] = no
        if bx and by:
            delta[neither][a] = on_both
        elif bx:
            delta[neither][a] = no if kind == "eq" else xfirst
        elif by:
            delta[neither][a] = on_y_first
        else:
            delta[neither][a] = neither
        delta[xfirst][a] = yes if by else xfirst
    return delta, neither, {yes}


def _nfa_subset_step(nfa, subset, base_letter):
    out = set()
    for s in subset:
        out.update(nfa.out(s, base_letter))
    return frozenset(out)


def _core_run_atom(phi: RunAtom, letters, vars):
    nfa, p, q = phi.nfa, phi.p, phi.q
    if p not in nfa.states or q not in nfa.states:
        raise InputError("run atom %s uses unknown states" % phi.name)
    done = {True: ("d", True), False: ("d", False)}
    simulate = ("s", frozenset([p]))
    wait = ("w",)

    def step(state):
        for a in letters:
            lo_fired = phi.lo is not None and _mark(a, vars, phi.lo)
            hi_fired = phi.hi is not None and _mark(a, vars, phi.hi)
            if state[0] == "d":
                yield a, state
            elif state == wait:
                if hi_fired:                     # hi before lo: empty factor
                    yield a, done[p == q]
                elif lo_fired:
                    yield a, simulate
                else:
                    yield a, state
            elif hi_fired:                       # factor stops before here
                yield a, done[q in state[1]]
            else:
                yield a, ("s", _nfa_subset_step(
                    nfa, state[1], _base_of(a, vars)))

    # without a lo bound the simulation starts at once, else at the lo mark
    delta = {}
    initial = simulate if phi.lo is None else wait
    for (s, a, d) in explore([initial], step):
        delta.setdefault(s, {})[a] = d
    yes = {done[True]}
    if phi.hi is None:
        # verdict is read at the end of the word
        yes |= {s for s in delta if s[0] == "s" and q in s[1]}
    return delta, initial, yes


def _semantic_to_classifier(core, base, vars):
    """Product of a semantic core with the validity automaton: F where the
    core says yes on a valid word, G where it says no."""
    delta, initial, yes = core
    vd = validity_dfa(base, vars)
    letters = vd.letters()

    def step(state):
        c, v = state
        for a in letters:
            yield a, (delta[c][a], vd.step(v, a))

    start = (initial, vd.initial_state)
    return minimize(_make_classifier(
        explore([start], step), start,
        lambda cv: cv[0] in yes if cv[1] in vd.f else None, base, vars))


def _swap(c: ClassifierDfa) -> ClassifierDfa:
    nfa = c.nfa.with_sets(final=c.g, accepting={"G": c.f})
    return ClassifierDfa(nfa, c.base_alphabet, c.vars)


def _combine(c1: ClassifierDfa, c2: ClassifierDfa, take) -> ClassifierDfa:
    """Synchronous product; a valid pair lands in F when take(inF1, inF2)."""
    letters = c1.letters()
    valid1, valid2 = c1.f | c1.g, c2.f | c2.g

    def step(state):
        s1, s2 = state
        for a in letters:
            yield a, (c1.step(s1, a), c2.step(s2, a))

    def verdict(state):
        s1, s2 = state
        if s1 in valid1 and s2 in valid2:
            return take(s1 in c1.f, s2 in c2.f)
        return None

    start = (c1.initial_state, c2.initial_state)
    return minimize(_make_classifier(explore([start], step), start, verdict,
                                     c1.base_alphabet, c1.vars))


def _exists(c: ClassifierDfa, var, base) -> ClassifierDfa:
    """Erase var's mark row nondeterministically, then determinize and
    re-intersect with validity over the remaining variables."""
    if var not in c.vars:
        raise InputError("projection variable %s missing" % var)
    out_vars = tuple(v for v in c.vars if v != var)
    idx = c.vars.index(var)
    letters = sorted(ext_alphabet(base, out_vars), key=letter_key)

    def lift(a, bit):
        if out_vars:
            base_letter, bits = a
        else:
            base_letter, bits = a, ()
        new_bits = bits[:idx] + (bit,) + bits[idx:]
        return (base_letter, new_bits)

    def step(subset):
        for a in letters:
            yield a, frozenset(c.step(s, lift(a, b))
                               for s in subset for b in (0, 1))

    start = frozenset([c.initial_state])
    inner = _make_classifier(explore([start], step), start,
                             lambda subset: bool(subset & c.f),
                             base, out_vars)
    return _combine(inner, validity_dfa(base, out_vars),
                    lambda a, b: a and b)


def minimize(c: ClassifierDfa) -> ClassifierDfa:
    """Moore refinement from the {F, G, reject} partition on the reachable
    part; states are renamed 1..n in traversal order from the initial
    state, which makes repeated compilations byte-identical."""
    letters = c.letters()
    start = c.initial_state
    reached = explore([start], lambda s: ((a, c.step(s, a)) for a in letters))
    order = list(dict.fromkeys([start, *(d for (_, _, d) in reached)]))
    block = {}
    for s in order:
        block[s] = 0 if s in c.f else 1 if s in c.g else 2
    while True:
        sigs = {}
        for s in order:
            sig = (block[s],) + tuple(block[c.step(s, a)] for a in letters)
            sigs.setdefault(sig, []).append(s)
        if len(sigs) == len(set(block.values())):
            break
        numbering = {}
        for s in order:
            sig = (block[s],) + tuple(block[c.step(s, a)] for a in letters)
            if sig not in numbering:
                numbering[sig] = len(numbering)
        block = {s: numbering[(block[s],)
                              + tuple(block[c.step(s, a)] for a in letters)]
                 for s in order}
    names = {}
    for s in order:
        if block[s] not in names:
            names[block[s]] = len(names) + 1
    edges = set()
    verdict = {}
    for s in order:
        n = names[block[s]]
        verdict[n] = True if s in c.f else False if s in c.g else None
        for a in letters:
            edges.add((n, a, names[block[c.step(s, a)]]))
    return _make_classifier(edges, names[block[start]], verdict.get,
                            c.base_alphabet, c.vars)


def dfa_from_nfa(nfa: Nfa) -> ClassifierDfa:
    """Subset-construction DFA over the plain alphabet: F = L(nfa), G = its
    complement (no reject class)."""
    letters = sorted(nfa.alphabet, key=letter_key)
    start = frozenset(nfa.initial)
    edges = explore([start], lambda subset: (
        (a, _nfa_subset_step(nfa, subset, a)) for a in letters))
    return minimize(_make_classifier(edges, start,
                                     lambda subset: bool(subset & nfa.final),
                                     nfa.alphabet, ()))


def compile_fo(phi, alphabet, vars=None) -> ClassifierDfa:
    """Classifier automaton for phi over the marked alphabet: F iff valid
    and satisfied, G iff valid and falsified, reject iff invalid."""
    if vars is None:
        vars = sorted(free_vars(phi))
    vars = tuple(sorted(set(vars)))
    missing = free_vars(phi) - set(vars)
    if missing:
        raise InputError("free variables not in scope: %s"
                         % ", ".join(sorted(missing)))
    base = frozenset(alphabet)
    return _compile(phi, base, vars)


def _compile(phi, base, vars) -> ClassifierDfa:
    letters = ext_alphabet(base, vars)
    if isinstance(phi, FoTrue):
        return minimize(validity_dfa(base, vars))
    if isinstance(phi, LetterAt):
        return _semantic_to_classifier(
            _core_letter_at(phi, letters, vars), base, vars)
    if isinstance(phi, Leq):
        return _semantic_to_classifier(
            _core_order("leq", phi.left, phi.right, letters, vars),
            base, vars)
    if isinstance(phi, Lt):
        return _semantic_to_classifier(
            _core_order("lt", phi.left, phi.right, letters, vars),
            base, vars)
    if isinstance(phi, EqVar):
        if phi.left == phi.right:
            return minimize(validity_dfa(base, vars))
        return _semantic_to_classifier(
            _core_order("eq", phi.left, phi.right, letters, vars),
            base, vars)
    if isinstance(phi, RunAtom):
        return _semantic_to_classifier(
            _core_run_atom(phi, letters, vars), base, vars)
    if isinstance(phi, Not):
        return _swap(_compile(phi.sub, base, vars))
    if isinstance(phi, And):
        return _combine(_compile(phi.left, base, vars),
                        _compile(phi.right, base, vars),
                        lambda a, b: a and b)
    if isinstance(phi, Or):
        return _combine(_compile(phi.left, base, vars),
                        _compile(phi.right, base, vars),
                        lambda a, b: a or b)
    if isinstance(phi, Implies):
        return _combine(_compile(phi.left, base, vars),
                        _compile(phi.right, base, vars),
                        lambda a, b: (not a) or b)
    if isinstance(phi, Exists):
        if phi.var in vars:
            raise InputError("variable %s is shadowed" % phi.var)
        inner = _compile(phi.body, base, tuple(sorted(vars + (phi.var,))))
        return _exists(inner, phi.var, base)
    if isinstance(phi, Forall):
        if phi.var in vars:
            raise InputError("variable %s is shadowed" % phi.var)
        inner = _compile(Not(phi.body), base,
                         tuple(sorted(vars + (phi.var,))))
        return _swap(_exists(inner, phi.var, base))
    raise InputError("not an FO formula: %r" % (phi,))
