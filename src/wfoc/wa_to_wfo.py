"""Translate weighted automata back into weighted FO sentences.

Unambiguous-between-two-states automata become a guarded position
product whose step cascade names the transition taken at each position.
SCC-unambiguous automata additionally sum over the switching transitions
between strongly connected components: the switch positions are the only
nondeterminism left, so one variable sum per switch recovers the runs.

Language membership of factors is expressed with run atoms; they denote
the languages the hypotheses make aperiodic, and every construction here
refuses inputs that violate its hypothesis, naming a witness.
"""

from __future__ import annotations

from .automata import (
    WeightedAutomaton, ambiguity_witness, aperiodicity_index, letter_key,
    scc_ambiguity_witness, scc_decompose, state_key, unambiguity_witness,
    underlying_nfa,
)
from .errors import HypothesisError, InputError
from .logic.syntax import (
    And, Const, EqVar, FoTrue, LetterAt, Lt, Not, Plus, ProdX, RunAtom,
    StepIte, SumX, WIte, Zero,
)

ATOM_NAME = "A"


def _sorted_transitions(nfa):
    return sorted(nfa.transitions,
                  key=lambda t: (state_key(t[0]), letter_key(t[1]),
                                 state_key(t[2])))


def _conj(parts):
    parts = [p for p in parts if not isinstance(p, FoTrue)]
    if not parts:
        return FoTrue()
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def _plus(parts):
    if not parts:
        return Zero()
    out = parts[0]
    for p in parts[1:]:
        out = Plus(out, p)
    return out


def _require_aperiodic(nfa):
    if aperiodicity_index(nfa) is None:
        raise HypothesisError(
            "automaton is not aperiodic; the translation needs counter-free"
            " transition behavior")


def lang_sentence(a, p, q, name=ATOM_NAME):
    """Sentence true exactly on the words with a run from p to q; the
    empty factor counts as a run when p = q."""
    nfa = underlying_nfa(a)
    _require_aperiodic(nfa)
    return _lang_atom(nfa, p, q, name)


def _lang_atom(nfa, p, q, name):
    if p not in nfa.states or q not in nfa.states:
        raise InputError("unknown state %r/%r" % (p, q))
    return RunAtom(name, nfa, p, q, None, None)


def _factor_atom(nfa, p, q, lo, hi, name):
    return RunAtom(name, nfa, p, q, lo, hi, bounded=True)


def transition_formula(a, p, q, delta, var="x", name=ATOM_NAME):
    """Open formula true at position var exactly when the word has a run
    from p to q whose var-th transition is delta; needs the automaton to
    be unambiguous from p to q for the exactness part."""
    nfa = underlying_nfa(a)
    (r, letter, s) = delta
    if delta not in nfa.transitions:
        raise InputError("unknown transition %r" % (delta,))
    return _conj([
        _factor_atom(nfa, p, r, None, var, name),
        LetterAt(letter, var),
        _factor_atom(nfa, s, q, var, None, name),
    ])


def _cascade(conditions_weights):
    """Right-nested step cascade; the last else repeats the last weight
    (dead branch, kept for fidelity with the source shape)."""
    if not conditions_weights:
        return Const(0)
    out = Const(conditions_weights[-1][1])
    for cond, w in reversed(conditions_weights):
        out = StepIte(cond, Const(w), out)
    return out


def unambiguous_to_wfo(a: WeightedAutomaton, p, q, name=ATOM_NAME):
    """Guarded position product equal to the p-to-q slice of the
    automaton: the guard is run existence, and the cascade identifies the
    transition the unique run takes at each position."""
    nfa = a.nfa
    _require_aperiodic(nfa)
    w = ambiguity_witness(nfa, {(p, p)}, {(q, q)})
    if w is not None:
        raise HypothesisError(
            "not unambiguous from %r to %r: %r has two runs"
            % (p, q, "".join(map(str, w))))
    return _guarded_product(a, p, q, name)


def _guarded_product(a, p, q, name):
    """unambiguous_to_wfo once both hypotheses are known to hold."""
    guard = _lang_atom(a.nfa, p, q, name)
    pairs = [(transition_formula(a, p, q, t, "x", name), a.wgt[t])
             for t in _sorted_transitions(a.nfa)]
    return WIte(guard, ProdX("x", _cascade(pairs)), Zero())


def unambiguous_wa_to_wfo(a: WeightedAutomaton, name=ATOM_NAME):
    """Nested if-then-else over the initial/final pairs; global
    unambiguity makes at most one guard true, so no + is needed."""
    nfa = a.nfa
    _require_aperiodic(nfa)
    w = unambiguity_witness(nfa)
    if w is not None:
        raise HypothesisError(
            "not unambiguous: %r has two accepting runs"
            % ("".join(map(str, w)),))
    out = Zero()
    pairs = sorted(((p, q) for p in nfa.initial for q in nfa.final),
                   key=lambda pq: (state_key(pq[0]), state_key(pq[1])))
    for (p, q) in reversed(pairs):
        # two runs from p to q would be two accepting runs
        inner = _guarded_product(a, p, q, name)
        out = WIte(inner.cond, inner.then, out)
    return out


def enumerate_switching(a, p, q):
    """All sequences of component-changing transitions a run from p to q
    can take, in a deterministic order.  Each consecutive pair stays in
    one component, so the sequence walks a strictly descending path in
    the component DAG and the enumeration terminates."""
    nfa = underlying_nfa(a)
    scc = scc_decompose(nfa)
    if p not in nfa.states or q not in nfa.states:
        raise InputError("unknown state %r/%r" % (p, q))
    if scc.same(p, q):
        raise HypothesisError(
            "states %r and %r share a component; no switching is involved"
            % (p, q))
    switching = [t for t in _sorted_transitions(nfa)
                 if not scc.same(t[0], t[2])]
    target = scc.component_of[q]
    out = []

    def extend(prefix, comp):
        for t in switching:
            if scc.component_of[t[0]] != comp:
                continue
            nxt = scc.component_of[t[2]]
            if nxt == target:
                out.append(prefix + (t,))
            else:
                extend(prefix + (t,), nxt)

    extend((), scc.component_of[p])
    return sorted(out, key=state_key)


def _switch_vars(m):
    return ["y%d" % i for i in range(1, m + 1)]


def _switching_sentence(a, p, q, seq, name):
    """Sum over the switch positions of a guarded product; the guard pins
    the switching skeleton and the cascade names each position's
    transition relative to its segment."""
    nfa = a.nfa
    scc = scc_decompose(nfa)
    ys = _switch_vars(len(seq))
    comps = [scc.component_of[p]] + [scc.component_of[t[2]] for t in seq]
    # segment j runs from enter[j] after position lo[j] to leave[j]
    # before position hi[j]; None leaves that end open
    enter = [p] + [t[2] for t in seq]
    leave = [t[0] for t in seq] + [q]
    lo = [None] + ys
    hi = ys + [None]

    guard_parts = [Lt(y1, y2) for y1, y2 in zip(ys, ys[1:])]
    guard_parts += [LetterAt(t[1], y) for t, y in zip(seq, ys)]
    guard_parts += [_factor_atom(nfa, *seg, name)
                    for seg in zip(enter, leave, lo, hi)]
    guard = _conj(guard_parts)

    pairs = []
    for t in _sorted_transitions(nfa):
        (r, letter, s) = t
        if t in seq:
            cond = EqVar("x", ys[seq.index(t)])
        elif scc.same(r, s) and scc.component_of[r] in comps:
            j = comps.index(scc.component_of[r])
            conj = [] if lo[j] is None else [Lt(lo[j], "x")]
            if hi[j] is not None:
                conj.append(Lt("x", hi[j]))
            conj += [_factor_atom(nfa, enter[j], r, lo[j], "x", name),
                     LetterAt(letter, "x"),
                     _factor_atom(nfa, s, leave[j], "x", hi[j], name)]
            cond = _conj(conj)
        else:
            cond = Not(FoTrue())
        pairs.append((cond, a.wgt[t]))

    body = WIte(guard, ProdX("x", _cascade(pairs)), Zero())
    for y in reversed(ys):
        body = SumX(y, body)
    return body


def scc_unambiguous_to_wfo(a: WeightedAutomaton, name=ATOM_NAME):
    """Sum over initial/final pairs: within one component the unambiguous
    translation applies, across components one summand per switching
    sequence."""
    nfa = a.nfa
    _require_aperiodic(nfa)
    w = scc_ambiguity_witness(nfa)
    if w is not None:
        raise HypothesisError(
            "not SCC-unambiguous: %r has two runs inside one"
            " component" % ("".join(map(str, w)),))
    scc = scc_decompose(nfa)
    pairs = sorted(((p, q) for p in nfa.initial for q in nfa.final),
                   key=lambda pq: (state_key(pq[0]), state_key(pq[1])))
    parts = []
    for (p, q) in pairs:
        if scc.same(p, q):
            # two runs from p to q, closed by a path back to p, would be
            # two runs from p to p inside the component
            parts.append(_guarded_product(a, p, q, name))
        else:
            parts.extend(_switching_sentence(a, p, q, seq, name)
                         for seq in enumerate_switching(a, p, q))
    return _plus(parts)
