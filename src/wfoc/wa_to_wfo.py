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
    WeightedAutomaton, ambiguity_witness, aperiodicity_witness,
    scc_ambiguity_witness, scc_decompose, unambiguity_witness,
    underlying_nfa,
)
from .errors import HypothesisError, InputError
from .logic.syntax import (
    And, Const, EqVar, FoTrue, LetterAt, Lt, Not, Plus, ProdX, RunAtom,
    StepIte, SumX, WIte, Zero,
)
from .textfmt import render_word

ATOM_NAME = "A"


def _end_pairs(nfa):
    """The (initial, final) pairs in the automaton's order."""
    finals = [q for q in nfa.order if q in nfa.final]
    return [(p, q) for p in nfa.order if p in nfa.initial for q in finals]


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
    witness = aperiodicity_witness(nfa)
    if witness is not None:
        word, period = witness
        raise HypothesisError(
            "automaton is not aperiodic: the powers of %r cycle with period %d"
            % (render_word(word), period))


def transition_formula(a, p, q, delta, var="x", name=ATOM_NAME):
    """Open formula true at position var exactly when the word has a run
    from p to q whose var-th transition is delta; needs the automaton to
    be unambiguous from p to q for the exactness part."""
    nfa = underlying_nfa(a)
    (r, letter, s) = delta
    pos, rank = nfa.pos, nfa.rank
    if r not in pos or s not in pos or letter not in rank \
            or not nfa.masks[rank[letter]][pos[r]] >> pos[s] & 1:
        raise InputError("unknown transition %r" % (delta,))
    return _conj([
        RunAtom(name, nfa, p, r, None, var, bounded=True),
        LetterAt(letter, var),
        RunAtom(name, nfa, s, q, var, None, bounded=True),
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
            % (p, q, render_word(w)))
    return _guarded_product(a, p, q, name)


def _guarded_product(a, p, q, name):
    """unambiguous_to_wfo once both hypotheses are known to hold."""
    guard = RunAtom(name, a.nfa, p, q, None, None)
    pairs = [(transition_formula(a, p, q, t, "x", name), w)
             for t, w in zip(a.nfa.transitions, a.weights)]
    return WIte(guard, ProdX("x", _cascade(pairs)), Zero())


def enumerate_switching(a, p, q):
    """All sequences of component-changing transitions a run from p to q
    can take.  Each consecutive pair stays in one component, so the
    sequence walks a strictly descending path in the component DAG and the
    enumeration terminates.  The walk takes the transitions in order and
    no sequence is a prefix of another, so they come out sorted."""
    nfa = underlying_nfa(a)
    if p not in nfa.states or q not in nfa.states:
        raise InputError("unknown state %r/%r" % (p, q))
    comp = scc_decompose(nfa).of
    start, target = comp[nfa.pos[p]], comp[nfa.pos[q]]
    if start == target:
        raise HypothesisError(
            "states %r and %r share a component; no switching is involved"
            % (p, q))
    # stacked in reverse, so that the walk takes them in number order
    switching = [(comp[i], t, comp[d]) for i, _, d, t in nfa.edges()
                 if comp[i] != comp[d]][::-1]
    out, stack = [], [((), start)]
    while stack:                # depth first, on an explicit stack
        prefix, here = stack.pop()
        if here == target:
            out.append(prefix)
        else:
            stack.extend((prefix + (nfa.transitions[t],), d)
                         for c, t, d in switching if c == here)
    return out


def _switching_sentence(a, p, q, seq, name):
    """Sum over the switch positions of a guarded product; the guard pins
    the switching skeleton and the cascade names each position's
    transition relative to its segment."""
    nfa = a.nfa
    comp = scc_decompose(nfa).of
    ys = ["y%d" % i for i in range(1, len(seq) + 1)]
    # segment j runs from enter[j] after position lo[j] to leave[j]
    # before position hi[j] inside the component segment[] maps to j;
    # None leaves that end open
    enter = [p] + [t[2] for t in seq]
    segment = {comp[nfa.pos[s]]: j for j, s in enumerate(enter)}
    leave = [t[0] for t in seq] + [q]
    lo = [None] + ys
    hi = ys + [None]

    guard_parts = [Lt(y1, y2) for y1, y2 in zip(ys, ys[1:])]
    guard_parts += [LetterAt(t[1], y) for t, y in zip(seq, ys)]
    guard_parts += [RunAtom(name, nfa, *seg, bounded=True)
                    for seg in zip(enter, leave, lo, hi)]
    guard = _conj(guard_parts)

    pairs = []
    for (i, _, d, _), t, w in zip(nfa.edges(), nfa.transitions, a.weights):
        (r, letter, s) = t
        if t in seq:
            cond = EqVar("x", ys[seq.index(t)])
        elif comp[i] == comp[d] and comp[i] in segment:
            j = segment[comp[i]]
            conj = [] if lo[j] is None else [Lt(lo[j], "x")]
            if hi[j] is not None:
                conj.append(Lt("x", hi[j]))
            conj += [RunAtom(name, nfa, enter[j], r, lo[j], "x", bounded=True),
                     LetterAt(letter, "x"),
                     RunAtom(name, nfa, s, leave[j], "x", hi[j], bounded=True)]
            cond = _conj(conj)
        else:
            cond = Not(FoTrue())
        pairs.append((cond, w))

    body = WIte(guard, ProdX("x", _cascade(pairs)), Zero())
    for y in reversed(ys):
        body = SumX(y, body)
    return body


MODES = ("auto", "unambiguous", "scc")


def wa_to_wfo(a: WeightedAutomaton, mode="auto", name=ATOM_NAME):
    """The sentence of an aperiodic automaton, each hypothesis checked
    once, aperiodicity first.  Unless mode is "scc", a globally unambiguous
    automaton gets a nested if-then-else over its initial/final pairs (at
    most one guard holds, so no + is needed); "unambiguous" refuses any
    other.  Otherwise an SCC-unambiguous one gets a sum over the pairs:
    within one component the guarded product, across components one
    summand per switching sequence."""
    if mode not in MODES:
        raise InputError("unknown mode %r" % (mode,))
    nfa = a.nfa
    _require_aperiodic(nfa)
    if mode != "scc":
        w = unambiguity_witness(nfa)
        if w is None:
            out = Zero()
            for (p, q) in reversed(_end_pairs(nfa)):
                # two runs from p to q would be two accepting runs
                inner = _guarded_product(a, p, q, name)
                out = WIte(inner.cond, inner.then, out)
            return out
        if mode == "unambiguous":
            raise HypothesisError(
                "not unambiguous: %r has two accepting runs"
                % (render_word(w),))
    w = scc_ambiguity_witness(nfa)
    if w is not None:
        raise HypothesisError(
            "not SCC-unambiguous: %r has two runs inside one"
            " component" % (render_word(w),))
    comp, pos = scc_decompose(nfa).of, nfa.pos
    parts = []
    for (p, q) in _end_pairs(nfa):
        if comp[pos[p]] == comp[pos[q]]:
            # two runs from p to q, closed by a path back to p, would be
            # two runs from p to p inside the component
            parts.append(_guarded_product(a, p, q, name))
        else:
            parts.extend(_switching_sentence(a, p, q, seq, name)
                         for seq in enumerate_switching(a, p, q))
    return _plus(parts)
