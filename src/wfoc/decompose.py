"""Decompose a finitely ambiguous weighted automaton into unambiguous ones.

The route runs through run counting.  ``build_a_geq_k`` tracks k guessed
runs at once, lexicographically ordered, and accepts exactly the words
with at least k accepting runs.  The ambiguity degree K is the last k
whose tracker accepts a non-empty word.  The product of the complement
DFA of A_>=k+1 with A_>=k, weighted by the ell-th tracked run, is an
unambiguous automaton whose support is the exactly-k-runs slice.
``decompose`` stitches the slices into automata B_1, ..., B_K whose
pointwise multiset union is the original behaviour.  Trackers, slices and
unions are each built by `automata.reachable_nfa` over the successor
table, and name their states by positions: a tracker state by k base
positions and k - 1 order bits, a slice state by (classifier state,
tracker position).
"""

import itertools

from .automata import (
    FINITELY, UNAMBIGUOUS, Nfa, WeightedAutomaton, classify_ambiguity,
    coreachable_states, reachable_nfa, restrict, runs_witness, trim,
    underlying_nfa, weighted_union,
)
from .errors import HypothesisError, InputError
from .fo_compiler import dfa_from_nfa
from .textfmt import render_word


# -- single initial state ----------------------------------------------------


def ensure_single_initial(a):
    """Equivalent automaton with exactly one initial state.

    The input is returned untouched when it already qualifies.  Otherwise
    a fresh start state fans out to per-origin copies of the first-step
    targets.  The copies keep runs from different initial states distinct,
    so accepting runs (and their weight sequences) are preserved
    one-to-one, which plain target sharing would break.
    """
    nfa = underlying_nfa(a)
    if len(nfa.initial) == 1:
        return a
    tag = "init"
    while any(isinstance(s, tuple) and s[:1] == (tag,) for s in nfa.states):
        tag += "'"
    start = (tag,)
    order, letters = nfa.order, nfa.letters
    # every transition, with the number of the input transition whose
    # weight it carries
    origin = dict(zip(nfa.transitions, itertools.count()))
    for i, j, d, t in nfa.edges():
        if order[i] in nfa.initial:
            copy = (tag, order[i], order[d])
            origin[(start, letters[j], copy)] = t
            origin.update(((copy, b, order[e]), u)
                          for b, row in zip(letters, nfa.succ)
                          for e, u in row[d])
    copies = {d for (s, _, d) in origin if s == start}
    final = set(nfa.final) | {c for c in copies if c[2] in nfa.final}
    if nfa.initial & nfa.final:
        final.add(start)
    states = set(nfa.states) | copies | {start}
    out = Nfa(states, nfa.alphabet, origin, {start}, final)
    return out if nfa is a else WeightedAutomaton(
        out, {t: a.weights[u] for t, u in origin.items()})


# -- at least k accepting runs ----------------------------------------------


def build_a_geq_k(a, k) -> Nfa:
    """Automaton accepting the words with at least k accepting runs.

    States are flat tuples: the positions of k tracked base states in
    the automaton's `order` followed by k - 1 order bits, bit ell turning
    1 once run ell is strictly below run ell + 1 in the lexicographic
    order on state sequences.  Only the part reachable from the
    all-initial tuple is materialized.
    """
    if k < 1:
        raise InputError("run count must be >= 1")
    nfa = underlying_nfa(ensure_single_initial(underlying_nfa(a)))
    (q0,) = nfa.initial
    finals = nfa.mask(nfa.final)

    def step(src):
        ps, cs = src[:k], src[k:]
        for letter, out in zip(nfa.letters, nfa.succ):
            # lists, not generators: CPython sizes a tuple built from a
            # generator by a guess and shrinks it, and the shrunk tuples
            # pile up in its free lists (peak memory of large trackers)
            for moves in itertools.product(*[out[p] for p in ps]):
                cs2 = []
                for ell in range(k - 1):
                    d, e = moves[ell][0], moves[ell + 1][0]
                    if cs[ell] == 1 or d < e:
                        cs2.append(1)
                    elif d == e:
                        cs2.append(0)
                    else:
                        # equal prefixes may not fall out of order
                        break
                else:
                    yield letter, tuple([d for d, _ in moves] + cs2), None

    return reachable_nfa(
        [(nfa.pos[q0],) * k + (0,) * (k - 1)], step, nfa.letters,
        lambda s: all(finals >> p & 1 for p in s[:k]) and all(s[k:]))[0]


# -- the ell-th run on the exactly-k slice ------------------------------------


def _exact_slice(geq_k: Nfa, geq_next: Nfa) -> Nfa:
    """Trim product of the classifier of A_>=k+1 with the k-run tracker
    A_>=k, on (classifier state, tracker position): one run per word with
    exactly k runs, so a pair is final when the verdict is False (fewer
    than k + 1 runs) and the tracker state is final."""
    cls = dfa_from_nfa(geq_next)
    finals = geq_k.mask(geq_k.final)

    def step(pair):
        c, i = pair     # geq_k's letters are the classifier's
        for letter, c2, out in zip(geq_k.letters, cls.delta[c - 1],
                                   geq_k.succ):
            for d, _ in out[i]:
                yield letter, (c2, d), None

    joint = reachable_nfa(
        [(1, geq_k.pos[q]) for q in geq_k.initial], step, geq_k.letters,
        lambda pair: cls.verdicts[pair[0] - 1] is False
        and finals >> pair[1] & 1)[0]
    return restrict(joint, coreachable_states(joint))[0]


def _weigh_run(norm: WeightedAutomaton, geq_k: Nfa, joint: Nfa,
               ell) -> WeightedAutomaton:
    """Weight each transition of an exactly-k slice of `norm` by the
    transition its ell-th tracked run takes, read by position: a tracker
    state holds its runs' positions in `norm`, over the same letters."""
    runs = [geq_k.order[q][ell - 1] for _, q in joint.order]
    succ = norm.nfa.succ
    return WeightedAutomaton.from_weights(joint, [
        next(norm.weights[t] for e, t in succ[j][runs[i]] if e == runs[d])
        for i, j, d, _ in joint.edges()])


# -- the decomposition ---------------------------------------------------------


def decompose(a: WeightedAutomaton, k=None) -> list:
    """Split into unambiguous automata B_1, ..., B_k whose pointwise
    multiset union equals the behaviour of `a`.

    `k` must bound the number of accepting runs per word; when omitted it
    is detected, which needs the automaton to classify as unambiguous or
    finitely ambiguous.  A failing bound is refused with a witness word.
    """
    return decompose_with_trackers(a, k)[0]


def decompose_with_trackers(a: WeightedAutomaton, k=None):
    """(parts, trackers, norm): the parts of `decompose`, the run trackers
    A_>=1, ..., A_>=k+1 they were cut from, each built once, and
    `ensure_single_initial(a)`, which the trackers track runs of.  A
    detected k is the last index whose tracker accepts a non-empty word."""
    nfa = underlying_nfa(a)
    if k is None:
        kind = classify_ambiguity(nfa)
        if kind not in (UNAMBIGUOUS, FINITELY):
            n = len(trim(nfa).states)
            word = runs_witness(nfa, n + 1)
            raise HypothesisError(
                "ambiguity grows %s; %r already has more than %d "
                "accepting runs" % (kind, render_word(word), n))
    elif k < 0:
        raise InputError("ambiguity bound must be >= 0")
    else:
        word = runs_witness(nfa, k + 1)
        if word is not None:
            raise HypothesisError(
                "not %d-ambiguous: %r has at least %d accepting runs"
                % (k, render_word(word), k + 1))
    norm = ensure_single_initial(a)
    geqs = []
    while k is None or len(geqs) <= k:
        geq = build_a_geq_k(norm.nfa, len(geqs) + 1)
        geqs.append(geq)
        # reachable states only: a non-empty word is accepted iff some
        # transition enters a final state
        finals = geq.mask(geq.final)
        if k is None and not any(m & finals for rows in geq.masks
                                 for m in rows):
            k = len(geqs) - 1
    # B_ell is the left-nested union over j = ell..k of the ell-th run
    # on the exactly-j slice; each slice is built once and is reachable,
    # so the unions keep every state
    out = []
    for j in range(1, k + 1):
        joint = _exact_slice(geqs[j - 1], geqs[j])
        for ell in range(1, j):
            out[ell - 1] = weighted_union(
                out[ell - 1], _weigh_run(norm, geqs[j - 1], joint, ell))
        out.append(_weigh_run(norm, geqs[j - 1], joint, j))
    return out, geqs, norm
