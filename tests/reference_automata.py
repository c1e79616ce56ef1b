"""The constructions the numbered form and the analyses replaced, kept as
test oracles.

`mat_mul` is the boolean matrix product the transition monoid's closure
used before it interned rows.  `ReferenceNumbered` builds the numbered
form of an Nfa (its `letters`, `pos`, `transitions`, `succ` and `masks`)
by sorting every transition with a key, as the numbered form did before
it bucketed them.  `reference_coreachable` reads co-reachability off the
strongly connected components and their topological order, as
`coreachable_states` did before its backward sweep.  `named_components`
reads `scc_decompose`'s positional view back to state names: each
component's states, and each state's component.  `eager_seq_counts`
is the multiset carrier as it was before runs shared suffixes: every
run's code is copied at every letter.  `walked_aperiodicity` reads
the aperiodicity index and witness off a transition monoid as the
program did before its walk skipped the powers of elements it had
walked: every element's powers are walked (`walked_index` and
`walked_witness` on an automaton).  `monoid_matrices` reads a transition
monoid's elements back to matrices, as its `elements` did.
"""

import itertools

from wfoc.automata import (
    Carrier, bits, letter_key, scc_decompose, transition_monoid,
    underlying_nfa,
)
from wfoc.multiset import SeqMultiset


def mat_mul(m1, m2):
    """The product of two boolean matrices given as row bit masks."""
    out = []
    for mask in m1:
        row = 0
        while mask:
            low = mask & -mask
            row |= m2[low.bit_length() - 1]
            mask ^= low
        out.append(row)
    return tuple(out)


class ReferenceNumbered:
    """`letters`, `pos`, `transitions`, `succ` and `masks` of an Nfa, with
    the transitions sorted by (position, letter, position) through a key,
    numbered in that order, and the successor table grouped from it."""

    def __init__(self, nfa):
        self.letters = tuple(sorted(nfa.alphabet, key=letter_key))
        rank = {a: j for j, a in enumerate(self.letters)}
        self.pos = pos = {s: i for i, s in enumerate(nfa.order)}
        self.transitions = tuple(sorted(
            nfa.transitions, key=lambda t: (pos[t[0]], rank[t[1]], pos[t[2]])))
        table = [[()] * len(pos) for _ in self.letters]
        numbered = zip(self.transitions, itertools.count())
        for (s, a), ts in itertools.groupby(numbered,
                                            key=lambda tn: tn[0][:2]):
            table[rank[a]][pos[s]] = tuple((pos[t[2]], n) for t, n in ts)
        self.succ = tuple(map(tuple, table))
        self.masks = tuple(
            tuple(sum(1 << d for d, _ in out) for out in rows)
            for rows in self.succ)


def reference_coreachable(nfa):
    """A component reaches a final state when it holds one or has an edge
    into a component that does; the ids are topological, so sorting the
    edges by source, last first, settles every target before its
    sources."""
    comp, masks = scc_decompose(nfa)
    edges = {(comp[i], comp[d]) for i, _, d, _ in nfa.edges()
             if comp[i] != comp[d]}
    final = nfa.mask(nfa.final)
    live = [bool(mask & final) for mask in masks]
    for c, d in sorted(edges, reverse=True):
        live[c] = live[c] or live[d]
    return {s for s, c in zip(nfa.order, comp) if live[c]}


def named_components(a):
    """(components, component_of): components[c] is the frozenset of the
    states of component c, and component_of maps each state to its
    component."""
    nfa = underlying_nfa(a)
    comp, masks = scc_decompose(nfa)
    return (tuple(frozenset(map(nfa.order.__getitem__, bits(mask)))
                  for mask in masks),
            dict(zip(nfa.order, comp)))


def eager_seq_counts(weights):
    """The multiset carrier over the weight table `weights` with a value a
    dict from full codes to counts: a run into an empty slot copies v's
    codes, each extended by w, and later runs add into that copy."""
    chars = {w: chr(i) for i, w in enumerate(weights)}

    def mac(front, d, v, w):
        acc = front.get(d)
        if acc is None:
            front[d] = {code + w: n for code, n in v.items()}
            return
        for code, n in v.items():
            code += w
            acc[code] = acc.get(code, 0) + n

    def total(values):
        out = {}
        for counts in values:
            for code, n in counts.items():
                out[code] = out.get(code, 0) + n
        return SeqMultiset.over(weights, out)

    return Carrier({"": 1}, chars.__getitem__, mac, total)


def monoid_matrices(monoid):
    """Each element of a transition monoid as its matrix, read back from
    its rows' numbers, in the monoid's numbering."""
    return tuple(tuple(map(monoid.rows.__getitem__, e))
                 for e in monoid.by_rows)


def power_cycle(monoid, e):
    """(index, period) of element e: e^index is the first power that comes
    back, every period-th power; e^(t+1) is e^t walked along e's word."""
    word, power, seen = monoid.word(e), e, {}
    while power not in seen:
        seen[power] = len(seen) + 1
        for g in word:
            power = monoid.right[power][g]
    return seen[power], len(seen) + 1 - seen[power]


def walked_aperiodicity(monoid):
    """(index, None), the largest index over every element, or (None, (e,
    period)) for the first element e whose powers cycle with period > 1;
    every element's powers are walked."""
    worst = 1
    for e in range(len(monoid)):
        index, period = power_cycle(monoid, e)
        if period > 1:
            return None, (e, period)
        worst = max(worst, index)
    return worst, None


def walked_index(a):
    return walked_aperiodicity(transition_monoid(underlying_nfa(a)))[0]


def walked_witness(a):
    nfa = underlying_nfa(a)
    monoid = transition_monoid(nfa)
    cycling = walked_aperiodicity(monoid)[1]
    if cycling is None:
        return None
    e, period = cycling
    return tuple(nfa.letters[g] for g in monoid.word(e)), period
