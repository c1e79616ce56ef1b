"""Brute-force run semantics and semiring samples, kept as test oracles.

The library computes every value of a word in one forward pass over
fronts (`wfoc.automata.forward`).  The functions below list the runs
themselves instead: a depth-first walk through `Nfa.out` from each state
pair, so a test can compare a value against its definition on runs; run
counts too large to list are summed per state, also through `Nfa.out`.
Word acceptance is a set simulation
(`wfoc.logic.evaluate.nfa_run_accepts`) that shares no live sets with the
forward pass.  The samplers draw random values of each catalog semiring,
and of `reference_multiset.MULTISET_SEQS`, for the semiring-law test.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass

from wfoc.automata import letter_key, underlying_nfa
from wfoc.errors import InputError
from wfoc.logic.encoding import ext_alphabet
from wfoc.logic.evaluate import nfa_run_accepts
from wfoc.multiset import SeqMultiset
from wfoc.semantics import NEG_INF, POS_INF

from corpus import named_weights
from reference_multiset import SeqMultiset as ReferenceMultiset


@dataclass(frozen=True)
class Run:
    """A run: start state plus a chain of transitions with matching
    endpoints.  The empty chain is the empty run from start to start."""

    start: object
    trans: tuple

    def __post_init__(self):
        prev = self.start
        for (src, _, dst) in self.trans:
            if src != prev:
                raise InputError("transition endpoints do not chain")
            prev = dst

    def weights(self, wa):
        return tuple(map(named_weights(wa).__getitem__, self.trans))


def enumerate_runs(a, p, q, word):
    """All runs from p to q labeled by word, sorted by state sequence:
    the depth-first walk takes successors in `order`.

    The empty word is allowed only for p = q and yields the empty run.
    """
    nfa = underlying_nfa(a)
    if p not in nfa.states or q not in nfa.states:
        raise InputError("unknown state")
    word = tuple(word)
    for letter in word:
        if letter not in nfa.alphabet:
            raise InputError("unknown letter %r" % (letter,))
    if not word:
        if p != q:
            raise InputError("empty word requires p = q")
        return [Run(p, ())]
    # to_q[i]: the states that read word[i:] into q; the walk enters no
    # other, so it visits only prefixes of the runs it returns
    to_q = [{q}]
    for letter in reversed(word):
        to_q.append({s for s in nfa.states
                     if to_q[-1].intersection(nfa.out(s, letter))})
    to_q.reverse()
    runs = []

    def walk(state, i, acc):
        if i == len(word):
            runs.append(Run(p, tuple(acc)))
            return
        for dst in nfa.out(state, word[i]):
            if dst in to_q[i + 1]:
                acc.append((state, word[i], dst))
                walk(dst, i + 1, acc)
                acc.pop()

    walk(p, 0, [])
    return runs


def accepting_runs(a, word):
    """Every run on word from an initial to a final state."""
    nfa = underlying_nfa(a)
    return [r for p in nfa.initial for q in nfa.final
            for r in enumerate_runs(nfa, p, q, word)]


def count_runs(a, word) -> int:
    """len(accepting_runs(a, word)) without listing the runs, which can
    be millions: the count of runs into each state, one letter at a time
    through `Nfa.out`."""
    nfa = underlying_nfa(a)
    if not word:
        raise InputError("semantics is defined on non-empty words only")
    counts = dict.fromkeys(nfa.initial, 1)
    for letter in word:
        nxt = {}
        for s, n in counts.items():
            for d in nfa.out(s, letter):
                nxt[d] = nxt.get(d, 0) + n
        counts = nxt
    return sum(n for s, n in counts.items() if s in nfa.final)


def runs_multiset(wa, word) -> SeqMultiset:
    """The weight sequences of wa's accepting runs on word."""
    return SeqMultiset([r.weights(wa) for r in accepting_runs(wa, word)])


def multiset_sum(parts) -> SeqMultiset:
    """The pointwise sum of the multisets `parts`: counts add."""
    counts = collections.Counter()
    for m in parts:
        counts.update(dict(m.items()))
    return SeqMultiset(counts)


def accepts(a, word) -> bool:
    """Some run on word goes from an initial to a final state."""
    nfa = underlying_nfa(a)
    return any(nfa_run_accepts(nfa, p, q, word)
               for p in nfa.initial for q in nfa.final)


def words_upto(alphabet, maxlen):
    """All non-empty words up to maxlen, shortest first, each length in
    lexicographic order of the letters sorted by letter_key."""
    letters = sorted(alphabet, key=letter_key)
    for n in range(1, maxlen + 1):
        yield from itertools.product(letters, repeat=n)


def all_ext_words(alphabet, vars, length):
    """Every word of the given length over the marked letters
    ext_alphabet(alphabet, vars), valid and invalid alike, as a tuple of
    letters."""
    return list(itertools.product(ext_alphabet(alphabet, vars),
                                  repeat=length))


def unmark(vars, letters):
    """(base word, valuation) of a word over the marked letters of the
    variables `vars`, or None when some variable's bit is not 1 at
    exactly one position."""
    if not vars:
        return tuple(letters), {}
    vars = sorted(vars)
    word = tuple(a for a, _ in letters)
    valuation = {}
    for row, v in enumerate(vars):
        marked = [i for i, (_, bits) in enumerate(letters, 1) if bits[row]]
        if len(marked) != 1:
            return None
        valuation[v] = marked[0]
    return word, valuation


def classify(c, letters):
    """'F', 'G', or None (rejected / invalid encoding): the verdict of the
    ClassifierDfa c after reading letters from its state 1."""
    index = {a: i for i, a in enumerate(c.letters)}
    s = 1
    for a in letters:
        s = c.delta[s - 1][index[a]]
    return {True: "F", False: "G", None: None}[c.verdicts[s - 1]]


def _sample_int(lo, hi):
    def sample(rng):
        return rng.randrange(lo, hi)
    return sample


def _sample_tropical(zero):
    def sample(rng):
        return zero if rng.random() < 0.1 else rng.randrange(0, 20)
    return sample


def _sample_language(rng):
    n = rng.randrange(0, 3)
    return frozenset("".join(rng.choice("ab") for _ in range(rng.randrange(3)))
                     for _ in range(n))


def _sample_multiset(rng):
    seqs = {}
    for _ in range(rng.randrange(0, 3)):
        seq = tuple(rng.randrange(0, 4) for _ in range(rng.randrange(3)))
        seqs[seq] = seqs.get(seq, 0) + rng.randrange(1, 3)
    return ReferenceMultiset(seqs)


# semiring name -> sample(rng), a random value of that semiring
SAMPLERS = {
    "natural": _sample_int(0, 50),
    "boolean": lambda rng: rng.random() < 0.5,
    "minplus": _sample_tropical(POS_INF),
    "maxplus": _sample_tropical(NEG_INF),
    "languages": _sample_language,
    "multiset_seqs": _sample_multiset,
}
