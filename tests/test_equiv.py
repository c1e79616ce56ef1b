"""`equiv`'s exact decision against its sweep.

`automata.first_difference` finds, from a basis of forward vectors over
the letters (letter, weight), the shortest length at which two automata's
multisets differ.  The word-by-word sweep `semantics_upto` is the oracle:
on the corpus round trips, on seeded perturbations (one weight changed,
one live transition dropped, one state duplicated), on seeded random
pairs and on the pairs whose weight tables differ, both must name the same
length, or both none.
"""

import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from wfoc.automata import (
    Nfa, WeightedAutomaton, abstract_semantics, first_difference,
    semantics_upto, trim,
)
from wfoc.cli import main
from wfoc.logic.syntax import Zero
from wfoc.multiset import weight_table
from wfoc.textfmt import parse_automaton
from wfoc.weights import Symbol
from wfoc.wfo_compiler import compile_wfo

from tests.corpus import ALL_TEXTS, SEED, load, named_weights
from tests.test_cli import (
    DIFFERENT_TABLES, SEMANTICS_WORDS, TRANSLATABLE,
)

WEIGHTS = (0, 1, 2, 3, -1, Fraction(1, 2), Symbol("u"))


def swept_length(a, b, maxlen):
    """The length of the first word the sweep finds with different
    multisets (None and the empty multiset count as equal), or None."""
    alphabet = a.nfa.alphabet | b.nfa.alphabet
    weights = weight_table([*a.weights, *b.weights])
    for (word, got), (_, want) in zip(
            semantics_upto(a, alphabet, maxlen, weights),
            semantics_upto(b, alphabet, maxlen, weights)):
        if got != want and (got or want):
            return len(word)
    return None


def agreed(a, b, maxlen):
    """The exact length, after checking it against the sweep's."""
    exact = first_difference(a, b, maxlen)
    assert exact == swept_length(a, b, maxlen)
    return exact


def rebuilt(wa, trans, wgt, initial=None, final=None, extra=()):
    nfa = wa.nfa
    return WeightedAutomaton(
        Nfa(nfa.states | set(extra), nfa.alphabet, trans,
            nfa.initial if initial is None else initial,
            nfa.final if final is None else final), wgt)


def reweighted(wa, rng):
    t = rng.choice(sorted(trim(wa).nfa.transitions, key=repr))
    w = rng.choice([w for w in WEIGHTS if w != named_weights(wa)[t]])
    return rebuilt(wa, wa.nfa.transitions, {**named_weights(wa), t: w})


def dropped(wa, rng):
    t = rng.choice(sorted(trim(wa).nfa.transitions, key=repr))
    wgt = {u: w for u, w in named_weights(wa).items() if u != t}
    return rebuilt(wa, set(wgt), wgt)


def duplicated(wa, rng):
    """wa with a copy of one state: every transition into, out of or
    around it taken again through the copy, with the same weight."""
    q = rng.choice(sorted(wa.nfa.states, key=repr))
    copy = ("copy", q)
    wgt = dict(named_weights(wa))
    for (s, a, d), w in named_weights(wa).items():
        if q in (s, d):
            for s2 in {s, copy} if s == q else {s}:
                for d2 in {d, copy} if d == q else {d}:
                    wgt[s2, a, d2] = w

    def like(group):
        return group | {copy} if q in group else group

    return rebuilt(wa, set(wgt), wgt, like(wa.nfa.initial), like(wa.nfa.final),
                   [copy])


PERTURBATIONS = (reweighted, dropped, duplicated)


def random_automaton(rng):
    n = rng.randint(2, 4)
    states = range(n)
    trans = {(s, a, d) for s in states for a in "ab" for d in states
             if rng.random() < 0.3}
    wgt = {t: rng.choice(WEIGHTS) for t in trans}
    nfa = Nfa(states, "ab", trans, rng.sample(states, rng.randint(1, 2)),
              rng.sample(states, rng.randint(1, 2)))
    return WeightedAutomaton(nfa, wgt)


def random_pair(rng):
    """Two automata over {a, b}: unrelated, the first with its states
    renamed, or the first perturbed."""
    a = random_automaton(rng)
    kind = rng.randrange(5)
    if kind == 0 or not a.nfa.transitions:
        return a, random_automaton(rng)
    if kind == 1:
        name = {s: "r%d" % s for s in a.nfa.states}
        wgt = {(name[s], x, name[d]): w
               for (s, x, d), w in named_weights(a).items()}
        return a, WeightedAutomaton(Nfa(
            name.values(), "ab", wgt, [name[s] for s in a.nfa.initial],
            [name[s] for s in a.nfa.final]), wgt)
    if not trim(a).nfa.transitions:
        return a, a
    return a, PERTURBATIONS[kind - 2](a, rng)


def test_random_pairs():
    rng = random.Random(SEED)
    lengths = [agreed(*random_pair(rng), 5) for _ in range(200)]
    # not vacuous: equal pairs, and pairs first differing at each length
    assert None in lengths
    assert {1, 2, 3} <= set(lengths)


@pytest.mark.parametrize("name", sorted(ALL_TEXTS))
def test_corpus_perturbations(name):
    wa = load(name)
    rng = random.Random(SEED)
    lengths = []
    for _ in range(3):
        for perturb in PERTURBATIONS:
            lengths.append(agreed(wa, perturb(wa, rng), 6))
            lengths.append(agreed(perturb(wa, rng), wa, 6))
    assert any(lengths)


@pytest.fixture(scope="module")
def round_trips(tmp_path_factory):
    """name -> (automaton, its tologic -> compile round trip)."""
    work = tmp_path_factory.mktemp("rt")
    out = {}
    for name in TRANSLATABLE:
        wa, wfo, back = (str(work / (name + ext))
                         for ext in (".wa", ".wfo", ".rt.wa"))
        with open(wa, "w") as handle:
            handle.write(ALL_TEXTS[name])
        assert main(["tologic", "--automaton", wa, "-o", wfo]) == 0
        assert main(["compile", "--formula", wfo, "-o", back]) == 0
        with open(back) as handle:
            out[name] = load(name), parse_automaton(handle.read())
    return out


@pytest.mark.parametrize("name", TRANSLATABLE)
def test_round_trips(round_trips, name):
    wa, back = round_trips[name]
    assert agreed(wa, back, 6) is None
    assert agreed(back, wa, 6) is None
    rng = random.Random(SEED)
    for perturb in PERTURBATIONS:
        agreed(wa, perturb(back, rng), 6)


def test_different_tables():
    tables = {name: parse_automaton(text)
              for name, text in DIFFERENT_TABLES.items()}
    for x in tables.values():
        for y in tables.values():
            for maxlen in (1, 2, 3, 4):
                agreed(x, y, maxlen)
    assert first_difference(tables["p"], tables["q"], 8) is None
    assert first_difference(tables["p"], tables["s"], 8) == 2


def test_zero_against_zero_and_itself():
    zero = compile_wfo(Zero(), {"a", "b"})
    assert agreed(zero, zero, 8) is None
    assert agreed(zero, load("triplerun"), 6) == 3


def chain_text(n, last):
    """a^(n-1) on one run through states 1..n, weights 1 and then `last`."""
    text = ["alphabet: a\nstates: %s\ninitial: 1\nfinal: %d\n"
            % (" ".join(map(str, range(1, n + 1))), n)]
    text += ["trans: %d a %d %d\n" % (i, i + 1, 1 if i < n - 1 else last)
             for i in range(1, n)]
    return "".join(text)


def chain(n, last):
    return parse_automaton(chain_text(n, last))


def test_difference_beyond_the_bound():
    a, b = chain(6, 1), chain(6, 2)
    assert [agreed(a, b, n) for n in (4, 5, 6)] == [None, 5, 5]


def test_long_chains_differ_at_their_length():
    # the shortest difference lies far past the sweep's old recursion limit
    n = sys.getrecursionlimit() + 500
    assert first_difference(chain(n, 1), chain(n, 2), n + 500) == n - 1
    assert first_difference(chain(n, 1), chain(n, 1), n + 500) is None


def test_long_chain_counterexample_memory(tmp_path, capsys):
    # the sweep to the counterexample keeps one front per prefix, each
    # state's value sharing the counts it came from: a table of successors
    # per (letter, live mask) would hold one row set per step
    n = 300
    for last in (1, 2):
        (tmp_path / ("chain%d.wa" % last)).write_text(chain_text(n, last))
    argv = ["equiv", "--a", str(tmp_path / "chain1.wa"),
            "--b", str(tmp_path / "chain2.wa"), "--maxlen", "400"]
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert lines[0] == "COUNTEREXAMPLE " + "a" * (n - 1)
    assert lines[4] == "1 x [%s,2]" % ",".join("1" * (n - 2))
    assert peak < 2 * 2 ** 20, peak


def test_blockmax_pretty_memory():
    # printing blockmax's 16,384 sequences sets the peak of eval's
    # multiset: each block's lines are joined before the next block is
    # made, so no line outlives its block.  Under CPython 3.11, joining
    # all 16,384 lines at once peaks at 4,265,982 bytes, and translating
    # all the codes in one block at 7.0 MB
    sem = abstract_semantics(load("blockmax"), SEMANTICS_WORDS["blockmax"])
    assert len(sem) == 16384
    tracemalloc.start()
    try:
        text = sem.pretty()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 16383
    assert peak < 4265982, peak
