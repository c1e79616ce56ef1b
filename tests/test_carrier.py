"""The multiset carrier against the eager one it replaced.

`automata.seq_counts` keeps a value as (counts, suffix), every code of
counts followed by suffix: a run into an empty slot shares its source's
counts, and a run's code is copied only where runs meet.  The replaced
carrier is kept in `reference_automata.eager_seq_counts` (a run's whole
code copied at every letter).  They are compared on the corpus, on 3,000
seeded random automata and on `semantics_upto` sweeps, where sibling words
extend one shared front; a shared front must come out of every step
unchanged.  `SeqMultiset.pretty` is checked against the reference
multiset's on codes of every shape the carrier makes, on both of its
routes (tables of one-character weights, and every other table) and at
its block seams.
"""

import random
from fractions import Fraction

import pytest

from reference_automata import eager_seq_counts
from reference_multiset import SeqMultiset as TupleMultiset
from wfoc import automata
from wfoc.automata import (
    Nfa, WeightedAutomaton, abstract_semantics, bits, forward, seq_counts,
    semantics_upto,
)
from wfoc.multiset import PRETTY_BLOCK, SeqMultiset, weight_table
from wfoc.weights import Symbol

from tests.corpus import ALL_TEXTS, SEED, all_words, load
from tests.test_cli import SEMANTICS_WORDS
from tests.test_forward import random_weighted


def eager(wa, word, weights=None):
    """abstract_semantics(wa, word) through the eager carrier."""
    return forward(wa, word, eager_seq_counts(
        weight_table(wa.weights) if weights is None else weights))


def same(got, want):
    """Equal multisets over one table; got's text."""
    assert got.weights == want.weights
    assert got._counts == want._counts
    return got.pretty()


@pytest.mark.parametrize("name", sorted(ALL_TEXTS))
def test_corpus_long_words_match_the_eager_carrier(name):
    wa = load(name)
    word = SEMANTICS_WORDS[name]
    same(abstract_semantics(wa, word), eager(wa, word))


@pytest.mark.parametrize("name", sorted(ALL_TEXTS))
def test_corpus_sweeps_match_the_eager_carrier(name, monkeypatch):
    wa = load(name)
    alphabet = wa.nfa.alphabet | {"z"}
    got = list(semantics_upto(wa, alphabet, 5))
    for word, sem in got:
        if sem is None:
            assert "z" in word
        else:
            same(sem, eager(wa, word))
    # the sweep itself over the eager carrier gives the same dicts
    monkeypatch.setattr(automata, "seq_counts", eager_seq_counts)
    want = list(semantics_upto(wa, alphabet, 5))
    assert [(word, sem and sem._counts) for word, sem in got] \
        == [(word, sem and sem._counts) for word, sem in want]


def test_random_automata_match_the_eager_carrier():
    rng = random.Random(SEED + 27)
    texts = 0
    for _ in range(3000):
        wa = random_weighted(rng)
        weights = weight_table(wa.weights)
        for word, sem in semantics_upto(wa, wa.nfa.alphabet, 3):
            texts += bool(same(sem, eager(wa, word, weights)))
    assert texts > 10000


def wide_automaton(width=12):
    """Layers of sizes 1, width, width, width, 1 over the letter a, each
    layer joined to the next by every transition, all weights distinct:
    ints, rationals and symbols, more than 256 in all.  Every state of a
    middle layer is entered by `width` runs on each word."""
    layers = [[0], *([(k, i) for i in range(width)] for k in (1, 2, 3)),
              [4]]
    trans = [(s, "a", d) for a, b in zip(layers, layers[1:])
             for s in a for d in b]
    weights = [[j, Fraction(j, 7), Symbol("s%d" % j)][j % 3]
               for j in range(len(trans))]
    nfa = Nfa([s for layer in layers for s in layer], "a", trans, {0}, {4})
    return WeightedAutomaton(nfa, dict(zip(trans, weights)))


def test_more_than_256_weights():
    wa = wide_automaton()
    assert len(weight_table(wa.weights)) > 256
    sem = abstract_semantics(wa, "aaaa")
    assert len(sem) == 12 ** 3
    assert max(ord(c) for code in sem._counts for c in code) > 255
    text = same(sem, eager(wa, "aaaa"))
    assert text == TupleMultiset(dict(sem.items())).pretty()
    for word, got in semantics_upto(wa, "a", 5):
        same(got, eager(wa, word))


def materialized(front):
    """A lazy front as {position: {full code: count}}."""
    return {d: {code + suffix: n for code, n in counts.items()}
            for d, (counts, suffix) in front.items()}


def snapshot(front):
    return {d: (dict(counts), suffix) for d, (counts, suffix) in front.items()}


def fronts(wa, carrier, word):
    """The fronts after each prefix of word, every state kept."""
    advance = automata._stepper(wa, carrier)
    everything = (1 << len(wa.nfa.states)) - 1
    front = dict.fromkeys(bits(wa.nfa.mask(wa.nfa.initial)), carrier.one)
    out = [front]
    for letter in word:
        out.append(advance(out[-1], letter, everything))
    return advance, everything, out


@pytest.mark.parametrize("source", ["corpus", "random", "wide"])
def test_a_shared_front_is_never_changed(source):
    if source == "corpus":
        pool = [load(name) for name in sorted(ALL_TEXTS)]
    elif source == "random":
        rng = random.Random(SEED + 28)
        pool = [random_weighted(rng) for _ in range(150)]
    else:
        pool = [wide_automaton(5)]
    for wa in pool:
        weights = weight_table(wa.weights)
        letters = wa.nfa.letters
        for prefix in all_words(letters, 2):
            advance, keep, lazy = fronts(wa, seq_counts(weights), prefix)
            front = lazy[-1]
            before = snapshot(front)
            steps = {x: advance(front, x, keep) for x in letters}
            again = {x: advance(nxt, x, keep) for x, nxt in steps.items()}
            assert snapshot(front) == before, prefix
            for x in letters:
                # each step equals a fresh pass, lazy and eager
                for y, nxt in (((x,), steps[x]), ((x, x), again[x])):
                    word = prefix + y
                    fresh = fronts(wa, seq_counts(weights), word)[2][-1]
                    ref = fronts(wa, eager_seq_counts(weights), word)[2][-1]
                    assert materialized(nxt) == materialized(fresh) == ref, \
                        word
            # and every earlier front is untouched as well
            assert [materialized(f) for f in lazy] == [
                f for f in fronts(wa, eager_seq_counts(weights), prefix)[2]]


def test_pretty_edge_cases():
    cases = [
        SeqMultiset(),
        SeqMultiset({(): 3}),
        SeqMultiset({(7,): 2, (Fraction(-1, 2),): 1, (Symbol("t"),): 4}),
        SeqMultiset({(1, 2, 3): 1, (1, 2): 5, (2,): 1, (): 1}),
        SeqMultiset({tuple(range(k)): k + 1 for k in range(12)}),
        SeqMultiset({tuple(range(300)): 1, (299, 0, 256): 2}),
    ]
    assert cases[0].pretty() == ""
    for m in cases:
        assert m.pretty() == TupleMultiset(dict(m.items())).pretty()


def random_multiset(rng, weights, n, empty):
    """n distinct non-empty sequences of `weights` (and the empty one if
    `empty`), each with a count of 1-1000, over the table of `weights`."""
    longest = 1     # so that there are at least 4n sequences to draw
    while sum(len(weights) ** k for k in range(1, longest + 1)) < 4 * n:
        longest += 1
    # one sequence holds every weight, so the table is `weights`
    counts = {tuple(weights): rng.randint(1, 1000)}
    if empty:
        counts[()] = rng.randint(1, 1000)
    while len(counts) < n + empty:
        seq = tuple(rng.choice(weights)
                    for _ in range(rng.randint(1, longest)))
        counts.setdefault(seq, rng.randint(1, 1000))
    m = SeqMultiset(counts)
    assert len(m.weights) == len(weights) and len(m) == n + empty
    return m


LETTERS = [Symbol(c) for c in "tuvwxyzabcdefghijklmnopqrsABCDEFGHIJ"]
PRETTY_TABLES = {
    # every weight printed as one ASCII character: translated byte for
    # byte, whatever the ranks (rank 10 is a line break, rank 44 a comma)
    **{"digits%d" % k: list(range(k)) for k in range(1, 11)},
    **{"letters%d" % k: LETTERS[:k] for k in (1, 2, 5, 10)},
    "mixed10": [0, 1, 2, 3, 4, 5, 6, *LETTERS[:3]],
    "digits_and_t": [*range(10), Symbol("t")],
    "digits_and_letters46": [*range(10), *LETTERS],
    # some weight printed wider: ',' and its text per rank
    "digits_and_ten": list(range(11)),
    "ints45": list(range(45)),
    "ints300": list(range(300)),
    "signed": [-3, -2, -1, 0, 1, 2],
    "rational": [Fraction(1, 2), Fraction(-1, 3), 1, 2],
    "two_chars": [10, 11, 12, Symbol("tt")],
    "one_wide": [1, 2, 3, 12],
}


@pytest.mark.parametrize("name", sorted(PRETTY_TABLES))
def test_pretty_routes_match_the_reference(name):
    weights = PRETTY_TABLES[name]
    rng = random.Random("%d %s" % (SEED, name))
    for n in (1, 2, 30):
        for empty in (False, True):
            m = random_multiset(rng, weights, n, empty)
            assert m.pretty() == TupleMultiset(dict(m.items())).pretty()


@pytest.mark.parametrize("name", ["digits2", "digits_and_t",
                                  "digits_and_letters46", "digits_and_ten",
                                  "two_chars"])
@pytest.mark.parametrize("n", [PRETTY_BLOCK - 2, PRETTY_BLOCK - 1,
                               PRETTY_BLOCK, PRETTY_BLOCK + 1,
                               2 * PRETTY_BLOCK + 1])
def test_pretty_block_seams_match_the_reference(name, n):
    # n codes and the empty one: n or n + 1 lines, n non-empty codes in
    # blocks of PRETTY_BLOCK
    weights = PRETTY_TABLES[name]
    rng = random.Random("%d %s %d" % (SEED, name, n))
    for empty in (False, True):
        m = random_multiset(rng, weights, n, empty)
        want = TupleMultiset(dict(m.items())).pretty()
        assert m.pretty() == want
        assert want.count("\n") + 1 == len(m)
