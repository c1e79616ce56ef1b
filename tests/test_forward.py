"""Seeded sweep of the one forward step behind every word value.

`automata._stepper` moves a state -> value front by one letter for the
multiset semantics, its prefix-sharing sweep, every semiring and
max-average.  Each random automaton here mixes int and str state names,
has several initial states (one of them final), two transitions into one
state on one letter, a dead branch, and integer, rational and symbolic
weights; on every word up to length 5 each value is checked against its
definition on runs or on the multiset.  The multiset values are computed
twice, as its carrier is the one that extends values in place; every
semiring and max-average value is a new object at each step.
"""

import functools
import random
from fractions import Fraction

import pytest

from reference_multiset import MULTISET_SEQS
from reference_semantics import runs_multiset, words_upto
from wfoc.automata import (
    Nfa, WeightedAutomaton, abstract_semantics, forward, semantics_upto,
)
from wfoc.errors import InputError
from wfoc.semantics import (
    SEMIRING_NAMES, aggr_ma, aggr_sp, builtin_semiring, max_average,
)
from wfoc.weights import Symbol

SWEEP_SEED = 0xA9E1
MAXLEN = 5
WEIGHTS = (0, 1, 2, 3, -1, Fraction(1, 2), Fraction(-3, 4), Symbol("u"),
           Symbol("t"))


def random_weighted(rng):
    n = rng.randint(3, 4)
    states = [i if rng.random() < 0.5 else "q%d" % i for i in range(n)]
    dead = "dead"
    final = set(rng.sample(states, rng.randint(1, 2)))
    initial = {rng.choice(sorted(final, key=str))}
    initial |= set(rng.sample(states, rng.randint(1, 2)))
    if len(initial) < 2:
        initial.add(rng.choice([s for s in states if s not in initial]))
    trans = {(s, a, d) for s in states for a in "ab" for d in states
             if rng.random() < 0.25}
    # two transitions into one state on one letter
    d, a = rng.choice(states), rng.choice("ab")
    s1, s2 = rng.sample(states, 2)
    trans |= {(s1, a, d), (s2, a, d)}
    # a dead branch: a state no word takes to a final state
    trans |= {(rng.choice(states), rng.choice("ab"), dead), (dead, "a", dead)}
    wgt = {t: rng.choice(WEIGHTS) for t in trans}
    nfa = Nfa(states + [dead], "ab", trans, initial, final)
    return WeightedAutomaton(nfa, wgt)


def sweep_pool():
    rng = random.Random(SWEEP_SEED)
    return [random_weighted(rng) for _ in range(200)]


POOL = sweep_pool()


def sum_product(semiring):
    return lambda wa, word: forward(wa, word, semiring.carrier)


# each semiring's forward pass and max-average, with the definition on
# the multiset
AGGREGATORS = [(sum_product(s), functools.partial(aggr_sp, s))
               for s in map(builtin_semiring, SEMIRING_NAMES)] \
    + [(max_average, aggr_ma)]


def outcome(fn):
    try:
        return "value", fn()
    except InputError:
        return "raise", InputError


def test_pool_has_every_feature():
    for wa in POOL:
        nfa = wa.nfa
        assert len(nfa.initial) >= 2 and nfa.initial & nfa.final
        into = {}
        for (s, a, d) in nfa.transitions:
            into.setdefault((a, d), set()).add(s)
        assert max(map(len, into.values())) >= 2
    assert {type(s) for wa in POOL for s in wa.nfa.states} == {int, str}
    assert {type(w) for wa in POOL for w in wa.weights} \
        == {int, Fraction, Symbol}


@pytest.mark.parametrize("i", range(len(POOL)))
def test_forward_step_sweep(i):
    wa = POOL[i]
    nfa = wa.nfa
    values = {}
    for word in words_upto(nfa.alphabet, MAXLEN):
        m = values[word] = abstract_semantics(wa, word)
        assert m == runs_multiset(wa, word), word
        assert abstract_semantics(wa, word) == m
        assert m.pretty() == aggr_sp(MULTISET_SEQS, m).pretty(), word
        for value, definition in AGGREGATORS:
            assert outcome(lambda: value(wa, word)) \
                == outcome(lambda: definition(m)), (word, value)
    alphabet = nfa.alphabet | {"z"}
    for _ in range(2):
        swept = list(semantics_upto(wa, alphabet, MAXLEN))
        assert [word for word, _ in swept] \
            == list(words_upto(alphabet, MAXLEN))
        for word, sem in swept:
            assert sem == values.get(word), word


def test_sweep_sees_values_and_refusals():
    # the pool is not vacuous: every oracle answers somewhere, and all but
    # languages refuse somewhere
    seen = {name: set() for name in SEMIRING_NAMES + ("ma",)}
    for wa in POOL[:40]:
        for word in words_upto(wa.nfa.alphabet, 3):
            m = abstract_semantics(wa, word)
            for name in SEMIRING_NAMES:
                seen[name].add(outcome(
                    lambda: aggr_sp(builtin_semiring(name), m))[0])
            seen["ma"].add(outcome(lambda: aggr_ma(m))[0])
    for name, kinds in seen.items():
        assert "value" in kinds, name
        if name != "languages":
            assert "raise" in kinds, name
