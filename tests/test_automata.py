import random
import re
import sys

import pytest

from corpus import ALL_TEXTS, SEED, all_words, load, switchpoints_closed_form
from reference_automata import mat_mul, named_components
from reference_semantics import (
    accepting_runs, accepts, count_runs, enumerate_runs, runs_multiset,
    words_upto,
)
from wfoc import (
    EXPONENTIALLY, FINITELY, POLYNOMIALLY, UNAMBIGUOUS, Nfa,
    abstract_semantics, aperiodicity_index, classify_ambiguity,
    is_scc_unambiguous, is_unambiguous, parse_automaton, scc_decompose,
    transition_monoid, trim,
)
from wfoc import automata
from wfoc.automata import (
    _power_cycle, ambiguity_witness, aperiodicity_witness,
    semantics_upto,
)
from wfoc.errors import InputError
from wfoc.multiset import SeqMultiset


def w(s):
    return tuple(s)


# runs into the dead state 3, and a state 4 that needs two more letters
DEADENDS = """
alphabet: a b
states: 1 2 3 4 5
initial: 1 4
final: 2
trans: 1 a 1 1
trans: 1 a 2 2
trans: 1 b 3 7
trans: 3 a 3 1
trans: 4 b 5 3
trans: 5 b 2 4
trans: 2 b 2 5
"""


def _load(name):
    return parse_automaton(DEADENDS) if name == "deadends" else load(name)


FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


class TestAbstractSemantics:
    def test_switchpoints_worked_word(self):
        # the single accepting run on aabab carries weights 1,5,3,5,1
        m = abstract_semantics(load("switchpoints"), w("aabab"))
        assert m == SeqMultiset({(1, 5, 3, 5, 1): 1})

    @pytest.mark.parametrize("m_", [2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_switchpoints_closed_form(self, m_, n, p):
        word = "a" * m_ + "ba" * n + "b" * p
        got = abstract_semantics(load("switchpoints"), w(word))
        assert got == SeqMultiset(switchpoints_closed_form(m_, n, p))

    def test_triplerun_three_runs(self):
        m = abstract_semantics(load("triplerun"), w("aaab"))
        assert m == SeqMultiset({(2, 2, 3, 3): 1, (2, 1, 5, 3): 1,
                                 (2, 1, 4, 3): 1})

    def test_empty_word_rejected(self):
        with pytest.raises(InputError):
            abstract_semantics(load("fibonacci"), ())

    def test_unknown_letter_rejected(self):
        with pytest.raises(InputError):
            abstract_semantics(load("fibonacci"), w("ab"))

    def test_matches_run_enumeration(self):
        # deadends has runs that the live sets cut off
        for name in sorted(ALL_TEXTS) + ["deadends"]:
            wa = _load(name)
            for word in words_upto(wa.nfa.alphabet, 4):
                assert abstract_semantics(wa, word) \
                    == runs_multiset(wa, word), (name, word)

    def test_fibonacci_three_letters(self):
        m = abstract_semantics(load("fibonacci"), w("aaa"))
        assert m == SeqMultiset({(1, 1, 1): 2})

    def test_pair_semantics_empty_word(self):
        wa = load("fibonacci")
        assert [r.weights(wa) for r in enumerate_runs(wa, 1, 1, ())] == [()]

    def test_empty_run_needs_matching_states(self):
        with pytest.raises(InputError):
            enumerate_runs(load("fibonacci"), 1, 2, ())

    def test_no_run_on_unsupported_word(self):
        assert enumerate_runs(load("switchpoints"), 1, 4, w("ba")) == []


class TestRunCounts:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_fibonacci_run_count(self, n):
        word = ("a",) * n
        fib = load("fibonacci")
        assert count_runs(fib, word) == len(accepting_runs(fib, word)) \
            == FIB[n]

    def test_linearcount(self):
        for n in range(1, 8):
            assert count_runs(load("linearcount"), ("a",) * n) == n


class TestLanguages:
    def test_switchpoints_domain(self):
        # two a's, then anything, then a trailing b
        wa = load("switchpoints")
        pat = re.compile(r"a+a[ab]*b+")
        for word in words_upto(wa.nfa.alphabet, 6):
            assert accepts(wa.nfa, word) == bool(pat.fullmatch("".join(word)))

    def test_mingap_accepts_iff_double_b(self):
        wa = load("mingap")
        pat = re.compile(r"[ab]*ba*b[ab]*")
        for word in words_upto(wa.nfa.alphabet, 6):
            assert accepts(wa.nfa, word) == bool(pat.fullmatch("".join(word)))


class TestScc:
    def test_switchpoints_components(self):
        scc = scc_decompose(load("switchpoints").nfa)
        assert scc.of == (0, 1, 1, 2)
        assert scc.masks == (0b1, 0b110, 0b1000)
        components = named_components(load("switchpoints"))[0]
        assert [sorted(c) for c in components] == [[1], [2, 3], [4]]

    def test_modeblocks_components(self):
        components = named_components(load("modeblocks"))[0]
        assert [sorted(c) for c in components] == [[1, 2], [3]]

    def test_triplerun_all_trivial_but_loops(self):
        nfa = load("triplerun").nfa
        scc = scc_decompose(nfa)
        assert len(scc.masks) == 6
        assert all(mask & mask - 1 == 0 for mask in scc.masks)
        assert scc.of[nfa.pos[1]] != scc.of[nfa.pos[6]]


CLASSES = {
    "switchpoints": POLYNOMIALLY,
    "modeblocks": UNAMBIGUOUS,
    "triplerun": FINITELY,
    "fibonacci": EXPONENTIALLY,
    "blockmax": EXPONENTIALLY,
    "countminmax": FINITELY,
    "expsum": FINITELY,
    "linearcount": POLYNOMIALLY,
    "splitmax": POLYNOMIALLY,
    "splitmin": POLYNOMIALLY,
    "mingap": POLYNOMIALLY,
}


@pytest.mark.parametrize("name", sorted(ALL_TEXTS))
def test_classification(name):
    assert classify_ambiguity(load(name)) == CLASSES[name]


def test_unambiguity_flags():
    assert is_unambiguous(load("modeblocks").nfa)
    assert not is_unambiguous(load("switchpoints").nfa)
    assert is_scc_unambiguous(load("switchpoints").nfa)
    assert is_scc_unambiguous(load("mingap").nfa)
    assert not is_scc_unambiguous(load("fibonacci").nfa)
    assert not is_scc_unambiguous(load("blockmax").nfa)


def max_runs_upto(nfa, maxlen):
    """The most accepting runs of a word of length at most maxlen."""
    return max(count_runs(nfa, u)
               for u in words_upto(nfa.alphabet, maxlen))


def test_ambiguity_degrees():
    assert max_runs_upto(load("triplerun").nfa, 6) == 3
    assert max_runs_upto(load("modeblocks").nfa, 5) == 1
    assert max_runs_upto(load("expsum").nfa, 6) == 2
    assert max_runs_upto(load("fibonacci").nfa, 9) == FIB[9]
    assert max_runs_upto(load("linearcount").nfa, 7) == 7


INDICES = {
    # hand-computed from the transition monoids
    "switchpoints": 2,
    "modeblocks": 1,
    "triplerun": 3,
    "fibonacci": 2,
    "blockmax": 1,
    "countminmax": 1,
    "expsum": 1,
    "linearcount": 1,
    "splitmax": 1,
    "splitmin": 1,
    "mingap": 2,
}


@pytest.mark.parametrize("name", sorted(ALL_TEXTS))
def test_aperiodicity_index(name):
    assert aperiodicity_index(load(name)) == INDICES[name]


def test_transition_monoid_is_closed():
    nfa = load("mingap").nfa
    monoid = transition_monoid(nfa)
    assert len(monoid) == 3  # identity-on-letters a, b, bb


def test_nonaperiodic_detected():
    from wfoc import parse_automaton
    flip = parse_automaton("""
alphabet: a
states: 1 2
initial: 1
final: 1
trans: 1 a 2
trans: 2 a 1
""")
    assert aperiodicity_index(flip) is None
    assert aperiodicity_witness(flip) == (("a",), 2)


def test_union_doubles_runs():
    from wfoc import weighted_union
    wa = load("modeblocks")
    both = weighted_union(wa, wa)
    assert len(both.nfa.states) == 6
    assert max_runs_upto(both.nfa, 4) == 2


def test_product_preserves_aperiodicity():
    # each exactly-k slice is the product of a classifier with a tracker
    from wfoc.decompose import _exact_slice, build_a_geq_k
    for name in ("switchpoints", "mingap"):
        geqs = [build_a_geq_k(load(name).nfa, k) for k in (1, 2, 3)]
        for geq_k, geq_next in zip(geqs, geqs[1:]):
            sliced = _exact_slice(geq_k, geq_next)
            assert sliced.states
            assert aperiodicity_index(sliced) is not None


def test_trim_drops_useless_states():
    from wfoc import parse_automaton
    wa = parse_automaton("""
alphabet: a
states: 1 2 3
initial: 1
final: 2
trans: 1 a 2 1
trans: 3 a 3 1
""")
    t = trim(wa)
    assert set(t.nfa.states) == {1, 2}


# two initial states, both final: only the empty word has two runs
TWO_LOOPS = """
alphabet: a b
states: 1 2
initial: 1 2
final: 1 2
trans: 1 a 1 3
trans: 2 b 2 5
"""


def accepting_witness(nfa):
    return ambiguity_witness(
        nfa, {(i, j) for i in nfa.initial for j in nfa.initial},
        {(f, g) for f in nfa.final for g in nfa.final})


class TestEmptyWordIgnored:
    def test_two_initial_final_states_are_unambiguous(self):
        nfa = parse_automaton(TWO_LOOPS).nfa
        assert accepting_witness(nfa) is None
        assert is_unambiguous(nfa)
        assert classify_ambiguity(nfa) == UNAMBIGUOUS

    def test_countminmax_witness_is_non_empty(self):
        nfa = load("countminmax").nfa
        assert accepting_witness(nfa) == w("a")
        assert count_runs(nfa, w("a")) == 2


def random_automaton(rng):
    n = rng.randint(1, 4)
    states = range(1, n + 1)
    trans = {(s, a, d) for s in states for a in "ab" for d in states
             if rng.random() < 0.3}
    initial = {s for s in states if rng.random() < 0.4} or {1}
    final = {s for s in states if rng.random() < 0.5}
    return Nfa(states, "ab", trans, initial, final)


def oracle_pool():
    rng = random.Random(SEED + 7)
    pool = [load(name).nfa for name in sorted(ALL_TEXTS)]
    return pool + [random_automaton(rng) for _ in range(60)]


@pytest.mark.parametrize("nfa", oracle_pool())
def test_ambiguity_witness_oracle(nfa):
    letters = sorted(nfa.alphabet)
    found = accepting_witness(nfa)
    if found is None:
        shorter = all_words(letters, 6)
    else:
        assert count_runs(nfa, found) >= 2
        shorter = all_words(letters, len(found) - 1)
    assert all(count_runs(nfa, u) < 2 for u in shorter)
    assert is_unambiguous(nfa) == (found is None)

    comp = named_components(nfa)[1]
    same = [(p, q) for p in nfa.states for q in nfa.states
            if comp[p] == comp[q]]
    ambiguous = any(len(enumerate_runs(nfa, p, q, u)) >= 2
                    for u in all_words(letters, 6) for (p, q) in same)
    assert is_scc_unambiguous(nfa) == (not ambiguous)


def _relation_cycle(nfa, word):
    """(index, period) of the cycle that the powers of word's transition
    relation end in, the relation stepped through `Nfa.out` as sets:
    power `index` is the first that comes back, every period-th power."""
    def step(rel):
        for letter in word:
            rel = {s: frozenset(d for x in ds for d in nfa.out(x, letter))
                   for s, ds in rel.items()}
        return rel

    powers = [step({s: frozenset([s]) for s in nfa.states})]
    while powers[-1] not in powers[:-1]:
        powers.append(step(powers[-1]))
    first = powers.index(powers[-1])
    return first + 1, len(powers) - 1 - first


@pytest.mark.parametrize("nfa", oracle_pool())
def test_aperiodicity_witness_oracle(nfa):
    # the witness word's powers cycle with the period named, and no
    # shorter word's do; it is None exactly when the index exists
    got = aperiodicity_witness(nfa)
    assert (got is None) == (aperiodicity_index(nfa) is not None)
    if got is None:
        shorter = all_words(sorted(nfa.alphabet), 3)
    else:
        word, period = got
        assert _relation_cycle(nfa, word)[1] == period > 1
        shorter = all_words(sorted(nfa.alphabet), len(word) - 1)
    assert all(_relation_cycle(nfa, u)[1] == 1 for u in shorter)


@pytest.mark.parametrize("nfa", oracle_pool())
def test_power_cycles_match_the_relations(nfa):
    # each element's (index, period) is its word's relation's; the index
    # is the largest index exactly when every period is 1, and the
    # witness is None exactly then
    monoid = transition_monoid(nfa)
    letters = nfa.letters
    cycles = [_power_cycle(monoid, e)[:2] for e in range(len(monoid))]
    for e, cycle in enumerate(cycles):
        word = [letters[g] for g in monoid.word(e)]
        assert _relation_cycle(nfa, word) == cycle
    aperiodic = all(period == 1 for _, period in cycles)
    want = max([1] + [index for index, _ in cycles]) if aperiodic else None
    assert aperiodicity_index(nfa) == want
    assert (aperiodicity_witness(nfa) is None) == aperiodic


def test_aperiodicity_oracle_pool_has_both_kinds():
    assert {aperiodicity_witness(nfa) is None for nfa in oracle_pool()} \
        == {True, False}


class TestSemanticsUpto:
    @pytest.mark.parametrize("name", sorted(ALL_TEXTS) + ["deadends"])
    def test_matches_abstract_semantics(self, name):
        wa = _load(name)
        # one letter more than the automaton has: its words get None
        alphabet = wa.nfa.alphabet | {"z"}
        got = list(semantics_upto(wa, alphabet, 4))
        assert [word for word, _ in got] == list(words_upto(alphabet, 4))
        for word, sem in got:
            want = None if "z" in word else abstract_semantics(wa, word)
            assert sem == want, (name, word)

    def test_prefixes_are_extended_once_per_length(self, monkeypatch):
        calls = []
        real = automata._stepper

        def stepper(wa, carrier):
            advance = real(wa, carrier)
            return lambda front, letter, keep: \
                calls.append(letter) or advance(front, letter, keep)

        monkeypatch.setattr(automata, "_stepper", stepper)
        wa = load("blockmax")
        assert len(list(semantics_upto(wa, wa.nfa.alphabet, 4))) \
            == 3 + 9 + 27 + 81
        # length n walks the prefix tree of depth n: 3 + ... + 3^n nodes
        assert len(calls) == sum(3 ** k for n in range(1, 5)
                                 for k in range(1, n + 1))

    def test_empty_sweep(self):
        assert list(semantics_upto(load("fibonacci"), {"a"}, 0)) == []

    @pytest.mark.parametrize("name", sorted(ALL_TEXTS))
    def test_first_length_skips_the_shorter_words(self, name):
        wa = _load(name)
        alphabet = wa.nfa.alphabet | {"z"}
        full = list(semantics_upto(wa, alphabet, 4))
        for first in (1, 3, 4, 5):
            assert list(semantics_upto(wa, alphabet, 4, first=first)) == [
                (word, sem) for word, sem in full if len(word) >= first]

    def test_words_longer_than_the_recursion_limit(self):
        # the sweep keeps its prefixes on an explicit stack, not in frames
        n = sys.getrecursionlimit() + 100
        wa = parse_automaton(
            "alphabet: a\nstates: %s\ninitial: 0\nfinal: %d\n%s" % (
                " ".join(map(str, range(n + 1))), n,
                "".join("trans: %d a %d 1\n" % (i, i + 1) for i in range(n))))
        *_, (word, last) = semantics_upto(wa, wa.nfa.alphabet, n)
        assert word == ("a",) * n
        assert last.pretty() == "1 x [%s]" % ",".join("1" * n)


def _mat_mul_by_bits(m1, m2):
    out = []
    for bits in m1:
        row = 0
        for j in range(len(m2)):
            if bits >> j & 1:
                row |= m2[j]
        out.append(row)
    return tuple(out)


def test_mat_mul_matches_bitwise_definition():
    rng = random.Random(SEED)
    for _ in range(300):
        n = rng.randrange(1, 71)
        density = rng.random()
        m1, m2 = (tuple(sum(1 << j for j in range(n) if rng.random() < density)
                        for _ in range(n)) for _ in range(2))
        assert mat_mul(m1, m2) == _mat_mul_by_bits(m1, m2)
