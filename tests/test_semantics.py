import functools
import random
from fractions import Fraction

import pytest

from corpus import ALL_TEXTS, SEED, all_words, load
from reference_multiset import MULTISET_SEQS
from reference_multiset import SeqMultiset as ReferenceMultiset
from reference_semantics import SAMPLERS, multiset_sum
from wfoc import (
    InputError, SEMIRING_NAMES, SeqMultiset, Symbol, abstract_semantics,
    aggr_ma, aggr_sp, builtin_semiring, max_average, parse_automaton,
)
from wfoc.automata import forward
from wfoc.semantics import NEG_INF, POS_INF

FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610,
       987, 1597, 2584, 4181, 6765]


def test_builtin_names():
    for name in ("natural", "boolean", "minplus", "maxplus", "languages"):
        assert builtin_semiring(name).name == name
    with pytest.raises(InputError):
        builtin_semiring("nope")


def test_natural_ops():
    s = builtin_semiring("natural")
    assert s.plus(2, 3) == 5 and s.times(2, 3) == 6


def test_minplus_zero_absorbs():
    s = builtin_semiring("minplus")
    assert s.plus(POS_INF, 4) == 4
    assert s.times(POS_INF, 4) == POS_INF


def test_languages_concatenation():
    s = builtin_semiring("languages")
    assert s.times(frozenset({"a"}), frozenset({"b", "c"})) == {"ab", "ac"}


# plus and times as Python functions, before the catalog took operator's
# builtins where one fits, and values of each carrier
_NUMBERS = [0, 1, 3, -2, 10 ** 30, Fraction(1, 2), Fraction(-7, 3),
            POS_INF, NEG_INF]
LAMBDA_OPERATORS = {
    "natural": (lambda a, b: a + b, lambda a, b: a * b,
                [False, True, 0, 1, 2, 7, 10 ** 30]),
    "boolean": (lambda a, b: a or b, lambda a, b: a and b, [False, True]),
    "minplus": (min, lambda a, b: a + b, _NUMBERS),
    "maxplus": (max, lambda a, b: a + b, _NUMBERS),
    "languages": (lambda a, b: a | b,
                  lambda a, b: frozenset(x + y for x in a for y in b),
                  [frozenset(), frozenset({""}), frozenset({"1", "23"}),
                   frozenset({"23", "t", "1/2"})]),
}


@pytest.mark.parametrize("name", sorted(LAMBDA_OPERATORS))
def test_operators_match_the_lambdas(name):
    s = builtin_semiring(name)
    plus, times, values = LAMBDA_OPERATORS[name]
    for a in values:
        for b in values:
            for new, old in ((s.plus, plus), (s.times, times)):
                got, want = new(a, b), old(a, b)
                assert type(got) is type(want), (name, a, b)
                assert got == want or got != got and want != want, (a, b)


# the laws beyond the semiring axioms that each catalog semiring obeys
LAWS = {
    "natural": {"commutative"},
    "boolean": {"commutative", "idempotent"},
    "minplus": {"commutative", "idempotent"},
    "maxplus": {"commutative", "idempotent"},
    "languages": {"idempotent"},
    "multiset_seqs": set(),
}


# the catalog, and the free semiring that `eval` prints a multiset from
SEMIRINGS = dict({name: builtin_semiring(name) for name in SEMIRING_NAMES},
                 multiset_seqs=MULTISET_SEQS)


@pytest.mark.parametrize("name", ["natural", "boolean", "minplus",
                                  "maxplus", "languages", "multiset_seqs"])
def test_semiring_axioms_sampled(name):
    s = SEMIRINGS[name]
    sample = SAMPLERS[name]
    rng = random.Random(SEED)
    for _ in range(1000):
        a, b, c = sample(rng), sample(rng), sample(rng)
        assert s.plus(s.plus(a, b), c) == s.plus(a, s.plus(b, c))
        assert s.plus(a, b) == s.plus(b, a)
        assert s.times(s.times(a, b), c) == s.times(a, s.times(b, c))
        assert s.plus(a, s.zero) == a
        assert s.times(a, s.one) == a
        assert s.times(s.one, a) == a
        assert s.times(a, s.zero) == s.zero
        assert s.times(s.zero, a) == s.zero
        assert s.times(a, s.plus(b, c)) == s.plus(s.times(a, b),
                                                  s.times(a, c))
        assert s.times(s.plus(a, b), c) == s.plus(s.times(a, c),
                                                  s.times(b, c))
        if "commutative" in LAWS[name]:
            assert s.times(a, b) == s.times(b, a)
        if "idempotent" in LAWS[name]:
            assert s.plus(a, a) == a


def test_aggr_sp_triplerun():
    m = abstract_semantics(load("triplerun"), tuple("aaab"))
    assert aggr_sp(builtin_semiring("natural"), m) == 90


def test_aggr_sp_empty_is_zero():
    for name in ("natural", "minplus", "languages"):
        s = builtin_semiring(name)
        assert aggr_sp(s, SeqMultiset()) == s.zero


def test_aggr_sp_maxplus():
    m = SeqMultiset({(1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert aggr_sp(builtin_semiring("maxplus"), m) == 2


def test_aggr_sp_respects_multiplicity():
    s = builtin_semiring("natural")
    assert aggr_sp(s, SeqMultiset({(2, 3): 4})) == 24


def test_aggr_sp_union_homomorphism():
    rng = random.Random(SEED)
    s = builtin_semiring("natural")
    for _ in range(200):
        m1 = _random_multiset(rng)
        m2 = _random_multiset(rng)
        assert aggr_sp(s, multiset_sum([m1, m2])) \
            == aggr_sp(s, m1) + aggr_sp(s, m2)


def _random_multiset(rng):
    return SeqMultiset({tuple(rng.randrange(4) for _ in range(rng.randrange(1, 4))):
                        rng.randrange(1, 4)
                        for _ in range(rng.randrange(0, 4))})


def test_aggr_sp_multiset_semiring_is_identity():
    wa = load("switchpoints")
    for word in all_words(("a", "b"), 5):
        m = abstract_semantics(wa, word)
        value = aggr_sp(MULTISET_SEQS, m)
        assert value == ReferenceMultiset(dict(m.items()))
        assert value.pretty() == m.pretty()


def test_aggr_ma():
    assert aggr_ma(SeqMultiset({(2, 4): 1})) == 3
    assert aggr_ma(SeqMultiset()) == NEG_INF
    assert aggr_ma(SeqMultiset({(1, 1, 1): 1, (0, 3, 0): 2})) == 1
    assert aggr_ma(SeqMultiset({(1, 2): 1})) == Fraction(3, 2)


def test_aggr_ma_rejects_symbols():
    with pytest.raises(InputError):
        aggr_ma(SeqMultiset({(Symbol("t"),): 1}))


def test_natural_rejects_bad_weights():
    s = builtin_semiring("natural")
    with pytest.raises(InputError):
        s.embed(-1)
    with pytest.raises(InputError):
        s.embed(Symbol("t"))
    with pytest.raises(InputError):
        s.embed(Fraction(1, 2))


def test_symbolic_weights_flow_through_languages():
    s = builtin_semiring("languages")
    m = SeqMultiset({(Symbol("t"), 2): 1})
    assert aggr_sp(s, m) == frozenset({"t2"})


class TestConcreteSemantics:
    nat = builtin_semiring("natural").carrier
    mx = builtin_semiring("maxplus").carrier
    mn = builtin_semiring("minplus").carrier

    @pytest.mark.parametrize("n", range(1, 21))
    def test_fibonacci(self, n):
        got = forward(load("fibonacci"), ("a",) * n, self.nat)
        assert got == FIB[n]

    def test_countminmax(self):
        wa = load("countminmax")
        for word in all_words(("a", "b"), 6):
            na, nb = word.count("a"), word.count("b")
            assert forward(wa, word, self.mx) == max(na, nb)
            assert forward(wa, word, self.mn) == min(na, nb)

    def test_expsum_closed_form(self):
        wa = load("expsum")
        for word in all_words(("a", "b"), 6):
            na, nb = word.count("a"), word.count("b")
            assert forward(wa, word, self.nat) == 2 ** na + 3 ** nb

    def test_blockmax_both_readings(self):
        wa = load("blockmax")
        for word in all_words(("a", "b", "c"), 5):
            blocks = "".join(word).split("c")
            fmax = sum(max(b.count("a"), b.count("b")) for b in blocks)
            fmin = sum(min(b.count("a"), b.count("b")) for b in blocks)
            assert forward(wa, word, self.mx) == fmax
            assert forward(wa, word, self.mn) == fmin

    def test_splitmax_splitmin(self):
        for word in all_words(("a", "b"), 6):
            s = "".join(word)
            splits = [(s[:i], s[i:]) for i in range(len(s) + 1)]
            vals = [u.count("a") + v.count("b") for u, v in splits]
            assert forward(load("splitmax"), word, self.mx) == max(vals)
            assert forward(load("splitmin"), word, self.mn) == min(vals)

    def test_mingap(self):
        wa = load("mingap")
        for word in all_words(("a", "b"), 7):
            s = "".join(word)
            gaps = []
            for i in range(len(s)):
                if s[i] != "b":
                    continue
                for j in range(i + 1, len(s)):
                    if s[j] == "b":
                        gaps.append(j - i - 1)
                        break
            expect = min(gaps) if gaps else POS_INF
            assert forward(wa, word, self.mn) == expect

    def test_linearcount(self):
        for n in range(1, 8):
            assert forward(load("linearcount"), ("a",) * n, self.nat) == n

    def test_triplerun_family(self):
        wa = load("triplerun")
        for n in range(4):
            for p in range(4):
                word = ("a",) * n + tuple("aaab") + ("b",) * p
                assert forward(wa, word, self.nat) == 2 ** n * 90 * 3 ** p

    def test_max_average(self):
        wa = load("countminmax")
        # averages of the two constant-rate runs: #a/n and #b/n
        got = max_average(wa, tuple("aab"))
        assert got == Fraction(2, 3)


# weights outside some carriers: negative, rational and symbolic ones, the
# symbol t only on runs through the dead state 4
MIXED = """
alphabet: a b
states: 1 2 3 4
initial: 1 2
final: 3
trans: 1 a 1 -1
trans: 1 b 3 1/2
trans: 1 a 4 t
trans: 2 a 3 2
trans: 2 b 2 u
trans: 3 a 3 0
trans: 3 b 3 3
"""

ORACLE_SEMIRINGS = [builtin_semiring(name) for name in SEMIRING_NAMES]


def _sum_product(semiring):
    return lambda wa, word: forward(wa, word, semiring.carrier)


def _multiset_text(wa, word):
    return abstract_semantics(wa, word).pretty()


# each value `eval` prints, as it computes it: a forward pass per
# semiring, the multiset's text, max-average
ORACLE_VALUES = [_sum_product(s) for s in ORACLE_SEMIRINGS] \
    + [_multiset_text, max_average]
# each value's definition on a multiset, in the same order
DEFINITIONS = [functools.partial(aggr_sp, s) for s in ORACLE_SEMIRINGS] \
    + [lambda m: aggr_sp(MULTISET_SEQS, m).pretty(), aggr_ma]
NAT, BOOL, LANGS = (_sum_product(builtin_semiring(name))
                    for name in ("natural", "boolean", "languages"))


def _outcome(fn):
    try:
        return "value", fn()
    except Exception as err:        # the class is what must agree
        return "raise", type(err)


@pytest.mark.parametrize("name", sorted(ALL_TEXTS) + ["mixed"])
def test_forward_pass_matches_multiset_oracle(name):
    wa = parse_automaton(MIXED) if name == "mixed" else load(name)
    for word in all_words(sorted(wa.nfa.alphabet), 6):
        m = abstract_semantics(wa, word)
        for value, definition in zip(ORACLE_VALUES, DEFINITIONS):
            assert _outcome(lambda: value(wa, word)) \
                == _outcome(lambda: definition(m)), (name, word, value)


def test_forward_pass_oracle_sees_every_outcome():
    # on the mixed automaton some words answer and some refuse
    wa = parse_automaton(MIXED)
    outcomes = {_outcome(lambda: NAT(wa, w))[0]
                for w in all_words(("a", "b"), 4)}
    assert outcomes == {"value", "raise"}
    assert max_average(wa, tuple("bb")) == Fraction(7, 4)
    with pytest.raises(InputError):      # -1 lies on an accepting run
        NAT(wa, tuple("ab"))


def test_dead_branch_symbol_still_evaluates_under_natural():
    # t is only on the a-move into the dead state 4, and the -1 loop on 1
    # reaches no final state by a-moves
    wa = parse_automaton(MIXED)
    assert abstract_semantics(wa, tuple("aa")) == SeqMultiset({(2, 0): 1})
    assert NAT(wa, tuple("a")) == 2
    assert NAT(wa, tuple("aa")) == 0
    assert max_average(wa, tuple("aa")) == 1
    with pytest.raises(InputError, match="symbolic"):   # u is live on ba
        BOOL(wa, tuple("ba"))


def test_forward_pass_rejects_what_abstract_semantics_rejects():
    wa = load("fibonacci")
    for value in ORACLE_VALUES:
        for word in ((), ("z",), ("a", "z")):
            with pytest.raises(InputError):
                value(wa, word)


def test_forward_pass_keeps_product_order():
    # languages is not commutative: the value lists weights left to right
    wa = load("triplerun")
    assert LANGS(wa, tuple("aaab")) == frozenset({"2143", "2153", "2233"})


def test_ma_error_names_max_average():
    wa = parse_automaton(MIXED)
    with pytest.raises(InputError, match="max-average"):
        max_average(wa, tuple("ba"))
    # mingap accepts only words with two b's
    assert max_average(load("mingap"), ("a",) * 3) == NEG_INF
