"""Tests for translating automata back into weighted sentences."""

import re

import pytest

from corpus import ALL_TEXTS, all_words, load
from wfoc.automata import (
    Nfa, WeightedAutomaton, classify_ambiguity, count_accepting_runs,
    enumerate_runs, is_scc_unambiguous, is_unambiguous, scc_decompose,
)
from wfoc.errors import HypothesisError, InputError
from wfoc.logic.evaluate import eval_fo, eval_wfo_at
from wfoc.logic.syntax import (
    ProdX, RunAtom, SumX, WIte, Zero, uses_plus, uses_sumx,
)
from wfoc.semantics import abstract_semantics
from wfoc.wa_to_wfo import (
    enumerate_switching, lang_sentence, scc_unambiguous_to_wfo,
    transition_formula, unambiguous_to_wfo, unambiguous_wa_to_wfo,
)
from wfoc.wfo_compiler import compile_wfo


def parity_automaton():
    nfa = Nfa({1, 2}, ("a",), {(1, "a", 2), (2, "a", 1)}, {1}, {1})
    return WeightedAutomaton(nfa, {(1, "a", 2): 1, (2, "a", 1): 1})


def witness_in(err):
    word = re.search(r"'([a-z]*)'", str(err)).group(1)
    return tuple(word)


def run_slice(a, p, q, word):
    got = {}
    for run in enumerate_runs(a, p, q, word):
        seq = tuple(a.wgt[t] for t in run.trans)
        got[seq] = got.get(seq, 0) + 1
    return got


class TestLangSentence:
    @pytest.mark.parametrize("p,q", [(1, 3), (2, 3), (1, 1), (3, 3)])
    def test_matches_run_existence(self, p, q):
        mode = load("modeblocks")
        phi = lang_sentence(mode, p, q, name="M")
        for w in all_words(("a", "b", "c"), 4, minlen=0):
            want = bool(enumerate_runs(mode, p, q, w)) if w else p == q
            assert eval_fo(phi, w) == want

    def test_unknown_state(self):
        with pytest.raises(InputError):
            lang_sentence(load("modeblocks"), 1, 9)

    def test_not_aperiodic(self):
        with pytest.raises(HypothesisError):
            lang_sentence(parity_automaton(), 1, 1)


class TestTransitionFormula:
    def test_aab_positions(self):
        mode = load("modeblocks")
        phi = transition_formula(mode, 1, 3, (1, "a", 1), name="M")
        holds = [i for i in (1, 2, 3)
                 if eval_fo(phi, ("a", "a", "b"), {"x": i})]
        assert holds == [1, 2]

    @pytest.mark.parametrize("delta", sorted(load("modeblocks").wgt))
    def test_names_the_taken_transition(self, delta):
        mode = load("modeblocks")
        phi = transition_formula(mode, 1, 3, delta, name="M")
        for w in all_words(("a", "b", "c"), 5):
            runs = enumerate_runs(mode, 1, 3, w)
            for i in range(1, len(w) + 1):
                want = any(r.trans[i - 1] == delta for r in runs)
                assert eval_fo(phi, w, {"x": i}) == want

    def test_unknown_transition(self):
        with pytest.raises(InputError):
            transition_formula(load("modeblocks"), 1, 3, (1, "a", 3))


class TestUnambiguousToWfo:
    def test_pair_13_on_ab(self):
        phi = unambiguous_to_wfo(load("modeblocks"), 1, 3, name="M")
        assert dict(eval_wfo_at(phi, ("a", "b")).items()) == {(2, 1): 1}

    @pytest.mark.parametrize("p,q", [(1, 3), (2, 3)])
    def test_slice_semantics(self, p, q):
        mode = load("modeblocks")
        phi = unambiguous_to_wfo(mode, p, q, name="M")
        for w in all_words(("a", "b", "c"), 5):
            assert dict(eval_wfo_at(phi, w).items()) == run_slice(mode, p, q, w)

    def test_guarded_product_shape(self):
        phi = unambiguous_to_wfo(load("modeblocks"), 2, 3, name="M")
        assert isinstance(phi, WIte)
        assert isinstance(phi.cond, RunAtom)
        assert isinstance(phi.then, ProdX)
        assert isinstance(phi.els, Zero)

    def test_ambiguous_pair_refused_with_witness(self):
        fib = load("fibonacci")
        with pytest.raises(HypothesisError) as err:
            unambiguous_to_wfo(fib, 1, 1)
        w = witness_in(err.value)
        assert len(enumerate_runs(fib, 1, 1, w)) >= 2

    def test_not_aperiodic(self):
        with pytest.raises(HypothesisError):
            unambiguous_to_wfo(parity_automaton(), 1, 1)


class TestUnambiguousWaToWfo:
    def test_no_plus_no_sum(self):
        phi = unambiguous_wa_to_wfo(load("modeblocks"), name="M")
        assert not uses_plus(phi)
        assert not uses_sumx(phi)

    def test_nested_ite_over_pairs(self):
        phi = unambiguous_wa_to_wfo(load("modeblocks"), name="M")
        assert isinstance(phi, WIte) and isinstance(phi.els, WIte)
        assert isinstance(phi.els.els, Zero)

    def test_semantics(self):
        mode = load("modeblocks")
        phi = unambiguous_wa_to_wfo(mode, name="M")
        for w in all_words(("a", "b", "c"), 4):
            assert eval_wfo_at(phi, w) == abstract_semantics(mode, w)

    def test_compiles_to_unambiguous(self):
        mode = load("modeblocks")
        phi = unambiguous_wa_to_wfo(mode, name="M")
        b = compile_wfo(phi, ("a", "b", "c"))
        assert is_unambiguous(b.nfa)
        for w in all_words(("a", "b", "c"), 5):
            assert abstract_semantics(b, w) == abstract_semantics(mode, w)

    def test_single_pair_collapses(self):
        nfa = Nfa({1, 2}, ("a", "b"), {(1, "a", 1), (1, "b", 2)}, {1}, {2})
        a = WeightedAutomaton(nfa, {(1, "a", 1): 4, (1, "b", 2): 7})
        phi = unambiguous_wa_to_wfo(a)
        assert isinstance(phi, WIte) and isinstance(phi.els, Zero)
        assert dict(eval_wfo_at(phi, ("a", "b")).items()) == {(4, 7): 1}

    def test_ambiguous_refused_with_witness(self):
        fib = load("fibonacci")
        with pytest.raises(HypothesisError) as err:
            unambiguous_wa_to_wfo(fib)
        assert count_accepting_runs(fib, witness_in(err.value)) >= 2


class TestEnumerateSwitching:
    def test_switchpoints_single_sequence(self):
        sw = load("switchpoints")
        assert enumerate_switching(sw, 1, 4) == [((1, "a", 2), (3, "b", 4))]

    def test_modeblocks_pairs(self):
        mode = load("modeblocks")
        # states 1 and 2 share a component, so both exits serve both pairs
        both = [((1, "b", 3),), ((2, "c", 3),)]
        assert enumerate_switching(mode, 1, 3) == both
        assert enumerate_switching(mode, 2, 3) == both

    def test_no_path_is_empty(self):
        assert enumerate_switching(load("switchpoints"), 4, 1) == []

    def test_same_component_refused(self):
        with pytest.raises(HypothesisError):
            enumerate_switching(load("switchpoints"), 2, 3)

    def test_observed_skeletons_are_enumerated(self):
        tri = load("triplerun")
        comp = scc_decompose(tri.nfa).component_of
        for p in sorted(tri.nfa.initial):
            for q in sorted(tri.nfa.final):
                if comp[p] == comp[q]:
                    continue
                listed = set(enumerate_switching(tri, p, q))
                seen = set()
                for w in all_words(tuple(sorted(tri.nfa.alphabet)), 6):
                    for run in enumerate_runs(tri, p, q, w):
                        skel = tuple(t for t in run.trans
                                     if comp[t[0]] != comp[t[2]])
                        seen.add(skel)
                assert seen <= listed
                assert seen == listed


class TestSccUnambiguousToWfo:
    def test_switchpoints_aabab(self):
        phi = scc_unambiguous_to_wfo(load("switchpoints"))
        got = eval_wfo_at(phi, ("a", "a", "b", "a", "b"))
        assert dict(got.items()) == {(1, 5, 3, 5, 1): 1}

    def test_switchpoints_shape(self):
        phi = scc_unambiguous_to_wfo(load("switchpoints"))
        assert isinstance(phi, SumX) and isinstance(phi.body, SumX)
        assert isinstance(phi.body.body, WIte)
        assert phi.var == "y1" and phi.body.var == "y2"

    def test_cardinality_counts_accepting_runs(self):
        sw = load("switchpoints")
        phi = scc_unambiguous_to_wfo(sw)
        for w in all_words(("a", "b"), 6):
            got = eval_wfo_at(phi, w)
            assert got.total() == count_accepting_runs(sw, w)

    @pytest.mark.parametrize("name", sorted(
        n for n in ALL_TEXTS if n not in ("blockmax", "fibonacci")))
    def test_round_trip(self, name):
        a = load(name)
        phi = scc_unambiguous_to_wfo(a)
        b = compile_wfo(phi, tuple(sorted(a.nfa.alphabet)))
        assert classify_ambiguity(b) != "exponentially"
        for w in all_words(tuple(sorted(a.nfa.alphabet)), 6):
            assert abstract_semantics(b, w) == abstract_semantics(a, w)

    def test_scc_ambiguous_refused_with_witness(self):
        blk = load("blockmax")
        with pytest.raises(HypothesisError) as err:
            scc_unambiguous_to_wfo(blk)
        w = witness_in(err.value)
        assert not is_scc_unambiguous(blk.nfa)
        assert any(len(enumerate_runs(blk, p, p, w)) >= 2
                   for p in blk.nfa.states)

    def test_not_aperiodic(self):
        with pytest.raises(HypothesisError):
            scc_unambiguous_to_wfo(parity_automaton())


# every refusal of the corpus, word for word: the witness is the first
# shortest one in letter order, whichever function spells the search
REFUSALS = [
    ("blockmax", unambiguous_wa_to_wfo,
     "not unambiguous: 'c' has two accepting runs"),
    ("blockmax", scc_unambiguous_to_wfo,
     "not SCC-unambiguous: 'cc' has two runs inside one component"),
    ("countminmax", unambiguous_wa_to_wfo,
     "not unambiguous: 'a' has two accepting runs"),
    ("expsum", unambiguous_wa_to_wfo,
     "not unambiguous: 'a' has two accepting runs"),
    ("fibonacci", unambiguous_wa_to_wfo,
     "not unambiguous: 'aaa' has two accepting runs"),
    ("fibonacci", scc_unambiguous_to_wfo,
     "not SCC-unambiguous: 'aa' has two runs inside one component"),
    ("linearcount", unambiguous_wa_to_wfo,
     "not unambiguous: 'aa' has two accepting runs"),
    ("mingap", unambiguous_wa_to_wfo,
     "not unambiguous: 'bbb' has two accepting runs"),
    ("splitmax", unambiguous_wa_to_wfo,
     "not unambiguous: 'a' has two accepting runs"),
    ("splitmin", unambiguous_wa_to_wfo,
     "not unambiguous: 'a' has two accepting runs"),
    ("switchpoints", unambiguous_wa_to_wfo,
     "not unambiguous: 'aaab' has two accepting runs"),
    ("triplerun", unambiguous_wa_to_wfo,
     "not unambiguous: 'aab' has two accepting runs"),
]


class TestRefusalTexts:
    def test_table_is_every_refusal(self):
        got = set()
        for name in ALL_TEXTS:
            for fn in (unambiguous_wa_to_wfo, scc_unambiguous_to_wfo):
                try:
                    fn(load(name))
                except HypothesisError:
                    got.add((name, fn))
        assert got == {(name, fn) for name, fn, _ in REFUSALS}

    @pytest.mark.parametrize("name,fn,text", REFUSALS,
                             ids=["%s-%s" % (n, f.__name__[:3])
                                  for n, f, _ in REFUSALS])
    def test_text(self, name, fn, text):
        with pytest.raises(HypothesisError) as err:
            fn(load(name))
        assert str(err.value) == text
