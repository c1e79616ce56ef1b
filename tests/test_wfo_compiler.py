import random

import pytest

from wfoc import InputError
from wfoc.automata import (
    abstract_semantics, ambiguity_degree_bounded, aperiodicity_index,
    classify_ambiguity, is_unambiguous, weighted_union,
)
from wfoc.logic import parse_fo, parse_wfo
from wfoc.logic.evaluate import eval_wfo_at
from wfoc.logic.syntax import (
    Const, Not, Plus, ProdX, WIte, Zero, uses_plus, uses_sumx,
)
from wfoc.multiset import SeqMultiset
from wfoc.semantics import (
    builtin_semiring, concrete_semantics, sum_product_aggregator,
)
from wfoc.textfmt import serialize_automaton
from wfoc.wfo_compiler import (
    compile_ite, compile_product, compile_sum_var, compile_wfo,
    rewrite_sum_normal_form,
)

from corpus import SEED, all_words, load, random_wfo

AB = frozenset({"a", "b"})


def modeblocks_sentence():
    mode = load("modeblocks")
    psi13 = ("(run:M(1,1;<x) & Pa(x) & run:M(1,3;>x)) ? 2 : "
             "((run:M(1,2;<x) & Pa(x) & run:M(2,3;>x)) ? 3 : 1)")
    psi23 = ("(run:M(2,2;<x) & Pa(x) & run:M(2,3;>x)) ? 3 : "
             "((run:M(2,1;<x) & Pa(x) & run:M(1,3;>x)) ? 2 : 1)")
    text = ("run:M(1,3) ? prod x. (%s) : (run:M(2,3) ? prod x. (%s) : zero)"
            % (psi13, psi23))
    return parse_wfo(text, automata={"M": mode.nfa}), mode


def next_letter_is_a(var):
    return ("(exists s. (%s<s & (forall t. (%s<t -> s<=t)) & Pa(s)))"
            % (var, var))


def switchpoints_sentence():
    guard = ("(y1<y2 & (forall z. (z<=y1 -> Pa(z))) & "
             + next_letter_is_a("y1")
             + " & (forall z. (y2<=z -> Pb(z))))")
    psi = ("((x<y1 | y2<x) ? 2 : ((x=y1 | x=y2) ? 1 : ("
           + next_letter_is_a("x") + " ? 3 : 5)))")
    return parse_wfo("sum y1. sum y2. (%s ? prod x. %s : zero)"
                     % (guard, psi))


class TestProduct:
    def test_constant_step(self):
        wa = compile_product(Const(5), "x", AB)
        assert abstract_semantics(wa, ("a", "a")) == \
            SeqMultiset({(5, 5): 1})

    def test_mode_step_weights(self):
        phi, mode = modeblocks_sentence()
        prod13 = phi.then
        wa = compile_product(prod13.step, prod13.var, mode.nfa.alphabet)
        assert abstract_semantics(wa, ("a", "b")) == \
            SeqMultiset({(2, 1): 1})
        for w in all_words(("a", "b", "c"), 4):
            assert abstract_semantics(wa, w) == \
                eval_wfo_at(prod13, w, vars=())

    def test_unambiguous_and_aperiodic(self):
        psi = parse_wfo("prod x. (Pa(x) ? 2 : (x<=x ? 3 : 4))")
        wa = compile_product(psi.step, psi.var, AB)
        assert is_unambiguous(wa.nfa)
        assert aperiodicity_index(wa.nfa) is not None


class TestIte:
    def test_true_guard_keeps_then_branch(self):
        then_wa = compile_product(Const(2), "x", AB)
        else_wa = compile_product(Const(9), "x", AB)
        wa = compile_ite(parse_fo("true"), then_wa, else_wa, AB)
        for w in all_words(("a", "b"), 3):
            assert abstract_semantics(wa, w) == abstract_semantics(then_wa, w)

    def test_failed_guard_gives_empty_with_zero_else(self):
        phi, mode = modeblocks_sentence()
        wa = compile_wfo(WIte(phi.cond, phi.then, Zero()),
                         mode.nfa.alphabet)
        assert abstract_semantics(wa, ("a", "c")).total() == 0
        assert abstract_semantics(wa, ("a", "b")) == \
            SeqMultiset({(2, 1): 1})

    def test_classification_preserved(self):
        then_wa = compile_product(Const(2), "x", AB)
        else_wa = compile_product(Const(9), "x", AB)
        wa = compile_ite(parse_fo("forall x. Pa(x)"), then_wa, else_wa, AB)
        assert classify_ambiguity(wa.nfa) == "unambiguous"
        assert aperiodicity_index(wa.nfa) is not None


class TestPlus:
    def test_zero_is_neutral(self):
        a = compile_wfo(parse_wfo("prod x. (Pb(x) ? 7 : 1)"), AB)
        z = compile_wfo(parse_wfo("zero"), AB)
        both = weighted_union(a, z)
        for w in all_words(("a", "b"), 4):
            assert abstract_semantics(both, w) == abstract_semantics(a, w)

    def test_doubling_multiplicities(self):
        phi, mode = modeblocks_sentence()
        one = compile_wfo(phi, mode.nfa.alphabet)
        two = weighted_union(one, one)
        for w in all_words(("a", "b", "c"), 5):
            doubled = SeqMultiset({s: 2 * c for s, c
                                   in abstract_semantics(one, w).items()})
            assert abstract_semantics(two, w) == doubled

    def test_union_of_unambiguous_is_two_ambiguous(self):
        a = compile_wfo(parse_wfo("prod x. 1"), AB)
        both = weighted_union(a, a)
        assert ambiguity_degree_bounded(both.nfa, 5) <= 2


class TestSumVar:
    def test_single_valuation_passthrough(self):
        # accepts only y at the first position, weights all 7
        inner = compile_wfo(
            parse_wfo("(forall z. y<=z) ? prod x. 7 : zero"),
            AB, vars=("y",))
        wa = compile_sum_var(inner, "y", AB, ("y",))
        for w in all_words(("a", "b"), 3):
            assert abstract_semantics(wa, w) == \
                SeqMultiset({(7,) * len(w): 1})

    def test_missing_variable_rejected(self):
        inner = compile_wfo(parse_wfo("prod x. 1"), AB)
        with pytest.raises(InputError):
            compile_sum_var(inner, "y", AB, ())

    def test_switch_positions_formula_matches_automaton(self):
        sw = load("switchpoints")
        wa = compile_wfo(switchpoints_sentence(), AB)
        for w in all_words(("a", "b"), 6):
            assert abstract_semantics(wa, w) == abstract_semantics(sw, w)

    def test_index_bound(self):
        inner = compile_wfo(
            parse_wfo("(forall z. y<=z) ? prod x. 7 : zero"),
            AB, vars=("y",))
        m = aperiodicity_index(inner.nfa)
        out = compile_sum_var(inner, "y", AB, ("y",))
        got = aperiodicity_index(out.nfa)
        assert got is not None and got <= 2 * m


class TestCompileWfo:
    def test_zero(self):
        wa = compile_wfo(parse_wfo("zero"), AB)
        for w in all_words(("a", "b"), 3):
            assert abstract_semantics(wa, w).total() == 0

    def test_modeblocks_oracle_both_ways(self):
        phi, mode = modeblocks_sentence()
        wa = compile_wfo(phi, mode.nfa.alphabet)
        assert is_unambiguous(wa.nfa)
        assert not uses_plus(phi) and not uses_sumx(phi)
        for w in all_words(("a", "b", "c"), 6):
            want = abstract_semantics(mode, w)
            assert abstract_semantics(wa, w) == want
            assert eval_wfo_at(phi, w, vars=()) == want

    def test_max_a_block(self):
        phi = parse_wfo(
            "sum y. sum z. ((forall u. ((y<=u & u<=z) -> Pa(u))) ? "
            "(prod x. ((y<=x & x<=z) ? 1 : 0)) : (prod x. 0))")
        wa = compile_wfo(phi, AB)
        ag = sum_product_aggregator(builtin_semiring("maxplus"))
        for w in all_words(("a", "b"), 6):
            best = 0
            run = 0
            for ch in w:
                run = run + 1 if ch == "a" else 0
                best = max(best, run)
            assert concrete_semantics(wa, w, ag) == best

    def test_random_sentences_master_oracle(self):
        rng = random.Random(SEED)
        for _ in range(25):
            phi = random_wfo(rng, ("a", "b"), depth=3, max_sum_vars=2)
            wa = compile_wfo(phi, AB)
            assert classify_ambiguity(wa.nfa) != "exponentially"
            for w in all_words(("a", "b"), 4):
                assert abstract_semantics(wa, w) == \
                    eval_wfo_at(phi, w, vars=()), (phi, w)

    def test_fragment_flags(self):
        rng = random.Random(SEED + 7)
        seen_plain = 0
        for _ in range(40):
            phi = random_wfo(rng, ("a", "b"), depth=2, max_sum_vars=1)
            if uses_sumx(phi):
                continue
            wa = compile_wfo(phi, AB)
            got = classify_ambiguity(wa.nfa)
            if uses_plus(phi):
                assert got in ("unambiguous", "finitely")
            else:
                assert got == "unambiguous"
                seen_plain += 1
        assert seen_plain >= 3

    def test_non_sentence_rejected(self):
        with pytest.raises(InputError):
            compile_wfo(parse_wfo("prod x. (Pa(y) ? 1 : 0)"), AB)

    def test_byte_identical_recompilation(self):
        phi = parse_wfo("sum y. prod x. ((x<=y ? 1 : 0))")
        one = serialize_automaton(compile_wfo(phi, AB))
        two = serialize_automaton(compile_wfo(phi, AB))
        assert one == two

    def test_empty_alphabet_rejected(self):
        with pytest.raises(InputError):
            compile_wfo(parse_wfo("zero"), frozenset())


class TestSumNormalForm:
    def test_ite_splits_into_guarded_sum(self):
        phi = parse_wfo("(exists x. Pa(x)) ? prod x. 1 : prod x. 2")
        got = rewrite_sum_normal_form(phi)
        assert isinstance(got, Plus)
        assert isinstance(got.left, WIte) and isinstance(got.left.els, Zero)
        assert isinstance(got.right, WIte) and isinstance(got.right.els, Zero)
        assert isinstance(got.right.cond, Not)

    def test_product_unchanged(self):
        phi = parse_wfo("prod x. (Pa(x) ? 1 : 0)")
        assert rewrite_sum_normal_form(phi) == phi

    def test_sum_var_rejected(self):
        with pytest.raises(InputError):
            rewrite_sum_normal_form(parse_wfo("sum y. prod x. 1"))

    def _check_shape(self, term):
        if isinstance(term, Plus):
            self._check_shape(term.left)
            self._check_shape(term.right)
            return
        if isinstance(term, (Zero, ProdX)):
            return
        assert isinstance(term, WIte)
        assert isinstance(term.els, Zero)
        assert not uses_plus(term.then) and not uses_sumx(term.then)

    def test_random_no_sum_semantics_preserved(self):
        rng = random.Random(SEED + 2)
        done = 0
        while done < 20:
            phi = random_wfo(rng, ("a", "b"), depth=3, max_sum_vars=0)
            if uses_sumx(phi):
                continue
            got = rewrite_sum_normal_form(phi)
            self._check_shape(got)
            for w in all_words(("a", "b"), 4):
                assert eval_wfo_at(got, w, vars=()) == \
                    eval_wfo_at(phi, w, vars=())
            done += 1
