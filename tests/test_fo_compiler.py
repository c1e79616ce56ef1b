import random
import re

import pytest

from reference_semantics import all_ext_words, classify, unmark
from wfoc import HypothesisError, InputError, fo_compiler
from wfoc.automata import aperiodicity_index, is_unambiguous, state_key
from wfoc.fo_compiler import (
    ClassifierDfa, compile_fo, dfa_from_nfa, minimize,
)
from wfoc.logic import parse_fo
from wfoc.logic.evaluate import eval_fo
from wfoc.logic.syntax import FoTrue, RunAtom, fo_conditions, free_vars
from wfoc.textfmt import parse_automaton, serialize_automaton
from wfoc.wa_to_wfo import scc_unambiguous_to_wfo, unambiguous_wa_to_wfo

from corpus import (
    ALL_TEXTS, FORMULAS, SEED, check_classifier, load, random_fo,
    random_fo_sentence,
)

AB = frozenset({"a", "b"})


def chain_nfa():
    # a* b from 1 to 2
    return parse_automaton("""
states: 1 2
alphabet: a b
initial: 1
final: 2
trans: 1 a 1
trans: 1 b 2
""")


def oracle_check(phi, alphabet, vars, maxlen):
    c = compile_fo(phi, alphabet, vars)
    check_classifier(c)
    assert set(map(type, c.nfa.states)) == {int}
    for n in range(0, maxlen + 1):
        for letters in all_ext_words(alphabet, vars, n):
            got = classify(c, letters)
            dec = unmark(vars, letters)
            if dec is None:
                assert got is None
            else:
                u, sigma = dec
                if n == 0 and free_vars(phi):
                    continue
                want = "F" if eval_fo(phi, u, sigma) else "G"
                assert got == want, (phi, letters, got, want)
    return c


class TestValidity:
    @pytest.mark.parametrize("vars", [(), ("x",), ("x", "y"), ("x", "y", "z")])
    def test_state_count(self, vars):
        c = compile_fo(FoTrue(), AB, vars)
        # without variables every word is valid: no sink is reachable
        assert len(c.nfa.states) == (2 ** len(vars) + 1 if vars else 1)
        check_classifier(c)
        assert False not in c.verdicts
        assert c.nfa.accepting["G"] == frozenset()

    def test_accepts_exactly_valid(self):
        c = compile_fo(FoTrue(), AB, ("x",))
        for n in range(4):
            for letters in all_ext_words(AB, ("x",), n):
                got = classify(c, letters)
                assert (got == "F") == (unmark(("x",), letters) is not None)
                assert got in ("F", None)

    @pytest.mark.parametrize("vars", [("x",), ("x", "y"), ("x", "y", "z")])
    def test_twice_marked_words_share_one_sink(self, vars, monkeypatch):
        # a state from which no word reaches F or G has some variable
        # marked twice: the table tabulated alongside validity holds at
        # most one such state before minimize sees it
        real_on_validity, real_minimize = \
            fo_compiler._on_validity, fo_compiler.minimize
        inside, tables = [], []

        def on_validity(*args):
            inside.append(True)
            try:
                return real_on_validity(*args)
            finally:
                inside.pop()

        def minimize(c):
            if inside:
                tables.append(c)
            return real_minimize(c)

        monkeypatch.setattr(fo_compiler, "_on_validity", on_validity)
        monkeypatch.setattr(fo_compiler, "minimize", minimize)
        rng = random.Random(SEED + len(vars))
        for _ in range(30):
            compile_fo(random_fo(rng, ("a", "b"), list(vars), 3), AB, vars)
        assert len(tables) > 30
        dead = [len(c.delta) - len(_live_states(c)) for c in tables]
        assert set(dead) == {1}, dead


def _live_states(c):
    """The states of a classifier table from which a word reaches F or G."""
    live = {s for s, v in enumerate(c.verdicts, 1) if v is not None}
    grew = True
    while grew:
        grew = False
        for s, row in enumerate(c.delta, 1):
            if s not in live and not live.isdisjoint(row):
                live.add(s)
                grew = True
    return live


class TestCompileFo:
    @pytest.mark.parametrize("text", FORMULAS)
    def test_matches_evaluator(self, text):
        phi = parse_fo(text)
        vars = tuple(sorted(free_vars(phi)))
        oracle_check(phi, AB, vars, 4 - len(vars))

    @pytest.mark.parametrize("text", ["Pa(x)", "exists y. x<y"])
    def test_spare_variable(self, text):
        phi = parse_fo(text)
        oracle_check(phi, AB, ("x", "z"), 3)

    def test_random_sentences(self):
        rng = random.Random(SEED)
        for _ in range(25):
            phi = random_fo_sentence(rng, ("a", "b"), depth=3)
            oracle_check(phi, AB, (), 4)

    def test_random_open_formulas(self):
        rng = random.Random(SEED + 1)
        for _ in range(15):
            phi = random_fo(rng, ("a", "b"), ["x", "y"], 2)
            vars = tuple(sorted(free_vars(phi)))
            oracle_check(phi, AB, vars, 4 - len(vars))

    def test_true_is_one_state_without_vars(self):
        c = compile_fo(parse_fo("true"), AB, ())
        assert len(c.nfa.states) == 1

    def test_exists_a_is_two_states(self):
        c = compile_fo(parse_fo("exists x. Pa(x)"), AB, ())
        assert len(c.nfa.states) == 2

    def test_empty_word_conventions(self):
        top = compile_fo(parse_fo("forall x. Pa(x)"), AB, ())
        assert classify(top, ()) == "F"
        bot = compile_fo(parse_fo("exists x. Pa(x)"), AB, ())
        assert classify(bot, ()) == "G"

    def test_missing_free_variable_rejected(self):
        with pytest.raises(InputError):
            compile_fo(parse_fo("Pa(x)"), AB, ())

    def test_shadowing_rejected(self):
        phi = parse_fo("exists x. Pa(x)")
        with pytest.raises(InputError):
            compile_fo(phi, AB, ("x",))

    def test_byte_identical_recompilation(self):
        phi = parse_fo("forall x. (Pa(x) -> exists y. (x<y & Pb(y)))")
        one = serialize_automaton(compile_fo(phi, AB, ()).nfa)
        two = serialize_automaton(compile_fo(phi, AB, ()).nfa)
        assert one == two
        assert "accepting G:" in one


class TestRunAtoms:
    def test_full_word_mode_language(self):
        wa = load("modeblocks")
        phi = RunAtom("m", wa.nfa, 1, 3, None, None)
        c = compile_fo(phi, wa.nfa.alphabet, ())
        check_classifier(c)
        pat = re.compile(r"a*b(a*b|a*c)*\Z")
        for n in range(7):
            for w in all_ext_words(wa.nfa.alphabet, (), n):
                want = "F" if pat.match("".join(w)) else "G"
                if n == 0:
                    want = "G"
                assert classify(c, w) == want

    def test_self_loop_pair_accepts_empty(self):
        nfa = chain_nfa()
        c = compile_fo(RunAtom("r", nfa, 1, 1, None, None), AB, ())
        assert classify(c, ()) == "F"
        c2 = compile_fo(RunAtom("r", nfa, 1, 2, None, None), AB, ())
        assert classify(c2, ()) == "G"

    @pytest.mark.parametrize("lo,hi", [(None, "x"), ("x", None)])
    def test_one_sided_factors(self, lo, hi):
        phi = RunAtom("r", chain_nfa(), 1, 2, lo, hi)
        oracle_check(phi, AB, ("x",), 4)

    def test_between_factor(self):
        phi = RunAtom("r", chain_nfa(), 1, 2, "x", "y")
        oracle_check(phi, AB, ("x", "y"), 3)

    def test_inside_quantifiers(self):
        nfa = chain_nfa()
        auto = {"M": nfa}
        from wfoc.logic import parse_fo as pf
        for text in [
            "exists x. (Pb(x) & run:M(1,1;<x))",
            "forall x. (Pb(x) -> run:M(1,2;<x))",
            "exists x. exists y. (x<y & run:M(1,1;x,y))",
            "exists x. run:M(1,1;>x)",
        ]:
            phi = pf(text, automata=auto)
            oracle_check(phi, AB, (), 4)

    def test_unknown_state_rejected(self):
        with pytest.raises(InputError):
            compile_fo(RunAtom("r", chain_nfa(), 1, 9, None, None), AB, ())


class TestAperiodicity:
    @pytest.mark.parametrize("text", FORMULAS)
    def test_outputs_are_aperiodic(self, text):
        phi = parse_fo(text)
        vars = tuple(sorted(free_vars(phi)))
        c = compile_fo(phi, AB, vars)
        assert aperiodicity_index(c.nfa) is not None

    def test_mode_language_classifier_aperiodic(self):
        wa = load("modeblocks")
        c = compile_fo(RunAtom("m", wa.nfa, 1, 3, None, None),
                       wa.nfa.alphabet, ())
        assert aperiodicity_index(c.nfa) is not None


class TestMinimize:
    def test_idempotent(self):
        phi = parse_fo("exists x. exists y. (x<y & Pa(x) & Pb(y))")
        c = compile_fo(phi, AB, ())
        again = minimize(c)
        assert len(again.nfa.states) == len(c.nfa.states)
        assert serialize_automaton(again.nfa) == serialize_automaton(c.nfa)

    def test_distinguishes_f_from_g(self):
        # single letter word: F for a, G for b; both accept-ish states must
        # stay separate even though both are "accepting" in plain DFA terms
        c = compile_fo(parse_fo("forall x. Pa(x)"), AB, ())
        words = [("a",), ("b",), ("a", "a"), ("a", "b")]
        got = [classify(c, w) for w in words]
        assert got == ["F", "G", "F", "G"]


class TestDfaFromNfa:
    def test_chain_language(self):
        c = dfa_from_nfa(chain_nfa())
        check_classifier(c)
        for n in range(6):
            for w in all_ext_words(AB, (), n):
                want = "F" if (w and set(w[:-1]) <= {"a"}
                               and w[-1] == "b") else "G"
                assert classify(c, w) == want

    def test_total_split(self):
        c = dfa_from_nfa(load("modeblocks").nfa)
        assert None not in c.verdicts
        assert c.nfa.final | c.nfa.accepting["G"] == c.nfa.states


class TestClassifierContract:
    """Every classifier is a minimal table, numbered breadth-first from
    state 1, that classifies like the evaluator."""

    @pytest.mark.parametrize("name", sorted(ALL_TEXTS))
    def test_corpus_run_atoms(self, name):
        nfa = load(name).nfa
        check_classifier(dfa_from_nfa(nfa))
        p = min(nfa.initial, key=state_key)
        for q in sorted(nfa.states, key=state_key):
            for lo, hi in [(None, None), ("x", None), (None, "x")]:
                phi = RunAtom(name, nfa, p, q, lo, hi)
                oracle_check(phi, nfa.alphabet, tuple(free_vars(phi)), 3)

    def test_corpus_formula_conditions(self):
        conds = []
        for name in sorted(ALL_TEXTS):
            wa = load(name)
            try:
                phi = (unambiguous_wa_to_wfo(wa) if is_unambiguous(wa)
                       else scc_unambiguous_to_wfo(wa))
            except HypothesisError:         # too ambiguous to translate
                continue
            conds += [(cond, wa.nfa.alphabet) for cond in fo_conditions(phi)]
        assert len(conds) > 20
        for cond, alphabet in conds:
            oracle_check(cond, alphabet, tuple(sorted(free_vars(cond))), 3)

    def test_seeded_random_formulas(self):
        rng = random.Random(SEED + 2)
        for _ in range(30):
            phi = random_fo(rng, ("a", "b"), ["x", "y"], 3)
            vars = tuple(sorted(free_vars(phi)))
            oracle_check(phi, AB, vars, 4 - len(vars))
