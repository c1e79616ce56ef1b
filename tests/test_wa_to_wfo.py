"""Tests for translating automata back into weighted sentences."""

import re

import pytest

from corpus import ALL_TEXTS, all_words, load
from reference_semantics import count_runs, enumerate_runs
from wfoc import automata
from wfoc.automata import (
    Nfa, WeightedAutomaton, abstract_semantics, classify_ambiguity,
    is_scc_unambiguous, is_unambiguous, scc_decompose,
)
from wfoc.errors import HypothesisError, InputError
from wfoc.fo_compiler import compile_fo
from wfoc.logic.evaluate import eval_fo, eval_wfo_at
from wfoc.logic.syntax import (
    ProdX, RunAtom, SumX, WIte, Zero, uses_plus, uses_sumx,
)
from wfoc.textfmt import parse_automaton
from wfoc.textfmt import serialize_automaton
from wfoc.wa_to_wfo import (
    auto_wa_to_wfo, enumerate_switching, scc_unambiguous_to_wfo,
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
        seq = run.weights(a)
        got[seq] = got.get(seq, 0) + 1
    return got


class TestLangSentence:
    """The unbounded run atom, the guard of every guarded product."""

    @pytest.mark.parametrize("p,q", [(1, 3), (2, 3), (1, 1), (3, 3)])
    def test_matches_run_existence(self, p, q):
        mode = load("modeblocks")
        phi = RunAtom("M", mode.nfa, p, q, None, None)
        for w in all_words(("a", "b", "c"), 4, minlen=0):
            want = bool(enumerate_runs(mode, p, q, w)) if w else p == q
            assert eval_fo(phi, w) == want

    def test_unknown_state(self):
        mode = load("modeblocks")
        with pytest.raises(InputError):
            compile_fo(RunAtom("M", mode.nfa, 1, 9, None, None),
                       mode.nfa.alphabet)

    def test_not_aperiodic(self):
        with pytest.raises(HypothesisError):
            unambiguous_wa_to_wfo(parity_automaton())


class TestTransitionFormula:
    def test_aab_positions(self):
        mode = load("modeblocks")
        phi = transition_formula(mode, 1, 3, (1, "a", 1), name="M")
        holds = [i for i in (1, 2, 3)
                 if eval_fo(phi, ("a", "a", "b"), {"x": i})]
        assert holds == [1, 2]

    @pytest.mark.parametrize("delta",
                             sorted(load("modeblocks").nfa.transitions))
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
        assert count_runs(fib, witness_in(err.value)) >= 2


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
            assert sum(n for _, n in got.items()) == count_runs(sw, w)

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


# marked letters are spelled as the text format writes them
MARKED_REFUSALS = [
    ("alphabet: a[01] a[10]\nstates: 1 2\ninitial: 1\nfinal: 2\n"
     "trans: 1 a[01] 1 1\ntrans: 1 a[01] 2 1\ntrans: 2 a[01] 2 1\n",
     lambda a: unambiguous_to_wfo(a, 1, 2),
     "not unambiguous from 1 to 2: 'a[01]a[01]' has two runs"),
    ("alphabet: a[01] a[10]\nstates: 1 2\ninitial: 1\nfinal: 2\n"
     "trans: 1 a[01] 1 1\ntrans: 1 a[01] 2 1\ntrans: 2 a[01] 2 1\n",
     unambiguous_wa_to_wfo,
     "not unambiguous: 'a[01]a[01]' has two accepting runs"),
    ("alphabet: a[01] a[10]\nstates: 1 2\ninitial: 1\nfinal: 1\n"
     "trans: 1 a[10] 1 1\ntrans: 1 a[10] 2 1\ntrans: 2 a[10] 1 1\n",
     scc_unambiguous_to_wfo,
     "not SCC-unambiguous: 'a[10]a[10]' has two runs inside one component"),
]


@pytest.mark.parametrize("text,translate,want", MARKED_REFUSALS,
                         ids=["pair", "unambiguous", "scc"])
def test_marked_witness_is_rendered(text, translate, want):
    with pytest.raises(HypothesisError) as err:
        translate(parse_automaton(text))
    assert str(err.value) == want


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


def chain_union(k, n):
    """k state-disjoint copies of the chain 1 -a-> 2 ... -a-> n with a b
    loop on every state: each state is its own component."""
    trans = {(c * n + i, "a", c * n + i + 1) for c in range(k)
             for i in range(1, n)}
    trans |= {(s, "b", s) for s in range(1, k * n + 1)}
    nfa = Nfa(range(1, k * n + 1), "ab", trans,
              {c * n + 1 for c in range(k)}, {c * n + n for c in range(k)})
    return WeightedAutomaton(nfa, {t: 1 for t in trans})


@pytest.mark.parametrize("k,n", [(3, 10), (4, 6)])
def test_one_scc_decomposition_per_automaton(monkeypatch, k, n):
    # every (initial, final) pair and every switching sequence reads the
    # components kept on the automaton
    calls = []
    real = automata.SccDecomposition
    monkeypatch.setattr(automata, "SccDecomposition",
                        lambda *parts: calls.append(parts) or real(*parts))
    wa = chain_union(k, n)
    phi = scc_unambiguous_to_wfo(wa)
    assert uses_sumx(phi)
    assert scc_unambiguous_to_wfo(wa) == phi
    assert len(calls) == 1


def _outcome(translate, wa):
    """The sentence, or the refusal's text."""
    try:
        return translate(wa)
    except HypothesisError as err:
        return str(err)


@pytest.mark.parametrize("name", sorted(ALL_TEXTS) + ["parity"])
def test_auto_takes_the_branch_the_hypotheses_pick(name):
    # the unambiguous translation exactly when the automaton is
    # unambiguous, with the same sentence or the same refusal
    wa = parity_automaton() if name == "parity" else load(name)
    chosen = unambiguous_wa_to_wfo if is_unambiguous(wa) \
        else scc_unambiguous_to_wfo
    assert _outcome(auto_wa_to_wfo, wa) == _outcome(chosen, wa)


def test_tologic_auto_checks_each_hypothesis_once(tmp_path, monkeypatch,
                                                  capsys):
    # one square-product search and one monoid closure on an unambiguous
    # input
    from wfoc.cli import main
    searches, closures = [], []
    search, closure = automata.ambiguity_witness, automata.transition_monoid
    monkeypatch.setattr(automata, "ambiguity_witness",
                        lambda *args, **kw: searches.append(args)
                        or search(*args, **kw))
    monkeypatch.setattr(automata, "transition_monoid",
                        lambda nfa: closures.append(nfa) or closure(nfa))
    path = tmp_path / "chain.wa"
    path.write_text(serialize_automaton(chain_union(1, 10)))
    assert main(["tologic", "--automaton", str(path),
                 "-o", str(tmp_path / "chain.wfo")]) == 0
    capsys.readouterr()
    assert (len(searches), len(closures)) == (1, 1)
