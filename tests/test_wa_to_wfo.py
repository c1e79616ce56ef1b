"""Tests for translating automata back into weighted sentences."""

import re
import time

import pytest

from corpus import ALL_TEXTS, all_words, load
from scopes import dd
from reference_automata import named_components
from reference_semantics import count_runs, enumerate_runs
from wfoc import automata
from wfoc.automata import (
    Nfa, WeightedAutomaton, abstract_semantics, classify_ambiguity,
    is_scc_unambiguous, is_unambiguous,
)
from wfoc.errors import HypothesisError, InputError
from wfoc.fo_compiler import compile_fo
from wfoc.logic.evaluate import eval_fo, eval_wfo_at
from wfoc.logic.syntax import (
    ProdX, RunAtom, SumX, WIte, Zero, uses_plus, uses_sumx,
)
from wfoc.textfmt import parse_automaton
from wfoc.textfmt import serialize_automaton
from wfoc import wa_to_wfo as translation
from wfoc.wa_to_wfo import (
    enumerate_switching, transition_formula, unambiguous_to_wfo, wa_to_wfo,
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
            wa_to_wfo(parity_automaton(), "unambiguous")


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
        phi = wa_to_wfo(load("modeblocks"), "unambiguous", name="M")
        assert not uses_plus(phi)
        assert not uses_sumx(phi)

    def test_nested_ite_over_pairs(self):
        phi = wa_to_wfo(load("modeblocks"), "unambiguous", name="M")
        assert isinstance(phi, WIte) and isinstance(phi.els, WIte)
        assert isinstance(phi.els.els, Zero)

    def test_semantics(self):
        mode = load("modeblocks")
        phi = wa_to_wfo(mode, "unambiguous", name="M")
        for w in all_words(("a", "b", "c"), 4):
            assert eval_wfo_at(phi, w) == abstract_semantics(mode, w)

    def test_compiles_to_unambiguous(self):
        mode = load("modeblocks")
        phi = wa_to_wfo(mode, "unambiguous", name="M")
        b = compile_wfo(phi, ("a", "b", "c"))
        assert is_unambiguous(b.nfa)
        for w in all_words(("a", "b", "c"), 5):
            assert abstract_semantics(b, w) == abstract_semantics(mode, w)

    def test_single_pair_collapses(self):
        nfa = Nfa({1, 2}, ("a", "b"), {(1, "a", 1), (1, "b", 2)}, {1}, {2})
        a = WeightedAutomaton(nfa, {(1, "a", 1): 4, (1, "b", 2): 7})
        phi = wa_to_wfo(a, "unambiguous")
        assert isinstance(phi, WIte) and isinstance(phi.els, Zero)
        assert dict(eval_wfo_at(phi, ("a", "b")).items()) == {(4, 7): 1}

    def test_ambiguous_refused_with_witness(self):
        fib = load("fibonacci")
        with pytest.raises(HypothesisError) as err:
            wa_to_wfo(fib, "unambiguous")
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
        comp = named_components(tri)[1]
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
        phi = wa_to_wfo(load("switchpoints"), "scc")
        got = eval_wfo_at(phi, ("a", "a", "b", "a", "b"))
        assert dict(got.items()) == {(1, 5, 3, 5, 1): 1}

    def test_switchpoints_shape(self):
        phi = wa_to_wfo(load("switchpoints"), "scc")
        assert isinstance(phi, SumX) and isinstance(phi.body, SumX)
        assert isinstance(phi.body.body, WIte)
        assert phi.var == "y1" and phi.body.var == "y2"

    def test_cardinality_counts_accepting_runs(self):
        sw = load("switchpoints")
        phi = wa_to_wfo(sw, "scc")
        for w in all_words(("a", "b"), 6):
            got = eval_wfo_at(phi, w)
            assert sum(n for _, n in got.items()) == count_runs(sw, w)

    @pytest.mark.parametrize("name", sorted(
        n for n in ALL_TEXTS if n not in ("blockmax", "fibonacci")))
    def test_round_trip(self, name):
        a = load(name)
        phi = wa_to_wfo(a, "scc")
        b = compile_wfo(phi, tuple(sorted(a.nfa.alphabet)))
        assert classify_ambiguity(b) != "exponentially"
        for w in all_words(tuple(sorted(a.nfa.alphabet)), 6):
            assert abstract_semantics(b, w) == abstract_semantics(a, w)

    def test_scc_ambiguous_refused_with_witness(self):
        blk = load("blockmax")
        with pytest.raises(HypothesisError) as err:
            wa_to_wfo(blk, "scc")
        w = witness_in(err.value)
        assert not is_scc_unambiguous(blk.nfa)
        assert any(len(enumerate_runs(blk, p, p, w)) >= 2
                   for p in blk.nfa.states)

    def test_not_aperiodic(self):
        with pytest.raises(HypothesisError):
            wa_to_wfo(parity_automaton(), "scc")


# every refusal of the corpus, word for word: the witness is the first
# shortest one in letter order, whichever mode spells the search
REFUSALS = [
    ("blockmax", "unambiguous",
     "not unambiguous: 'c' has two accepting runs"),
    ("blockmax", "scc",
     "not SCC-unambiguous: 'cc' has two runs inside one component"),
    ("countminmax", "unambiguous",
     "not unambiguous: 'a' has two accepting runs"),
    ("expsum", "unambiguous",
     "not unambiguous: 'a' has two accepting runs"),
    ("fibonacci", "unambiguous",
     "not unambiguous: 'aaa' has two accepting runs"),
    ("fibonacci", "scc",
     "not SCC-unambiguous: 'aa' has two runs inside one component"),
    ("linearcount", "unambiguous",
     "not unambiguous: 'aa' has two accepting runs"),
    ("mingap", "unambiguous",
     "not unambiguous: 'bbb' has two accepting runs"),
    ("splitmax", "unambiguous",
     "not unambiguous: 'a' has two accepting runs"),
    ("splitmin", "unambiguous",
     "not unambiguous: 'a' has two accepting runs"),
    ("switchpoints", "unambiguous",
     "not unambiguous: 'aaab' has two accepting runs"),
    ("triplerun", "unambiguous",
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
     lambda a: wa_to_wfo(a, "unambiguous"),
     "not unambiguous: 'a[01]a[01]' has two accepting runs"),
    ("alphabet: a[01] a[10]\nstates: 1 2\ninitial: 1\nfinal: 1\n"
     "trans: 1 a[10] 1 1\ntrans: 1 a[10] 2 1\ntrans: 2 a[10] 1 1\n",
     lambda a: wa_to_wfo(a, "scc"),
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
            for mode in ("unambiguous", "scc"):
                try:
                    wa_to_wfo(load(name), mode)
                except HypothesisError:
                    got.add((name, mode))
        assert got == {(name, mode) for name, mode, _ in REFUSALS}

    @pytest.mark.parametrize("name,mode,text", REFUSALS,
                             ids=["%s-%s" % (n, m[:3])
                                  for n, m, _ in REFUSALS])
    def test_text(self, name, mode, text):
        with pytest.raises(HypothesisError) as err:
            wa_to_wfo(load(name), mode)
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
    # component view kept on the automaton
    calls = []
    real = automata.Components
    monkeypatch.setattr(automata, "Components",
                        lambda *parts: calls.append(parts) or real(*parts))
    wa = chain_union(k, n)
    phi = wa_to_wfo(wa, "scc")
    assert uses_sumx(phi)
    assert wa_to_wfo(wa, "scc") == phi
    assert len(calls) == 1


def _outcome(wa, mode):
    """The sentence, or the refusal's text."""
    try:
        return wa_to_wfo(wa, mode)
    except HypothesisError as err:
        return str(err)


@pytest.mark.parametrize("name", sorted(ALL_TEXTS) + ["parity"])
def test_auto_takes_the_branch_the_hypotheses_pick(name):
    # the unambiguous translation exactly when the automaton is
    # unambiguous, with the same sentence or the same refusal
    wa = parity_automaton() if name == "parity" else load(name)
    chosen = "unambiguous" if is_unambiguous(wa) else "scc"
    assert _outcome(wa, "auto") == _outcome(wa, chosen)


@pytest.mark.parametrize("mode", ["", "finite", "Auto", None])
def test_unknown_mode_is_bad_input(mode):
    with pytest.raises(InputError) as err:
        wa_to_wfo(load("modeblocks"), mode)
    assert not isinstance(err.value, HypothesisError)
    assert str(err.value) == "unknown mode %r" % (mode,)


@pytest.mark.parametrize("name", sorted(ALL_TEXTS) + ["parity"])
@pytest.mark.parametrize("mode", ["auto", "unambiguous", "scc"])
def test_each_hypothesis_is_checked_at_most_once(monkeypatch, name, mode):
    # the witness searches, counted wherever the translation looks them up
    calls = {}
    for search in ("aperiodicity_witness", "unambiguity_witness",
                   "scc_ambiguity_witness"):
        real = getattr(automata, search)

        def counting(a, search=search, real=real):
            calls[search] = calls.get(search, 0) + 1
            return real(a)

        monkeypatch.setattr(automata, search, counting)
        monkeypatch.setattr(translation, search, counting)
    wa = parity_automaton() if name == "parity" else load(name)
    _outcome(wa, mode)
    assert calls["aperiodicity_witness"] == 1
    assert max(calls.values()) == 1
    assert ("unambiguity_witness" in calls) == (
        name != "parity" and mode != "scc")


def test_tologic_auto_checks_each_hypothesis_once(tmp_path, monkeypatch,
                                                  capsys):
    # one square-product search and one monoid closure per component of
    # two or more states on an unambiguous input: none for a chain, whose
    # components are single states, and one for modeblocks' {1, 2}
    from wfoc.cli import main
    search, closure = automata.ambiguity_witness, automata.transition_monoid
    for wa, multi in ((chain_union(1, 10), []), (load("modeblocks"), [0b11])):
        assert is_unambiguous(wa)
        searches, closures = [], []
        monkeypatch.setattr(automata, "ambiguity_witness",
                            lambda *args, **kw: searches.append(args)
                            or search(*args, **kw))
        monkeypatch.setattr(automata, "transition_monoid",
                            lambda nfa, keep=None: closures.append(keep)
                            or closure(nfa, keep))
        path = tmp_path / "in.wa"
        path.write_text(serialize_automaton(wa))
        assert main(["tologic", "--automaton", str(path),
                     "-o", str(tmp_path / "out.wfo")]) == 0
        capsys.readouterr()
        assert (len(searches), closures) == (1, multi)


def test_dd60_closes_no_monoid_wider_than_a_component(monkeypatch):
    # every cycle of dd-60 is a self-loop: the aperiodicity check closes
    # no monoid over more positions than its largest component holds
    wa = parse_automaton(dd(60))
    largest = max(bin(mask).count("1")
                  for mask in automata.scc_decompose(wa).masks)
    closure = automata.transition_monoid

    def counted(nfa, keep=None):
        # checked before closing: the whole closure would not finish
        width = len(nfa.order) if keep is None else bin(keep).count("1")
        assert width <= largest
        return closure(nfa, keep)

    monkeypatch.setattr(automata, "transition_monoid", counted)
    started = time.process_time()
    phi = wa_to_wfo(wa)
    assert time.process_time() - started < 2.0
    assert largest == 1 and not uses_sumx(phi)
