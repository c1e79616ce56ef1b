"""Splitting finitely ambiguous automata into unambiguous slices."""

import random
import re
import sys
from math import comb

import pytest

import wfoc.automata
import wfoc.decompose
from reference_semantics import (
    accepts, classify, count_runs, enumerate_runs, multiset_sum, words_upto,
)
from tests.corpus import ALL_TEXTS, SEED, check_classifier, load, nested_union
from wfoc.automata import (
    FINITELY, Nfa, WeightedAutomaton, abstract_semantics, aperiodicity_index,
    classify_ambiguity, is_unambiguous, reachable_states, restrict,
    state_key, trim,
)
from wfoc.decompose import (
    _exact_slice, _weigh_run, build_a_geq_k, decompose,
    decompose_with_trackers, ensure_single_initial,
)
from wfoc.errors import HypothesisError, InputError
from wfoc.fo_compiler import _swap, dfa_from_nfa
from wfoc.multiset import SeqMultiset
from wfoc.textfmt import serialize_automaton

CORPUS = sorted(ALL_TEXTS)
MULTI_INITIAL = [n for n in CORPUS if len(load(n).nfa.initial) > 1]


def sorted_runs(wa, word):
    """Accepting runs ordered the way the k-run tracker orders them."""
    nfa = wa.nfa
    runs = [r for i in nfa.initial for f in nfa.final
            for r in enumerate_runs(wa, i, f, word)]
    runs.sort(key=lambda r: [state_key(s)
                             for s in [r.start] + [t[2] for t in r.trans]])
    return runs


def union_sem(parts, word):
    return multiset_sum(abstract_semantics(p, word) for p in parts)


def build_a_leq_k(a, k):
    """Minimal complete DFA for the words with at most k accepting runs:
    the complement of the at-least-(k + 1) language, F holding the
    accepted words and G the rest."""
    return _swap(dfa_from_nfa(build_a_geq_k(a, k + 1)))


def build_a_k_ell(a, k, ell):
    """Unambiguous automaton for the ell-th run weight, in lexicographic
    order, on words carrying exactly k accepting runs; empty elsewhere."""
    norm = ensure_single_initial(a)
    geq_k = build_a_geq_k(norm.nfa, k)
    joint = _exact_slice(geq_k, build_a_geq_k(norm.nfa, k + 1))
    return _weigh_run(norm, geq_k, joint, ell)


def witness_in(err):
    found = re.search(r"'([a-z]*)'", str(err))
    assert found, "no witness word in %r" % str(err)
    return found.group(1)


class TestEnsureSingleInitial:
    def test_single_initial_untouched(self):
        tri = load("triplerun")
        assert ensure_single_initial(tri) is tri

    @pytest.mark.parametrize("name", MULTI_INITIAL)
    def test_normalized_has_one_start(self, name):
        norm = ensure_single_initial(load(name))
        assert len(norm.nfa.initial) == 1

    @pytest.mark.parametrize("name", MULTI_INITIAL)
    def test_run_multisets_preserved(self, name):
        wa = load(name)
        norm = ensure_single_initial(wa)
        for w in words_upto(wa.nfa.alphabet, 5):
            assert abstract_semantics(norm, w) == abstract_semantics(wa, w)

    def test_empty_word_membership_preserved(self):
        bm = load("blockmax")
        norm = ensure_single_initial(bm)
        assert accepts(norm.nfa, ()) == accepts(bm.nfa, ()) is True


class TestBuildAGeqK:
    def test_three_run_tracker_on_aaabb(self):
        # tracker states hold positions: triplerun's states 1..6 are at
        # positions 0..5
        geq = build_a_geq_k(load("triplerun").nfa, 3)
        start = (0, 0, 0, 0, 0)
        runs = [r for f in geq.final
                for r in enumerate_runs(geq, start, f, tuple("aaabb"))]
        assert len(runs) == 1
        seq = [runs[0].start] + [t[2] for t in runs[0].trans]
        assert seq == [(0, 0, 0, 0, 0), (0, 0, 1, 0, 1), (1, 2, 3, 1, 1),
                       (4, 4, 5, 1, 1), (5, 5, 5, 1, 1), (5, 5, 5, 1, 1)]

    def test_three_run_language(self):
        geq = build_a_geq_k(load("triplerun").nfa, 3)
        want = {tuple("a" * m + "b" * p)
                for m in range(3, 8) for p in range(1, 9 - m)}
        assert {w for w in words_upto(geq.alphabet, 8)
                if accepts(geq, w)} == want

    @pytest.mark.parametrize("name", ["triplerun", "blockmax"])
    def test_k1_accessible_part_is_the_automaton(self, name):
        base = ensure_single_initial(load(name).nfa)
        geq = build_a_geq_k(base, 1)
        acc = restrict(base, reachable_states(base))[0]
        pos = base.pos
        assert geq.states == {(pos[q],) for q in acc.states}
        assert set(geq.transitions) == {((pos[p],), a, (pos[q],))
                                        for (p, a, q) in acc.transitions}
        assert geq.initial == {(pos[q],) for q in acc.initial}
        assert geq.final == {(pos[q],) for q in acc.final}

    @pytest.mark.parametrize("name", CORPUS)
    @pytest.mark.parametrize("k", [2, 3])
    def test_run_counts_are_binomial(self, name, k):
        base = ensure_single_initial(load(name).nfa)
        geq = build_a_geq_k(base, k)
        for w in words_upto(base.alphabet, 7):
            want = comb(count_runs(base, w), k)
            assert count_runs(geq, w) == want

    @pytest.mark.parametrize("name", CORPUS)
    def test_index_bound(self, name):
        base = ensure_single_initial(load(name).nfa)
        m = aperiodicity_index(base)
        for k in (1, 2, 3):
            idx = aperiodicity_index(build_a_geq_k(base, k))
            assert idx is not None and idx <= k * (m + 1)

    def test_rejects_zero(self):
        with pytest.raises(InputError):
            build_a_geq_k(load("triplerun").nfa, 0)


class TestBuildALeqK:
    def test_unambiguous_input_accepts_everything(self):
        leq = build_a_leq_k(load("modeblocks").nfa, 1)
        assert all(classify(leq, w) == "F"
                   for w in words_upto(load("modeblocks").nfa.alphabet, 6))

    def test_matching_bound_accepts_everything(self):
        leq = build_a_leq_k(load("triplerun").nfa, 3)
        assert all(classify(leq, w) == "F" for w in words_upto({"a", "b"}, 6))

    def test_tight_bound_rejects_the_three_run_words(self):
        leq = build_a_leq_k(load("triplerun").nfa, 2)
        rejected = {w for w in words_upto({"a", "b"}, 8)
                    if classify(leq, w) != "F"}
        assert rejected == {tuple("a" * m + "b" * p)
                            for m in range(3, 8) for p in range(1, 9 - m)}
        assert all(classify(leq, w) == "G" for w in rejected)

    def test_deterministic_complete(self):
        check_classifier(build_a_leq_k(load("triplerun").nfa, 2))

    @pytest.mark.parametrize("name", CORPUS)
    def test_stays_aperiodic(self, name):
        leq = build_a_leq_k(load(name).nfa, 2)
        assert aperiodicity_index(leq.nfa) is not None


class TestBuildAKEll:
    def test_middle_run_weights_on_aaab(self):
        # runs on aaab in state order: 1 1 2 5 6, then 1 1 3 5 6, then
        # 1 2 4 6 6; the slice automata pick their weights apart
        tri = load("triplerun")
        picks = {1: (2, 2, 3, 3), 2: (2, 1, 5, 3), 3: (2, 1, 4, 3)}
        for ell, weights in picks.items():
            got = abstract_semantics(build_a_k_ell(tri, 3, ell), "aaab")
            assert dict(got.items()) == {weights: 1}

    def test_empty_off_the_exact_count(self):
        tri = load("triplerun")
        assert count_runs(tri, "aaa") == 1
        assert not abstract_semantics(build_a_k_ell(tri, 3, 2), "aaa")

    @pytest.mark.parametrize("name,k", [
        ("triplerun", 1), ("triplerun", 2), ("triplerun", 3),
        ("blockmax", 2), ("fibonacci", 2),
    ])
    def test_picks_the_sorted_run(self, name, k):
        wa = load(name)
        norm = ensure_single_initial(wa)
        for ell in range(1, k + 1):
            akl = build_a_k_ell(wa, k, ell)
            for w in words_upto(wa.nfa.alphabet, 5):
                runs = sorted_runs(norm, w)
                if len(runs) == k:
                    picked = runs[ell - 1].weights(norm)
                    want = SeqMultiset([picked])
                else:
                    want = SeqMultiset()
                assert abstract_semantics(akl, w) == want

    @pytest.mark.parametrize("name", CORPUS)
    def test_unambiguous(self, name):
        wa = load(name)
        for ell in (1, 2):
            assert is_unambiguous(build_a_k_ell(wa, 2, ell))

    def test_stays_aperiodic(self):
        akl = build_a_k_ell(load("triplerun"), 3, 2)
        assert aperiodicity_index(akl) is not None

    def test_disjoint_supports_across_counts(self):
        tri = load("triplerun")
        slices = [build_a_k_ell(tri, k, 1) for k in (1, 2, 3)]
        langs = [{w for w in words_upto(tri.nfa.alphabet, 7) if accepts(b, w)}
                 for b in slices]
        assert langs[0] and langs[1] and langs[2]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not langs[i] & langs[j]


class TestDecompose:
    def test_three_certified_slices(self):
        parts = decompose(load("triplerun"), 3)
        assert len(parts) == 3
        for b in parts:
            assert is_unambiguous(b)
            assert aperiodicity_index(b) is not None

    def test_union_identity(self):
        tri = load("triplerun")
        parts = decompose(tri, 3)
        for w in words_upto({"a", "b"}, 8):
            assert union_sem(parts, w) == abstract_semantics(tri, w)

    def test_bound_is_detected(self):
        assert len(decompose(load("triplerun"))) == 3

    def test_unambiguous_input_decomposes_to_itself(self):
        mode = load("modeblocks")
        (b1,) = decompose(mode)
        assert is_unambiguous(b1)
        for w in words_upto(mode.nfa.alphabet, 6):
            assert abstract_semantics(b1, w) == abstract_semantics(mode, w)

    def test_oversized_bound_adds_empty_slices(self):
        tri = load("triplerun")
        parts = decompose(tri, 4)
        assert len(parts) == 4
        assert not trim(parts[3]).nfa.states
        for w in words_upto({"a", "b"}, 5):
            assert union_sem(parts, w) == abstract_semantics(tri, w)

    def test_too_small_bound_refused_with_witness(self):
        tri = load("triplerun")
        with pytest.raises(HypothesisError) as err:
            decompose(tri, 2)
        assert count_runs(tri, witness_in(err.value)) >= 3

    def test_unbounded_ambiguity_refused_with_witness(self):
        mg = load("mingap")
        with pytest.raises(HypothesisError) as err:
            decompose(mg)
        word = witness_in(err.value)
        assert count_runs(mg, word) > len(trim(mg.nfa).states)

    def test_empty_support_decomposes_to_nothing(self):
        dead = WeightedAutomaton(
            Nfa({1}, {"a"}, {(1, "a", 1)}, {1}, set()), {(1, "a", 1): 0})
        assert decompose(dead) == []
        assert decompose(dead, 0) == []

    def test_negative_bound_rejected(self):
        with pytest.raises(InputError):
            decompose(load("triplerun"), -1)


def reference_slice(geq_k, geq_next):
    """The exactly-k slice as first written: the product over every pair of
    a complement DFA state and a tracker state, then trimmed; a pair names
    the tracker state by its position."""
    dfa = _swap(dfa_from_nfa(geq_next)).nfa
    pos = geq_k.pos
    trans = {((p, pos[q]), l, (p2, pos[q2])) for (p, l, p2) in dfa.transitions
             for (q, l2, q2) in geq_k.transitions if l == l2}
    return trim(Nfa({(p, pos[q]) for p in dfa.states for q in geq_k.states},
                    dfa.alphabet, trans,
                    {(p, pos[q]) for p in dfa.initial for q in geq_k.initial},
                    {(p, pos[q]) for p in dfa.final for q in geq_k.final}))


DECOMPOSABLE = ["countminmax", "expsum", "modeblocks", "triplerun"]


def test_decomposable_names_are_the_corpus_ones():
    got = []
    for name in CORPUS:
        try:
            decompose(load(name))
        except HypothesisError:
            continue
        got.append(name)
    assert got == DECOMPOSABLE


@pytest.mark.parametrize("name", DECOMPOSABLE)
def test_exact_slices_equal_full_product_then_trim(name):
    # one more slice than detected, so an empty slice is covered too
    k = len(decompose(load(name)))
    _, geqs, _ = decompose_with_trackers(load(name), k + 1)
    for j in range(1, k + 2):
        assert _exact_slice(geqs[j - 1], geqs[j]) == \
            reference_slice(geqs[j - 1], geqs[j])


# -- the parts as they were built beside the one builder ---------------------
#
# Each slice as the full product of the complement classifier's Nfa with the
# tracker, then trimmed, and each union named by nested copies of its
# inputs' names.  The parts `decompose` builds through `reachable_nfa` alone
# must serialize to the same bytes.


def reference_parts(a, k):
    norm = ensure_single_initial(a)
    geqs = [build_a_geq_k(norm.nfa, j) for j in range(1, k + 2)]
    out = []
    for j in range(1, k + 1):
        joint = reference_slice(geqs[j - 1], geqs[j])
        for ell in range(1, j):
            out[ell - 1] = nested_union(
                out[ell - 1], _weigh_run(norm, geqs[j - 1], joint, ell))
        out.append(_weigh_run(norm, geqs[j - 1], joint, j))
    return out


def mixed_chain_union(rng):
    """k state-disjoint chain-n copies with a b loop on every state and
    weights in 0..3; even copies name their states by ints, odd ones by
    strings."""
    k, n = rng.randint(2, 3), rng.randint(2, 5)
    names = [[c * n + i if c % 2 == 0 else "c%di%d" % (c, i)
              for i in range(1, n + 1)] for c in range(k)]
    trans = {(copy[i], "a", copy[i + 1]) for copy in names
             for i in range(n - 1)}
    trans |= {(s, "b", s) for copy in names for s in copy}
    nfa = Nfa([s for copy in names for s in copy], "ab", trans,
              {copy[0] for copy in names}, {copy[-1] for copy in names})
    return WeightedAutomaton(nfa, {t: rng.randint(0, 3) for t in trans})


def random_finitely_ambiguous(rng):
    """A seeded random automaton over {a, b} with 2 to 6 states named by
    ints and strings that classifies as finitely ambiguous."""
    while True:
        states = rng.sample([1, 2, 3, 4, 5, "p", "q", "r"], rng.randint(2, 6))
        trans = {(s, a, d) for s in states for a in "ab" for d in states
                 if rng.random() < 0.3}
        nfa = Nfa(states, "ab", trans,
                  rng.sample(states, rng.randint(1, 2)),
                  rng.sample(states, rng.randint(1, 2)))
        if classify_ambiguity(nfa) == FINITELY:
            return WeightedAutomaton(nfa, {t: rng.randint(0, 3)
                                           for t in trans})


def decompose_cases():
    rng = random.Random(SEED + 23)
    cases = [(name, load(name)) for name in DECOMPOSABLE]
    cases += [("chains-%d" % i, mixed_chain_union(rng)) for i in range(12)]
    cases += [("random-%d" % i, random_finitely_ambiguous(rng))
              for i in range(100)]
    return cases


DECOMPOSE_CASES = decompose_cases()


@pytest.mark.parametrize("name,wa", DECOMPOSE_CASES,
                         ids=[c[0] for c in DECOMPOSE_CASES])
def test_parts_match_reference_constructions(name, wa):
    parts = decompose(wa)
    assert [serialize_automaton(p) for p in parts] == \
        [serialize_automaton(p) for p in reference_parts(wa, len(parts))]


def test_reference_cases_reach_several_parts():
    # the unions are exercised: several cases split into 3 or more parts
    counts = [len(decompose(wa)) for _, wa in DECOMPOSE_CASES]
    assert sum(k >= 3 for k in counts) >= 5
    assert min(counts) >= 1


# -- K from the trackers ------------------------------------------------------


def brute_degree(wa, maxlen=7):
    """The most accepting runs of a non-empty word of length at most
    maxlen."""
    return max(count_runs(wa, w)
               for w in words_upto(wa.nfa.alphabet, maxlen))


@pytest.mark.parametrize("name,wa", DECOMPOSE_CASES,
                         ids=[c[0] for c in DECOMPOSE_CASES])
def test_detected_bound_is_the_degree(name, wa):
    parts, geqs, norm = decompose_with_trackers(wa)
    k = brute_degree(wa)
    assert len(parts) == k and len(geqs) == k + 1
    assert norm == ensure_single_initial(wa)
    given_parts, given_geqs, _ = decompose_with_trackers(wa, k)
    assert list(map(serialize_automaton, parts)) == \
        list(map(serialize_automaton, given_parts))
    assert list(map(serialize_automaton, geqs)) == \
        list(map(serialize_automaton, given_geqs))


def test_detection_runs_no_witness_search(monkeypatch):
    # a detected decomposition counts runs with its trackers alone
    def refuse(*args):
        raise AssertionError("witness search on a decomposable input")

    monkeypatch.setattr(wfoc.decompose, "runs_witness", refuse)
    for name, wa in DECOMPOSE_CASES:
        parts, geqs, _ = decompose_with_trackers(wa)
        assert parts and len(geqs) == len(parts) + 1, name


# -- trackers and slices are named by positions -------------------------------


def test_trackers_and_slices_sort_no_state_through_state_key(monkeypatch):
    # three chain-15 copies, so K = 3: a tracker state is k positions and
    # k - 1 order bits, a slice state (classifier state, tracker position),
    # and both are flat int tuples, sorted without a key; only the mixed
    # names of the single-initial normal form go through state_key
    trans = {(15 * c + i, "a", 15 * c + i + 1)
             for c in range(3) for i in range(1, 15)}
    trans |= {(s, "b", s) for s in range(1, 46)}
    wa = WeightedAutomaton(Nfa(range(1, 46), "ab", trans, {1, 16, 31},
                               {15, 30, 45}), dict.fromkeys(trans, 1))
    calls = []
    fill = Nfa._set.__code__

    def counted(s):
        if sys._getframe(1).f_code is fill:
            calls.append(s)
        return state_key(s)

    monkeypatch.setattr(wfoc.automata, "state_key", counted)
    norm = ensure_single_initial(wa)
    assert len(calls) == len(norm.nfa.states) == 52
    del calls[:]
    parts, geqs, _ = decompose_with_trackers(norm, 3)
    assert len(parts) == 3 and len(geqs) == 4
    assert calls == []
