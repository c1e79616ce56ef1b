"""Every automaton of a small scope, checked against the oracles.

A defect that needs one particular small shape (a dead component, a
state both initial and final, a self-loop on the only final state) is
found here by construction rather than by luck.  The 144 two-state
automata over {a} go through the round trip in both modes, `classify`
and `decompose`; the 2,304 two-state automata over {a, b} through the
aperiodicity witness.
"""

import time

from reference_automata import walked_witness
from scopes import every_automaton
from wfoc.automata import (
    EXPONENTIALLY, FINITELY, POLYNOMIALLY, UNAMBIGUOUS, aperiodicity_witness,
    classify_ambiguity, first_difference, underlying_nfa, weighted_union,
)
from wfoc.decompose import decompose
from wfoc.errors import HypothesisError
from wfoc.logic.parser import parse_formula_file, serialize_formula_file
from wfoc.wa_to_wfo import ATOM_NAME, wa_to_wfo
from wfoc.wfo_compiler import compile_wfo

# first_difference stops at the first length that adds nothing to the
# span of the forward vectors, so this bound is never reached
UNBOUNDED = 10 ** 9


def unary_runs(a, maxlen):
    """The number of accepting runs on a, aa, ..., a^maxlen, through the
    count of runs into each state."""
    nfa = underlying_nfa(a)
    counts, out = dict.fromkeys(nfa.initial, 1), []
    for _ in range(maxlen):
        nxt = {}
        for s, n in counts.items():
            for d in nfa.out(s, "a"):
                nxt[d] = nxt.get(d, 0) + n
        counts = nxt
        out.append(sum(n for s, n in counts.items() if s in nfa.final))
    return out


def growth(a):
    """The ambiguity class of a two-state unary automaton from its run
    counts up to length 40: a polynomial one has at most linear growth
    and a bounded one settles its largest count within 20 letters, while
    an exponential one grows at least like the golden ratio's powers."""
    runs = unary_runs(a, 40)
    if max(runs) <= 1:
        return UNAMBIGUOUS
    if max(runs) > 40 ** 2:
        return EXPONENTIALLY
    return POLYNOMIALLY if max(runs) > max(runs[:20]) else FINITELY


def round_trip(wa, mode):
    """tologic, its text, read back and compiled; None on a refusal."""
    try:
        phi = wa_to_wfo(wa, mode)
    except HypothesisError:
        return None
    text = serialize_formula_file(phi, "wfo", {ATOM_NAME: wa.nfa})
    parsed = parse_formula_file(text, "wfo")
    return compile_wfo(parsed.formula, wa.nfa.alphabet)


def test_unary_two_state_scope():
    started = time.process_time()
    scope = list(every_automaton(2, "a"))
    assert len(scope) == 144
    answered, classes = 0, set()
    for wa in scope:
        for mode in ("auto", "scc"):
            back = round_trip(wa, mode)
            if back is not None:
                answered += 1
                assert first_difference(wa, back, UNBOUNDED) is None
        kind = classify_ambiguity(wa)
        assert kind == growth(wa), wa.nfa.transitions
        classes.add(kind)
        if kind not in (UNAMBIGUOUS, FINITELY):
            continue
        parts = decompose(wa)
        for part in parts:
            assert max(unary_runs(part, 12)) <= 1
        if parts:
            union = parts[0]
            for part in parts[1:]:
                union = weighted_union(union, part)
            assert first_difference(wa, union, UNBOUNDED) is None
        else:
            assert not any(unary_runs(wa, 12))
    assert 0 < answered < 2 * len(scope)
    assert classes == {UNAMBIGUOUS, FINITELY, POLYNOMIALLY, EXPONENTIALLY}
    assert time.process_time() - started < 10.0


def test_binary_two_state_witnesses_match_the_whole_closure():
    started = time.process_time()
    refusals = 0
    for wa in every_automaton(2, "ab"):
        got = aperiodicity_witness(wa)
        assert got == walked_witness(wa), wa.nfa.transitions
        refusals += got is not None
    assert 0 < refusals < 2304
    assert time.process_time() - started < 10.0
