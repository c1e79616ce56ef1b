"""The one-table printer against the recursive printers it replaced
(`reference_printer`): the same text on seeded formulas of every layer
with run atoms, on `tologic` outputs, string state names in their headers
included, and on the bench inputs; the same errors; and any depth at the
default recursion limit.  `test_parser.py` checks the parser's corpus."""

import os
import random
import sys

import pytest

from corpus import ALL_TEXTS, SEED
from reference_printer import (
    REFERENCE_PRINTERS, reference_serialize_formula_file,
)
from wfoc import InputError, Nfa, parse_automaton
from wfoc.logic import (
    And, Const, EqVar, Exists, Forall, FoTrue, Implies, LetterAt, Leq, Lt,
    Not, Or, Plus, ProdX, RunAtom, StepIte, SumX, WIte, Zero, format_fo,
    format_step, format_wfo, parse_formula_file, serialize_formula_file,
)
from wfoc.logic.syntax import nodes
from wfoc.wa_to_wfo import ATOM_NAME, wa_to_wfo

AB = ("a", "b")
INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                      "inputs")
PRINTERS = {"fo": format_fo, "step": format_step, "wfo": format_wfo}

# two chain copies with string state names, as the CI writes them
CHAINS = """alphabet: a b
states: p1 p2 p3 q1 q2 q3
initial: p1 q1
final: p3 q3
trans: p1 a p2 1
trans: p2 a p3 2
trans: p1 b p1 0
trans: p2 b p2 1
trans: p3 b p3 3
trans: q1 a q2 2
trans: q2 a q3 0
trans: q1 b q1 1
trans: q2 b q2 3
trans: q3 b q3 1
"""


def assert_same_text(phi, kind, automata=None):
    """Both printers, and both serializers, give one text."""
    assert PRINTERS[kind](phi) == REFERENCE_PRINTERS[kind](phi)
    assert serialize_formula_file(phi, kind, automata) \
        == reference_serialize_formula_file(phi, kind, automata)


# -- seeded formulas with run atoms ----------------------------------------

# run atoms over int, string and tuple state names: the headers rename
# each to 1..n, out of their order of appearance
M = Nfa({3, 1, 2}, AB, {(1, "a", 2), (2, "b", 3), (3, "a", 1)}, {1}, {3})
S = Nfa({"q2", "p10", "p9"}, AB, {("p9", "a", "q2"), ("q2", "b", "p10")},
        {"p9"}, {"p10"})
T = Nfa({(0, 1), (1, 0)}, AB, {((0, 1), "b", (1, 0))}, {(0, 1)}, {(1, 0)})
VARS = ("x", "y", "x'", "y1")


def gen_fo(rng, depth):
    kind = rng.randrange(9 if depth > 0 else 5)
    if kind == 0:
        return FoTrue()
    if kind == 1:
        return LetterAt(rng.choice("ab"), rng.choice(VARS))
    if kind == 2:
        return rng.choice([Leq, Lt, EqVar])(rng.choice(VARS),
                                            rng.choice(VARS))
    if kind in (3, 4):
        name, nfa = rng.choice([("A", M), ("B1", S), ("C", T)])
        p, q = (rng.choice(nfa.order) for _ in "pq")
        lo, hi = (rng.choice((None,) + VARS) for _ in "lh")
        return RunAtom(name, nfa, p, q, lo, hi, lo is not None)
    if kind == 5:
        return Not(gen_fo(rng, depth - 1))
    if kind in (6, 7):
        return rng.choice([And, Or, Implies])(gen_fo(rng, depth - 1),
                                              gen_fo(rng, depth - 1))
    return rng.choice([Forall, Exists])(rng.choice(VARS),
                                        gen_fo(rng, depth - 1))


def gen_step(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        return Const(rng.choice([0, 3, -2, 12]))
    return StepIte(gen_fo(rng, 2), gen_step(rng, depth - 1),
                   gen_step(rng, depth - 1))


def gen_wfo(rng, depth):
    kind = rng.randrange(6 if depth > 0 else 2)
    if kind == 0:
        return Zero()
    if kind == 1:
        return ProdX(rng.choice(VARS), gen_step(rng, 3))
    if kind == 2:
        return WIte(gen_fo(rng, 2), gen_wfo(rng, depth - 1),
                    gen_wfo(rng, depth - 1))
    if kind in (3, 4):
        return Plus(gen_wfo(rng, depth - 1), gen_wfo(rng, depth - 1))
    return SumX(rng.choice(VARS), gen_wfo(rng, depth - 1))


GENERATORS = {"fo": gen_fo, "step": gen_step, "wfo": gen_wfo}


@pytest.mark.parametrize("kind", ["fo", "step", "wfo"])
def test_same_text_on_seeded_formulas_with_run_atoms(kind):
    rng = random.Random(SEED)
    kinds, atoms = set(), 0
    for _ in range(3000):
        phi = GENERATORS[kind](rng, 4)
        assert_same_text(phi, kind)
        kinds.update(type(n) for n in nodes(phi))
        atoms += sum(type(n) is RunAtom for n in nodes(phi))
    assert atoms > 1000
    if kind == "wfo":
        assert kinds == {FoTrue, LetterAt, Leq, Lt, EqVar, Not, And, Or,
                         Implies, Forall, Exists, RunAtom, Const, StepIte,
                         Zero, ProdX, WIte, Plus, SumX}


# -- tologic outputs and the bench inputs ----------------------------------

def _tologic(text):
    """The tologic sentences of an automaton, in each translation that
    takes it."""
    wa = parse_automaton(text)
    out = []
    for mode in ("unambiguous", "scc"):
        try:
            out.append((wa_to_wfo(wa, mode), {ATOM_NAME: wa.nfa}))
        except InputError:
            pass
    return out


def _chains(k, n):
    """k state-disjoint copies of chain-n over {a, b}, int states."""
    lines = ["alphabet: a b",
             "states: " + " ".join(map(str, range(1, k * n + 1))),
             "initial: " + " ".join(str(c * n + 1) for c in range(k)),
             "final: " + " ".join(str(c * n + n) for c in range(k))]
    for s in range(1, k * n + 1):
        if s % n:
            lines.append("trans: %d a %d %d" % (s, s + 1, s % 4))
        lines.append("trans: %d b %d %d" % (s, s, s * 7 % 4))
    return "\n".join(lines) + "\n"


def test_same_text_on_tologic_outputs():
    texts = dict(ALL_TEXTS, chains=CHAINS, chain=CHAINS.replace(
        "initial: p1 q1\nfinal: p3 q3", "initial: p1\nfinal: p3"),
        chain30=_chains(1, 30), union3x6=_chains(3, 6))
    written = 0
    for name in sorted(texts):
        for phi, automata in _tologic(texts[name]):
            assert_same_text(phi, "wfo", automata)
            # and read back: the parser's tree, its headers renamed
            back = parse_formula_file(
                serialize_formula_file(phi, "wfo", automata), "wfo")
            assert_same_text(back.formula, "wfo", back.automata)
            written += 1
    assert written > len(ALL_TEXTS)
    # the string names of the headers' states are written as 1..n
    phi, automata = _tologic(CHAINS)[0]
    chains = serialize_formula_file(phi, "wfo", automata)
    assert "run:A(1," in chains and "run:A(p" not in chains


def test_same_text_on_the_bench_inputs():
    for name in sorted(os.listdir(INPUTS)):
        if name.endswith(".wfo"):
            with open(os.path.join(INPUTS, name), encoding="utf-8") as f:
                parsed = parse_formula_file(f.read(), "wfo")
            assert_same_text(parsed.formula, "wfo", parsed.automata)


# -- errors and depth -------------------------------------------------------

def _error(printer, *args):
    with pytest.raises((InputError, TypeError, KeyError)) as err:
        printer(*args)
    return err.type, str(err.value)


def test_same_errors():
    atom = RunAtom("A", M, 1, 2)
    cases = [
        ("fo", Zero()), ("fo", Const(1)), ("fo", None),
        ("step", Zero()), ("step", And(FoTrue(), FoTrue())),
        ("wfo", FoTrue()), ("wfo", Const(2)),
        # a node of another layer below the top
        ("fo", And(FoTrue(), Zero())), ("step", StepIte(Zero(), Const(1),
                                                        Const(2))),
        ("wfo", ProdX("x", Zero())), ("wfo", Plus(Zero(), Const(1))),
        ("wfo", WIte(atom, Zero(), ProdX("x", FoTrue()))),
        # letters the parser could not read back
        ("fo", LetterAt("a b", "x")), ("fo", LetterAt("", "x")),
        ("wfo", SumX("x", WIte(LetterAt("%", "x"), Zero(), Zero()))),
    ]
    for kind, phi in cases:
        want = _error(REFERENCE_PRINTERS[kind], phi)
        assert _error(PRINTERS[kind], phi) == want, phi
        assert want[0] is not KeyError
    assert format_fo(LetterAt(7, "x")) == "P7(x)"


def test_a_state_missing_from_the_renaming_raises():
    atom = RunAtom("A", M, 1, 3)
    assert format_fo(atom, {"A": {1: 5, 3: 6}}) == "run:A(5,6)"
    with pytest.raises(KeyError):
        format_fo(atom, {"A": {1: 5}})
    with pytest.raises(KeyError):
        format_fo(atom, {"B": {1: 5, 3: 6}})


def test_any_depth_at_the_default_recursion_limit():
    """Formulas of each layer 4,000 levels deep print under the default
    recursion limit, as the recursive printers print them under a raised
    one."""
    assert sys.getrecursionlimit() <= 1000
    depth = 4000
    fo = LetterAt("a", "x")
    for i in range(depth):
        fo = [Not(fo), And(fo, Lt("x", "y")), And(Lt("x", "y"), fo),
              Or(LetterAt("b", "y"), fo), Implies(fo, LetterAt("b", "x")),
              Exists("y", fo)][i % 6]
    step = Const(1)
    for i in range(depth):
        step = StepIte(LetterAt("a", "x"), step, Const(i % 4)) if i % 2 \
            else StepIte(Lt("x", "y"), Const(2), step)
    wfo = Zero()
    for i in range(depth):
        wfo = [Plus(wfo, ProdX("x", Const(1))), SumX("y%d" % i, wfo),
               WIte(RunAtom("A", M, 1, 3), wfo, Zero()),
               Plus(ProdX("x", Const(1)), wfo),
               WIte(Leq("y", "y"), Zero(), wfo)][i % 5]
    cases = [("fo", Forall("x", fo)), ("step", step), ("wfo", wfo)]
    texts = [PRINTERS[kind](phi) for kind, phi in cases]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(40000)
    try:
        assert texts == [REFERENCE_PRINTERS[kind](phi)
                         for kind, phi in cases]
    finally:
        sys.setrecursionlimit(limit)
