"""Shared test fixtures: the example automata, random formula generators
and reference constructions.

Each automaton is kept as text in the package's own format and parsed
through the public API, so the corpus doubles as a format test.
"""

import random

from wfoc import parse_automaton
from wfoc.automata import Nfa, WeightedAutomaton, letter_key
from wfoc.fo_compiler import minimize
from wfoc.logic import (
    And, Const, EqVar, Exists, Forall, FoTrue, Implies, LetterAt, Leq, Lt,
    Not, Or, Plus, ProdX, StepIte, SumX, WIte, Zero, freshen,
)

# four-state machine whose runs pick one switch point per letter block
SWITCHPOINTS = """
alphabet: a b
states: 1 2 3 4
initial: 1
final: 4
trans: 1 a 1 2
trans: 1 a 2 1
trans: 2 a 2 3
trans: 2 a 3 5
trans: 3 b 2 3
trans: 3 b 3 5
trans: 3 b 4 1
trans: 4 b 4 2
"""

# two modes looping on a, handing over on b/c; single accepting sink
MODEBLOCKS = """
alphabet: a b c
states: 1 2 3
initial: 1 2
final: 3
trans: 1 a 1 2
trans: 1 b 1 1
trans: 1 b 2 1
trans: 1 b 3 1
trans: 2 a 2 3
trans: 2 c 1 1
trans: 2 c 2 1
trans: 2 c 3 1
"""

# exactly three accepting runs on a^n a^3 b b^p
TRIPLERUN = """
alphabet: a b
states: 1 2 3 4 5 6
initial: 1
final: 6
trans: 1 a 1 2
trans: 1 a 2 2
trans: 1 a 3 1
trans: 2 a 4 1
trans: 2 a 5 3
trans: 3 a 5 5
trans: 4 a 6 4
trans: 5 b 6 3
trans: 6 b 6 3
"""

# run count on a^n is the n-th Fibonacci number
FIBONACCI = """
alphabet: a
states: 1 2
initial: 1
final: 2
trans: 1 a 1 1
trans: 1 a 2 1
trans: 2 a 1 1
"""

# per c-separated block, pick the a-counting or the b-counting state
BLOCKMAX = """
alphabet: a b c
states: 1 2
initial: 1 2
final: 1 2
trans: 1 a 1 1
trans: 1 b 1 0
trans: 1 c 1 0
trans: 1 c 2 0
trans: 2 a 2 0
trans: 2 b 2 1
trans: 2 c 2 0
trans: 2 c 1 0
"""

# two parallel counters, never interacting
COUNTMINMAX = """
alphabet: a b
states: 1 2
initial: 1 2
final: 1 2
trans: 1 a 1 1
trans: 1 b 1 0
trans: 2 a 2 0
trans: 2 b 2 1
"""

# 2^(#a) on one state, 3^(#b) on the other
EXPSUM = """
alphabet: a b
states: 1 2
initial: 1 2
final: 1 2
trans: 1 a 1 2
trans: 1 b 1 1
trans: 2 a 2 1
trans: 2 b 2 3
"""

# n runs on a^n, value n over the natural semiring
LINEARCOUNT = """
alphabet: a
states: 1 2
initial: 1
final: 2
trans: 1 a 1 1
trans: 1 a 2 1
trans: 2 a 2 1
"""

# max over splits w = uv of (count of a in u) + (count of b in v)
SPLITMAX = """
alphabet: a b
states: 1 2
initial: 1
final: 1 2
trans: 1 a 1 1
trans: 1 a 2 1
trans: 1 b 1 0
trans: 1 b 2 1
trans: 2 a 2 0
trans: 2 b 2 1
"""

# min over splits w = uv of (count of a in u) + (count of b in v)
SPLITMIN = """
alphabet: a b
states: 1 2
initial: 1
final: 1 2
trans: 1 a 1 1
trans: 1 a 2 0
trans: 1 b 1 0
trans: 1 b 2 0
trans: 2 a 2 0
trans: 2 b 2 1
"""

# length of the shortest a-gap between two b's, infinity if none
MINGAP = """
alphabet: a b
states: 1 2 3
initial: 1
final: 3
trans: 1 a 1 0
trans: 1 b 1 0
trans: 1 b 2 0
trans: 2 a 2 1
trans: 2 b 3 0
trans: 3 a 3 0
trans: 3 b 3 0
"""

ALL_TEXTS = {
    "switchpoints": SWITCHPOINTS,
    "modeblocks": MODEBLOCKS,
    "triplerun": TRIPLERUN,
    "fibonacci": FIBONACCI,
    "blockmax": BLOCKMAX,
    "countminmax": COUNTMINMAX,
    "expsum": EXPSUM,
    "linearcount": LINEARCOUNT,
    "splitmax": SPLITMAX,
    "splitmin": SPLITMIN,
    "mingap": MINGAP,
}


def load(name):
    return parse_automaton(ALL_TEXTS[name])


SEED = 0xA9E1

# FO formulas with free variables among x and y, for the FO compiler's
# tests and the parser's
FORMULAS = [
    "true",
    "!true",
    "Pa(x)",
    "!Pa(x)",
    "Pc(x)",
    "x<=y",
    "x<y",
    "x=y",
    "Pa(x) & Pb(y)",
    "Pa(x) | !(x<=y)",
    "Pa(x) -> Pb(x)",
    "exists x. Pa(x)",
    "forall x. Pa(x)",
    "forall x. (Pa(x) -> exists y. (x<y & Pb(y)))",
    "exists x. exists y. (x<y & Pa(x) & Pb(y))",
    "forall x. forall y. (x<=y | Pb(x))",
    "exists y. x<=y",
    "forall y. y<=x",
]


def named_weights(wa):
    """wa's weights keyed by their named transitions (src, letter, dst)."""
    return dict(zip(wa.nfa.transitions, wa.weights))


def check_classifier(c):
    """The table contract of a minimal ClassifierDfa: sorted letters, one
    complete row per state, states 1..n numbered breadth-first from 1 over
    the letters, and minimize returning the same table."""
    n = len(c.delta)
    assert list(c.letters) == sorted(c.letters, key=letter_key)
    assert len(c.verdicts) == n
    assert all(len(row) == len(c.letters) and all(1 <= d <= n for d in row)
               for row in c.delta)
    order = [1]
    for s in order:                      # order grows during the loop
        order.extend(d for d in dict.fromkeys(c.delta[s - 1])
                     if d not in order)
    assert order == list(range(1, n + 1))
    again = minimize(c)
    assert (again.letters, again.delta, again.verdicts) \
        == (c.letters, c.delta, c.verdicts)


def nested_union(a, b):
    """The disjoint union of two weighted automata as first written: every
    state of each, named (0, state) or (1, state) after its input."""
    parts = (a, b)

    def tagged(field):
        return {(tag, s) for tag, wa in enumerate(parts)
                for s in getattr(wa.nfa, field)}

    wgt = {((tag, p), x, (tag, q)): w for tag, wa in enumerate(parts)
           for (p, x, q), w in named_weights(wa).items()}
    return WeightedAutomaton(
        Nfa(tagged("states"), a.nfa.alphabet, set(wgt), tagged("initial"),
            tagged("final")), wgt)


def switchpoints_closed_form(m, n, p):
    """Multiset of weight sequences on a^m (ba)^n b^p, one per choice of
    the a-switch k (1..m-1) and the b-switch l (1..p)."""
    seqs = {}
    for k in range(1, m):
        for l in range(1, p + 1):
            seq = ((2,) * (k - 1) + (1,) + (3,) * (m - k - 1) + (5,)
                   + (3, 5) * n + (5,) * (l - 1) + (1,) + (2,) * (p - l))
            seqs[seq] = seqs.get(seq, 0) + 1
    return seqs


# ---------------------------------------------------------------------------
# random formulas

def random_fo(rng, letters, scope, depth):
    atoms = ["true", "false"]
    if scope:
        atoms += ["letter", "cmp"]
    choices = atoms if depth <= 0 else atoms + [
        "not", "and", "or", "implies", "forall", "exists"]
    kind = rng.choice(choices)
    if kind == "true":
        return FoTrue()
    if kind == "false":
        return Not(FoTrue())
    if kind == "letter":
        return LetterAt(rng.choice(letters), rng.choice(scope))
    if kind == "cmp":
        op = rng.choice([Leq, Lt, EqVar])
        return op(rng.choice(scope), rng.choice(scope))
    if kind == "not":
        return Not(random_fo(rng, letters, scope, depth - 1))
    if kind in ("and", "or", "implies"):
        op = {"and": And, "or": Or, "implies": Implies}[kind]
        return op(random_fo(rng, letters, scope, depth - 1),
                  random_fo(rng, letters, scope, depth - 1))
    var = "v%d" % rng.randrange(10 ** 6)
    body = random_fo(rng, letters, scope + [var], depth - 1)
    return (Forall if kind == "forall" else Exists)(var, body)


def random_fo_sentence(rng, letters, depth=3):
    return freshen(random_fo(rng, letters, [], depth))


def random_step(rng, letters, scope, depth):
    if depth <= 0 or rng.random() < 0.4:
        return Const(rng.randrange(0, 4))
    return StepIte(random_fo(rng, letters, scope, depth - 1),
                   random_step(rng, letters, scope, depth - 1),
                   random_step(rng, letters, scope, depth - 1))


def random_wfo(rng, letters, depth=3, max_sum_vars=2):
    state = {"sums": 0}

    def go(scope, depth):
        choices = ["zero", "prod"]
        if depth > 0:
            choices += ["ite", "plus"]
            if state["sums"] < max_sum_vars:
                choices.append("sum")
        kind = rng.choice(choices)
        if kind == "zero":
            return Zero()
        if kind == "prod":
            var = "v%d" % rng.randrange(10 ** 6)
            return ProdX(var, random_step(rng, letters, scope + [var],
                                          max(depth - 1, 0)))
        if kind == "ite":
            return WIte(random_fo(rng, letters, scope, depth - 1),
                        go(scope, depth - 1), go(scope, depth - 1))
        if kind == "plus":
            return Plus(go(scope, depth - 1), go(scope, depth - 1))
        state["sums"] += 1
        var = "v%d" % rng.randrange(10 ** 6)
        return SumX(var, go(scope + [var], depth - 1))

    return freshen(go([], depth))


def all_words(alphabet, maxlen, minlen=1):
    out = []
    front = [()]
    for n in range(maxlen):
        front = [w + (a,) for w in front for a in alphabet]
        if n + 1 >= minlen:
            out.extend(front)
    return out
