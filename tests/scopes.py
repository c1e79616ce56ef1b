"""Generated automata: every automaton of a small scope, and the repaired
dd-n family.

`every_automaton(n, letters)` enumerates every (transitions, initial,
final) on the states 1..n over `letters`, with non-empty initial and
final sets, transition number i weighing i: distinct weights tell every
run apart in the multiset semantics, so an exact check on these is as
strong as on any weighting.  There are 2^(n·n·|letters|)·(2^n − 1)^2 of
them: 144 with two states over {a}, 2,304 with two states over {a, b}.

`dd(n)` is the text of dd-n: a deterministic automaton on the states
1..n over {a, b, c}, 1 initial and n final.  From each state i < n, `a`
goes forward to a random state among i+1..min(n, i+6); `b` and `c` each
loop on i with probability 1/2 and otherwise go forward the same way.
State n loops on every letter; the weights are random in 0..3 (seed 1).
Every cycle is a self-loop, and n is reachable.
"""

import itertools
import random

from wfoc.automata import Nfa, WeightedAutomaton


def every_automaton(n, letters):
    """Each automaton of the scope, as a WeightedAutomaton."""
    states = range(1, n + 1)
    possible = list(itertools.product(states, letters, states))
    groups = [set(c) for k in states
              for c in itertools.combinations(states, k)]
    for chosen in itertools.product((False, True), repeat=len(possible)):
        trans = list(itertools.compress(possible, chosen))
        for initial, final in itertools.product(groups, groups):
            nfa = Nfa(states, letters, trans, initial, final)
            yield WeightedAutomaton.from_weights(nfa, range(len(trans)))


def dd(n, seed=1):
    """The text of the repaired dd-n."""
    rng = random.Random(seed)
    lines = ["alphabet: a b c",
             "states: " + " ".join(map(str, range(1, n + 1))),
             "initial: 1", "final: %d" % n]
    for i in range(1, n):
        for c in "abc":
            loop = rng.random() < 0.5 and c != "a"
            d = i if loop else rng.randint(i + 1, min(n, i + 6))
            lines.append("trans: %d %s %d %d" % (i, c, d, rng.randrange(4)))
    lines += ["trans: %d %s %d %d" % (n, c, n, rng.randrange(4))
              for c in "abc"]
    return "\n".join(lines) + "\n"
