"""The untrimmed classifier tabulation that the trimmed one replaced,
kept as its test oracle.

`untrimmed_subsets` is the subset construction of a bit-mask automaton
over every subset it reaches, whether or not the subset can still
accept, and `untrimmed_on_validity` tabulates a core alongside the
validity DFA through `table` (a cached step, one successor list per
state) before it minimizes.  Patched into `wfoc.fo_compiler` in place of
`_subsets` and `_on_validity`, they compile every classifier the way the
compiler did before its subset constructions were trimmed; `minimize`
numbers the quotient by shortlex-least access words, so both ways give
the same tables.
"""

import functools

from wfoc import fo_compiler
from wfoc.fo_compiler import ClassifierDfa
from wfoc.logic.encoding import marked_letters


def table(start, step, verdict, base, vars) -> ClassifierDfa:
    """Tabulate the part of an implicit DFA reachable from start.

    step(state) returns the list of a state's successors in letter order,
    and verdict(state) is true for F, false for G and None for reject.
    States are numbered 1..n in the order they are first reached,
    breadth-first over the sorted letters."""
    letters = marked_letters(base, vars)
    number = {start: 1}
    order = [start]                     # order grows during the loop
    delta = []
    for state in order:
        succs = step(state)
        row = list(map(number.get, succs))
        if None in row:
            for i, d in enumerate(succs):
                if row[i] is None:
                    row[i] = number.setdefault(d, len(order) + 1)
                    if row[i] > len(order):
                        order.append(d)
        delta.append(tuple(row))
    return ClassifierDfa(letters, tuple(delta), tuple(map(verdict, order)),
                         base, vars)


def untrimmed_on_validity(core, base, vars) -> ClassifierDfa:
    """The core alongside the validity DFA, every state that marked some
    variable twice one reject sink (None, -1), tabulated and minimized."""
    start, step, yes = core
    step = functools.lru_cache(maxsize=None)(step)
    masks = [sum(b << i for i, b in enumerate(a[1])) if vars else 0
             for a in marked_letters(base, vars)]
    full = (1 << len(vars)) - 1
    sink = (None, -1)
    stuck = [sink] * len(masks)

    @functools.lru_cache(maxsize=None)
    def marks(seen):
        return [-1 if seen & m else seen | m for m in masks]

    def succ(s):
        if s[1] < 0:
            return stuck
        return [(d, m) if m >= 0 else sink
                for d, m in zip(step(s[0]), marks(s[1]))]

    return fo_compiler.minimize(table(
        (start, 0), succ,
        lambda s: yes(s[0]) if s[1] == full else None, base, vars))


def untrimmed_subsets(start, rows, accept, live=None):
    """The subset construction of a bit-mask automaton over every subset
    reached from start: rows[j][i] is the mask of the states that state i
    reaches on the j-th letter, and a subset says yes when it meets
    accept.  `live` is ignored.  A subset of one state steps to its
    successor vector, a larger one to the OR of its states' vectors, each
    packed into one int of len(rows) fields of n bits."""
    def yes(subset):
        return bool(subset & accept)

    if not rows:                        # no letters: no successors
        return start, lambda subset: (), yes
    n, k = len(rows[0]), len(rows)
    full = (1 << n) - 1
    vectors = [(0,) * k, *zip(*rows)]    # vectors[i + 1]: state i's successors
    packed = [None] * len(vectors)

    def step(subset):
        if not subset & (subset - 1):
            return vectors[subset.bit_length()]
        acc = 0
        while subset:
            low = subset & -subset
            i = low.bit_length()
            if packed[i] is None:
                packed[i] = sum(mask << n * j
                                for j, mask in enumerate(vectors[i]))
            acc |= packed[i]
            subset ^= low
        return [acc >> n * j & full for j in range(k)]

    return start, step, yes


def untrimmed_dfa_from_nfa(nfa) -> ClassifierDfa:
    """dfa_from_nfa over every subset of positions reached."""
    return untrimmed_on_validity(
        untrimmed_subsets(nfa.mask(nfa.initial), nfa.masks,
                          nfa.mask(nfa.final)), nfa.alphabet, ())
