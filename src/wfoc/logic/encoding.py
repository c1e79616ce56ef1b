"""The marked alphabet the compilers read: one extra bit per variable.

A word with a valuation of the variables V is read by a compiled
automaton as one word over the letters Sigma x {0,1}^V: the letter at
position i carries variable v's bit 1 exactly when v is valued i.  A
letter is the plain base letter when V is empty, and a pair (base, bits)
otherwise, with bits ordered by sorted variable name.  A marked word is
valid when each variable's bit is 1 at exactly one position.  The
brute-force evaluator (`logic.evaluate`) reads the word and valuation as
they are.
"""

from __future__ import annotations

import functools
from itertools import product as iproduct

from ..automata import letter_key


def ext_alphabet(alphabet, vars):
    """All letters of the extended alphabet, as used by compiled automata."""
    vars = tuple(sorted(vars))
    if not vars:
        return list(alphabet)
    return [(a, bits) for a in alphabet
            for bits in iproduct((0, 1), repeat=len(vars))]


@functools.lru_cache(maxsize=64)
def marked_letters(base, vars):
    """The letters of ext_alphabet(base, vars) sorted by letter_key, for a
    frozenset base and a sorted tuple vars: the letter order of every
    compiled automaton.  A pair's key is its base letter's key, then its
    bits, which the product already lists in order, so only the base
    letters are sorted."""
    return tuple(ext_alphabet(sorted(base, key=letter_key), vars))


@functools.lru_cache(maxsize=64)
def lift_table(base, vars, var):
    """One row (a, i0, i1) per letter a of marked_letters(base, vars): a
    with var's bit inserted, 0 and 1, is letter i0 and i1 of the marked
    letters over vars and var."""
    inner = tuple(sorted(vars + (var,)))
    idx = inner.index(var)
    index = {a: i for i, a in enumerate(marked_letters(base, inner))}

    def lift(a, bit):
        base_letter, bits = a if vars else (a, ())
        return index[(base_letter, bits[:idx] + (bit,) + bits[idx:])]

    return tuple((a, lift(a, 0), lift(a, 1))
                 for a in marked_letters(base, vars))
