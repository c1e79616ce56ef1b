"""Words over the extended alphabet: one extra bit row per variable.

A letter is the plain base letter when the variable set is empty, and a
pair (base, bits) otherwise, with bits ordered by sorted variable name.
An encoding is valid when every row contains exactly one 1; a valid word
decodes to the base word plus the valuation mapping each variable to the
position of its 1 (positions are 1-based).
"""

from __future__ import annotations

import functools
from itertools import product as iproduct

from ..automata import letter_key
from ..errors import InputError


class ExtWord:
    __slots__ = ("vars", "letters")

    def __init__(self, vars, letters):
        self.vars = tuple(sorted(vars))
        if tuple(sorted(set(vars))) != self.vars:
            raise InputError("duplicate variables in %r" % (vars,))
        letters = tuple(letters)
        for l in letters:
            if self.vars:
                if (not isinstance(l, tuple) or len(l) != 2
                        or len(l[1]) != len(self.vars)
                        or any(b not in (0, 1) for b in l[1])):
                    raise InputError("bad extended letter %r" % (l,))
            elif isinstance(l, tuple):
                raise InputError("extended letter %r without variables"
                                 % (l,))
        self.letters = letters

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (isinstance(other, ExtWord) and self.vars == other.vars
                and self.letters == other.letters)

    def __hash__(self):
        return hash((self.vars, self.letters))

    def __repr__(self):
        return "ExtWord(%r, %r)" % (self.vars, self.letters)

    def base_word(self):
        if not self.vars:
            return self.letters
        return tuple(l[0] for l in self.letters)

    def row(self, var):
        i = self.vars.index(var)
        return tuple(l[1][i] for l in self.letters)

    def is_valid(self) -> bool:
        return all(sum(self.row(v)) == 1 for v in self.vars)


def encode(word, valuation, vars=None) -> ExtWord:
    """Mark each variable's position with a 1 bit; always valid."""
    word = tuple(word)
    if vars is None:
        vars = valuation.keys()
    vars = tuple(sorted(vars))
    if set(valuation) != set(vars):
        raise InputError("valuation domain %r does not match variables %r"
                         % (sorted(valuation), list(vars)))
    for v, i in valuation.items():
        if not 1 <= i <= len(word):
            raise InputError("position %r out of range for %s" % (i, v))
    if not vars:
        return ExtWord((), word)
    letters = []
    for pos, a in enumerate(word, start=1):
        bits = tuple(1 if valuation[v] == pos else 0 for v in vars)
        letters.append((a, bits))
    return ExtWord(vars, letters)


def decode(ext: ExtWord):
    """(base word, valuation) when valid, else None."""
    if not ext.is_valid():
        return None
    valuation = {}
    for v in ext.vars:
        valuation[v] = ext.row(v).index(1) + 1
    return ext.base_word(), valuation


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
    compiled automaton."""
    return tuple(sorted(ext_alphabet(base, vars), key=letter_key))


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
