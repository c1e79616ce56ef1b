"""Finite multisets of weight sequences.

A multiset maps each sequence (a tuple of weights) to a positive count.
It is kept over a weight table, `weights`: distinct weights sorted by
`weight_sort_key`, possibly with some that no sequence uses.  A sequence
is stored as its code, the string of `chr(rank)` of its weights' ranks in
the table.  So string order is the canonical order (weight by weight, a
prefix first), a code caches its hash, and extending a sequence by one
weight is one concatenation.  Equality is exact, whatever the two
tables.  `automata.abstract_semantics` builds a word's multiset over the
automaton's table; `logic.evaluate` builds one from its sequences' counts.
The command line prints it with `pretty`.
"""

from __future__ import annotations

from .errors import InputError
from .weights import weight_sort_key, format_weight

# one code point per rank: chr takes 0 .. 0x10FFFF
MAX_WEIGHTS = 0x110000


def weight_table(weights) -> tuple:
    """The distinct `weights` sorted by weight_sort_key: the table codes
    are ranks in.  InputError when there are more than ranks."""
    table = tuple(sorted(set(weights), key=weight_sort_key))
    if len(table) > MAX_WEIGHTS:
        raise InputError("%d distinct weights; weight sequences take at "
                         "most %d" % (len(table), MAX_WEIGHTS))
    return table


class SeqMultiset:
    """Immutable finite multiset of weight tuples."""

    __slots__ = ("weights", "_counts", "_hash")

    def __init__(self, items=()):
        if isinstance(items, dict):
            pairs = [(tuple(seq), n) for seq, n in items.items()]
            if any(n < 0 for _, n in pairs):
                raise ValueError("negative multiplicity")
        else:
            pairs = [(tuple(seq), 1) for seq in items]
        self.weights = weight_table(w for seq, _ in pairs for w in seq)
        char = {w: chr(i) for i, w in enumerate(self.weights)}
        counts = {}
        for seq, n in pairs:
            if n:
                code = "".join(map(char.__getitem__, seq))
                counts[code] = counts.get(code, 0) + n
        self._counts = counts
        self._hash = None

    @classmethod
    def over(cls, weights, counts) -> "SeqMultiset":
        """The multiset of {code: count} `counts` (every count positive)
        over the table `weights`; it takes `counts` over, uncopied."""
        out = cls.__new__(cls)
        out.weights = weights
        out._counts = counts
        out._hash = None
        return out

    def items(self):
        """(sequence, count) pairs, in no fixed order."""
        weight = self.weights.__getitem__
        return [(tuple(map(weight, map(ord, code))), n)
                for code, n in self._counts.items()]

    def __bool__(self):
        return bool(self._counts)

    def __len__(self):
        return len(self._counts)

    def __eq__(self, other):
        if not isinstance(other, SeqMultiset):
            return NotImplemented
        if self.weights == other.weights:
            return self._counts == other._counts
        return dict(self.items()) == dict(other.items())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.items()))
        return self._hash

    def __repr__(self):
        if not self._counts:
            return "SeqMultiset()"
        return "SeqMultiset(%s)" % self.pretty().replace("\n", ", ")

    def pretty(self) -> str:
        """Canonical text form: one 'k x [w1,w2,...]' line per sequence."""
        text = {i: "," + format_weight(w) for i, w in enumerate(self.weights)}
        counts = self._counts
        return "\n".join("%d x [%s]" % (counts[code], code.translate(text)[1:])
                         for code in sorted(counts))
