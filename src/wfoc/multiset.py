"""Finite multisets of weight sequences.

A multiset maps each sequence (a tuple of weights) to a positive count.
It is kept over a weight table, `weights`: distinct weights sorted by
`weight_sort_key`, possibly with some that no sequence uses.  A sequence
is stored as its code, the string of `chr(rank)` of its weights' ranks in
the table.  So string order is the canonical order (weight by weight, a
prefix first), a code caches its hash, and extending a sequence by one
weight is one concatenation.  Union is pointwise addition of counts;
equality is exact, whatever the two tables.  `automata.abstract_semantics`
builds a word's multiset; the command line prints it with `pretty`.
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


def _common(parts):
    """(table, each part's counts over it): the parts' one table when they
    share it, else the table of all their weights, into which a part over
    another table is re-coded by one translate per sequence."""
    table = parts[0].weights
    if all(part.weights == table for part in parts):
        return table, [part._counts for part in parts]
    table = weight_table(w for part in parts for w in part.weights)
    rank = {w: chr(i) for i, w in enumerate(table)}
    out = []
    for part in parts:
        if part.weights == table:
            out.append(part._counts)
            continue
        move = {i: rank[w] for i, w in enumerate(part.weights)}
        out.append({code.translate(move): n
                    for code, n in part._counts.items()})
    return table, out


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

    def union(self, *others: "SeqMultiset") -> "SeqMultiset":
        parts = [m for m in (self,) + others if m._counts]
        if not parts:
            return _EMPTY
        table, codes = _common(parts)
        counts = dict(codes[0])
        for part in codes[1:]:
            for code, n in part.items():
                counts[code] = counts.get(code, 0) + n
        return SeqMultiset.over(table, counts)

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
        left, right = _common((self, other))[1]
        return left == right

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


_EMPTY = SeqMultiset()
