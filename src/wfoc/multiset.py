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
The command line prints it with `pretty`, which sorts the codes once and
makes the lines a block of codes at a time.  When every weight prints as
one ASCII character, a block's codes are joined by a separator that no
rank uses and translated byte for byte in one call, the commas put in by
one slice assignment, and the result split into lines: weight texts hold
neither ',' nor a line break (a symbol is an identifier: `parse_weight`),
so only the separator makes one.  Any other table maps each rank to ','
and its text, one `str.translate` per code.
"""

from __future__ import annotations

from .errors import InputError
from .weights import weight_sort_key, format_weight

# one code point per rank: chr takes 0 .. 0x10FFFF
MAX_WEIGHTS = 0x110000

# codes `pretty` translates per call: few enough that a block's texts stay
# small beside the lines they make
PRETTY_BLOCK = 256


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
        counts = self._counts
        codes = sorted(counts)
        out = []
        if codes and not codes[0]:      # the empty sequence sorts first
            out.append("%d x []" % counts[codes.pop(0)])
        inner = _inner_texts(list(map(format_weight, self.weights)))
        for i in range(0, len(codes), PRETTY_BLOCK):
            block = codes[i:i + PRETTY_BLOCK]
            out.append("\n".join(map("%d x [%s]".__mod__, zip(
                map(counts.__getitem__, block), inner(block)))))
        return "\n".join(out)


def _inner_texts(text):
    """A function from a block of non-empty codes over a table whose
    weights print as `text` to their 'w1,w2,...' texts, in order."""
    chars = "".join(text)
    if len(text) < 256 and all(len(t) == 1 for t in text) \
            and chars.isascii():
        # byte for byte: each rank and sep is one byte, mapped to one
        sep = chr(len(text))    # no rank: it ends each code but the last
        table = bytes.maketrans(bytes(range(len(text) + 1)),
                                chars.encode() + b"\n")

        def inner(block):
            raw = sep.join(block).encode("latin-1").translate(table)
            # a comma between every two bytes: ',\n,' ends a code
            buf = bytearray(b",") * (2 * len(raw) - 1)
            buf[::2] = raw
            return buf.decode().split(",\n,")
        return inner
    # one character to many: one call per code is faster than per block
    table = {rank: "," + t for rank, t in enumerate(text)}
    return lambda block: [code.translate(table)[1:] for code in block]
