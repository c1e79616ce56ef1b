"""The tuple-keyed multiset that `wfoc.multiset.SeqMultiset` replaced,
kept as the test oracle for its texts, orders, counts and equality, and
the free semiring built on it.

Each sequence is a tuple of weights in one dict; canonical order ranks
the weights present.  The class below is the replaced code as it stood,
importing the weight helpers from the library.  `MULTISET_SEQS` is the
semiring of these multisets under union and pairwise concatenation: the
sum-product of a word's multiset in it is that multiset, which is what
`wfoc eval` prints with no flag or with `--semiring multiset`.
"""

from __future__ import annotations

from wfoc.semantics import Semiring
from wfoc.weights import weight_sort_key, format_weight


class SeqMultiset:
    """Immutable finite multiset of weight tuples."""

    __slots__ = ("_counts", "_hash")

    def __init__(self, items=()):
        counts = {}
        if isinstance(items, dict):
            items = items.items()
            for seq, n in items:
                if n < 0:
                    raise ValueError("negative multiplicity")
                if n:
                    seq = tuple(seq)
                    counts[seq] = counts.get(seq, 0) + n
        else:
            for seq in items:
                seq = tuple(seq)
                counts[seq] = counts.get(seq, 0) + 1
        self._counts = counts
        self._hash = None

    @classmethod
    def singleton(cls, seq):
        return cls([seq])

    @classmethod
    def empty(cls):
        return _EMPTY

    def union(self, *others: "SeqMultiset") -> "SeqMultiset":
        counts = dict(self._counts)
        for other in others:
            for seq, n in other._counts.items():
                counts[seq] = counts.get(seq, 0) + n
        out = SeqMultiset()
        out._counts.update(counts)
        return out

    def cauchy(self, other: "SeqMultiset") -> "SeqMultiset":
        # pairwise concatenation, multiplicities multiply
        counts = {}
        for s1, n1 in self._counts.items():
            for s2, n2 in other._counts.items():
                seq = s1 + s2
                counts[seq] = counts.get(seq, 0) + n1 * n2
        out = SeqMultiset()
        out._counts.update(counts)
        return out

    def count(self, seq) -> int:
        return self._counts.get(tuple(seq), 0)

    def total(self) -> int:
        """Total multiplicity (number of sequences counted with repetition)."""
        return sum(self._counts.values())

    def support(self):
        return set(self._counts)

    def items(self):
        return self._counts.items()

    def _weights(self):
        """The distinct weights, so that keys and texts are built once each."""
        return {w for seq in self._counts for w in seq}

    def sorted_items(self):
        """Items in canonical order: sequences sorted lexicographically."""
        rank = {w: i for i, w in
                enumerate(sorted(self._weights(), key=weight_sort_key))}
        return sorted(self._counts.items(),
                      key=lambda it: tuple(map(rank.__getitem__, it[0])))

    def __bool__(self):
        return bool(self._counts)

    def __len__(self):
        return len(self._counts)

    def __iter__(self):
        return iter(self._counts)

    def __eq__(self, other):
        if not isinstance(other, SeqMultiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def __repr__(self):
        if not self._counts:
            return "SeqMultiset()"
        return "SeqMultiset(%s)" % self.pretty().replace("\n", ", ")

    def pretty(self) -> str:
        """Canonical text form: one 'k x [w1,w2,...]' line per sequence."""
        text = {w: format_weight(w) for w in self._weights()}
        return "\n".join("%d x [%s]" % (n, ",".join(map(text.__getitem__, seq)))
                         for seq, n in self.sorted_items())


_EMPTY = SeqMultiset()

MULTISET_SEQS = Semiring(
    "multiset_seqs", _EMPTY, SeqMultiset({(): 1}),
    lambda a, b: a.union(b), lambda a, b: a.cauchy(b),
    lambda w: SeqMultiset({(w,): 1}), lambda m: m.pretty())
