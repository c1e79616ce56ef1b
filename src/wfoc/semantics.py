"""Semirings and aggregators: from multisets of weight sequences to values.

The abstract layer assigns every word a finite multiset of weight sequences
(one sequence per accepting run).  An aggregator collapses that multiset to
a single value: sum-of-products over a chosen semiring, or max-of-averages.
`aggr_sp` and `aggr_ma` are those definitions on multisets.
`concrete_semantics` computes the same values without listing the runs
(there can be exponentially many): each semiring is a carrier of
`automata.forward`, the one forward pass that also computes the multiset,
so sum-product follows by distributivity, with products in left-to-right
order, and max-average is the max-plus value divided by the word length.
The multiset semiring keeps the multiset pass itself.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .automata import Carrier, abstract_semantics, forward
from .errors import InputError
from .multiset import SeqMultiset
from .weights import Symbol, format_weight

NEG_INF = float("-inf")
POS_INF = float("inf")


class Semiring:
    """Semiring with plus/times/zero/one.  `embed` lifts a raw transition
    weight into it and rejects weights outside it.  `carrier` is the
    semiring as `automata.forward` computes in it: front[d] + v.w is
    plus(front[d], times(v, w)), and the last front sums from zero."""

    def __init__(self, name, zero, one, plus, times, embed, fmt,
                 sample, commutative=True, idempotent=False):
        self.name = name
        self.zero = zero
        self.one = one
        self.plus = plus
        self.times = times
        self.embed = embed
        self.fmt = fmt
        self.sample = sample
        self.commutative = commutative
        self.idempotent = idempotent

        def mac(front, d, v, w):
            x = times(v, w)
            front[d] = plus(front[d], x) if d in front else x

        self.carrier = Carrier(
            one, embed, mac,
            lambda values: functools.reduce(plus, values, zero))

    def __repr__(self):
        return "Semiring(%s)" % self.name

    def scale(self, count: int, value):
        # count >= 1 repetitions of `value` under plus
        if self.idempotent:
            return value
        acc = value
        for _ in range(count - 1):
            acc = self.plus(acc, value)
        return acc


def _require_numeric(w, name):
    if isinstance(w, Symbol):
        raise InputError("symbolic weight %s not usable in %s"
                         % (format_weight(w), name))
    return w


def _embed_natural(w):
    _require_numeric(w, "natural")
    if not isinstance(w, int) or w < 0:
        raise InputError("natural semiring needs nonnegative integers, got %s"
                         % format_weight(w))
    return w


def _embed_boolean(w):
    return _require_numeric(w, "boolean") != 0


def _embed_tropical(name):
    def embed(w):
        return _require_numeric(w, name)
    return embed


def _fmt_plain(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v == POS_INF:
        return "inf"
    if v == NEG_INF:
        return "-inf"
    return format_weight(v)


def _fmt_language(lang):
    words = sorted(lang)
    return "{" + ", ".join(w if w else "eps" for w in words) + "}"


def _concat_langs(a, b):
    return frozenset(x + y for x in a for y in b)


def _natural_scale(count, value):
    return count * value


def _sample_int(lo, hi):
    def sample(rng):
        return rng.randrange(lo, hi)
    return sample


def _sample_tropical(zero):
    def sample(rng):
        return zero if rng.random() < 0.1 else rng.randrange(0, 20)
    return sample


def _sample_language(rng):
    n = rng.randrange(0, 3)
    return frozenset("".join(rng.choice("ab") for _ in range(rng.randrange(3)))
                     for _ in range(n))


def _sample_multiset(rng):
    seqs = {}
    for _ in range(rng.randrange(0, 3)):
        seq = tuple(rng.randrange(0, 4) for _ in range(rng.randrange(3)))
        seqs[seq] = seqs.get(seq, 0) + rng.randrange(1, 3)
    return SeqMultiset(seqs)


def _make_catalog():
    natural = Semiring(
        "natural", 0, 1,
        lambda a, b: a + b, lambda a, b: a * b,
        _embed_natural, _fmt_plain, _sample_int(0, 50))
    natural.scale = _natural_scale

    boolean = Semiring(
        "boolean", False, True,
        lambda a, b: a or b, lambda a, b: a and b,
        _embed_boolean, _fmt_plain,
        lambda rng: rng.random() < 0.5, idempotent=True)

    minplus = Semiring(
        "minplus", POS_INF, 0,
        min, lambda a, b: a + b,
        _embed_tropical("minplus"), _fmt_plain,
        _sample_tropical(POS_INF), idempotent=True)

    maxplus = Semiring(
        "maxplus", NEG_INF, 0,
        max, lambda a, b: a + b,
        _embed_tropical("maxplus"), _fmt_plain,
        _sample_tropical(NEG_INF), idempotent=True)

    languages = Semiring(
        "languages", frozenset(), frozenset({""}),
        lambda a, b: a | b, _concat_langs,
        lambda w: frozenset({format_weight(w)}), _fmt_language,
        _sample_language, commutative=False, idempotent=True)

    multiset_seqs = Semiring(
        "multiset_seqs", SeqMultiset(), SeqMultiset({(): 1}),
        lambda a, b: a.union(b), lambda a, b: a.cauchy(b),
        lambda w: SeqMultiset({(w,): 1}),
        lambda m: m.pretty(), _sample_multiset, commutative=False)
    multiset_seqs.scale = lambda count, m: SeqMultiset(
        {seq: count * c for seq, c in m.items()})

    return {s.name: s for s in
            (natural, boolean, minplus, maxplus, languages, multiset_seqs)}


_CATALOG = _make_catalog()

SEMIRING_NAMES = tuple(sorted(_CATALOG))


def builtin_semiring(name: str) -> Semiring:
    if name not in _CATALOG:
        raise InputError("unknown semiring %r (have: %s)"
                         % (name, ", ".join(SEMIRING_NAMES)))
    return _CATALOG[name]


class Aggregator:
    """Total map from multisets of weight sequences to a value.  `forward`
    computes the same value from (wa, word) without building the
    multiset."""

    def __init__(self, name, fn, fmt, forward):
        self.name = name
        self._fn = fn
        self.fmt = fmt
        self.forward = forward

    def __call__(self, multiset: SeqMultiset):
        return self._fn(multiset)

    def __repr__(self):
        return "Aggregator(%s)" % self.name


def aggr_sp(semiring: Semiring, multiset: SeqMultiset):
    """Sum over all sequences (with multiplicity) of the product of their
    entries.  The empty multiset gives zero; an empty sequence gives one."""
    total = semiring.zero
    for seq, count in multiset.items():
        prod = semiring.one
        for w in seq:
            prod = semiring.times(prod, semiring.embed(w))
        total = semiring.plus(total, semiring.scale(count, prod))
    return total


def aggr_ma(multiset: SeqMultiset):
    """Maximum over all sequences of the average entry, as an exact
    rational; -inf when the multiset is empty."""
    best = NEG_INF
    for seq, _count in multiset.items():
        if not seq:
            raise InputError("cannot average an empty weight sequence")
        total = 0
        for w in seq:
            total = total + _require_numeric(w, "max-average")
        avg = Fraction(total, len(seq))
        if best == NEG_INF or avg > best:
            best = avg
    return best


def sum_product_aggregator(semiring: Semiring) -> Aggregator:
    # in the free semiring the value is the multiset itself
    value = abstract_semantics if semiring is _CATALOG["multiset_seqs"] \
        else (lambda wa, word: forward(wa, word, semiring.carrier))
    return Aggregator("sp/" + semiring.name,
                      lambda m: aggr_sp(semiring, m), semiring.fmt, value)


# the maxplus carrier, with max-average's error for symbols
_AVERAGE_SUMS = _CATALOG["maxplus"].carrier._replace(
    embed=_embed_tropical("max-average"))


def _max_average(wa, word):
    # every accepting run on word has len(word) weights
    best = forward(wa, word, _AVERAGE_SUMS)
    return best if best == NEG_INF else Fraction(best, len(word))


def max_average_aggregator() -> Aggregator:
    return Aggregator("ma", aggr_ma, _fmt_plain, _max_average)


def concrete_semantics(wa, word, aggregator: Aggregator):
    """aggregator(abstract_semantics(wa, word)), in one forward pass over
    the word."""
    return aggregator.forward(wa, tuple(word))
