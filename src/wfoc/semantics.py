"""Semirings and aggregators: from multisets of weight sequences to values.

The abstract layer assigns every word a finite multiset of weight sequences
(one sequence per accepting run).  An aggregator collapses that multiset to
a single value: sum-of-products over a chosen semiring, or max-of-averages.
`aggr_sp` and `aggr_ma` are those definitions on a multiset, the
specification; no command lists the runs (there can be exponentially
many).  Each semiring is instead a carrier of `automata.forward`, the one
forward pass that also computes the multiset, so sum-product follows by
distributivity, with products in left-to-right order, and `max_average`
is the max-plus value divided by the word length.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from .automata import Carrier, forward
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

    def __init__(self, name, zero, one, plus, times, embed, fmt):
        self.name = name
        self.zero = zero
        self.one = one
        self.plus = plus
        self.times = times
        self.embed = embed
        self.fmt = fmt

        def mac(front, d, v, w):
            x = times(v, w)
            front[d] = plus(front[d], x) if d in front else x

        self.carrier = Carrier(
            one, embed, mac,
            lambda values: functools.reduce(plus, values, zero))

    def __repr__(self):
        return "Semiring(%s)" % self.name


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


def format_value(v):
    """A number, truth value or infinity as text: the format of the four
    numeric semirings and of max-average."""
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


def _make_catalog():
    natural = Semiring(
        "natural", 0, 1,
        operator.add, operator.mul,
        _embed_natural, format_value)

    boolean = Semiring(
        "boolean", False, True,
        operator.or_, operator.and_,
        _embed_boolean, format_value)

    minplus = Semiring(
        "minplus", POS_INF, 0,
        min, operator.add,
        _embed_tropical("minplus"), format_value)

    maxplus = Semiring(
        "maxplus", NEG_INF, 0,
        max, operator.add,
        _embed_tropical("maxplus"), format_value)

    languages = Semiring(
        "languages", frozenset(), frozenset({""}),
        operator.or_, _concat_langs,
        lambda w: frozenset({format_weight(w)}), _fmt_language)

    return {s.name: s for s in
            (natural, boolean, minplus, maxplus, languages)}


_CATALOG = _make_catalog()

SEMIRING_NAMES = tuple(sorted(_CATALOG))


def builtin_semiring(name: str) -> Semiring:
    if name not in _CATALOG:
        raise InputError("unknown semiring %r (have: %s)"
                         % (name, ", ".join(SEMIRING_NAMES)))
    return _CATALOG[name]


def aggr_sp(semiring: Semiring, multiset: SeqMultiset):
    """Sum over all sequences (with multiplicity) of the product of their
    entries.  The empty multiset gives zero; an empty sequence gives one."""
    total = semiring.zero
    for seq, count in multiset.items():
        prod = semiring.one
        for w in seq:
            prod = semiring.times(prod, semiring.embed(w))
        for _ in range(count):
            total = semiring.plus(total, prod)
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


# the maxplus carrier, with max-average's error for symbols
_AVERAGE_SUMS = _CATALOG["maxplus"].carrier._replace(
    embed=_embed_tropical("max-average"))


def max_average(wa, word):
    """aggr_ma(abstract_semantics(wa, word)), in one forward pass over the
    word: every accepting run on it has len(word) weights."""
    best = forward(wa, word, _AVERAGE_SUMS)
    return best if best == NEG_INF else Fraction(best, len(word))
