"""Weight values: exact integers, exact rationals, or opaque symbolic tokens.

No floating point ever enters a weight; multiset equality stays exact.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError


class Symbol:
    """An uninterpreted weight token."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Symbol) and self.name == other.name

    def __hash__(self):
        return hash(("Symbol", self.name))

    def __repr__(self):
        return "Symbol(%r)" % self.name


def is_weight(v) -> bool:
    return isinstance(v, (int, Fraction, Symbol)) and not isinstance(v, bool)


_SYMBOL = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")

# the reserved words of the formula syntax: no symbol is spelled like one,
# so every weight reads back from a formula
KEYWORDS = frozenset({"true", "false", "forall", "exists", "prod", "sum",
                      "zero"})


_NUMBER = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\Z")


def parse_weight(token: str):
    """Integer, or rational p/q, in ASCII digits, or a symbol spelled as
    an identifier of the formula syntax other than a keyword; anything
    else is an InputError."""
    t = token.strip()
    number = _NUMBER.match(t)
    if number:
        num, den = number.groups()
        if den is None:
            return int(num)
        if int(den):
            q = Fraction(int(num), int(den))
            return int(q) if q.denominator == 1 else q
    elif t in KEYWORDS:
        raise InputError("not a weight: %r is a formula keyword" % token)
    elif _SYMBOL.match(t):
        return Symbol(t)
    raise InputError("not a weight: %r" % token)


def format_weight(w) -> str:
    if isinstance(w, bool):
        raise TypeError("bool is not a weight")
    if isinstance(w, int):
        return str(w)
    if isinstance(w, Fraction):
        if w.denominator == 1:
            return str(w.numerator)
        return "%d/%d" % (w.numerator, w.denominator)
    if isinstance(w, Symbol):
        return w.name
    raise TypeError("not a weight: %r" % (w,))


def weight_sort_key(w):
    """Total order over mixed weights, for canonical output only."""
    if isinstance(w, Symbol):
        return (1, w.name, 0)
    return (0, "", w)
