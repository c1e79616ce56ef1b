import random
from fractions import Fraction

import pytest

from wfoc.multiset import SeqMultiset
from wfoc.weights import Symbol, format_weight, weight_sort_key


def test_empty():
    m = SeqMultiset()
    assert m.total() == 0
    assert not m.support()
    assert m.pretty() == ""


def test_union_adds_multiplicities():
    a = SeqMultiset({(1, 2): 2, (3,): 1})
    b = SeqMultiset({(1, 2): 1})
    u = a.union(b)
    assert u.count((1, 2)) == 3
    assert u.count((3,)) == 1
    assert u.total() == 4
    assert a.count((1, 2)) == 2  # inputs untouched


def test_union_many():
    parts = [SeqMultiset({(i,): 1}) for i in range(4)]
    u = SeqMultiset().union(*parts)
    assert u.total() == 4


def test_cauchy_concatenates_pairwise():
    a = SeqMultiset({(1,): 2})
    b = SeqMultiset({(2,): 3, (9, 9): 1})
    c = a.cauchy(b)
    assert c.count((1, 2)) == 6
    assert c.count((1, 9, 9)) == 2
    assert c.total() == 8


def test_cauchy_identity_and_zero():
    one = SeqMultiset({(): 1})
    m = SeqMultiset({(5, 6): 2})
    assert one.cauchy(m) == m
    assert m.cauchy(one) == m
    assert m.cauchy(SeqMultiset()) == SeqMultiset()


def test_equality_is_exact():
    assert SeqMultiset({(1,): 2}) != SeqMultiset({(1,): 1})
    assert SeqMultiset({(1,): 1}) == SeqMultiset([(1,)])
    assert hash(SeqMultiset({(1,): 2})) == hash(SeqMultiset({(1,): 2}))


def test_multiplicity_normalization():
    assert SeqMultiset({(1,): 0}) == SeqMultiset()
    with pytest.raises(ValueError):
        SeqMultiset({(1,): -1})


def test_pretty_sorts_lexicographically():
    m = SeqMultiset({(2, 1): 1, (1, 5): 3, (1, 2): 1})
    assert m.pretty().splitlines() == [
        "1 x [1,2]",
        "3 x [1,5]",
        "1 x [2,1]",
    ]


def test_pretty_mixed_weights():
    m = SeqMultiset({(Fraction(1, 2), Symbol("t")): 1})
    assert m.pretty() == "1 x [1/2,t]"


def test_sorted_items_and_pretty_match_per_entry_definition():
    rng = random.Random(0xA9E1)
    pool = [0, 1, -2, 7, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3),
            Symbol("t"), Symbol("u"), Symbol("a_1")]
    for _ in range(200):
        m = SeqMultiset({tuple(rng.choice(pool)
                               for _ in range(rng.randrange(0, 5))):
                         rng.randrange(1, 4)
                         for _ in range(rng.randrange(0, 12))})
        want = sorted(m.items(),
                      key=lambda it: tuple(weight_sort_key(w) for w in it[0]))
        assert m.sorted_items() == want
        assert m.pretty() == "\n".join(
            "%d x [%s]" % (n, ",".join(format_weight(w) for w in seq))
            for seq, n in want)
