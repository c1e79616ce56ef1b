import random
from fractions import Fraction

import pytest

from reference_multiset import SeqMultiset as ReferenceMultiset
from reference_semantics import multiset_sum
from wfoc import InputError, multiset
from wfoc.multiset import MAX_WEIGHTS, SeqMultiset, weight_table
from wfoc.weights import Symbol, format_weight, weight_sort_key


def test_empty():
    m = SeqMultiset()
    assert not m and len(m) == 0
    assert m.items() == []
    assert m.pretty() == ""


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


def test_pretty_matches_per_entry_definition():
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
        assert m.pretty() == "\n".join(
            "%d x [%s]" % (n, ",".join(format_weight(w) for w in seq))
            for seq, n in want)


# -- against the tuple-keyed multiset it replaced -----------------------------

POOL = [0, 1, -1, -2, 7, -30, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3),
        Symbol("t"), Symbol("u"), Symbol("a_1")]


def over(table, seqs):
    """The multiset of {sequence: count} `seqs` over the table `table`."""
    char = {w: chr(i) for i, w in enumerate(table)}
    return SeqMultiset.over(table, {"".join(map(char.__getitem__, seq)): n
                                    for seq, n in seqs.items()})


def random_pair(rng):
    """A multiset and its reference.  Half are built from their sequences;
    the others are over a table with weights that no sequence uses."""
    seqs = {}
    for _ in range(rng.randrange(0, 8)):
        seq = tuple(rng.choice(POOL) for _ in range(rng.randrange(0, 5)))
        seqs[seq] = seqs.get(seq, 0) + rng.randrange(1, 4)
    if rng.random() < 0.5:
        got = SeqMultiset(seqs)
    else:
        unused = rng.sample(POOL, rng.randrange(len(POOL) + 1))
        got = over(weight_table([w for seq in seqs for w in seq] + unused),
                   seqs)
    return got, ReferenceMultiset(seqs)


def assert_same(got, want):
    assert got.pretty() == want.pretty()
    assert list(got.items()) == list(want.items())
    assert (len(got), bool(got)) == (len(want), bool(want))
    assert hash(got) == hash(want)
    assert got == SeqMultiset(dict(want.items()))


def test_multisets_match_the_reference():
    rng = random.Random(0xA9E1)
    pairs = [random_pair(rng) for _ in range(500)]
    pairs += [(SeqMultiset(), ReferenceMultiset()),
              (SeqMultiset({(): 2}), ReferenceMultiset({(): 2}))]
    for got, want in pairs:
        assert_same(got, want)
    for _ in range(500):
        (a, ra), (b, rb) = rng.choice(pairs), rng.choice(pairs)
        if rng.random() < 0.3:
            # the same multiset over another table
            b, rb = over(weight_table(a.weights + tuple(POOL[:3])),
                         dict(a.items())), ra
        assert (a == b) == (ra == rb)
        assert (a != b) == (ra != rb)
        assert_same(multiset_sum([a, b]), ra.union(rb))
        (c, rc) = rng.choice(pairs)
        assert_same(multiset_sum([a, b, c, SeqMultiset()]),
                    ra.union(rb, rc))


@pytest.mark.parametrize("size", [300, 60000])
def test_large_tables_match_the_reference(size):
    # ranks past one byte, and at 60,000 across the surrogate code points
    # 0xD800-0xDFFF, which a code holds like any other
    rng = random.Random(0xA9E1 + size)
    weights = list(range(-(size // 2), size - size // 2))
    table = weight_table(weights)
    assert len(table) == size
    picks = [r for r in (0, 1, 254, 255, 256, 257, 0xD7FF, 0xD800, 0xDBFF,
                         0xDC00, 0xDFFF, 0xE000, size - 1) if r < size]
    picks += [rng.randrange(size) for _ in range(20)]
    seqs = {}
    for _ in range(200):
        seq = tuple(table[rng.choice(picks)] for _ in range(rng.randrange(6)))
        seqs[seq] = seqs.get(seq, 0) + rng.randrange(1, 4)
    sparse = over(table, seqs)
    assert_same(sparse, ReferenceMultiset(seqs))
    dense = dict(seqs)
    dense[tuple(reversed(weights))] = 1
    assert_same(SeqMultiset(dense), ReferenceMultiset(dense))
    small = {(Symbol("t"), -1): 2, (Fraction(1, 2),): 1, (): 1}
    assert_same(multiset_sum([sparse, SeqMultiset(small)]),
                ReferenceMultiset(seqs).union(ReferenceMultiset(small)))


def test_every_rank_is_a_code_point():
    assert chr(MAX_WEIGHTS - 1) == "\U0010ffff"
    with pytest.raises(ValueError):
        chr(MAX_WEIGHTS)


def test_too_many_weights_is_an_input_error(monkeypatch):
    # a real table past the limit holds over a million weights; a smaller
    # limit takes the same path
    monkeypatch.setattr(multiset, "MAX_WEIGHTS", 2)
    assert weight_table([2, 1, 1]) == (1, 2)
    with pytest.raises(InputError) as err:
        weight_table([1, 2, Symbol("t")])
    assert str(err.value).startswith("3 distinct weights")
    with pytest.raises(InputError):
        SeqMultiset({(1, 2, 3): 1})
