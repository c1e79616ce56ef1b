"""Top-level acceptance gate.

One check per headline guarantee, each printing a PASS/FAIL line (visible
with -s; pytest -v shows the same verdict per test).  Time budgets are
asserted where a check is meant to stay desk-scale.
"""

import contextlib
import random
import time

import pytest

from tests.corpus import (
    ALL_TEXTS, SEED, all_words, load, random_fo, random_fo_sentence,
    random_wfo, switchpoints_closed_form,
)
from reference_semantics import (
    accepts, enumerate_runs, multiset_sum, words_upto,
)
from wfoc.automata import (
    EXPONENTIALLY, abstract_semantics, aperiodicity_index, classify_ambiguity,
    forward, is_scc_unambiguous, is_unambiguous,
)
from wfoc.decompose import build_a_geq_k, decompose, ensure_single_initial
from wfoc.fo_compiler import compile_fo
from wfoc.logic import (
    Const, Plus, ProdX, StepIte, SumX, WIte, after, before, between, eval_fo,
    eval_wfo_at, parse_fo, relativize, uses_plus, uses_sumx,
)
from wfoc.semantics import builtin_semiring
from wfoc.wa_to_wfo import wa_to_wfo
from wfoc.wfo_compiler import compile_product, compile_sum_var, compile_wfo

AB = ("a", "b")
NAT = builtin_semiring("natural").carrier
MAX = builtin_semiring("maxplus").carrier
MIN = builtin_semiring("minplus").carrier


@contextlib.contextmanager
def check(label):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print("%-36s FAIL" % label)
        raise
    print("%-36s PASS  (%.2fs)" % (label, time.monotonic() - started))


def test_01_switch_family_closed_form():
    with check("01 switch-family closed form"):
        started = time.monotonic()
        wa = load("switchpoints")
        for m in range(2, 5):
            for n in range(0, 3):
                for p in range(1, 4):
                    word = tuple("a" * m + "ba" * n + "b" * p)
                    got = abstract_semantics(wa, word)
                    assert dict(got.items()) == \
                        switchpoints_closed_form(m, n, p), (m, n, p)
        assert time.monotonic() - started < 1.0


def test_02_natural_semiring_product():
    with check("02 natural-semiring product"):
        wa = load("triplerun")
        base = 2 * 1 * 4 * 3 + 2 * 2 * 3 * 3 + 2 * 1 * 5 * 3
        assert base == 90
        for n in range(0, 4):
            for p in range(0, 4):
                word = tuple("a" * n + "aaa" + "b" + "b" * p)
                assert forward(wa, word, NAT) == 2 ** n * 90 * 3 ** p, (n, p)


def test_03_three_run_tracker():
    with check("03 three-run tracker"):
        # tracker states hold positions: triplerun's states 1..6 are at
        # positions 0..5
        geq = build_a_geq_k(load("triplerun").nfa, 3)
        runs = [r for f in geq.final
                for r in enumerate_runs(geq, (0, 0, 0, 0, 0), f,
                                        tuple("aaabb"))]
        assert len(runs) == 1
        seq = [runs[0].start] + [t[2] for t in runs[0].trans]
        assert seq == [(0, 0, 0, 0, 0), (0, 0, 1, 0, 1), (1, 2, 3, 1, 1),
                       (4, 4, 5, 1, 1), (5, 5, 5, 1, 1), (5, 5, 5, 1, 1)]
        want = {tuple("a" * m + "b" * p)
                for m in range(3, 8) for p in range(1, 9 - m)}
        assert {w for w in words_upto(geq.alphabet, 8)
                if accepts(geq, w)} == want


def test_04_finite_ambiguity_decomposition():
    with check("04 finite-ambiguity decomposition"):
        started = time.monotonic()
        wa = load("triplerun")
        parts = decompose(wa, 3)
        assert len(parts) == 3
        for part in parts:
            assert is_unambiguous(part.nfa)
            assert aperiodicity_index(part.nfa) is not None
        for word in all_words(AB, 8):
            merged = multiset_sum(abstract_semantics(part, word)
                                  for part in parts)
            assert merged == abstract_semantics(wa, word), word
        norm = ensure_single_initial(wa)
        m = aperiodicity_index(norm.nfa)
        for k in (1, 2, 3):
            stage = aperiodicity_index(build_a_geq_k(norm.nfa, k))
            assert stage is not None and stage <= k * (m + 1), k
        assert time.monotonic() - started < 5.0


@pytest.mark.parametrize("name,mode", [
    ("switchpoints", "scc"),
    ("modeblocks", "unambiguous"),
])
def test_05_round_trip(name, mode):
    with check("05 round trip (%s)" % name):
        started = time.monotonic()
        wa = load(name)
        back = compile_wfo(wa_to_wfo(wa, mode), wa.nfa.alphabet)
        for word in all_words(sorted(wa.nfa.alphabet), 6):
            assert abstract_semantics(back, word) \
                == abstract_semantics(wa, word), word
        assert time.monotonic() - started < 30.0


def test_06_fragment_certificates():
    with check("06 fragment certificates"):
        mode = load("modeblocks")
        phi = wa_to_wfo(mode, "unambiguous")
        assert not uses_plus(phi) and not uses_sumx(phi)
        compiled = compile_wfo(phi, mode.nfa.alphabet)
        assert is_unambiguous(compiled.nfa)

        sw = load("switchpoints")
        compiled = compile_wfo(wa_to_wfo(sw, "scc"), sw.nfa.alphabet)
        assert is_scc_unambiguous(compiled.nfa)


def test_07_compiler_vs_evaluator_sweep():
    with check("07 compiler vs evaluator sweep"):
        started = time.monotonic()
        rng = random.Random(SEED)
        words = all_words(AB, 5)
        for _ in range(22):
            phi = random_wfo(rng, AB, depth=3, max_sum_vars=2)
            wa = compile_wfo(phi, AB)
            for word in words:
                assert abstract_semantics(wa, word) \
                    == eval_wfo_at(phi, word), (phi, word)
        assert time.monotonic() - started < 60.0


def _sum_stages(phi, scope, out):
    if isinstance(phi, SumX):
        inner_scope = scope + (phi.var,)
        out.append((phi.body, phi.var, inner_scope))
        _sum_stages(phi.body, inner_scope, out)
    elif isinstance(phi, WIte):
        _sum_stages(phi.then, scope, out)
        _sum_stages(phi.els, scope, out)
    elif isinstance(phi, Plus):
        _sum_stages(phi.left, scope, out)
        _sum_stages(phi.right, scope, out)
    elif isinstance(phi, ProdX):
        pass


def test_08_aperiodicity_index_ledger():
    with check("08 aperiodicity index ledger"):
        # run trackers, whole corpus
        for name in sorted(ALL_TEXTS):
            norm = ensure_single_initial(load(name))
            m = aperiodicity_index(norm.nfa)
            assert m is not None, name
            for k in (1, 2, 3):
                got = aperiodicity_index(build_a_geq_k(norm.nfa, k))
                assert got is not None and got <= k * (m + 1), (name, k)

        # position products of a single condition
        rng = random.Random(SEED + 1)
        conds = [parse_fo(t) for t in
                 ("true", "Pa(x)", "exists y. x<y",
                  "(forall z. (z<=x -> Pa(z)))")]
        conds += [random_fo(rng, AB, ["x"], 2) for _ in range(8)]
        for cond in conds:
            cls = compile_fo(cond, AB, ("x",))
            m = aperiodicity_index(cls.nfa)
            step = StepIte(cond, Const(1), Const(0))
            got = aperiodicity_index(compile_product(step, "x", AB).nfa)
            assert got is not None, cond
            assert got <= 2 * m + 2 * len(cls.nfa.states), cond

        # sum-variable projections, sampled from the random sentence pool
        stages = []
        while len(stages) < 12:
            _sum_stages(random_wfo(rng, AB, depth=3, max_sum_vars=2),
                        (), stages)
        for body, var, scope in stages[:12]:
            inner = compile_wfo(body, AB, scope)
            m = aperiodicity_index(inner.nfa)
            assert m is not None
            got = aperiodicity_index(compile_sum_var(inner, var, AB, scope).nfa)
            assert got is not None and got <= 2 * m, (body, var)


def test_09_aggregator_anchors():
    with check("09 aggregator anchors"):
        fib = load("fibonacci")
        want = [0, 1]
        while len(want) <= 20:
            want.append(want[-1] + want[-2])
        assert want[20] == 6765
        for n in range(1, 21):
            assert forward(fib, ("a",) * n, NAT) == want[n]

        cmm = load("countminmax")
        for word in all_words(AB, 8):
            na, nb = word.count("a"), word.count("b")
            assert forward(cmm, word, MAX) == max(na, nb)
            assert forward(cmm, word, MIN) == min(na, nb)

        blocky = load("blockmax")
        for word in all_words(("a", "b", "c"), 6):
            blocks = "".join(word).split("c")
            assert forward(blocky, word, MAX) \
                == sum(max(b.count("a"), b.count("b")) for b in blocks)

        expsum = load("expsum")
        for word in all_words(AB, 8):
            assert forward(expsum, word, NAT) \
                == 2 ** word.count("a") + 3 ** word.count("b")

        assert classify_ambiguity(blocky.nfa) == EXPONENTIALLY
        assert aperiodicity_index(blocky.nfa) is not None
        assert classify_ambiguity(fib.nfa) == EXPONENTIALLY
        idx = aperiodicity_index(fib.nfa)
        assert idx is not None and idx <= 2


def _factor(word, kind, i, j=None):
    if kind == "before":
        return word[:i - 1]
    if kind == "after":
        return word[i:]
    return word[i:j - 1] if j - 1 >= i else ()


def test_10_relativization_equivalences():
    with check("10 relativization equivalences"):
        rng = random.Random(SEED + 2)
        words = all_words(AB, 5)
        for _ in range(50):
            phi = random_fo_sentence(rng, AB)
            rb = relativize(phi, before("rx"))
            ra = relativize(phi, after("rx"))
            rm = relativize(phi, between("rx", "ry"))
            for word in words:
                n = len(word)
                for i in range(1, n + 1):
                    # i = 1 and i = n exercise the empty factors
                    assert eval_fo(rb, word, {"rx": i}) \
                        == eval_fo(phi, _factor(word, "before", i))
                    assert eval_fo(ra, word, {"rx": i}) \
                        == eval_fo(phi, _factor(word, "after", i))
                    for j in range(1, n + 1):
                        assert eval_fo(rm, word, {"rx": i, "ry": j}) \
                            == eval_fo(phi, _factor(word, "between", i, j))
