import collections
import random
import sys

import pytest

from reference_semantics import count_runs, words_upto
from wfoc import (
    HypothesisError, InputError, automata, fo_compiler, wfo_compiler,
)
from wfoc.automata import (
    Nfa, WeightedAutomaton, abstract_semantics, aperiodicity_index,
    classify_ambiguity, explore, forward, is_unambiguous, letter_key,
    reachable_states, restrict, weighted_union,
)
from wfoc.decompose import decompose_with_trackers
from wfoc.fo_compiler import compile_fo
from wfoc.logic import parse_fo, parse_wfo
from wfoc.logic import encoding
from wfoc.logic.encoding import ext_alphabet, lift_table
from wfoc.logic.evaluate import eval_wfo_at
from wfoc.logic.parser import parse_formula_file, serialize_formula_file
from wfoc.logic.syntax import (
    Const, FoTrue, LetterAt, Lt, Not, Plus, ProdX, StepIte, SumX, WIte, Zero,
    fo_conditions, nodes, uses_plus, uses_sumx,
)
from wfoc.multiset import SeqMultiset
from wfoc.semantics import builtin_semiring
from wfoc.textfmt import (
    canonical_relabel, parse_automaton, serialize_automaton,
)
from wfoc.wa_to_wfo import (
    auto_wa_to_wfo, scc_unambiguous_to_wfo, unambiguous_wa_to_wfo,
)
from wfoc.wfo_compiler import (
    _CODE, compile_ite, compile_product, compile_stages,
    compile_sum_var, compile_wfo, rewrite_sum_normal_form,
)

from corpus import (
    ALL_TEXTS, SEED, all_words, load, named_weights, nested_union,
    random_wfo,
)

AB = frozenset({"a", "b"})


def modeblocks_sentence():
    mode = load("modeblocks")
    psi13 = ("(run:M(1,1;<x) & Pa(x) & run:M(1,3;>x)) ? 2 : "
             "((run:M(1,2;<x) & Pa(x) & run:M(2,3;>x)) ? 3 : 1)")
    psi23 = ("(run:M(2,2;<x) & Pa(x) & run:M(2,3;>x)) ? 3 : "
             "((run:M(2,1;<x) & Pa(x) & run:M(1,3;>x)) ? 2 : 1)")
    text = ("run:M(1,3) ? prod x. (%s) : (run:M(2,3) ? prod x. (%s) : zero)"
            % (psi13, psi23))
    return parse_wfo(text, automata={"M": mode.nfa}), mode


def next_letter_is_a(var):
    return ("(exists s. (%s<s & (forall t. (%s<t -> s<=t)) & Pa(s)))"
            % (var, var))


def switchpoints_sentence():
    guard = ("(y1<y2 & (forall z. (z<=y1 -> Pa(z))) & "
             + next_letter_is_a("y1")
             + " & (forall z. (y2<=z -> Pb(z))))")
    psi = ("((x<y1 | y2<x) ? 2 : ((x=y1 | x=y2) ? 1 : ("
           + next_letter_is_a("x") + " ? 3 : 5)))")
    return parse_wfo("sum y1. sum y2. (%s ? prod x. %s : zero)"
                     % (guard, psi))


class TestProduct:
    def test_constant_step(self):
        wa = compile_product(Const(5), "x", AB)
        assert abstract_semantics(wa, ("a", "a")) == \
            SeqMultiset({(5, 5): 1})

    def test_mode_step_weights(self):
        phi, mode = modeblocks_sentence()
        prod13 = phi.then
        wa = compile_product(prod13.step, prod13.var, mode.nfa.alphabet)
        assert abstract_semantics(wa, ("a", "b")) == \
            SeqMultiset({(2, 1): 1})
        for w in all_words(("a", "b", "c"), 4):
            assert abstract_semantics(wa, w) == eval_wfo_at(prod13, w)

    def test_unambiguous_and_aperiodic(self):
        psi = parse_wfo("prod x. (Pa(x) ? 2 : (x<=x ? 3 : 4))")
        wa = compile_product(psi.step, psi.var, AB)
        assert is_unambiguous(wa.nfa)
        assert aperiodicity_index(wa.nfa) is not None


class TestIte:
    def test_true_guard_keeps_then_branch(self):
        then_wa = compile_product(Const(2), "x", AB)
        else_wa = compile_product(Const(9), "x", AB)
        wa = compile_ite(parse_fo("true"), then_wa, else_wa, AB)
        for w in all_words(("a", "b"), 3):
            assert abstract_semantics(wa, w) == abstract_semantics(then_wa, w)

    def test_failed_guard_gives_empty_with_zero_else(self):
        phi, mode = modeblocks_sentence()
        wa = compile_wfo(WIte(phi.cond, phi.then, Zero()),
                         mode.nfa.alphabet)
        assert not abstract_semantics(wa, ("a", "c"))
        assert abstract_semantics(wa, ("a", "b")) == \
            SeqMultiset({(2, 1): 1})

    def test_classification_preserved(self):
        then_wa = compile_product(Const(2), "x", AB)
        else_wa = compile_product(Const(9), "x", AB)
        wa = compile_ite(parse_fo("forall x. Pa(x)"), then_wa, else_wa, AB)
        assert classify_ambiguity(wa.nfa) == "unambiguous"
        assert aperiodicity_index(wa.nfa) is not None


class TestPlus:
    def test_zero_is_neutral(self):
        a = compile_wfo(parse_wfo("prod x. (Pb(x) ? 7 : 1)"), AB)
        z = compile_wfo(parse_wfo("zero"), AB)
        both = weighted_union(a, z)
        for w in all_words(("a", "b"), 4):
            assert abstract_semantics(both, w) == abstract_semantics(a, w)

    def test_doubling_multiplicities(self):
        phi, mode = modeblocks_sentence()
        one = compile_wfo(phi, mode.nfa.alphabet)
        two = weighted_union(one, one)
        for w in all_words(("a", "b", "c"), 5):
            doubled = SeqMultiset({s: 2 * c for s, c
                                   in abstract_semantics(one, w).items()})
            assert abstract_semantics(two, w) == doubled

    def test_union_of_unambiguous_is_two_ambiguous(self):
        a = compile_wfo(parse_wfo("prod x. 1"), AB)
        both = weighted_union(a, a)
        assert max(count_runs(both, u)
                   for u in words_upto(AB, 5)) == 2


class TestSumVar:
    def test_single_valuation_passthrough(self):
        # accepts only y at the first position, weights all 7
        inner = compile_wfo(
            parse_wfo("(forall z. y<=z) ? prod x. 7 : zero"),
            AB, vars=("y",))
        wa = compile_sum_var(inner, "y", AB, ("y",))
        for w in all_words(("a", "b"), 3):
            assert abstract_semantics(wa, w) == \
                SeqMultiset({(7,) * len(w): 1})

    def test_missing_variable_rejected(self):
        inner = compile_wfo(parse_wfo("prod x. 1"), AB)
        with pytest.raises(InputError):
            compile_sum_var(inner, "y", AB, ())

    def test_switch_positions_formula_matches_automaton(self):
        sw = load("switchpoints")
        wa = compile_wfo(switchpoints_sentence(), AB)
        for w in all_words(("a", "b"), 6):
            assert abstract_semantics(wa, w) == abstract_semantics(sw, w)

    def test_index_bound(self):
        inner = compile_wfo(
            parse_wfo("(forall z. y<=z) ? prod x. 7 : zero"),
            AB, vars=("y",))
        m = aperiodicity_index(inner.nfa)
        out = compile_sum_var(inner, "y", AB, ("y",))
        got = aperiodicity_index(out.nfa)
        assert got is not None and got <= 2 * m


class TestCompileWfo:
    def test_zero(self):
        wa = compile_wfo(parse_wfo("zero"), AB)
        for w in all_words(("a", "b"), 3):
            assert not abstract_semantics(wa, w)

    def test_modeblocks_oracle_both_ways(self):
        phi, mode = modeblocks_sentence()
        wa = compile_wfo(phi, mode.nfa.alphabet)
        assert is_unambiguous(wa.nfa)
        assert not uses_plus(phi) and not uses_sumx(phi)
        for w in all_words(("a", "b", "c"), 6):
            want = abstract_semantics(mode, w)
            assert abstract_semantics(wa, w) == want
            assert eval_wfo_at(phi, w) == want

    def test_max_a_block(self):
        phi = parse_wfo(
            "sum y. sum z. ((forall u. ((y<=u & u<=z) -> Pa(u))) ? "
            "(prod x. ((y<=x & x<=z) ? 1 : 0)) : (prod x. 0))")
        wa = compile_wfo(phi, AB)
        maxplus = builtin_semiring("maxplus").carrier
        for w in all_words(("a", "b"), 6):
            best = 0
            run = 0
            for ch in w:
                run = run + 1 if ch == "a" else 0
                best = max(best, run)
            assert forward(wa, w, maxplus) == best

    def test_random_sentences_master_oracle(self):
        rng = random.Random(SEED)
        for _ in range(25):
            phi = random_wfo(rng, ("a", "b"), depth=3, max_sum_vars=2)
            wa = compile_wfo(phi, AB)
            assert classify_ambiguity(wa.nfa) != "exponentially"
            for w in all_words(("a", "b"), 4):
                assert abstract_semantics(wa, w) == \
                    eval_wfo_at(phi, w), (phi, w)

    def test_fragment_flags(self):
        rng = random.Random(SEED + 7)
        seen_plain = 0
        for _ in range(40):
            phi = random_wfo(rng, ("a", "b"), depth=2, max_sum_vars=1)
            if uses_sumx(phi):
                continue
            wa = compile_wfo(phi, AB)
            got = classify_ambiguity(wa.nfa)
            if uses_plus(phi):
                assert got in ("unambiguous", "finitely")
            else:
                assert got == "unambiguous"
                seen_plain += 1
        assert seen_plain >= 3

    def test_non_sentence_rejected(self):
        with pytest.raises(InputError):
            compile_wfo(parse_wfo("prod x. (Pa(y) ? 1 : 0)"), AB)

    def test_byte_identical_recompilation(self):
        phi = parse_wfo("sum y. prod x. ((x<=y ? 1 : 0))")
        one = serialize_automaton(compile_wfo(phi, AB))
        two = serialize_automaton(compile_wfo(phi, AB))
        assert one == two

    def test_empty_alphabet_rejected(self):
        with pytest.raises(InputError):
            compile_wfo(parse_wfo("zero"), frozenset())


class TestSumNormalForm:
    def test_ite_splits_into_guarded_sum(self):
        phi = parse_wfo("(exists x. Pa(x)) ? prod x. 1 : prod x. 2")
        got = rewrite_sum_normal_form(phi)
        assert isinstance(got, Plus)
        assert isinstance(got.left, WIte) and isinstance(got.left.els, Zero)
        assert isinstance(got.right, WIte) and isinstance(got.right.els, Zero)
        assert isinstance(got.right.cond, Not)

    def test_product_unchanged(self):
        phi = parse_wfo("prod x. (Pa(x) ? 1 : 0)")
        assert rewrite_sum_normal_form(phi) == phi

    def test_sum_var_rejected(self):
        with pytest.raises(InputError):
            rewrite_sum_normal_form(parse_wfo("sum y. prod x. 1"))

    def _check_shape(self, term):
        if isinstance(term, Plus):
            self._check_shape(term.left)
            self._check_shape(term.right)
            return
        if isinstance(term, (Zero, ProdX)):
            return
        assert isinstance(term, WIte)
        assert isinstance(term.els, Zero)
        assert not uses_plus(term.then) and not uses_sumx(term.then)

    def test_random_no_sum_semantics_preserved(self):
        rng = random.Random(SEED + 2)
        done = 0
        while done < 20:
            phi = random_wfo(rng, ("a", "b"), depth=3, max_sum_vars=0)
            if uses_sumx(phi):
                continue
            got = rewrite_sum_normal_form(phi)
            self._check_shape(got)
            for w in all_words(("a", "b"), 4):
                assert eval_wfo_at(got, w) == eval_wfo_at(phi, w)
            done += 1


# -- the reachable part, built directly -----------------------------------
#
# The constructions as they were first written: every candidate state and
# transition, then a pass that keeps the part reachable from the initial
# states, under names that nest the names of every child stage.  The
# compiler builds that part directly and names its states by the
# positions of its children's states, so every stage must come out equal
# to the reference once both are renumbered 1..n in their own order.


def reachable_part(wa):
    nfa = restrict(wa.nfa, reachable_states(wa.nfa))[0]
    wgt = named_weights(wa)
    return WeightedAutomaton(nfa, {t: wgt[t] for t in nfa.transitions})


def _step_weight(psi, cond_index, bits):
    while isinstance(psi, StepIte):
        psi = psi.then if bits[cond_index[psi.cond]] else psi.els
    if not isinstance(psi, Const):
        raise InputError("not a step formula: %r" % (psi,))
    return psi.weight


def reference_product(step, var, alphabet, vars=()):
    vars = tuple(sorted(vars))
    conds = fo_conditions(step)
    if not conds:
        step = StepIte(FoTrue(), step, step)
        conds = [FoTrue()]
    inner_vars = tuple(sorted(vars + (var,)))
    clss = [compile_fo(c, alphabet, inner_vars) for c in conds]
    rows = [c.delta for c in clss]
    k = len(clss)
    idx = inner_vars.index(var)
    letters = sorted(ext_alphabet(alphabet, vars), key=letter_key)
    index = {a: i for i, a in enumerate(clss[0].letters)}

    def lift(a, bit):
        base_letter, bits = (a, ()) if not vars else a
        return index[(base_letter, bits[:idx] + (bit,) + bits[idx:])]

    lifted0 = [lift(a, 0) for a in letters]
    lifted1 = [lift(a, 1) for a in letters]

    def advance(d):
        for j in lifted0:
            yield j, tuple(rows[i][d[i] - 1][j] for i in range(k))

    d0 = (1,) * k
    prefix_next = {(d, j): d2 for (d, j, d2) in explore([d0], advance)}
    orbit = {d0} | set(prefix_next.values())

    def unwind(f):
        for j in lifted0:
            yield j, tuple(tuple(f[i][row[j] - 1] for row in rows[i])
                           for i in range(k))

    f_end = tuple(tuple(_CODE[v] for v in c.verdicts) for c in clss)
    compose_to = {(f, j): f2 for (f, j, f2) in explore([f_end], unwind)}
    suffixes = {f_end} | set(compose_to.values())
    cond_index = {c: i for i, c in enumerate(conds)}
    trans = set()
    wgt = {}
    states = set()
    for f in suffixes:
        for j0, j1, a in zip(lifted0, lifted1, letters):
            f_src = compose_to[(f, j0)]
            for d in orbit:
                verdicts = tuple(f[i][rows[i][d[i] - 1][j1] - 1]
                                 for i in range(k))
                if 0 in verdicts:
                    continue
                bits = tuple(v == 2 for v in verdicts)
                w = _step_weight(step, cond_index, bits)
                dst = (prefix_next[(d, j0)], f, 1)
                for started in (0, 1) if d == d0 else (1,):
                    src = (d, f_src, started)
                    states |= {src, dst}
                    trans.add((src, a, dst))
                    wgt[(src, a, dst)] = w
    initial = {(d0, f, 0) for f in suffixes}
    states |= initial
    final = {s for s in states if s[1] == f_end and s[2] == 1}
    return reachable_part(WeightedAutomaton(
        Nfa(states, letters, trans, initial, final), wgt))


def reference_sum_var(a, var, alphabet, vars):
    vars = tuple(sorted(vars))
    out_vars = tuple(v for v in vars if v != var)
    idx = vars.index(var)

    def strip(l):
        base_letter, bits = l
        rest = bits[:idx] + bits[idx + 1:]
        return (base_letter, rest) if out_vars else base_letter

    wgt = {}
    for (p, l, q), w in named_weights(a).items():
        if l[1][idx]:
            wgt[((p, 0), strip(l), (q, 1))] = w
        else:
            for c in (0, 1):
                wgt[((p, c), strip(l), (q, c))] = w
    states = {(q, c) for q in a.nfa.states for c in (0, 1)}
    nfa = Nfa(states, ext_alphabet(alphabet, out_vars), set(wgt),
              {(q, 0) for q in a.nfa.initial},
              {(q, 1) for q in a.nfa.final})
    return reachable_part(WeightedAutomaton(nfa, wgt))


def reference_ite(cond, then_wa, else_wa, alphabet, vars=()):
    # explored pair by pair from the branches' transitions: the product
    # of every classifier state with a large branch is too big to prune
    cls = compile_fo(cond, alphabet, tuple(sorted(vars)))
    index = {a: i for i, a in enumerate(cls.letters)}
    branches = (then_wa, else_wa)
    leaving = {}
    for tag, wa in enumerate(branches):
        for t, w in named_weights(wa).items():
            leaving.setdefault((tag, t[0]), []).append((t, w))
    wgt = {}

    def step(state):
        tag, c, p = state
        for (_, a, q), w in leaving.get((tag, p), ()):
            dst = (tag, cls.delta[c - 1][index[a]], q)
            wgt[(state, a, dst)] = w
            yield a, dst

    initial = {(tag, 1, q) for tag, wa in enumerate(branches)
               for q in wa.nfa.initial}
    trans = set(explore(initial, step))
    states = initial | {d for (_, _, d) in trans}
    # the then-branch (tag 0) ends in F, the else-branch in G
    final = {(tag, c, q) for (tag, c, q) in states
             if q in branches[tag].nfa.final
             and cls.verdicts[c - 1] is (tag == 0)}
    return WeightedAutomaton(
        Nfa(states, cls.letters, trans, initial, final), wgt)


def contexts(phi, vars):
    """(subterm, variable context) in the order compile_stages yields."""
    if isinstance(phi, WIte):
        yield from contexts(phi.then, vars)
        yield from contexts(phi.els, vars)
    elif isinstance(phi, Plus):
        yield from contexts(phi.left, vars)
        yield from contexts(phi.right, vars)
    elif isinstance(phi, SumX):
        yield from contexts(phi.body, vars + (phi.var,))
    yield phi, vars


def assert_same_automaton(got, want):
    assert got.nfa.alphabet == want.nfa.alphabet
    assert got.nfa.states == want.nfa.states
    assert got.nfa.transitions == want.nfa.transitions
    assert named_weights(got) == named_weights(want)
    assert got.nfa.initial == want.nfa.initial
    assert got.nfa.final == want.nfa.final


def tologic_formula(wa):
    """The formula `wfoc tologic` writes for wa, read back from its bytes."""
    phi = unambiguous_wa_to_wfo(wa) if is_unambiguous(wa) \
        else scc_unambiguous_to_wfo(wa)
    return parse_formula_file(serialize_formula_file(phi, "wfo"),
                              "wfo").formula


def stage_cases():
    cases = []
    for name in sorted(ALL_TEXTS):
        wa = load(name)
        try:
            phi = tologic_formula(wa)
        except HypothesisError:
            continue
        cases.append((name, phi, wa.nfa.alphabet))
    rng = random.Random(SEED + 11)
    cases += [("random-%d" % i, random_wfo(rng, ("a", "b")), AB)
              for i in range(20)]
    return cases


STAGE_CASES = stage_cases()


class TestReachableStages:
    def test_cases_cover_the_corpus_and_both_constructions(self):
        assert len(STAGE_CASES) == 9 + 20
        kinds = {type(sub) for (_, phi, _) in STAGE_CASES
                 for (sub, _) in contexts(phi, ())}
        assert {ProdX, SumX} <= kinds

    @pytest.mark.parametrize("name,phi,alphabet", STAGE_CASES,
                             ids=[c[0] for c in STAGE_CASES])
    def test_stages_equal_build_then_prune(self, name, phi, alphabet):
        stages = {}         # (subterm, variable context) -> its stage
        for (sub, wa), (sub2, vars) in zip(compile_stages(phi, alphabet),
                                           contexts(phi, ())):
            assert sub == sub2
            if isinstance(sub, ProdX):
                want = reference_product(sub.step, sub.var, alphabet, vars)
            elif isinstance(sub, WIte):
                want = reference_ite(sub.cond, stages[sub.then, vars],
                                     stages[sub.els, vars], alphabet, vars)
            elif isinstance(sub, Plus):
                want = nested_union(stages[sub.left, vars],
                                    stages[sub.right, vars])
            elif isinstance(sub, SumX):
                inner = tuple(sorted(vars + (sub.var,)))
                want = reference_sum_var(stages[sub.body, vars + (sub.var,)],
                                         sub.var, alphabet, inner)
            else:
                want = wa
            assert_same_automaton(canonical_relabel(wa),
                                  canonical_relabel(want))
            stages[sub, vars] = wa

    @pytest.mark.parametrize("name,phi,alphabet", STAGE_CASES,
                             ids=[c[0] for c in STAGE_CASES])
    def test_every_stage_is_numbered(self, name, phi, alphabet):
        # every state is an int or a flat tuple of ints: no stage nests
        # its children's names
        for _, wa in compile_stages(phi, alphabet):
            for s in wa.nfa.states:
                assert isinstance(s, int) or isinstance(s, tuple) and all(
                    type(x) is int for x in s), s

    def test_sum_var_reads_one_mark(self):
        # a body that would read the mark at every position: the
        # projection takes it once, so each position gives one run
        a0, a1 = ("a", (0,)), ("a", (1,))
        body = WeightedAutomaton(
            Nfa({1}, {a0, a1}, {(1, a0, 1), (1, a1, 1)}, {1}, {1}),
            {(1, a0, 1): 1, (1, a1, 1): 2})
        wa = compile_sum_var(body, "y", {"a"}, ("y",))
        assert_same_automaton(canonical_relabel(wa), canonical_relabel(
            reference_sum_var(body, "y", {"a"}, ("y",))))
        assert abstract_semantics(wa, ("a",) * 3) == SeqMultiset(
            {(2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1})



# -- the bimachine decode ----------------------------------------------------
#
# compile_product reads validity off the first classifier alone and then
# only the verdicts its cascade reaches.  That is sound when the k
# classifiers of a product, all over the same variables, reject together.


def decoded_codes(step, var, alphabet, vars=()):
    """The k suffix codes the bimachine of a position product reads: for
    every reachable joint prefix state, reachable joint suffix table and
    letter marked at the position."""
    conds = fo_conditions(step) or [FoTrue()]
    inner_vars = tuple(sorted(vars + (var,)))
    rows = [compile_fo(c, alphabet, inner_vars).delta for c in conds]
    lifted = lift_table(frozenset(alphabet), tuple(sorted(vars)), var)

    def advance(d):
        for _, j0, _ in lifted:
            yield j0, tuple(r[s - 1][j0] for r, s in zip(rows, d))

    def unwind(f):
        for _, j0, _ in lifted:
            yield j0, tuple(tuple(t[row[j0] - 1] for row in r)
                            for r, t in zip(rows, f))

    d0 = (1,) * len(rows)
    f_end = tuple(tuple(_CODE[v] for v in compile_fo(
        c, alphabet, inner_vars).verdicts) for c in conds)
    orbit = {d0} | {d2 for (_, _, d2) in explore([d0], advance)}
    suffixes = {f_end} | {f2 for (_, _, f2) in explore([f_end], unwind)}
    for d in orbit:
        for f in suffixes:
            for _, _, j1 in lifted:
                yield tuple(t[r[s - 1][j1] - 1]
                            for r, s, t in zip(rows, d, f))


def product_cases():
    """Every position product, with its variable context, of the corpus
    sentences and of 200 seeded random sentences."""
    rng = random.Random(SEED + 25)
    sentences = [c for c in STAGE_CASES if not c[0].startswith("random-")]
    sentences += [("random-%d" % i, random_wfo(rng, ("a", "b")), AB)
                  for i in range(200)]
    return [(name, sub, vars, alphabet) for name, phi, alphabet in sentences
            for sub, vars in contexts(phi, ()) if isinstance(sub, ProdX)]


PRODUCT_CASES = product_cases()


def reference_suffix_tables(c, lifted):
    """`wfo_compiler._suffix_tables` with its tables as int tuples, as it
    was first written."""
    cols = [[row[j0] - 1 for row in c.delta] for _, j0, _ in lifted]

    def unwind(t):
        for n, col in enumerate(cols):
            yield n, tuple(map(t.__getitem__, col))

    end = tuple(_CODE[v] for v in c.verdicts)
    edges = list(explore([end], unwind))
    tables = sorted({t for (t, _, _) in edges})
    rank = {t: r for r, t in enumerate(tables)}
    back = [[0] * len(tables) for _ in cols]
    for (t, n, t2) in edges:
        back[n][rank[t]] = rank[t2]
    return tables, rank[end], back


def classifier_cases():
    """(classifier, lifted) for every condition of the product cases, and
    the one-state classifiers of true and false over no variables, read
    through each of their letters."""
    seen = set()
    for _, prod, vars, alphabet in PRODUCT_CASES:
        inner = tuple(sorted(vars + (prod.var,)))
        lifted = lift_table(frozenset(alphabet), tuple(sorted(vars)),
                            prod.var)
        for cond in fo_conditions(prod.step) or [FoTrue()]:
            if (cond, inner, alphabet) not in seen:
                seen.add((cond, inner, alphabet))
                yield compile_fo(cond, alphabet, inner), lifted
    for cond in (FoTrue(), Not(FoTrue())):
        yield compile_fo(cond, AB, ()), (("a", 0, 0), ("b", 1, 1))


class TestBimachineDecode:
    def test_suffix_tables_are_the_tuple_tables_as_bytes(self):
        one_state = 0
        for c, lifted in classifier_cases():
            tables, end, back = wfo_compiler._suffix_tables(c, lifted)
            assert ([tuple(t) for t in tables], end, back) \
                == reference_suffix_tables(c, lifted)
            assert all(type(t) is bytes for t in tables)
            one_state += len(c.delta) == 1
        assert one_state == 2

    def test_candidates_are_where_some_suffix_table_accepts(self):
        for c, lifted in classifier_cases():
            tables = wfo_compiler._suffix_tables(c, lifted)[0]
            assert wfo_compiler._can_accept(c, lifted) == [
                any(t[s] == 2 for t in tables) for s in range(len(c.delta))]

    def test_classifiers_reject_together(self):
        joint, valid, invalid = 0, 0, 0
        for name, prod, vars, alphabet in PRODUCT_CASES:
            joint += len(fo_conditions(prod.step)) > 1
            for codes in decoded_codes(prod.step, prod.var, alphabet, vars):
                assert all(codes) or not any(codes), (name, prod, codes)
                valid += all(codes)
                invalid += not any(codes)
        assert len(PRODUCT_CASES) > 200 and joint >= 30
        assert valid > 1000 and invalid > 10000

    def test_products_equal_reference(self):
        for name, prod, vars, alphabet in PRODUCT_CASES:
            got = compile_product(prod.step, prod.var, alphabet, vars)
            want = reference_product(prod.step, prod.var, alphabet, vars)
            assert_same_automaton(canonical_relabel(got),
                                  canonical_relabel(want))

    def test_non_step_leaf_is_an_input_error_when_reached(self):
        with pytest.raises(InputError) as err:
            compile_product(StepIte(LetterAt("a", "x"), Const(1), Zero()),
                            "x", AB)
        assert str(err.value) == "not a step formula: Zero()"
        # x < x never holds: no position reaches the leaf
        wa = compile_product(StepIte(Lt("x", "x"), Zero(), Const(2)),
                             "x", AB)
        assert abstract_semantics(wa, ("a", "b")) == SeqMultiset(
            {(2, 2): 1})

    def test_condition_out_of_scope(self):
        for cond in (LetterAt("a", "y"), Lt("x", "z")):
            with pytest.raises(InputError) as err:
                compile_product(StepIte(cond, Const(1), Const(2)), "x", AB)
            assert str(err.value) == \
                "free variables of the condition not in scope"


# -- naming states by positions keeps the bytes -----------------------------
#
# The pipeline before stages were numbered: every stage named by nested
# tuples of its children's names.  Its output must be byte-identical to
# the compiler's.


def nested_compile(phi, base, vars=()):
    if isinstance(phi, Zero):
        letters = ext_alphabet(base, vars)
        return WeightedAutomaton(Nfa({0}, letters, set(), {0}, set()), {})
    if isinstance(phi, ProdX):
        return reference_product(phi.step, phi.var, base, vars)
    if isinstance(phi, WIte):
        return reference_ite(phi.cond, nested_compile(phi.then, base, vars),
                             nested_compile(phi.els, base, vars), base, vars)
    if isinstance(phi, Plus):
        return nested_union(nested_compile(phi.left, base, vars),
                               nested_compile(phi.right, base, vars))
    assert isinstance(phi, SumX)
    inner = tuple(sorted(vars + (phi.var,)))
    return reference_sum_var(nested_compile(phi.body, base, inner),
                             phi.var, base, inner)


def chain(n, rng):
    """chain-N: states 1..N over {a, b}, `i a i+1` and `i b i`, initial 1,
    final N, weights drawn from 0..3."""
    wgt = {(i, "a", i + 1): rng.randint(0, 3) for i in range(1, n)}
    wgt.update({(i, "b", i): rng.randint(0, 3) for i in range(1, n + 1)})
    return WeightedAutomaton(
        Nfa(range(1, n + 1), AB, set(wgt), {1}, {n}), wgt)


def chain_union(k, n, rng):
    """k state-disjoint chain-n copies, copy c on states c*n+1..c*n+n."""
    wgt = {(c * n + p, a, c * n + q): w for c in range(k)
           for (p, a, q), w in named_weights(chain(n, rng)).items()}
    return WeightedAutomaton(
        Nfa(range(1, k * n + 1), AB, set(wgt), {c * n + 1 for c in range(k)},
            {c * n + n for c in range(k)}), wgt)


def scc_formula(wa):
    """The formula `wfoc tologic --mode scc` writes for wa, read back."""
    return parse_formula_file(serialize_formula_file(
        scc_unambiguous_to_wfo(wa), "wfo"), "wfo").formula


def byte_cases():
    cases = [c for c in STAGE_CASES if not c[0].startswith("random-")]
    rng = random.Random(SEED + 13)
    cases += [("random-%d" % i, random_wfo(rng, ("a", "b")), AB)
              for i in range(40)]
    cases += [("chain-%d" % n, tologic_formula(chain(n, rng)), AB)
              for n in (10, 20, 30)]
    # nested sums, and with the union a + between them
    cases += [("scc-chain-%d" % n, scc_formula(chain(n, rng)), AB)
              for n in (4, 5)]
    cases.append(("scc-union-2x4", scc_formula(chain_union(2, 4, rng)), AB))
    return cases


BYTE_CASES = byte_cases()


class TestNumberedStagesKeepBytes:
    def test_cases(self):
        assert len(BYTE_CASES) == 9 + 40 + 3 + 3
        sums = {name: sum(isinstance(sub, SumX) for sub in nodes(phi))
                for name, phi, _ in BYTE_CASES[-3:]}
        assert sums == {"scc-chain-4": 3, "scc-chain-5": 4, "scc-union-2x4": 6}
        assert any(isinstance(sub, Plus) for sub in nodes(BYTE_CASES[-1][1]))

    @pytest.mark.parametrize("name,phi,alphabet", BYTE_CASES,
                             ids=[c[0] for c in BYTE_CASES])
    def test_same_bytes_as_nested_names(self, name, phi, alphabet):
        want = nested_compile(phi, frozenset(alphabet))
        assert serialize_automaton(compile_wfo(phi, alphabet)) == \
            serialize_automaton(want)


class TestClassifierMemo:
    def chain_product(self):
        phi = tologic_formula(chain(10, random.Random(SEED)))
        return next(sub for (sub, _) in contexts(phi, ())
                    if isinstance(sub, ProdX))

    def test_tables_equal_with_and_without_memo(self):
        prod = self.chain_product()
        memo = {}
        for cond in fo_conditions(prod.step):
            shared = compile_fo(cond, AB, (prod.var,), memo)
            alone = compile_fo(cond, AB, (prod.var,))
            assert (shared.letters, shared.delta, shared.verdicts) == \
                (alone.letters, alone.delta, alone.verdicts)

    def test_chain_product_minimizes_less(self, monkeypatch):
        # each condition is a chain of `&` over atoms, and a chain is one
        # product of its operands' cores: one table per condition, with
        # the memo and without it, where a table per atom and per binary
        # `&` made 60 with the memo
        prod = self.chain_product()
        conds = fo_conditions(prod.step)
        calls = []
        real_minimize = fo_compiler.minimize

        def counting(c):
            calls.append(1)
            return real_minimize(c)

        monkeypatch.setattr(fo_compiler, "minimize", counting)
        shared = compile_product(prod.step, prod.var, AB)
        with_memo = len(calls)
        del calls[:]
        monkeypatch.setattr(
            wfo_compiler, "compile_fo",
            lambda phi, alphabet, vars=None, memo=None:
                compile_fo(phi, alphabet, vars))
        alone = compile_product(prod.step, prod.var, AB)
        assert with_memo == len(calls) == len(conds) == 19 < 60
        assert serialize_automaton(shared) == serialize_automaton(alone)


# -- one builder ------------------------------------------------------------
#
# Every automaton a compilation or a decomposition makes is the reachable
# part of a construction (`reachable_nfa`, the one-state `zero` included),
# a restriction of one (`restrict`, behind `trim`) or the single-initial
# normal form.


def decomposable_corpus():
    names = []
    for name in sorted(ALL_TEXTS):
        try:
            decompose_with_trackers(load(name))
        except HypothesisError:
            continue
        names.append(name)
    return names


class TestOneBuilder:
    BUILDERS = {"wfoc.automata.reachable_nfa", "wfoc.automata.restrict",
                "wfoc.decompose.ensure_single_initial"}

    @staticmethod
    def builders(monkeypatch, run):
        """The functions that construct an Nfa while run() runs: every Nfa
        gets its fields from `Nfa._set`, called by the checked constructor
        or by a construction that fills the successor table itself."""
        seen = collections.Counter()
        real, checked = Nfa._set, Nfa.__init__.__code__

        def fill(self, *args, **kwargs):
            caller = sys._getframe(1)
            if caller.f_code is checked:
                caller = caller.f_back
            seen["%s.%s" % (caller.f_globals["__name__"],
                            caller.f_code.co_name)] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(Nfa, "_set", fill)
        run()
        monkeypatch.undo()
        return seen

    def test_compile_builds_through_the_builder(self, monkeypatch):
        seen = self.builders(monkeypatch, lambda: [
            compile_wfo(phi, alphabet) for _, phi, alphabet in STAGE_CASES])
        assert set(seen) <= self.BUILDERS
        assert seen["wfoc.automata.reachable_nfa"] > len(STAGE_CASES)

    def test_compile_sorts_no_letter_or_state(self, monkeypatch):
        # every construction takes its letters in letter_key order (a
        # classifier's, a lift table's, an input's `letters`), so once
        # the marked alphabets are sorted, by a first compile, another
        # compile calls neither state_key nor letter_key
        chain = ("alphabet: a b\nstates: %s\ninitial: 1\nfinal: 30\n"
                 % " ".join(map(str, range(1, 31)))
                 + "".join("trans: %d a %d %d\n" % (i, i + 1, i % 4)
                           for i in range(1, 30))
                 + "".join("trans: %d b %d 1\n" % (i, i)
                           for i in range(1, 31)))
        cases = [load("triplerun"), load("splitmax"),
                 parse_automaton(chain)]
        calls = collections.Counter()
        real = automata.state_key

        def counting(s):
            calls[s] += 1
            return real(s)

        for wa in cases:
            phi = auto_wa_to_wfo(wa)
            first = compile_wfo(phi, wa.nfa.alphabet)
            for module in (automata, encoding):
                for name in ("state_key", "letter_key"):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, counting)
            again = compile_wfo(phi, wa.nfa.alphabet)
            monkeypatch.undo()
            assert serialize_automaton(again) == serialize_automaton(first)
            assert not calls, (wa, calls)
        # the counter does count: a checked Nfa sorts its letters
        monkeypatch.setattr(automata, "letter_key", counting)
        Nfa({1}, "ba", set(), {1}, set())
        assert calls == {"a": 1, "b": 1}

    def test_decompose_builds_through_the_builder(self, monkeypatch):
        cases = [load(name) for name in decomposable_corpus()]
        assert len(cases) == 4
        seen = self.builders(monkeypatch, lambda: [
            decompose_with_trackers(wa) for wa in cases])
        assert set(seen) <= self.BUILDERS
        assert seen["wfoc.automata.reachable_nfa"] > len(cases)
