"""The formula walkers against the per-node versions they replaced.

The reference functions below are the walkers as first written, one branch
per node kind.  The package derives them all from `nodes`/`map_children`;
on seeded formulas built directly (not parsed, so binders may clash) both
must give the same results.
"""

import random
import re
import sys

import pytest

from corpus import SEED, all_words
from reference_freshen import captures, reference_freshen
from wfoc import InputError, Nfa
from wfoc.logic import (
    And, Const, EqVar, Exists, Forall, FoTrue, Implies, LetterAt, Leq, Lt,
    Not, Or, Plus, ProdX, RunAtom, StepIte, SumX, WfoFormula, WIte, Zero,
    after, before, between, fo_conditions, free_vars,
    freshen, relativize, survey, uses_plus, uses_sumx,
)
from wfoc.logic.evaluate import eval_wfo_at
from wfoc.logic.relativize import _bounds, _guard
from wfoc.logic.syntax import format_wfo, letters_in, nodes


# -- references -----------------------------------------------------------

def ref_children(node):
    if isinstance(node, Not):
        return (node.sub,)
    if isinstance(node, (And, Or, Implies)):
        return (node.left, node.right)
    if isinstance(node, (Forall, Exists)):
        return (node.body,)
    if isinstance(node, StepIte):
        return (node.cond, node.then, node.els)
    if isinstance(node, ProdX):
        return (node.step,)
    if isinstance(node, WIte):
        return (node.cond, node.then, node.els)
    if isinstance(node, Plus):
        return (node.left, node.right)
    if isinstance(node, SumX):
        return (node.body,)
    return ()


def ref_binder_var(node):
    if isinstance(node, (Forall, Exists, ProdX, SumX)):
        return node.var
    return None


def ref_free_vars(node):
    if isinstance(node, LetterAt):
        return frozenset({node.var})
    if isinstance(node, (Leq, Lt, EqVar)):
        return frozenset({node.left, node.right})
    if isinstance(node, RunAtom):
        return frozenset(v for v in (node.lo, node.hi) if v is not None)
    out = frozenset()
    for child in ref_children(node):
        out |= ref_free_vars(child)
    v = ref_binder_var(node)
    if v is not None:
        out -= {v}
    return out


def ref_uses_sumx(node):
    if isinstance(node, SumX):
        return True
    return any(ref_uses_sumx(c) for c in ref_children(node)
               if isinstance(c, WfoFormula))


def ref_uses_plus(node):
    if isinstance(node, Plus):
        return True
    return any(ref_uses_plus(c) for c in ref_children(node)
               if isinstance(c, WfoFormula))


def ref_fo_conditions(node):
    seen = []

    def walk(n):
        if isinstance(n, (StepIte, WIte)):
            if n.cond not in seen:
                seen.append(n.cond)
            walk(n.then)
            walk(n.els)
        else:
            for c in ref_children(n):
                walk(c)
    walk(node)
    return list(seen)


def ref_run_atoms(node):
    out = []

    def walk(n):
        if isinstance(n, RunAtom):
            if n not in out:
                out.append(n)
        for c in ref_children(n):
            walk(c)
    walk(node)
    return out


def ref_letters_in(node):
    if isinstance(node, LetterAt):
        return {node.letter}
    if isinstance(node, RunAtom):
        return set(node.nfa.alphabet)
    return set().union(*(ref_letters_in(c) for c in ref_children(node)))


def ref_fresh_name(base, used):
    name = base
    while name in used:
        name += "'"
    return name


def ref_rename_free(node, mapping):
    def get(v):
        return mapping.get(v, v)
    if isinstance(node, LetterAt):
        return LetterAt(node.letter, get(node.var))
    if isinstance(node, Leq):
        return Leq(get(node.left), get(node.right))
    if isinstance(node, Lt):
        return Lt(get(node.left), get(node.right))
    if isinstance(node, EqVar):
        return EqVar(get(node.left), get(node.right))
    if isinstance(node, RunAtom):
        lo = get(node.lo) if node.lo is not None else None
        hi = get(node.hi) if node.hi is not None else None
        return RunAtom(node.name, node.nfa, node.p, node.q, lo, hi,
                       node.bounded)
    if isinstance(node, FoTrue):
        return node
    if isinstance(node, Not):
        return Not(ref_rename_free(node.sub, mapping))
    if isinstance(node, And):
        return And(ref_rename_free(node.left, mapping),
                   ref_rename_free(node.right, mapping))
    if isinstance(node, Or):
        return Or(ref_rename_free(node.left, mapping),
                  ref_rename_free(node.right, mapping))
    if isinstance(node, Implies):
        return Implies(ref_rename_free(node.left, mapping),
                       ref_rename_free(node.right, mapping))
    if isinstance(node, (Forall, Exists, SumX)):
        inner = {k: v for k, v in mapping.items() if k != node.var}
        body = ref_rename_free(node.body, inner)
        return type(node)(node.var, body)
    if isinstance(node, ProdX):
        inner = {k: v for k, v in mapping.items() if k != node.var}
        return ProdX(node.var, ref_rename_free(node.step, inner))
    if isinstance(node, Const):
        return node
    if isinstance(node, StepIte):
        return StepIte(ref_rename_free(node.cond, mapping),
                       ref_rename_free(node.then, mapping),
                       ref_rename_free(node.els, mapping))
    if isinstance(node, Zero):
        return node
    if isinstance(node, WIte):
        return WIte(ref_rename_free(node.cond, mapping),
                    ref_rename_free(node.then, mapping),
                    ref_rename_free(node.els, mapping))
    if isinstance(node, Plus):
        return Plus(ref_rename_free(node.left, mapping),
                    ref_rename_free(node.right, mapping))
    raise TypeError("not a formula node: %r" % (node,))


def ref_freshen(node, avoid=()):
    used = set(ref_free_vars(node)) | set(avoid)

    def walk(n):
        v = ref_binder_var(n)
        if v is None:
            if isinstance(n, Not):
                return Not(walk(n.sub))
            if isinstance(n, (And, Or, Implies, Plus)):
                return type(n)(walk(n.left), walk(n.right))
            if isinstance(n, (StepIte, WIte)):
                return type(n)(walk(n.cond), walk(n.then), walk(n.els))
            return n
        new = ref_fresh_name(v, used)
        used.add(new)
        if isinstance(n, ProdX):
            body = n.step if new == v else ref_rename_free(n.step, {v: new})
            return ProdX(new, walk(body))
        body = n.body if new == v else ref_rename_free(n.body, {v: new})
        return type(n)(new, walk(body))

    return walk(node)


def ref_relativize(phi, mode):
    _guard(mode, "z")
    if ref_free_vars(phi):
        raise InputError("can only relativize sentences, free: %s"
                         % ", ".join(sorted(ref_free_vars(phi))))
    phi = ref_freshen(phi, avoid=set(mode[1:]))
    return ref_rel(phi, mode)


def ref_rel(phi, mode):
    if isinstance(phi, (FoTrue, LetterAt, Leq, Lt, EqVar)):
        return phi
    if isinstance(phi, Not):
        return Not(ref_rel(phi.sub, mode))
    if isinstance(phi, And):
        return And(ref_rel(phi.left, mode), ref_rel(phi.right, mode))
    if isinstance(phi, Or):
        return Or(ref_rel(phi.left, mode), ref_rel(phi.right, mode))
    if isinstance(phi, Implies):
        return Implies(ref_rel(phi.left, mode), ref_rel(phi.right, mode))
    if isinstance(phi, Forall):
        return Forall(phi.var,
                      Implies(_guard(mode, phi.var), ref_rel(phi.body, mode)))
    if isinstance(phi, Exists):
        return Exists(phi.var,
                      And(_guard(mode, phi.var), ref_rel(phi.body, mode)))
    if isinstance(phi, RunAtom):
        if phi.bounded or phi.lo is not None or phi.hi is not None:
            raise InputError("run atom %s is already bounded" % phi.name)
        lo, hi = _bounds(mode)
        return RunAtom(phi.name, phi.nfa, phi.p, phi.q, lo, hi, bounded=True)
    raise TypeError("not an FO formula: %r" % (phi,))


# -- seeded formulas --------------------------------------------------------

# three names, so that the same name is often bound twice, bound in
# parallel subtrees, and both free and bound
NAMES = ("x", "y", "z")
M = Nfa({1, 2}, {"a", "b"}, {(1, "a", 1), (1, "b", 2)}, {1}, {2})
N = Nfa({1}, {"c"}, {(1, "c", 1)}, {1}, {1})


def gen_run_atom(rng, bounds):
    name, nfa = rng.choice([("M", M), ("N", N)])
    p, q = rng.choice(sorted(nfa.states)), rng.choice(sorted(nfa.states))
    if not bounds:
        return RunAtom(name, nfa, p, q)
    lo, hi = rng.choice([(None, None), (None, "v"), ("v", None),
                         ("v", "w")])
    lo = lo and rng.choice(NAMES)
    hi = hi and rng.choice(NAMES)
    return RunAtom(name, nfa, p, q, lo, hi,
                   bounded=bool(lo or hi) or rng.random() < 0.5)


def gen_fo(rng, depth, bounds=True):
    kinds = ["true", "letter", "cmp", "run"]
    if depth > 0:
        kinds += ["not", "bin", "bin", "quant", "quant"]
    kind = rng.choice(kinds)
    if kind == "true":
        return FoTrue()
    if kind == "letter":
        return LetterAt(rng.choice("abc"), rng.choice(NAMES))
    if kind == "cmp":
        return rng.choice([Leq, Lt, EqVar])(rng.choice(NAMES),
                                            rng.choice(NAMES))
    if kind == "run":
        return gen_run_atom(rng, bounds)
    if kind == "not":
        return Not(gen_fo(rng, depth - 1, bounds))
    if kind == "bin":
        return rng.choice([And, Or, Implies])(gen_fo(rng, depth - 1, bounds),
                                              gen_fo(rng, depth - 1, bounds))
    return rng.choice([Forall, Exists])(rng.choice(NAMES),
                                        gen_fo(rng, depth - 1, bounds))


def gen_step(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        return Const(rng.randrange(4))
    return StepIte(gen_fo(rng, 2), gen_step(rng, depth - 1),
                   gen_step(rng, depth - 1))


def gen_wfo(rng, depth):
    kinds = ["zero", "prod"]
    if depth > 0:
        kinds += ["ite", "plus", "sum", "sum"]
    kind = rng.choice(kinds)
    if kind == "zero":
        return Zero()
    if kind == "prod":
        return ProdX(rng.choice(NAMES), gen_step(rng, 3))
    if kind == "ite":
        return WIte(gen_fo(rng, 2), gen_wfo(rng, depth - 1),
                    gen_wfo(rng, depth - 1))
    if kind == "plus":
        return Plus(gen_wfo(rng, depth - 1), gen_wfo(rng, depth - 1))
    return SumX(rng.choice(NAMES), gen_wfo(rng, depth - 1))


def close(rng, phi):
    """phi under a binder for each free name, so it is a sentence."""
    for v in sorted(ref_free_vars(phi)):
        phi = rng.choice([Forall, Exists])(v, phi)
    return phi


# one of each binder clash, whatever the seed gives
CLASHES = [
    And(LetterAt("a", "x"), Exists("x", Lt("x", "y"))),
    Or(Forall("x", LetterAt("a", "x")), Exists("x", LetterAt("b", "x"))),
    SumX("x", ProdX("x", StepIte(LetterAt("a", "x"), Const(1), Const(2)))),
    SumX("x", WIte(Leq("x", "y"), ProdX("x", Const(1)),
                   SumX("x", ProdX("y", Const(3))))),
    Forall("x", Exists("x", RunAtom("M", M, 1, 2, "x", "y", True))),
]


def seeded_formulas():
    rng = random.Random(SEED + 77)
    out = list(CLASHES)
    out += [gen_fo(rng, 4) for _ in range(70)]
    out += [gen_step(rng, 4) for _ in range(60)]
    out += [gen_wfo(rng, 4) for _ in range(70)]
    return out


FORMULAS = seeded_formulas()


def bound_names(phi):
    return [ref_binder_var(n) for n in nodes(phi)
            if ref_binder_var(n) is not None]


class TestSeededFormulas:

    def test_cover_every_node_kind_and_clash(self):
        kinds = {type(n) for phi in FORMULAS for n in nodes(phi)}
        assert kinds == {FoTrue, LetterAt, Leq, Lt, EqVar, Not, And, Or,
                         Implies, Forall, Exists, RunAtom, Const, StepIte,
                         Zero, ProdX, WIte, Plus, SumX}
        assert any(n.lo and n.hi for phi in FORMULAS for n in nodes(phi)
                   if isinstance(n, RunAtom))
        # a name both free and bound; a name bound twice
        assert sum(bool(ref_free_vars(phi) & set(bound_names(phi)))
                   for phi in FORMULAS) > 20
        assert sum(len(set(bound_names(phi))) < len(bound_names(phi))
                   for phi in FORMULAS) > 20

    @pytest.mark.parametrize("i", range(len(FORMULAS)))
    def test_walkers_match_reference(self, i):
        phi = FORMULAS[i]
        assert free_vars(phi) == ref_free_vars(phi)
        assert uses_sumx(phi) == ref_uses_sumx(phi)
        assert uses_plus(phi) == ref_uses_plus(phi)
        assert fo_conditions(phi) == ref_fo_conditions(phi)
        assert survey(phi) == (ref_run_atoms(phi), ref_uses_sumx(phi),
                               ref_uses_plus(phi))
        assert letters_in(phi) == ref_letters_in(phi)
        for avoid in ((), ("x",), ("y", "z'")):
            assert freshen(phi, avoid) == ref_freshen(phi, avoid)

    def test_relativize_matches_reference(self):
        rng = random.Random(SEED + 78)
        refused = 0
        for _ in range(60):
            phi = close(rng, gen_fo(rng, 4, bounds=rng.random() < 0.2))
            for mode in (before("x"), after("y"), between("x", "z")):
                try:
                    want = ref_relativize(phi, mode)
                except InputError as err:
                    refused += 1
                    with pytest.raises(InputError, match=re.escape(str(err))):
                        relativize(phi, mode)
                    continue
                assert relativize(phi, mode) == want
        assert refused > 0


# -- freshen against the recursive version it replaced ----------------------

# primed and unprimed names: a binder renamed x -> x' meets an inner
# binder that is called x' already
PRIMED = ("x", "x'", "y", "y'")
WORDS = all_words(("a", "b"), 3)


def gen_scoped_fo(rng, scope, depth):
    """An FO formula whose variables are in scope.  A binder takes a name
    not in scope, so nothing is shadowed and the brute-force evaluator
    reads it, but parallel subtrees bind the same names."""
    unbound = [v for v in PRIMED if v not in scope]
    kinds = ["true"] + ["letter", "cmp"] * bool(scope)
    if depth > 0:
        kinds += ["not", "bin", "bin"] + ["quant", "quant"] * bool(unbound)
    kind = rng.choice(kinds)
    if kind == "true":
        return FoTrue()
    if kind == "letter":
        return LetterAt(rng.choice("ab"), rng.choice(scope))
    if kind == "cmp":
        return rng.choice([Leq, Lt, EqVar])(rng.choice(scope),
                                            rng.choice(scope))
    if kind == "not":
        return Not(gen_scoped_fo(rng, scope, depth - 1))
    if kind == "bin":
        return rng.choice([And, Or, Implies])(
            gen_scoped_fo(rng, scope, depth - 1),
            gen_scoped_fo(rng, scope, depth - 1))
    v = rng.choice(unbound)
    return rng.choice([Forall, Exists])(
        v, gen_scoped_fo(rng, scope + [v], depth - 1))


def gen_scoped_wfo(rng, scope, depth):
    unbound = [v for v in PRIMED if v not in scope]
    if depth > 0:
        kinds = ["ite", "plus"] + ["sum", "sum"] * bool(unbound)
    else:
        kinds = ["zero"] + ["prod"] * bool(unbound)
    kind = rng.choice(kinds)
    if kind == "zero":
        return Zero()
    if kind == "ite":
        return WIte(gen_scoped_fo(rng, scope, 2),
                    gen_scoped_wfo(rng, scope, depth - 1),
                    gen_scoped_wfo(rng, scope, depth - 1))
    if kind == "plus":
        return Plus(gen_scoped_wfo(rng, scope, depth - 1),
                    gen_scoped_wfo(rng, scope, depth - 1))
    v = rng.choice(unbound)
    if kind == "prod":
        return ProdX(v, StepIte(gen_scoped_fo(rng, scope + [v], 2),
                                Const(rng.randrange(4)),
                                Const(rng.randrange(4))))
    return SumX(v, gen_scoped_wfo(rng, scope + [v], depth - 1))


def gen_scoped_sentence(rng):
    """Two sums over x side by side: the second one's x is renamed, and
    its body may bind x' already."""
    return Plus(SumX("x", gen_scoped_wfo(rng, ["x"], 2)),
                SumX("x", gen_scoped_wfo(rng, ["x"], 2)))


SCOPED = [gen_scoped_sentence(random.Random(SEED + 79 + i))
          for i in range(300)]


def values(phi):
    return [eval_wfo_at(phi, w) for w in WORDS]


class TestFreshen:

    def test_equal_to_the_reference_where_it_does_not_capture(self):
        kept = 0
        for phi in FORMULAS + SCOPED:
            for avoid in ((), ("x",), ("y", "z'")):
                if not captures(phi, avoid):
                    kept += 1
                    assert freshen(phi, avoid) \
                        == reference_freshen(phi, avoid), phi
        assert kept > 600

    def test_distinct_unused_binders_come_back_as_they_are(self):
        # binder names pairwise distinct and neither free nor avoided:
        # nothing is renamed, so freshen hands back the tree itself, and
        # the reference (which rebuilds it) agrees
        kept = 0
        for phi in FORMULAS + SCOPED:
            for avoid in ((), ("x",), ("y", "z'")):
                bound = bound_names(phi)
                if len(set(bound)) < len(bound) \
                        or set(bound) & (free_vars(phi) | set(avoid)):
                    assert freshen(phi, avoid) is not phi
                    continue
                kept += 1
                assert freshen(phi, avoid) is phi
                assert reference_freshen(phi, avoid) == phi
        assert kept > 100
        phi = Plus(SumX("x", ProdX("y", Const(1))),
                   SumX("z", WIte(Exists("w", LetterAt("a", "w")),
                                  ProdX("v", Const(2)), Zero())))
        assert freshen(phi) is phi
        assert freshen(phi, avoid=("v",)) is not phi

    def test_keeps_the_value_where_the_reference_captures(self):
        captured = changed = 0
        for phi in SCOPED:
            new = freshen(phi)
            bound = bound_names(new)
            assert len(set(bound)) == len(bound)
            assert values(new) == values(phi), phi
            old = reference_freshen(phi)
            if old != new:
                assert captures(phi)
                captured += 1
                changed += values(old) != values(phi)
        # the seeded formulas do meet the capture, and it moves a value
        assert captured > 20 and changed > 5

    def test_the_sum_whose_outer_variable_was_captured(self):
        # (sum x. Pa(x) ? prod z. 1 : zero)
        #     + (sum x. sum x'. (Pa(x) & Pb(x')) ? prod z. 2 : zero)
        def summand(x, weight, inner=None):
            cond = LetterAt("a", x)
            if inner:
                cond = And(cond, LetterAt("b", inner))
            body = WIte(cond, ProdX("z", Const(weight)), Zero())
            return SumX(x, SumX(inner, body) if inner else body)
        phi = Plus(summand("x", 1), summand("x", 2, "x'"))
        by_hand = Plus(summand("x", 1), summand("y", 2, "x'"))
        want = values(by_hand)
        assert values(phi) == want
        assert values(freshen(phi)) == want
        assert values(reference_freshen(phi)) != want
        renamed = SumX("x'", SumX("x''", WIte(
            And(LetterAt("a", "x'"), LetterAt("b", "x''")),
            ProdX("z'", Const(2)), Zero())))
        assert freshen(phi) == Plus(summand("x", 1), renamed)

    def test_many_parallel_binders(self):
        # n parallel binders of one name take x, x', ..., n - 1 primes:
        # each search starts after the primes its name found taken, and
        # with bases that are primed names themselves the names still
        # come out as the reference draws them
        def summands(names):
            return [WIte(Exists(v, LetterAt("a", v)), Zero(), Zero())
                    for v in names]

        def balanced(items):
            while len(items) > 1:
                pairs = [Plus(*items[i:i + 2])
                         for i in range(0, len(items) - 1, 2)]
                items = pairs + items[len(pairs) * 2:]
            return items[0]

        rng = random.Random(SEED + 80)
        for names in (["x"] * 2000,
                      [rng.choice(("x", "x'", "x''")) for _ in range(2000)]):
            phi = balanced(summands(names))
            new = freshen(phi)
            assert new == reference_freshen(phi)
            assert sorted(bound_names(new), key=len) == \
                ["x" + "'" * i for i in range(2000)]

    def test_any_depth_at_the_default_recursion_limit(self):
        depth = 4 * sys.getrecursionlimit()
        fo = Exists("x", LetterAt("a", "x"))
        for _ in range(depth):
            fo = Not(fo)
        phi = WIte(fo, ProdX("x", Const(0)), Zero())
        for i in range(depth):
            # each name is bound twice, so half of the binders are renamed
            phi = Plus(phi, SumX("x%d" % (i // 2),
                                 ProdX("y%d" % i, Const(i % 4))))
        new = freshen(phi)
        assert len(list(nodes(new))) == len(list(nodes(phi))) == 6 + 5 * depth
        bound = bound_names(new)
        assert len(set(bound)) == len(bound) == 2 + 2 * depth
        deep = Zero()
        for _ in range(depth):
            deep = Plus(deep, WIte(RunAtom("M", M, 1, 2), Zero(), Zero()))
        summand = " + (run:M(2,1) ? zero : zero)"
        assert format_wfo(deep, {"M": {1: 2, 2: 1}}) == \
            "(" * (depth - 1) + "zero" + (summand + ")") * (depth - 1) \
            + summand
