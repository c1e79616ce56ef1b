"""Syntax trees for the three formula layers.

FO formulas are boolean conditions over word positions.  Step formulas are
if-then-else cascades of FO conditions ending in weight constants, so they
denote a single weight at each position.  Weighted formulas denote finite
multisets of weight sequences.

All nodes are immutable and hashable.  Invariant maintained by the parser
and the construction helpers: bound variables are pairwise distinct and
distinct from every free variable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from ..weights import format_weight


class FoFormula:
    __slots__ = ()


class StepFormula:
    __slots__ = ()


class WfoFormula:
    __slots__ = ()


@dataclass(frozen=True)
class FoTrue(FoFormula):
    pass


@dataclass(frozen=True)
class LetterAt(FoFormula):
    letter: object
    var: str


@dataclass(frozen=True)
class Leq(FoFormula):
    left: str
    right: str


@dataclass(frozen=True)
class Lt(FoFormula):
    left: str
    right: str


@dataclass(frozen=True)
class EqVar(FoFormula):
    left: str
    right: str


@dataclass(frozen=True)
class Not(FoFormula):
    sub: FoFormula


@dataclass(frozen=True)
class And(FoFormula):
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class Or(FoFormula):
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class Implies(FoFormula):
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class Forall(FoFormula):
    var: str
    body: FoFormula


@dataclass(frozen=True)
class Exists(FoFormula):
    var: str
    body: FoFormula


@dataclass(frozen=True)
class RunAtom(FoFormula):
    """Semantic atom: the designated factor of the word admits a run of the
    named automaton from state p to state q.  Bounds select the factor:
    both None = the whole word, (None, x) = strictly before x, (x, None) =
    strictly after x, (x, y) = strictly between.  The empty factor is
    accepted exactly when p == q."""
    name: str
    nfa: object
    p: object
    q: object
    lo: Optional[str] = None
    hi: Optional[str] = None
    bounded: bool = False  # True once relativized; blocks re-relativizing


@dataclass(frozen=True)
class Const(StepFormula):
    weight: object


@dataclass(frozen=True)
class StepIte(StepFormula):
    cond: FoFormula
    then: StepFormula
    els: StepFormula


@dataclass(frozen=True)
class Zero(WfoFormula):
    pass


@dataclass(frozen=True)
class ProdX(WfoFormula):
    var: str
    step: StepFormula


@dataclass(frozen=True)
class WIte(WfoFormula):
    cond: FoFormula
    then: WfoFormula
    els: WfoFormula


@dataclass(frozen=True)
class Plus(WfoFormula):
    left: WfoFormula
    right: WfoFormula


@dataclass(frozen=True)
class SumX(WfoFormula):
    var: str
    body: WfoFormula


def _children(node):
    if isinstance(node, (Not,)):
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


def _binder_var(node):
    if isinstance(node, (Forall, Exists, ProdX, SumX)):
        return node.var
    return None


def free_vars(node) -> frozenset:
    if isinstance(node, LetterAt):
        return frozenset({node.var})
    if isinstance(node, (Leq, Lt, EqVar)):
        return frozenset({node.left, node.right})
    if isinstance(node, RunAtom):
        return frozenset(v for v in (node.lo, node.hi) if v is not None)
    out = frozenset()
    for child in _children(node):
        out |= free_vars(child)
    v = _binder_var(node)
    if v is not None:
        out -= {v}
    return out


def bound_vars(node) -> frozenset:
    out = frozenset()
    v = _binder_var(node)
    if v is not None:
        out |= {v}
    for child in _children(node):
        out |= bound_vars(child)
    return out


def is_sentence(phi: FoFormula) -> bool:
    return not free_vars(phi)


def uses_sumx(node) -> bool:
    if isinstance(node, SumX):
        return True
    return any(uses_sumx(c) for c in _children(node)
               if isinstance(c, WfoFormula))


def uses_plus(node) -> bool:
    if isinstance(node, Plus):
        return True
    return any(uses_plus(c) for c in _children(node)
               if isinstance(c, WfoFormula))


def fo_conditions(node):
    """FO conditions of a step/weighted formula, in syntax order, deduped."""
    seen = []
    def walk(n):
        if isinstance(n, (StepIte, WIte)):
            if n.cond not in seen:
                seen.append(n.cond)
            walk(n.then)
            walk(n.els)
        else:
            for c in _children(n):
                walk(c)
    walk(node)
    return list(seen)


def run_atoms(node):
    out = []
    def walk(n):
        if isinstance(n, RunAtom):
            if n not in out:
                out.append(n)
        for c in _children(n):
            walk(c)
    walk(node)
    return out


def map_run_atoms(node, fn):
    """The formula with every run atom replaced by fn(atom)."""
    if isinstance(node, RunAtom):
        return fn(node)
    changes = {}
    for f in fields(node):
        child = getattr(node, f.name)
        if isinstance(child, (FoFormula, StepFormula, WfoFormula)):
            changes[f.name] = map_run_atoms(child, fn)
    return replace(node, **changes) if changes else node


def letters_in(node) -> set:
    """The letters a formula names: in letter atoms and as the alphabets
    of its run atoms' automata."""
    if isinstance(node, LetterAt):
        return {node.letter}
    if isinstance(node, RunAtom):
        return set(node.nfa.alphabet)
    return set().union(*(letters_in(c) for c in _children(node)))


def fresh_name(base: str, used) -> str:
    name = base
    while name in used:
        name += "'"
    return name


def _rename_free(node, mapping):
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
        return Not(_rename_free(node.sub, mapping))
    if isinstance(node, And):
        return And(_rename_free(node.left, mapping),
                   _rename_free(node.right, mapping))
    if isinstance(node, Or):
        return Or(_rename_free(node.left, mapping),
                  _rename_free(node.right, mapping))
    if isinstance(node, Implies):
        return Implies(_rename_free(node.left, mapping),
                       _rename_free(node.right, mapping))
    if isinstance(node, (Forall, Exists, SumX)):
        inner = {k: v for k, v in mapping.items() if k != node.var}
        body = _rename_free(node.body, inner)
        return type(node)(node.var, body)
    if isinstance(node, ProdX):
        inner = {k: v for k, v in mapping.items() if k != node.var}
        return ProdX(node.var, _rename_free(node.step, inner))
    if isinstance(node, Const):
        return node
    if isinstance(node, StepIte):
        return StepIte(_rename_free(node.cond, mapping),
                       _rename_free(node.then, mapping),
                       _rename_free(node.els, mapping))
    if isinstance(node, Zero):
        return node
    if isinstance(node, WIte):
        return WIte(_rename_free(node.cond, mapping),
                    _rename_free(node.then, mapping),
                    _rename_free(node.els, mapping))
    if isinstance(node, Plus):
        return Plus(_rename_free(node.left, mapping),
                    _rename_free(node.right, mapping))
    raise TypeError("not a formula node: %r" % (node,))


def freshen(node, avoid=()):
    """Alpha-rename binders so that all bound names are pairwise distinct
    and avoid the free variables plus `avoid`."""
    used = set(free_vars(node)) | set(avoid)

    def walk(n):
        v = _binder_var(n)
        if v is None:
            if isinstance(n, Not):
                return Not(walk(n.sub))
            if isinstance(n, (And, Or, Implies, Plus)):
                return type(n)(walk(n.left), walk(n.right))
            if isinstance(n, (StepIte, WIte)):
                return type(n)(walk(n.cond), walk(n.then), walk(n.els))
            return n
        new = fresh_name(v, used)
        used.add(new)
        if isinstance(n, ProdX):
            body = n.step if new == v else _rename_free(n.step, {v: new})
            return ProdX(new, walk(body))
        body = n.body if new == v else _rename_free(n.body, {v: new})
        return type(n)(new, walk(body))

    return walk(node)


# ---------------------------------------------------------------------------
# printing (round-trips through the parser)

_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4
_PREC_ATOM = 5


def _fmt_fo(phi, prec):
    if isinstance(phi, FoTrue):
        return "true"
    if isinstance(phi, LetterAt):
        return "P%s(%s)" % (phi.letter, phi.var)
    if isinstance(phi, Leq):
        s = "%s <= %s" % (phi.left, phi.right)
        return "(" + s + ")" if prec > _PREC_AND else s
    if isinstance(phi, Lt):
        s = "%s < %s" % (phi.left, phi.right)
        return "(" + s + ")" if prec > _PREC_AND else s
    if isinstance(phi, EqVar):
        s = "%s = %s" % (phi.left, phi.right)
        return "(" + s + ")" if prec > _PREC_AND else s
    if isinstance(phi, Not):
        return "!" + _fmt_fo(phi.sub, _PREC_ATOM)
    if isinstance(phi, And):
        s = "%s & %s" % (_fmt_fo(phi.left, _PREC_AND),
                         _fmt_fo(phi.right, _PREC_UNARY))
        return "(" + s + ")" if prec > _PREC_AND else s
    if isinstance(phi, Or):
        s = "%s | %s" % (_fmt_fo(phi.left, _PREC_OR),
                         _fmt_fo(phi.right, _PREC_AND))
        return "(" + s + ")" if prec > _PREC_OR else s
    if isinstance(phi, Implies):
        s = "%s -> %s" % (_fmt_fo(phi.left, _PREC_OR),
                          _fmt_fo(phi.right, _PREC_IMPLIES))
        return "(" + s + ")" if prec > _PREC_IMPLIES else s
    if isinstance(phi, (Forall, Exists)):
        kw = "forall" if isinstance(phi, Forall) else "exists"
        s = "%s %s. %s" % (kw, phi.var, _fmt_fo(phi.body, 0))
        return "(" + s + ")" if prec > 0 else s
    if isinstance(phi, RunAtom):
        if phi.lo is None and phi.hi is None:
            where = ""
        elif phi.lo is None:
            where = ";<%s" % phi.hi
        elif phi.hi is None:
            where = ";>%s" % phi.lo
        else:
            where = ";%s,%s" % (phi.lo, phi.hi)
        return "run:%s(%s,%s%s)" % (phi.name, phi.p, phi.q, where)
    raise TypeError("not an FO formula: %r" % (phi,))


def format_fo(phi: FoFormula) -> str:
    return _fmt_fo(phi, 0)


def format_step(psi: StepFormula) -> str:
    if isinstance(psi, Const):
        return format_weight(psi.weight)
    if isinstance(psi, StepIte):
        return "%s ? %s : %s" % (_fmt_fo(psi.cond, _PREC_ATOM),
                                 _fmt_step_branch(psi.then),
                                 format_step(psi.els))
    raise TypeError("not a step formula: %r" % (psi,))


def _fmt_step_branch(psi):
    if isinstance(psi, StepIte):
        return "(" + format_step(psi) + ")"
    return format_step(psi)


def format_wfo(phi: WfoFormula) -> str:
    if isinstance(phi, Zero):
        return "zero"
    if isinstance(phi, ProdX):
        return "prod %s. %s" % (phi.var, format_step(phi.step))
    if isinstance(phi, SumX):
        return "sum %s. %s" % (phi.var, format_wfo(phi.body))
    if isinstance(phi, Plus):
        return "%s + %s" % (_fmt_wfo_operand(phi.left),
                            _fmt_wfo_operand(phi.right))
    if isinstance(phi, WIte):
        return "%s ? %s : %s" % (_fmt_fo(phi.cond, _PREC_ATOM),
                                 _fmt_wfo_branch(phi.then),
                                 format_wfo(phi.els))
    raise TypeError("not a weighted formula: %r" % (phi,))


def _fmt_wfo_operand(phi):
    if isinstance(phi, (WIte, Plus, SumX)):
        return "(" + format_wfo(phi) + ")"
    if isinstance(phi, ProdX):
        return "(" + format_wfo(phi) + ")"
    return format_wfo(phi)


def _fmt_wfo_branch(phi):
    if isinstance(phi, WIte):
        return "(" + format_wfo(phi) + ")"
    return format_wfo(phi)
