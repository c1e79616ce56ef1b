"""Syntax trees for the three formula layers.

FO formulas are boolean conditions over word positions.  Step formulas are
if-then-else cascades of FO conditions ending in weight constants, so they
denote a single weight at each position.  Weighted formulas denote finite
multisets of weight sequences.

All nodes are immutable and hashable.  Invariant maintained by the parser
and the construction helpers: bound variables are pairwise distinct and
distinct from every free variable.

Every walk goes through `nodes` (pre-order) or `map_children` (rebuild).
Which fields of a node are sub-formulas is read once from the dataclass
annotations; `_VARS` names the fields that hold variable occurrences.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from typing import Optional

from ..errors import InputError
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


_BINDERS = (Forall, Exists, ProdX, SumX)

# The fields that hold variable occurrences; a binder's `var` is not one.
_VARS = {LetterAt: ("var",), Leq: ("left", "right"), Lt: ("left", "right"),
         EqVar: ("left", "right"), RunAtom: ("lo", "hi")}

# The sub-formula fields of every node class, read off its annotations.
_SUB = {cls: tuple(f.name for f in fields(cls)
                   if f.type in ("FoFormula", "StepFormula", "WfoFormula"))
        for base in (FoFormula, StepFormula, WfoFormula)
        for cls in base.__subclasses__()}


def nodes(phi):
    """Every node of phi in pre-order, children in field order."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(getattr(node, f) for f in reversed(_SUB[type(node)]))


def map_children(phi, fn):
    """phi with each sub-formula child c replaced by fn(c), the children
    visited in field order."""
    names = _SUB[type(phi)]
    if not names:
        return phi
    return replace(phi, **{f: fn(getattr(phi, f)) for f in names})


def free_vars(node) -> frozenset:
    out = set()
    stack = [(node, frozenset())]
    while stack:
        n, bound = stack.pop()
        for f in _VARS.get(type(n), ()):
            v = getattr(n, f)
            if v is not None and v not in bound:
                out.add(v)
        if isinstance(n, _BINDERS):
            bound = bound | {n.var}
        stack.extend((getattr(n, f), bound) for f in _SUB[type(n)])
    return frozenset(out)


def is_sentence(phi: FoFormula) -> bool:
    return not free_vars(phi)


def uses_sumx(node) -> bool:
    return any(isinstance(n, SumX) for n in nodes(node))


def uses_plus(node) -> bool:
    return any(isinstance(n, Plus) for n in nodes(node))


def fo_conditions(node):
    """FO conditions of a step/weighted formula, in syntax order, deduped."""
    return list(dict.fromkeys(n.cond for n in nodes(node)
                              if isinstance(n, (StepIte, WIte))))


def run_atoms(node):
    return list(dict.fromkeys(n for n in nodes(node)
                              if isinstance(n, RunAtom)))


def map_run_atoms(node, fn):
    """The formula with every run atom replaced by fn(atom)."""
    if isinstance(node, RunAtom):
        return fn(node)
    return map_children(node, lambda c: map_run_atoms(c, fn))


def letters_in(node) -> set:
    """The letters a formula names: in letter atoms and as the alphabets
    of its run atoms' automata."""
    out = set()
    for n in nodes(node):
        if isinstance(n, LetterAt):
            out.add(n.letter)
        elif isinstance(n, RunAtom):
            out |= n.nfa.alphabet
    return out


def fresh_name(base: str, used) -> str:
    name = base
    while name in used:
        name += "'"
    return name


def _rename_free(node, mapping):
    names = _VARS.get(type(node))
    if names:
        return replace(node, **{f: mapping.get(getattr(node, f),
                                               getattr(node, f))
                                for f in names})
    if isinstance(node, _BINDERS) and node.var in mapping:
        mapping = {k: v for k, v in mapping.items() if k != node.var}
    return map_children(node, lambda c: _rename_free(c, mapping))


def freshen(node, avoid=()):
    """Alpha-rename binders so that all bound names are pairwise distinct
    and avoid the free variables plus `avoid`."""
    used = set(free_vars(node)) | set(avoid)

    def walk(n):
        if isinstance(n, _BINDERS):
            v = n.var
            new = fresh_name(v, used)
            used.add(new)
            if new != v:
                n = replace(map_children(
                    n, lambda c: _rename_free(c, {v: new})), var=new)
        return map_children(n, walk)

    return walk(node)


# ---------------------------------------------------------------------------
# printing (round-trips through the parser)

_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4
_PREC_ATOM = 5

_COMPARISONS = {Leq: "<=", Lt: "<", EqVar: "="}

# what the parser reads after the P of a letter atom
_LETTER_RE = re.compile(r"[A-Za-z0-9_']+")


def _fmt_fo(phi, prec):
    if isinstance(phi, FoTrue):
        return "true"
    if isinstance(phi, LetterAt):
        letter = str(phi.letter)
        if not _LETTER_RE.fullmatch(letter):
            raise InputError("letter %r cannot be written in a formula "
                             "(formula letters use only A-Z a-z 0-9 _ ')"
                             % letter)
        return "P%s(%s)" % (letter, phi.var)
    if type(phi) in _COMPARISONS:
        s = "%s %s %s" % (phi.left, _COMPARISONS[type(phi)], phi.right)
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
    if isinstance(phi, (WIte, Plus, SumX, ProdX)):
        return "(" + format_wfo(phi) + ")"
    return format_wfo(phi)


def _fmt_wfo_branch(phi):
    if isinstance(phi, WIte):
        return "(" + format_wfo(phi) + ")"
    return format_wfo(phi)
