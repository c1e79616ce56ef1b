"""Syntax trees for the three formula layers.

FO formulas are boolean conditions over word positions.  Step formulas are
if-then-else cascades of FO conditions ending in weight constants, so they
denote a single weight at each position.  Weighted formulas denote finite
multisets of weight sequences.

All nodes are immutable and hashable.  Invariant maintained by the parser
and the construction helpers: bound variables are pairwise distinct and
distinct from every free variable.

Every walk goes through `nodes` (pre-order), `map_children` (one level)
or `_rebuild` (a whole tree, bottom-up on an explicit stack, so that
`freshen` and `map_run_atoms` take any depth).  Which fields of a node
are sub-formulas is read once from the dataclass annotations; `_VARS`
names the fields that hold variable occurrences.
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


def uses_sumx(node) -> bool:
    return any(isinstance(n, SumX) for n in nodes(node))


def uses_plus(node) -> bool:
    return any(isinstance(n, Plus) for n in nodes(node))


def fo_conditions(node):
    """FO conditions of a step/weighted formula, in syntax order, deduped."""
    return list(dict.fromkeys(n.cond for n in nodes(node)
                              if isinstance(n, (StepIte, WIte))))


def survey(node):
    """(run atoms, uses SumX, uses Plus) from one walk: the distinct run
    atoms in pre-order, and whether a sum over a variable and a plus
    occur."""
    atoms, sums, pluses = {}, False, False
    for n in nodes(node):
        kind = type(n)
        if kind is RunAtom:
            atoms[n] = None
        elif kind is SumX:
            sums = True
        elif kind is Plus:
            pluses = True
    return list(atoms), sums, pluses


def _rebuild(node, enter, leave):
    """node rebuilt bottom-up without recursion.  enter(n) sees every node
    in pre-order, children in field order, and returns a node to put in
    n's place as it is, or None to rebuild n: once all of n's children are
    rebuilt, leave(n, kids) gets them by field name and returns n's
    replacement."""
    stack, built = [(node, None)], []
    while stack:
        n, names = stack.pop()
        if names is not None:
            kids = dict(zip(names, built[-len(names):]))
            del built[-len(names):]
            built.append(leave(n, kids))
            continue
        out = enter(n)
        names = _SUB[type(n)]
        if out is not None or not names:
            built.append(n if out is None else out)
        else:
            stack.append((n, names))
            stack.extend((getattr(n, f), None) for f in reversed(names))
    return built[0]


def map_run_atoms(node, fn):
    """The formula with every run atom replaced by fn(atom)."""
    return _rebuild(node, lambda n: fn(n) if type(n) is RunAtom else None,
                    lambda n, kids: replace(n, **kids))


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


def freshen(node, avoid=()):
    """Alpha-rename binders so that all bound names are pairwise distinct
    and avoid the free variables plus `avoid`.  Binders draw their names
    with `fresh_name` in pre-order, and each occurrence takes the new name
    of the binder that binds it, so no renamed variable is captured."""
    used = set(free_vars(node)) | set(avoid)
    env, shadowed = {}, []      # old name -> new; the entries a binder hid

    def enter(n):
        kind = type(n)
        if kind in _BINDERS:
            new = fresh_name(n.var, used)
            used.add(new)
            shadowed.append(env.get(n.var))
            env[n.var] = new
            return None
        names = _VARS.get(kind)
        if names:
            return replace(n, **{f: env.get(getattr(n, f), getattr(n, f))
                                 for f in names})
        return None

    def leave(n, kids):
        if type(n) in _BINDERS:
            v = n.var
            kids["var"], hidden = env[v], shadowed.pop()
            if hidden is None:
                del env[v]
            else:
                env[v] = hidden
        return replace(n, **kids)

    return _rebuild(node, enter, leave)


# ---------------------------------------------------------------------------
# printing (round-trips through the parser)

# The binary FO operators, as the parser reads them too: node class ->
# (symbol, precedence, associativity).  A higher precedence binds
# tighter, and `!` (UNARY) binds tighter than all of them.  A connective
# is "left" or "right" associative; a comparison (None) joins two
# variables, so the parser reads it as an atom and the printer brackets
# it wherever it would bracket an `&`.
FO_OPERATORS = {
    Implies: ("->", 1, "right"), Or: ("|", 2, "left"), And: ("&", 3, "left"),
    Leq: ("<=", 3, None), Lt: ("<", 3, None), EqVar: ("=", 3, None),
}
UNARY = 4
_PREC_ATOM = UNARY + 1

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
    if type(phi) in FO_OPERATORS:
        symbol, own, assoc = FO_OPERATORS[type(phi)]
        if assoc is None:
            left, right = phi.left, phi.right
        else:   # only the associative side takes the same operator bare
            left = _fmt_fo(phi.left, own + (assoc == "right"))
            right = _fmt_fo(phi.right, own + (assoc == "left"))
        s = "%s %s %s" % (left, symbol, right)
        return "(" + s + ")" if prec > own else s
    if isinstance(phi, Not):
        return "!" + _fmt_fo(phi.sub, _PREC_ATOM)
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
