"""Syntax trees for the three formula layers.

FO formulas are boolean conditions over word positions.  Step formulas are
if-then-else cascades of FO conditions ending in weight constants, so they
denote a single weight at each position.  Weighted formulas denote finite
multisets of weight sequences.

All nodes are immutable and hashable.  Invariant maintained by the parser
and the construction helpers: bound variables are pairwise distinct and
distinct from every free variable.

Every walk goes through `nodes` (pre-order) or `map_children` (one
level), or keeps an explicit stack of its own, as `freshen` does to
rebuild a whole tree bottom-up at any depth.  Which fields of a node are
sub-formulas is read once from the dataclass annotations; `_VARS` names
the fields that hold variable occurrences.  The three printers are one
loop over one layout table, `_LAYOUT`, so any depth prints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from operator import attrgetter
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


def fresh_name(base: str, used, taken=None) -> str:
    """The first of base, base', base'', ... not in used.  taken, if
    given, maps a base to the primes of the name last drawn for it: the
    search starts there and records the name it draws.  Every name with
    fewer primes was in used then, so while used only grows the name is
    the same as from a search that starts at base."""
    primes = 0 if taken is None else taken.get(base, 0)
    name = base + "'" * primes
    while name in used:
        name += "'"
        primes += 1
    if taken is not None:
        taken[base] = primes
    return name


def freshen(node, avoid=()):
    """Alpha-rename binders so that all bound names are pairwise distinct
    and avoid the free variables plus `avoid`.  Binders draw their names
    with `fresh_name` in pre-order, and each occurrence takes the new name
    of the binder that binds it, so no renamed variable is captured.  Each
    name's search starts after the primes it found taken before.  The
    tree is rebuilt bottom-up on an explicit stack, so any depth works;
    a tree whose binders' names are distinct and unused is returned."""
    used = set(free_vars(node)) | set(avoid)
    binders = [n.var for n in nodes(node) if type(n) in _BINDERS]
    if used.isdisjoint(binders) and len(set(binders)) == len(binders):
        return node
    taken = {}                  # base name -> primes known to be used
    env = {}                    # old name -> new, for the binders open
    stack, built = [(node, None, None)], []
    while stack:
        n, names, hidden = stack.pop()
        kind = type(n)
        if names is not None:   # n's children are rebuilt, in `built`
            kids = dict(zip(names, built[-len(names):]))
            del built[-len(names):]
            if kind in _BINDERS:    # restore the entry n's binder hid
                kids["var"] = env[n.var]
                if hidden is None:
                    del env[n.var]
                else:
                    env[n.var] = hidden
            built.append(replace(n, **kids))
            continue
        if kind in _BINDERS:
            hidden = env.get(n.var)
            env[n.var] = fresh_name(n.var, used, taken)
            used.add(env[n.var])
        elif kind in _VARS:
            n = replace(n, **{f: env.get(getattr(n, f), getattr(n, f))
                              for f in _VARS[kind]})
        names = _SUB[kind]
        if names:
            stack.append((n, names, hidden))
            stack.extend((getattr(n, f), None, None)
                         for f in reversed(names))
        else:
            built.append(n)
    return built[0]


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
_TOP = UNARY + 1        # an atom's level, which `!` and a condition need

# what the parser reads after the P of a letter atom
_LETTER_RE = re.compile(r"[A-Za-z0-9_']+")
_NOT_A = {FoFormula: "an FO formula", StepFormula: "a step formula",
          WfoFormula: "a weighted formula"}
_LAYER_NAMED = {layer.__name__: layer for layer in _NOT_A}


def _letter(atom):
    letter = str(atom.letter)
    if not _LETTER_RE.fullmatch(letter):
        raise InputError("letter %r cannot be written in a formula "
                         "(formula letters use only A-Z a-z 0-9 _ ')"
                         % letter)
    return letter


def _run_atom(states=None):
    """A run atom's template, its states renamed by `states` if given."""
    def text(atom):
        name, p, q, lo, hi = atom.name, atom.p, atom.q, atom.lo, atom.hi
        if states is not None:
            p, q = states[name][p], states[name][q]
        where = (("" if hi is None else ";<%s" % hi) if lo is None
                 else ";>%s" % lo if hi is None else ";%s,%s" % (lo, hi))
        return "%s(%s,%s%s)" % (name, p, q, where)
    return RunAtom, _TOP, "run:", text


def _entry(cls, level, *pieces):
    """A template's (class, (layer, level, head, first, rest)): `head` is
    the literals and text fields before the first sub-formula field, each
    sub-formula field becomes (getter, need, layer of its annotation, the
    literals before it), `first` is the first of them and `rest` the
    others, reversed for the stack.  No text field follows `head`."""
    layers = {f.name: _LAYER_NAMED.get(f.type) for f in fields(cls)}
    head, subs, prefix = [], [], ""
    for p in pieces:
        if type(p) is tuple:
            subs.append((attrgetter(p[0]), p[1], layers[p[0]], prefix))
            prefix = ""
        elif subs:
            prefix += p
        else:
            head.append(p)
    assert not prefix, "a literal after the last sub-formula field"
    return cls, (cls.__bases__[0], level, tuple(head),
                 subs[0] if subs else None, tuple(reversed(subs[1:])))


_VAR = attrgetter("var")

# node class -> how a node is written (see `_entry`).  A child whose level
# is below the level its field needs is bracketed.  FO levels are the
# operators' precedences; in the other two layers an if-then-else is
# bracketed as a then-branch, and a sum, a product or a plus as an
# operand of `+`.
_LAYOUT = dict(_entry(*template) for template in [
    (FoTrue, _TOP, "true"),
    (LetterAt, _TOP, "P", _letter, "(", _VAR, ")"),
    # a comparison joins two variables; of a connective's operands, only
    # the associative side takes the same operator bare
    *((cls, level, attrgetter("left"), " %s " % symbol, attrgetter("right"))
      if assoc is None else
      (cls, level, ("left", level + (assoc == "right")), " %s " % symbol,
       ("right", level + (assoc == "left")))
      for cls, (symbol, level, assoc) in FO_OPERATORS.items()),
    (Not, _TOP, "!", ("sub", _TOP)),
    (Forall, 0, "forall ", _VAR, ". ", ("body", 0)),
    (Exists, 0, "exists ", _VAR, ". ", ("body", 0)),
    _run_atom(),
    (Const, _TOP, lambda c: format_weight(c.weight)),
    (StepIte, 0, ("cond", _TOP), " ? ", ("then", 1), " : ", ("els", 0)),
    (Zero, _TOP, "zero"),
    (ProdX, 1, "prod ", _VAR, ". ", ("step", 0)),
    (SumX, 1, "sum ", _VAR, ". ", ("body", 0)),
    (Plus, 1, ("left", 2), " + ", ("right", 2)),
    (WIte, 0, ("cond", _TOP), " ? ", ("then", 1), " : ", ("els", 0)),
])
_NONE = (None, 0, (), None, ())  # the entry of a class not in the table


def _format(node, layer, states):
    """node's text: each node writes its head, stacks the rest and goes
    on into its first sub-formula.  `states` (automaton name -> state ->
    name), when given, renames the states of run atoms."""
    layout = _LAYOUT if states is None else \
        dict([*_LAYOUT.items(), _entry(*_run_atom(states))])
    out, stack = [], [(node, 0, layer, "")]
    write, push, pop = out.append, stack.append, stack.pop
    while stack:
        item = pop()
        if type(item) is str:
            write(item)
            continue
        node, need, layer, prefix = item
        write(prefix)
        while True:
            own, level, head, first, rest = layout.get(type(node), _NONE)
            if own is not layer:
                raise TypeError("not %s: %r" % (_NOT_A[layer], node))
            if level < need:
                write("(")
                push(")")
            for get, child_need, child_layer, child_prefix in rest:
                push((get(node), child_need, child_layer, child_prefix))
            for piece in head:
                write(piece if type(piece) is str else piece(node))
            if first is None:
                break
            get, need, layer, _ = first
            node = get(node)
    return "".join(out)


def format_fo(phi: FoFormula, states=None) -> str:
    return _format(phi, FoFormula, states)


def format_step(psi: StepFormula, states=None) -> str:
    return _format(psi, StepFormula, states)


def format_wfo(phi: WfoFormula, states=None) -> str:
    return _format(phi, WfoFormula, states)
