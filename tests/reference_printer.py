"""The recursive printers that the one-table printer replaced, kept as its
test oracle.

`reference_format_fo`, `reference_format_step` and `reference_format_wfo`
are the seven mutually recursive functions as they stood, each layer with
its own bracket rules; they recurse once per level.  `rename_run_atoms`
is the header renaming `serialize_formula_file` did before run atoms
printed their states through a renaming: it rebuilt the formula with every
run atom's states renamed, and only where some state's name changes.
`reference_serialize_formula_file` serializes as the library did then.
"""

import re
from dataclasses import fields, replace

from wfoc.errors import InputError
from wfoc.logic.parser import _FRAGMENTS, _kind
from wfoc.logic.syntax import (
    FO_OPERATORS, UNARY, Const, Exists, FoFormula, Forall, FoTrue, LetterAt,
    Not, Plus, ProdX, RunAtom, StepFormula, StepIte, SumX, WfoFormula, WIte,
    Zero, survey,
)
from wfoc.textfmt import canonical_names, serialize_automaton_inline
from wfoc.weights import format_weight

_PREC_ATOM = UNARY + 1
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


def reference_format_fo(phi):
    return _fmt_fo(phi, 0)


def reference_format_step(psi):
    if isinstance(psi, Const):
        return format_weight(psi.weight)
    if isinstance(psi, StepIte):
        return "%s ? %s : %s" % (_fmt_fo(psi.cond, _PREC_ATOM),
                                 _fmt_step_branch(psi.then),
                                 reference_format_step(psi.els))
    raise TypeError("not a step formula: %r" % (psi,))


def _fmt_step_branch(psi):
    if isinstance(psi, StepIte):
        return "(" + reference_format_step(psi) + ")"
    return reference_format_step(psi)


def reference_format_wfo(phi):
    if isinstance(phi, Zero):
        return "zero"
    if isinstance(phi, ProdX):
        return "prod %s. %s" % (phi.var, reference_format_step(phi.step))
    if isinstance(phi, SumX):
        return "sum %s. %s" % (phi.var, reference_format_wfo(phi.body))
    if isinstance(phi, Plus):
        return "%s + %s" % (_fmt_wfo_operand(phi.left),
                            _fmt_wfo_operand(phi.right))
    if isinstance(phi, WIte):
        return "%s ? %s : %s" % (_fmt_fo(phi.cond, _PREC_ATOM),
                                 _fmt_wfo_branch(phi.then),
                                 reference_format_wfo(phi.els))
    raise TypeError("not a weighted formula: %r" % (phi,))


def _fmt_wfo_operand(phi):
    if isinstance(phi, (WIte, Plus, SumX, ProdX)):
        return "(" + reference_format_wfo(phi) + ")"
    return reference_format_wfo(phi)


def _fmt_wfo_branch(phi):
    if isinstance(phi, WIte):
        return "(" + reference_format_wfo(phi) + ")"
    return reference_format_wfo(phi)


REFERENCE_PRINTERS = {"fo": reference_format_fo,
                      "step": reference_format_step,
                      "wfo": reference_format_wfo}


def rename_run_atoms(node, names):
    """node with every run atom's states renamed by names[atom.name]."""
    if isinstance(node, RunAtom):
        return replace(node, p=names[node.name][node.p],
                       q=names[node.name][node.q])
    changes = {}
    for f in fields(node):
        child = getattr(node, f.name)
        if isinstance(child, (FoFormula, StepFormula, WfoFormula)):
            changes[f.name] = rename_run_atoms(child, names)
    return replace(node, **changes) if changes else node


def reference_serialize_formula_file(formula, kind, automata=None):
    lines = []
    named = dict(automata or {})
    atoms, sums, pluses = survey(formula)
    for atom in atoms:
        if atom.name in named and named[atom.name] != atom.nfa:
            raise InputError("two different automata named %r" % atom.name)
        named[atom.name] = atom.nfa
    for name in sorted(named):
        lines.append("# automaton %s: %s"
                     % (name, serialize_automaton_inline(named[name])))
    names = {name: canonical_names(nfa) for name, nfa in named.items()}
    if any(k != v for m in names.values() for k, v in m.items()):
        formula = rename_run_atoms(formula, names)
    _kind(kind)
    if kind == "wfo":
        breaks = {"no-sum": sums, "no-plus": pluses}
        flags = [name for name in _FRAGMENTS if not breaks[name]]
        if flags:
            lines.append("# fragment: " + " ".join(flags))
    lines.append(REFERENCE_PRINTERS[kind](formula))
    return "\n".join(lines) + "\n"
