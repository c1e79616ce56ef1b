"""Relativization: restrict a sentence to a factor of the word.

For a sentence phi and positions i < j, the rewritten formula satisfies

    u, [x -> i]           |= rel(phi, before(x))   iff  u[1..i-1] |= phi
    u, [x -> i, y -> j]   |= rel(phi, between(x,y)) iff  u[i+1..j-1] |= phi
    u, [x -> i]           |= rel(phi, after(x))    iff  u[i+1..|u|] |= phi

including the boundary cases where the factor is empty.  Quantifiers get
guarded (forall z. psi becomes forall z. guard(z) -> psi), atoms are left
alone, and run atoms are bounded by endpoint substitution.
"""

from __future__ import annotations

from ..errors import InputError
from .syntax import (
    And, Exists, FoFormula, Forall, Implies, Lt, RunAtom, free_vars, freshen,
    map_children,
)


def before(x: str):
    return ("before", x)


def after(x: str):
    return ("after", x)


def between(x: str, y: str):
    return ("between", x, y)


def _guard(mode, z):
    if mode[0] == "before":
        return Lt(z, mode[1])
    if mode[0] == "after":
        return Lt(mode[1], z)
    if mode[0] == "between":
        return And(Lt(mode[1], z), Lt(z, mode[2]))
    raise InputError("unknown relativization mode %r" % (mode,))


def _bounds(mode):
    if mode[0] == "before":
        return None, mode[1]
    if mode[0] == "after":
        return mode[1], None
    return mode[1], mode[2]


def relativize(phi, mode):
    """Rewrite the sentence phi so it speaks about the factor selected by
    mode; the mode's variables must not occur in phi."""
    _guard(mode, "z")  # validates the mode shape early
    if not isinstance(phi, FoFormula):
        raise TypeError("not an FO formula: %r" % (phi,))
    if free_vars(phi):
        raise InputError("can only relativize sentences, free: %s"
                         % ", ".join(sorted(free_vars(phi))))
    mode_vars = set(mode[1:])
    phi = freshen(phi, avoid=mode_vars)
    return _rel(phi, mode)


def _rel(phi, mode):
    if isinstance(phi, Forall):
        return Forall(phi.var,
                      Implies(_guard(mode, phi.var), _rel(phi.body, mode)))
    if isinstance(phi, Exists):
        return Exists(phi.var,
                      And(_guard(mode, phi.var), _rel(phi.body, mode)))
    if isinstance(phi, RunAtom):
        if phi.bounded or phi.lo is not None or phi.hi is not None:
            raise InputError("run atom %s is already bounded" % phi.name)
        lo, hi = _bounds(mode)
        return RunAtom(phi.name, phi.nfa, phi.p, phi.q, lo, hi, bounded=True)
    return map_children(phi, lambda c: _rel(c, mode))
