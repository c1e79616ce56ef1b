"""Direct, brute-force semantics for all three formula layers.

This is the oracle: every compiler in the package is tested against these
functions on exhaustive small-word sweeps.  Each reads a word and a
valuation of its free variables (positions, 1-based) as they are; only
the compilers encode the pair as one word over the marked letters
(`logic.encoding`).
"""

from __future__ import annotations

from collections import Counter

from ..errors import InputError
from ..multiset import SeqMultiset
from .syntax import (
    And, Const, EqVar, Exists, Forall, FoTrue, Implies, Leq, LetterAt, Lt,
    Not, Or, Plus, ProdX, RunAtom, StepIte, SumX, WIte, Zero,
    free_vars,
)


def nfa_run_accepts(nfa, p, q, word) -> bool:
    """Is there a run of `nfa` from p to q labeled by `word`?  The empty
    word is accepted exactly when p == q."""
    word = tuple(word)
    if p not in nfa.states or q not in nfa.states:
        raise InputError("unknown state in run atom: %r, %r" % (p, q))
    current = {p}
    for a in word:
        current = {d for s in current for d in nfa.out(s, a)}
        if not current:
            return False
    return q in current


def _factor(u, sigma, atom: RunAtom):
    lo = sigma[atom.lo] if atom.lo is not None else 0
    hi = sigma[atom.hi] if atom.hi is not None else len(u) + 1
    if lo >= hi:
        return ()
    return u[lo:hi - 1]


def _require_bound(phi, sigma):
    """Raise for the free variables of phi that sigma does not bind."""
    missing = free_vars(phi) - set(sigma)
    if missing:
        raise InputError("unbound variables: %s"
                         % ", ".join(sorted(missing)))


def eval_fo(phi, u, sigma=None) -> bool:
    u = tuple(u)
    sigma = dict(sigma) if sigma else {}
    missing = free_vars(phi) - set(sigma) if not u else ()
    if missing:
        raise InputError("empty word needs a sentence, free: %s"
                         % ", ".join(sorted(missing)))
    _require_bound(phi, sigma)
    return _fo(phi, u, sigma)


def _fo(phi, u, sigma) -> bool:
    if isinstance(phi, FoTrue):
        return True
    if isinstance(phi, LetterAt):
        return u[sigma[phi.var] - 1] == phi.letter
    if isinstance(phi, Leq):
        return sigma[phi.left] <= sigma[phi.right]
    if isinstance(phi, Lt):
        return sigma[phi.left] < sigma[phi.right]
    if isinstance(phi, EqVar):
        return sigma[phi.left] == sigma[phi.right]
    if isinstance(phi, Not):
        return not _fo(phi.sub, u, sigma)
    if isinstance(phi, And):
        return _fo(phi.left, u, sigma) and _fo(phi.right, u, sigma)
    if isinstance(phi, Or):
        return _fo(phi.left, u, sigma) or _fo(phi.right, u, sigma)
    if isinstance(phi, Implies):
        return (not _fo(phi.left, u, sigma)) or _fo(phi.right, u, sigma)
    if isinstance(phi, Forall):
        if phi.var in sigma:
            raise InputError("shadowed variable %s" % phi.var)
        return all(_fo(phi.body, u, {**sigma, phi.var: i})
                   for i in range(1, len(u) + 1))
    if isinstance(phi, Exists):
        if phi.var in sigma:
            raise InputError("shadowed variable %s" % phi.var)
        return any(_fo(phi.body, u, {**sigma, phi.var: i})
                   for i in range(1, len(u) + 1))
    if isinstance(phi, RunAtom):
        return nfa_run_accepts(phi.nfa, phi.p, phi.q, _factor(u, sigma, phi))
    raise TypeError("not an FO formula: %r" % (phi,))


def eval_step(psi, u, sigma=None):
    u = tuple(u)
    if not u:
        raise InputError("step formulas need a non-empty word")
    sigma = dict(sigma) if sigma else {}
    _require_bound(psi, sigma)
    return _step(psi, u, sigma)


def _step(psi, u, sigma):
    while isinstance(psi, StepIte):
        psi = psi.then if _fo(psi.cond, u, sigma) else psi.els
    if isinstance(psi, Const):
        return psi.weight
    raise TypeError("not a step formula: %r" % (psi,))


def eval_wfo_at(phi, word, valuation=None) -> SeqMultiset:
    """The multiset of weight sequences that phi denotes on the non-empty
    `word` under `valuation`, which must bind every free variable."""
    u = tuple(word)
    sigma = dict(valuation) if valuation else {}
    _require_bound(phi, sigma)
    for v, i in sigma.items():
        if not 1 <= i <= len(u):
            raise InputError("position %r out of range for %s" % (i, v))
    if not u:
        raise InputError("weighted formulas are defined on non-empty words")
    return SeqMultiset(_wfo(phi, u, sigma))


def _wfo(phi, u, sigma) -> Counter:
    """{weight sequence: count} of phi on u under sigma."""
    if isinstance(phi, Zero):
        return Counter()
    if isinstance(phi, ProdX):
        if phi.var in sigma:
            raise InputError("shadowed variable %s" % phi.var)
        seq = tuple(_step(phi.step, u, {**sigma, phi.var: i})
                    for i in range(1, len(u) + 1))
        return Counter({seq: 1})
    if isinstance(phi, WIte):
        branch = phi.then if _fo(phi.cond, u, sigma) else phi.els
        return _wfo(branch, u, sigma)
    if isinstance(phi, Plus):
        total = _wfo(phi.left, u, sigma)
        total.update(_wfo(phi.right, u, sigma))
        return total
    if isinstance(phi, SumX):
        if phi.var in sigma:
            raise InputError("shadowed variable %s" % phi.var)
        total = Counter()
        for i in range(1, len(u) + 1):
            total.update(_wfo(phi.body, u, {**sigma, phi.var: i}))
        return total
    raise TypeError("not a weighted formula: %r" % (phi,))
