"""Concrete syntax for the three formula layers.

    FO:    true false !phi  phi & psi  phi | psi  phi -> psi
           Pa(x)  x <= y  x < y  x = y  forall x. phi  exists x. phi
           run:NAME(p,q)  run:NAME(p,q;<x)  run:NAME(p,q;>x)  run:NAME(p,q;x,y)
    step:  weight | cond ? step : step          (right-associative)
    wfo:   zero | prod x. step | sum x. wfo | wfo + wfo | cond ? wfo : wfo

Precedence: unary > comparisons > & > | > ->, binders extend maximally to
the right, '?:' binds loosest.  Weights are integers, rationals p/q, or
bare identifiers (symbolic).

Formula files may start with header lines:
    # fragment: no-sum no-plus
    # automaton NAME: alphabet: a b ; states: 1 2 ; ...
The fragment assertion is verified after parsing; automaton headers give
run atoms their targets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from ..errors import InputError
from ..textfmt import parse_automaton_inline
from .syntax import (
    And, Const, EqVar, Exists, Forall, FoTrue, Implies, Leq, LetterAt, Lt,
    Not, Or, Plus, ProdX, RunAtom, StepIte, SumX, WIte, Zero,
    format_fo, format_step, format_wfo, freshen, map_run_atoms, run_atoms,
    uses_plus, uses_sumx,
)
from ..textfmt import canonical_names, serialize_automaton_inline
from ..weights import KEYWORDS, parse_weight


class ParseError(InputError):
    pass


class ScopeError(InputError):
    pass


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<le><=)
  | (?P<num>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<sym>[().,?:+&|!<=;>/])
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("line %d col %d: unexpected character %r"
                             % (line, col, text[pos]))
        chunk = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append((kind if kind in ("num", "ident") else chunk,
                           chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text, automata=None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.automata = dict(automata) if automata else {}
        self.scope = []

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, kind):
        return self.tokens[self.pos][0] == kind

    def at_ident(self, text):
        tok = self.tokens[self.pos]
        return tok[0] == "ident" and tok[1] == text

    def accept(self, kind):
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind, what=None):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("line %d col %d: expected %s, got %r"
                             % (tok[2], tok[3], what or kind, tok[1]))
        return tok

    def fail(self, message):
        tok = self.peek()
        raise ParseError("line %d col %d: %s, got %r"
                         % (tok[2], tok[3], message, tok[1]))

    # FO layer -------------------------------------------------------------

    def fo(self):
        left = self.fo_or()
        if self.accept("->"):
            return Implies(left, self.fo())
        return left

    def fo_or(self):
        left = self.fo_and()
        while self.accept("|"):
            left = Or(left, self.fo_and())
        return left

    def fo_and(self):
        left = self.fo_unary()
        while self.accept("&"):
            left = And(left, self.fo_unary())
        return left

    def fo_unary(self):
        if self.accept("!"):
            return Not(self.fo_unary())
        if self.at_ident("forall"):
            return self.binder(Forall, self.fo)
        if self.at_ident("exists"):
            return self.binder(Exists, self.fo)
        return self.fo_atom()

    def ident(self, what):
        tok = self.expect("ident", what)
        if tok[1] in KEYWORDS:
            raise ParseError("line %d col %d: %r is reserved"
                             % (tok[2], tok[3], tok[1]))
        return tok[1]

    def binder(self, node, body):
        """keyword var . body, with var in scope while body is read."""
        self.next()
        var = self.ident("variable")
        if var in self.scope:
            raise ScopeError("variable %s is already bound" % var)
        self.scope.append(var)
        try:
            self.expect(".", "'.' after binder")
            return node(var, body())
        finally:
            self.scope.pop()

    def fo_atom(self):
        if self.at_ident("true"):
            self.next()
            return FoTrue()
        if self.at_ident("false"):
            self.next()
            return Not(FoTrue())
        if self.at_ident("run"):
            return self.run_atom()
        if self.accept("("):
            inner = self.fo()
            self.expect(")")
            return inner
        tok = self.peek()
        if tok[0] != "ident":
            self.fail("expected an atom")
        name = tok[1]
        if len(name) > 1 and name[0] == "P" and self.tokens[self.pos + 1][0] == "(":
            self.next()
            self.next()
            var = self.ident("variable")
            self.expect(")")
            return LetterAt(name[1:], var)
        left = self.ident("variable")
        if self.accept("<="):
            return Leq(left, self.ident("variable"))
        if self.accept("<"):
            return Lt(left, self.ident("variable"))
        if self.accept("="):
            return EqVar(left, self.ident("variable"))
        self.fail("expected a comparison after %r" % left)

    def state_token(self):
        tok = self.next()
        if tok[0] == "num" and not tok[1].startswith("-"):
            return int(tok[1])
        if tok[0] == "ident":
            return tok[1]
        raise ParseError("line %d col %d: expected a state, got %r"
                         % (tok[2], tok[3], tok[1]))

    def run_atom(self):
        self.next()  # 'run'
        self.expect(":")
        name_tok = self.expect("ident", "automaton name")
        name = name_tok[1]
        if name not in self.automata:
            raise ParseError("line %d col %d: unknown automaton %r "
                             "(declare it with '# automaton %s: ...')"
                             % (name_tok[2], name_tok[3], name, name))
        self.expect("(")
        p = self.state_token()
        self.expect(",")
        q = self.state_token()
        lo = hi = None
        bounded = False
        if self.accept(";"):
            bounded = True
            if self.accept("<"):
                hi = self.ident("variable")
            elif self.accept(">"):
                lo = self.ident("variable")
            else:
                lo = self.ident("variable")
                self.expect(",")
                hi = self.ident("variable")
        self.expect(")")
        nfa = self.automata[name]
        if p not in nfa.states or q not in nfa.states:
            raise ParseError("automaton %r has no state %r/%r"
                             % (name, p, q))
        return RunAtom(name, nfa, p, q, lo, hi, bounded)

    # step layer -----------------------------------------------------------

    def step(self):
        ternary = self.try_ternary(self.step, StepIte)
        if ternary is not None:
            return ternary
        return self.step_atom()

    def try_ternary(self, branch, node):
        saved = self.pos
        try:
            cond = self.fo()
        except ParseError:
            self.pos = saved
            return None
        if not self.accept("?"):
            self.pos = saved
            return None
        then = branch()
        self.expect(":", "':' of '?:'")
        els = branch()
        return node(cond, then, els)

    def step_atom(self):
        if self.accept("("):
            inner = self.step()
            self.expect(")")
            return inner
        return Const(self.weight())

    def weight(self):
        tok = self.next()
        text = tok[1]
        if tok[0] == "num" and self.accept("/"):
            text += "/" + self.expect("num", "denominator")[1]
        elif tok[0] != "num" and (tok[0] != "ident" or text in KEYWORDS):
            raise ParseError("line %d col %d: expected a weight, got %r"
                             % (tok[2], tok[3], text))
        try:
            return parse_weight(text)
        except InputError as err:
            raise ParseError("line %d col %d: %s" % (tok[2], tok[3], err))

    # weighted layer -------------------------------------------------------

    def wfo(self):
        ternary = self.try_ternary(self.wfo, WIte)
        if ternary is not None:
            return ternary
        left = self.wfo_primary()
        while self.accept("+"):
            left = Plus(left, self.wfo_primary())
        return left

    def wfo_primary(self):
        if self.at_ident("zero"):
            self.next()
            return Zero()
        if self.at_ident("prod"):
            return self.binder(ProdX, self.step)
        if self.at_ident("sum"):
            return self.binder(SumX, self.wfo)
        if self.accept("("):
            inner = self.wfo()
            self.expect(")")
            return inner
        self.fail("expected zero, prod, sum or '('")


def _parse(text, automata, production):
    parser = _Parser(text, automata)
    tree = production(parser)
    tok = parser.peek()
    if tok[0] != "eof":
        raise ParseError("line %d col %d: trailing input %r"
                         % (tok[2], tok[3], tok[1]))
    return freshen(tree)


def parse_fo(text, automata=None):
    return _parse(text, automata, _Parser.fo)


def parse_step(text, automata=None):
    return _parse(text, automata, _Parser.step)


def parse_wfo(text, automata=None):
    return _parse(text, automata, _Parser.wfo)


_FRAGMENTS = ("no-sum", "no-plus")

# formula kind -> (production, printer)
_KINDS = {"fo": (_Parser.fo, format_fo), "step": (_Parser.step, format_step),
          "wfo": (_Parser.wfo, format_wfo)}


def _kind(kind):
    if kind not in _KINDS:
        raise InputError("unknown formula kind %r" % kind)
    return _KINDS[kind]


@dataclass
class FormulaFile:
    formula: object
    kind: str
    fragments: tuple = ()
    automata: dict = field(default_factory=dict)


def parse_formula_file(text, kind, automata=None):
    """Formula plus optional '# fragment:' and '# automaton NAME:' headers;
    kind is one of fo, step, wfo.  Fragment assertions are verified."""
    autos = dict(automata) if automata else {}
    fragments = []
    body_lines = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped.startswith("# fragment:"):
            names = stripped[len("# fragment:"):].replace(",", " ").split()
            for n in names:
                if n not in _FRAGMENTS:
                    raise InputError("unknown fragment %r (have: %s)"
                                     % (n, ", ".join(_FRAGMENTS)))
                fragments.append(n)
        elif stripped.startswith("# automaton "):
            rest = stripped[len("# automaton "):]
            name, sep, body = rest.partition(":")
            name = name.strip()
            if not sep or not name:
                raise InputError("malformed automaton header: %r" % raw)
            autos[name] = parse_automaton_inline(body)
        else:
            body_lines.append(raw)
    formula = _parse("\n".join(body_lines), autos, _kind(kind)[0])
    if "no-sum" in fragments and uses_sumx(formula):
        raise InputError("formula violates its no-sum fragment assertion")
    if "no-plus" in fragments and uses_plus(formula):
        raise InputError("formula violates its no-plus fragment assertion")
    return FormulaFile(formula, kind, tuple(fragments), autos)


def serialize_formula_file(formula, kind) -> str:
    """Formula text with automaton headers for its run atoms and a
    fragment header recording what the formula avoids."""
    lines = []
    named = {}
    for atom in run_atoms(formula):
        if atom.name in named and named[atom.name] != atom.nfa:
            raise InputError("two different automata named %r" % atom.name)
        named[atom.name] = atom.nfa
    for name in sorted(named):
        lines.append("# automaton %s: %s"
                     % (name, serialize_automaton_inline(named[name])))
    # the headers rename states to 1..n; the atoms must follow
    names = {name: canonical_names(nfa.states) for name, nfa in named.items()}
    if any(k != v for m in names.values() for k, v in m.items()):
        formula = map_run_atoms(formula, lambda atom: replace(
            atom, p=names[atom.name][atom.p], q=names[atom.name][atom.q]))
    printer = _kind(kind)[1]
    if kind == "wfo":
        flags = []
        if not uses_sumx(formula):
            flags.append("no-sum")
        if not uses_plus(formula):
            flags.append("no-plus")
        if flags:
            lines.append("# fragment: " + " ".join(flags))
    lines.append(printer(formula))
    return "\n".join(lines) + "\n"
