"""Concrete syntax for the three formula layers, read in one pass.

    FO:    true false !phi  phi & psi  phi | psi  phi -> psi
           Pa(x)  x <= y  x < y  x = y  forall x. phi  exists x. phi
           run:NAME(p,q)  run:NAME(p,q;<x)  run:NAME(p,q;>x)  run:NAME(p,q;x,y)
    step:  weight | cond ? step : step          (right-associative)
    wfo:   zero | prod x. step | sum x. wfo | wfo + wfo | cond ? wfo : wfo

Precedence, tightest first: unary, comparisons, &, |, -> (right-
associative), +, ?:.  The FO operators' symbols and precedences come
from `syntax.FO_OPERATORS`, which the printer reads too.  `+` binds
tighter than `?:`, and an operand of `+` is zero, prod, sum or a
parenthesised wfo.  A binder's body goes right as far as its layer does:
forall and exists take an FO formula, which stops before `?`; prod a
step, which stops before `+`; sum a wfo.  Weights are integers,
rationals p/q, or bare identifiers (symbolic).

Formula files may start with header lines:
    # fragment: no-sum no-plus
    # automaton NAME: alphabet: a b ; states: 1 2 ; ...
The fragment assertion is verified after parsing; automaton headers give
run atoms their targets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import InputError
from ..textfmt import parse_automaton_inline
from .syntax import (
    FO_OPERATORS, UNARY, Const, Exists, FoFormula, Forall, FoTrue,
    LetterAt, Not, Plus, ProdX, RunAtom, StepFormula, StepIte, SumX,
    WfoFormula, WIte, Zero, format_fo, format_step, format_wfo, freshen,
    survey, uses_plus, uses_sumx,
)
from ..textfmt import canonical_names, serialize_automaton_inline
from ..weights import KEYWORDS, parse_weight


class ParseError(InputError):
    """A syntax error; `where` is the (line, col) it was found at."""

    def __init__(self, where, message):
        super().__init__("line %d col %d: %s" % (*where, message))
        self.where = where


class ScopeError(ParseError):
    """A binder that rebinds a variable in scope, at that variable."""


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<le><=)
  | (?P<num>-?[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<sym>[().,?:+&|!<=;>/])
  | (?P<bad>.)
""", re.VERBOSE)
_SKIP = ("ws", "comment")
_NAMED = ("num", "ident")   # the kinds not spelled by their text


def _tokenize(text):
    """The tokens of text, each (kind, text, offset), then an "eof" one
    at the end: one pass, with no line or column until an error asks."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind in _SKIP:
            continue
        if kind == "bad":
            raise ParseError(_where(text, m.start()),
                             "unexpected character %r" % m.group())
        chunk = m.group()
        tokens.append((kind if kind in _NAMED else chunk, chunk, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def _where(text, offset):
    """The (line, col) of offset in text, both counted from 1."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def _is_letter(name, after):
    return len(name) > 1 and name[0] == "P" and after == "("


_PRIM = "prim"  # the slot of a '+' operand
_BINDERS = {"forall": (Forall, FoFormula), "exists": (Exists, FoFormula),
            "prod": (ProdX, StepFormula), "sum": (SumX, WfoFormula)}
_BINARY = {sym: op for op, (sym, _, assoc) in FO_OPERATORS.items() if assoc}
_COMPARE = {sym: op for op, (sym, _, assoc) in FO_OPERATORS.items()
            if not assoc}
_ITE = {StepFormula: StepIte, WfoFormula: WIte}
_CLOSE = {"(": ")", "?": "':' of '?:'"}  # what an open ( or ? awaits
# FO operators: how tightly one holds on the stack, and one coming in
# binds; a right-associative one binds tighter than it holds, so an equal
# one on the stack waits for it
_HOLDS = {Not: UNARY, **{op: prec for op, (_, prec, assoc)
                         in FO_OPERATORS.items() if assoc}}
_BINDS = {sym: prec + (assoc == "right")
          for sym, prec, assoc in FO_OPERATORS.values() if assoc}


class _Parser:
    """`ops` holds (operator, slot, extra): a node class, '(', '?' or None
    (the bottom); what the operand after it must be, a layer class or _PRIM;
    a binder's variable or the slot a '(' stands in."""

    def __init__(self, text, automata, layer):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.automata = dict(automata) if automata else {}
        self.scope, self.ops, self.vals = [], [(None, layer, None)], []

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind):
        return self.next() if self.peek()[0] == kind else None

    def expect(self, kind, what=None):
        if self.peek()[0] != kind:
            self.fail("expected %s" % (what or kind))
        return self.next()

    def where(self, tok):
        return _where(self.text, tok[2])

    def fail(self, message):
        tok = self.peek()
        got = "end of input" if tok[0] == "eof" else repr(tok[1])
        raise ParseError(self.where(tok), "%s, got %s" % (message, got))

    def shift(self, op, slot, extra=None):
        self.next()
        self.ops.append((op, slot, extra))
        return True

    def parse(self):
        while True:
            self.vals.append(self.operand())
            if not self.operator():
                return freshen(self.vals.pop())

    def operand(self):
        """Reads prefixes ('(', '!', binders) up to one atom, which it
        returns, each checked against the slot it stands in."""
        while True:
            slot = self.ops[-1][1]
            kind, text = self.peek()[:2]
            word = text if kind == "ident" else None
            wfo = slot in (_PRIM, WfoFormula)
            if kind == "(":
                self.shift("(", WfoFormula if slot is _PRIM else slot, slot)
            elif word in ("prod", "sum") and wfo or slot is not _PRIM and \
                    word in ("forall", "exists"):
                self.binder(word)
            elif kind == "!" and slot is not _PRIM:
                self.shift(Not, FoFormula)
            elif word == "zero" and wfo:
                self.next()
                return Zero()
            elif wfo and (slot is _PRIM or kind != "ident"):
                self.fail("expected zero, prod, sum or '('")
            elif slot is StepFormula and not (word and self.atom_ahead(word)):
                return Const(self.weight())
            else:
                return self.fo_atom()

    def operator(self):
        """Reads and reduces past an operand up to an operator that takes
        a right operand (True) or to the end of the input (False)."""
        ops, vals = self.ops, self.vals
        while True:
            kind = self.peek()[0]
            if kind in _BINDS and isinstance(vals[-1], FoFormula):
                while _HOLDS.get(ops[-1][0], 0) >= _BINDS[kind]:
                    self.reduce()
                return self.shift(_BINARY[kind], FoFormula)
            # nothing else continues an FO formula: its binders end here
            while ops[-1][1] is FoFormula and ops[-1][0] not in ("(", None):
                self.reduce()
            top, slot, outer = ops[-1]
            if isinstance(vals[-1], FoFormula) and slot is not FoFormula:
                if kind == "?":
                    return self.shift("?", slot)
                if top != "(" or outer is _PRIM:
                    self.fail("expected '?' after the condition")
            if kind == "+":
                while ops[-1][0] in (Plus, ProdX, StepIte):
                    self.reduce()
                if isinstance(vals[-1], WfoFormula):
                    return self.shift(Plus, _PRIM)
            elif kind in (":", ")", "eof"):
                while ops[-1][0] not in ("?", "(", None):
                    self.reduce()
                top, slot, _ = ops[-1]
                if (kind, top) == ("eof", None):
                    return False
                if (kind, top) in ((":", "?"), (")", "(")):
                    ops.pop()
                    if kind == ":":
                        return self.shift(_ITE[slot], slot)
                    self.next()
                    continue
            self.stuck()

    def reduce(self):
        node, _, var = self.ops.pop()
        right = self.vals.pop()
        if node is Not:
            right = Not(right)
        elif node in (StepIte, WIte):
            then = self.vals.pop()
            right = node(self.vals.pop(), then, right)
        elif var is None:           # a binary operator
            right = node(self.vals.pop(), right)
        else:                       # a binder: its variable leaves scope
            self.scope.pop()
            right = node(var, right)
        self.vals.append(right)

    def opener(self):
        return next((o for o, _, _ in reversed(self.ops) if o in _CLOSE), None)

    def stuck(self):
        """The next token continues nothing: blame the innermost opener."""
        if self.opener():
            self.fail("expected %s" % _CLOSE[self.opener()])
        tok = self.peek()
        raise ParseError(self.where(tok), "trailing input %r" % tok[1])

    def atom_ahead(self, word):
        """Whether an FO atom, not a weight, starts a step here: `run :`
        does unless a '?' awaits the ':' and it names no automaton."""
        after = self.tokens[self.pos + 1][0]
        if word == "run" and after == ":":
            return (self.tokens[self.pos + 2][1] in self.automata
                    or self.opener() != "?")
        return (word in ("true", "false") or after in _COMPARE
                or _is_letter(word, after))

    def ident(self, what):
        tok = self.expect("ident", what)
        if tok[1] in KEYWORDS:
            raise ParseError(self.where(tok), "%r is reserved" % tok[1])
        return tok[1]

    def binder(self, keyword):
        """keyword var . ; var is in scope until the binder is reduced."""
        self.next()
        tok = self.peek()
        var = self.ident("variable")
        if var in self.scope:
            raise ScopeError(self.where(tok),
                             "variable %s is already bound" % var)
        self.scope.append(var)
        self.expect(".", "'.' after binder")
        self.ops.append((*_BINDERS[keyword], var))

    def fo_atom(self):
        kind, word = self.peek()[:2]
        if kind != "ident":
            self.fail("expected an atom")
        if word in ("true", "false", "run"):
            self.next()
            if word == "run":
                return self.run_atom()
            return FoTrue() if word == "true" else Not(FoTrue())
        if _is_letter(word, self.tokens[self.pos + 1][0]):
            self.pos += 2
            var = self.ident("variable")
            self.expect(")")
            return LetterAt(word[1:], var)
        left = self.ident("variable")
        compare = _COMPARE.get(self.peek()[0])
        if compare is None:
            self.fail("expected a comparison after %r" % left)
        self.next()
        return compare(left, self.ident("variable"))

    def state(self, name):
        tok = self.peek()
        if tok[0] == "num" and not tok[1].startswith("-"):
            state = int(tok[1])
        elif tok[0] == "ident":
            state = tok[1]
        else:
            self.fail("expected a state")
        self.next()
        if state not in self.automata[name].states:
            raise ParseError(self.where(tok), "automaton %r has no state "
                             "%r" % (name, state))
        return state

    def run_atom(self):
        self.expect(":")
        name_tok = self.expect("ident", "automaton name")
        name = name_tok[1]
        if name not in self.automata:
            raise ParseError(self.where(name_tok),
                             "unknown automaton %r (declare it with "
                             "'# automaton %s: ...')" % (name, name))
        self.expect("(")
        p = self.state(name)
        self.expect(",")
        q = self.state(name)
        lo = hi = None
        bounded = self.accept(";") is not None
        if bounded and self.accept("<"):
            hi = self.ident("variable")
        elif bounded and self.accept(">"):
            lo = self.ident("variable")
        elif bounded:
            lo = self.ident("variable")
            self.expect(",")
            hi = self.ident("variable")
        self.expect(")")
        return RunAtom(name, self.automata[name], p, q, lo, hi, bounded)

    def weight(self):
        tok = self.peek()
        if tok[0] != "num" and (tok[0] != "ident" or tok[1] in KEYWORDS):
            self.fail("expected a weight")
        text = self.next()[1]
        if tok[0] == "num" and self.accept("/"):
            text += "/" + self.expect("num", "denominator")[1]
        try:
            return parse_weight(text)
        except InputError as err:
            raise ParseError(self.where(tok), str(err))


def parse_fo(text, automata=None):
    return _Parser(text, automata, FoFormula).parse()


def parse_step(text, automata=None):
    return _Parser(text, automata, StepFormula).parse()


def parse_wfo(text, automata=None):
    return _Parser(text, automata, WfoFormula).parse()


# fragment name -> the test that a formula breaks it
_FRAGMENTS = {"no-sum": uses_sumx, "no-plus": uses_plus}

# formula kind -> (layer, printer)
_KINDS = {"fo": (FoFormula, format_fo), "step": (StepFormula, format_step),
          "wfo": (WfoFormula, format_wfo)}


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
    kind is one of fo, step, wfo.  Fragment assertions are verified.  The
    headers stay in the text the formula is parsed from, as comments, so
    its errors count them among the lines."""
    autos = dict(automata) if automata else {}
    fragments = []
    lines = text.splitlines()
    declared = {}               # automaton name -> its header's line
    for line_no, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped.startswith("# fragment:"):
            for n in stripped[len("# fragment:"):].replace(",", " ").split():
                if n not in _FRAGMENTS:
                    raise InputError("unknown fragment %r (have: %s)"
                                     % (n, ", ".join(_FRAGMENTS)))
                fragments.append(n)
        elif stripped.startswith("# automaton "):
            name, sep, body = stripped[len("# automaton "):].partition(":")
            name = name.strip()
            if not sep or not name:
                raise InputError("malformed automaton header: %r" % raw)
            if name in declared:
                raise InputError("line %d: automaton %r already declared on "
                                 "line %d" % (line_no, name, declared[name]))
            declared[name] = line_no
            autos[name] = parse_automaton_inline(body, line_no)
    formula = _Parser("\n".join(lines), autos, _kind(kind)[0]).parse()
    for name, breaks in _FRAGMENTS.items():
        if name in fragments and breaks(formula):
            raise InputError("formula violates its %s fragment assertion"
                             % name)
    return FormulaFile(formula, kind, tuple(fragments), autos)


def serialize_formula_file(formula, kind, automata=None) -> str:
    """Formula text with automaton headers for its run atoms and for the
    named `automata`, used by an atom or not, and a fragment header
    recording what the formula avoids."""
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
    printer = _kind(kind)[1]            # checks the kind first
    if kind == "wfo":
        breaks = {"no-sum": sums, "no-plus": pluses}
        flags = [name for name in _FRAGMENTS if not breaks[name]]
        if flags:
            lines.append("# fragment: " + " ".join(flags))
    # the headers rename states to 1..n; the atoms print as they do
    names = {name: canonical_names(nfa) for name, nfa in named.items()}
    renamed = any(k != v for m in names.values() for k, v in m.items())
    lines.append(printer(formula, names if renamed else None))
    return "\n".join(lines) + "\n"
