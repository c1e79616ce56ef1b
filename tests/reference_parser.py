"""The recursive-descent parser that `wfoc.logic.parser` replaced, kept
as the test oracle for its trees and error positions.

It tries an FO condition at every step or wFO position and backs out when
no '?' follows; a failed condition that got further into the input than
the final error is the one reported.  The class and `_parse` below are
the replaced code as it stood, with `ScopeError` defined here because the
library's now carries a position.  `_tokenize` is the tokenizer it read,
which finds each token's line and column as it goes: the library's reads
its tokens in one pass and finds a position only for an error.  Trees are
renamed by the recursive `freshen` the parser called then
(`reference_freshen`).
"""

import re

from reference_freshen import reference_freshen
from wfoc.errors import InputError
from wfoc.logic.parser import ParseError
from wfoc.logic.syntax import (
    And, Const, EqVar, Exists, Forall, FoTrue, Implies, Leq, LetterAt, Lt,
    Not, Or, Plus, ProdX, RunAtom, StepIte, SumX, WIte, Zero,
)
from wfoc.weights import KEYWORDS, parse_weight


class ScopeError(InputError):
    pass


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<le><=)
  | (?P<num>-?[0-9]+)
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
            raise ParseError((line, col),
                             "unexpected character %r" % text[pos])
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
        self.dropped = None     # the furthest error a ternary backed out of

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
            raise ParseError(tok[2:], "expected %s, got %r"
                             % (what or kind, tok[1]))
        return tok

    def fail(self, message):
        tok = self.peek()
        raise ParseError(tok[2:], "%s, got %r" % (message, tok[1]))

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
            raise ParseError(tok[2:], "%r is reserved" % tok[1])
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

    def state(self, name):
        tok = self.next()
        if tok[0] == "num" and not tok[1].startswith("-"):
            state = int(tok[1])
        elif tok[0] == "ident":
            state = tok[1]
        else:
            raise ParseError(tok[2:], "expected a state, got %r" % tok[1])
        if state not in self.automata[name].states:
            raise ParseError(tok[2:], "automaton %r has no state %r"
                             % (name, state))
        return state

    def run_atom(self):
        self.next()  # 'run'
        self.expect(":")
        name_tok = self.expect("ident", "automaton name")
        name = name_tok[1]
        if name not in self.automata:
            raise ParseError(name_tok[2:], "unknown automaton %r (declare it "
                             "with '# automaton %s: ...')" % (name, name))
        self.expect("(")
        p = self.state(name)
        self.expect(",")
        q = self.state(name)
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
        return RunAtom(name, self.automata[name], p, q, lo, hi, bounded)

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
        except ParseError as err:
            if self.dropped is None or err.where > self.dropped.where:
                self.dropped = err.with_traceback(None)
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
            raise ParseError(tok[2:], "expected a weight, got %r" % text)
        try:
            return parse_weight(text)
        except InputError as err:
            raise ParseError(tok[2:], str(err))

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
    try:
        tree = production(parser)
        tok = parser.peek()
        if tok[0] != "eof":
            raise ParseError(tok[2:], "trailing input %r" % tok[1])
    except ParseError as err:
        # a ternary's condition that failed further into the input was
        # meant as one: its error is the one to report
        dropped = parser.dropped
        if dropped is not None and dropped.where > err.where:
            raise dropped from None
        raise
    return reference_freshen(tree)


_PRODUCTIONS = {"fo": _Parser.fo, "step": _Parser.step, "wfo": _Parser.wfo}


def reference_parse(text, kind, automata=None):
    """`text` read as an fo, step or wfo formula by the replaced parser."""
    return _parse(text, automata, _PRODUCTIONS[kind])
