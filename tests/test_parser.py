"""The one-pass formula parser against the recursive-descent parser it
replaced (`reference_parser`): the same trees on every formula the suite
and the benchmark write, the same error positions on one-token mutations
of them, and linear time on deep nesting.  The same corpus checks the
one-table printer against the recursive printers (`reference_printer`)."""

import ast
import inspect
import os
import random
import sys
import time

import pytest

from corpus import (
    ALL_TEXTS, FORMULAS, SEED, random_fo_sentence, random_step, random_wfo,
)
from reference_parser import ScopeError as ReferenceScopeError
from reference_parser import _tokenize as reference_tokenize
from reference_parser import reference_parse
from reference_printer import (
    REFERENCE_PRINTERS, reference_serialize_formula_file,
)
from wfoc import InputError, parse_automaton
from wfoc.automata import is_unambiguous
from wfoc.logic import (
    And, Exists, Forall, FoFormula, Implies, Not, Or, ParseError, Plus,
    ProdX, ScopeError, StepFormula, StepIte, SumX, WIte, format_fo,
    format_step, format_wfo, parse_formula_file, serialize_formula_file,
)
from wfoc import wa_to_wfo
from wfoc.logic import parser, syntax
from wfoc.logic.parser import _tokenize, _where
from wfoc.wa_to_wfo import (
    ATOM_NAME, scc_unambiguous_to_wfo, unambiguous_wa_to_wfo,
)

AB = ("a", "b")
INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                      "inputs")
PARSE = {"fo": parser.parse_fo, "step": parser.parse_step,
         "wfo": parser.parse_wfo}
PRINTERS = {"fo": format_fo, "step": format_step, "wfo": format_wfo}
_INFIX = {And: "&", Or: "|", Implies: "->", Plus: "+"}
_KEYWORD = {Forall: "forall", Exists: "exists", ProdX: "prod", SumX: "sum"}


def _grouped(node):
    """`node` printed with every sub-formula in parentheses, the way the
    benchmark's random formulas are written."""
    def g(sub):
        return "(%s)" % _grouped(sub)
    if isinstance(node, (StepIte, WIte)):
        return "%s ? %s : %s" % (g(node.cond), g(node.then), g(node.els))
    if type(node) in _INFIX:
        return "%s %s %s" % (g(node.left), _INFIX[type(node)], g(node.right))
    if isinstance(node, Not):
        return "!" + g(node.sub)
    if type(node) in _KEYWORD:
        body = node.step if isinstance(node, ProdX) else node.body
        return "%s %s. %s" % (_KEYWORD[type(node)], node.var, g(body))
    if isinstance(node, FoFormula):
        return format_fo(node)
    if isinstance(node, StepFormula):
        return format_step(node)
    return format_wfo(node)


def _tologic_outputs():
    for name in sorted(ALL_TEXTS):
        wa = parse_automaton(ALL_TEXTS[name])
        try:
            phi = (unambiguous_wa_to_wfo(wa) if is_unambiguous(wa)
                   else scc_unambiguous_to_wfo(wa))
        except InputError:
            continue
        yield serialize_formula_file(phi, "wfo", {ATOM_NAME: wa.nfa})


def _random_sentences(count=1000):
    rng = random.Random(SEED)
    for i in range(count):
        if i % 3 == 0:
            yield "fo", format_fo(random_fo_sentence(rng, AB))
        elif i % 3 == 1:
            yield "step", format_step(random_step(rng, AB, ["x"], 3))
        else:
            yield "wfo", format_wfo(random_wfo(rng, AB))


def _corpus():
    """(kind, text, automata) for every formula the tests hold: the FO
    corpus, the tologic outputs of the example automata, each twice
    more with every sub-formula grouped, and 1,000 seeded random
    sentences."""
    for text in FORMULAS:
        yield "fo", text, None
    for text in _tologic_outputs():
        autos = parse_formula_file(text, "wfo").automata
        yield "wfo", text, autos
        yield "wfo", _grouped(parser.parse_wfo(text, autos)), autos
    for kind, text in _random_sentences():
        yield kind, text, None
        yield kind, _grouped(PARSE[kind](text)), None


CORPUS = list(_corpus())


def _outcome(parse):
    """A tree, or the class and position of the error: scope errors of
    either parser count as one class, as the replaced one had no
    position for them."""
    try:
        return ("tree", parse())
    except (ScopeError, ReferenceScopeError):
        return ("scope",)
    except ParseError as err:
        return ("parse", err.where, str(err))


def _both(text, kind, automata):
    return (_outcome(lambda: reference_parse(text, kind, automata)),
            _outcome(lambda: PARSE[kind](text, automata)))


def _mutations(text, rng, count):
    """`count` one-token mutations of `text`, drawn with `rng`: a token
    deleted, doubled, or swapped with the next one."""
    toks = [tok[1] for tok in _tokenize(text)[:-1]]
    out = []
    for _ in range(count):
        i = rng.randrange(len(toks))
        how = rng.choice(("delete", "double", "swap"))
        m = list(toks)
        if how == "delete":
            del m[i]
        elif how == "double":
            m.insert(i, toks[i])
        elif i + 1 < len(m):
            m[i], m[i + 1] = m[i + 1], m[i]
        out.append(" ".join(m))
    return out


def test_same_trees_on_the_corpus():
    assert len(CORPUS) > 2000
    for kind, text, autos in CORPUS:
        old, new = _both(text, kind, autos)
        assert old[0] == "tree" and old == new, text


def test_same_text_as_the_recursive_printers_on_the_corpus():
    """The one-table printer writes every corpus formula as the recursive
    printers it replaced did (`reference_printer`), headers included."""
    for kind, text, autos in CORPUS:
        phi = PARSE[kind](text, autos)
        assert PRINTERS[kind](phi) == REFERENCE_PRINTERS[kind](phi), text
        assert serialize_formula_file(phi, kind, autos) \
            == reference_serialize_formula_file(phi, kind, autos), text


def test_same_trees_on_the_bench_inputs():
    # chain-300's sentence nests deeper than the recursive reference and
    # the recursive comparison of two trees can go under the default
    # recursion limit; the library parses it at that limit
    for name in sorted(os.listdir(INPUTS)):
        if name.endswith(".wfo"):
            with open(os.path.join(INPUTS, name), encoding="utf-8") as f:
                text = f.read()
            new = parse_formula_file(text, "wfo")
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(20000)
            try:
                assert reference_parse(text, "wfo", new.automata) \
                    == new.formula, name
            finally:
                sys.setrecursionlimit(limit)


def test_same_error_positions_on_mutations():
    """Every mutation ends the same in both parsers, or in the one kind
    of error they place differently on purpose: an FO formula in a step
    or wfo slot that no '?' follows.  The replaced parser backed out of
    it, read it again as a weight or wfo and reported an earlier token;
    the one-pass parser reports the token where '?' is missing."""
    rng = random.Random(SEED)
    moved = same = 0
    for kind, text, autos in CORPUS:
        for mutant in _mutations(text, rng, 4):
            old, new = _both(mutant, kind, autos)
            if old[:2] == new[:2]:
                same += 1
                continue
            assert old[0] == new[0] == "parse", (mutant, old, new)
            assert "expected '?' after the condition" in new[2], \
                (mutant, old, new)
            assert new[1] > old[1], (mutant, old, new)
            moved += 1
    assert moved < same / 5


def _tokens(tokenize, text):
    """tokenize's tokens of text as (kind, text, line, col), or its
    error's position and text."""
    try:
        tokens = tokenize(text)
    except ParseError as err:
        return ("error", err.where, str(err))
    if tokenize is _tokenize:
        return [(kind, chunk, *_where(text, offset))
                for kind, chunk, offset in tokens]
    return tokens


def test_tokens_match_the_reference_tokenizer():
    """The one-pass tokenizer finds the tokens, lines, columns and bad
    characters that the line-counting one did: on the corpus, the bench
    inputs, and seeded texts of tokens, comments, line breaks and
    characters that start no token."""
    texts = [text for _, text, _ in CORPUS]
    for name in sorted(os.listdir(INPUTS)):
        if name.endswith(".wfo"):
            with open(os.path.join(INPUTS, name), encoding="utf-8") as f:
                texts.append(f.read())
    rng = random.Random(SEED)
    pieces = ["x", "Pa", "12", "-3", "->", "<=", "<", "(", ")", ".", ",",
              "?", ":", "+", "&", "|", "!", ";", "/", " ", "  ", "\n",
              "\r\n", "\t", "# note", "# a -> b\n", "\u00e9", "$", "\x00"]
    for _ in range(3000):
        texts.append("".join(rng.choice(pieces)
                             for _ in range(rng.randint(0, 30))))
    errors = 0
    for text in texts:
        want = _tokens(reference_tokenize, text)
        assert _tokens(_tokenize, text) == want, text
        errors += want[0] == "error"
    assert 500 < errors < 2500


@pytest.mark.parametrize("parse,template", [
    (parser.parse_step, "%s1%s"),
    (parser.parse_wfo, "prod x. %s1%s"),
    (parser.parse_wfo, "%szero%s"),
    (parser.parse_fo, "exists x. %sPa(x)%s"),
    (parser.parse_wfo, "prod x. %sPa(x)%s ? 1 : 0"),
])
def test_nesting_is_linear(parse, template):
    """Thousands of parentheses parse under the default recursion limit,
    and 16 times as many take less than 48 times as long."""
    def cpu(depth):
        text = template % ("(" * depth, ")" * depth)
        best = float("inf")
        for _ in range(3):
            start = time.process_time()
            tree = parse(text)
            best = min(best, time.process_time() - start)
        assert tree == parse(template % ("", ""))
        return best

    assert sys.getrecursionlimit() <= 1000
    small, large = cpu(200), cpu(3200)
    assert large < 48 * max(small, 1e-4)


def test_no_function_calls_itself():
    """The functions of the parser, of the formula walkers and printers
    and of the automaton-to-logic translation form no call cycle: a chain
    of calls between the functions of one module never comes back to
    where it started."""
    for module in (parser, syntax, wa_to_wfo):
        tree = ast.parse(inspect.getsource(module))
        funcs = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
        calls = {}
        for name, node in funcs.items():
            called = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    f = sub.func
                    called.add(f.attr if isinstance(f, ast.Attribute)
                               else getattr(f, "id", None))
            calls[name] = {f for f in called & set(funcs)
                           if not f.startswith("__")}
        for start in funcs:
            seen, todo = set(), list(calls[start])
            while todo:
                name = todo.pop()
                assert name != start, "%s.%s calls itself" % (
                    module.__name__, start)
                if name not in seen:
                    seen.add(name)
                    todo.extend(calls[name])
