import random
from fractions import Fraction

import pytest

from corpus import ALL_TEXTS, SEED, load, named_weights, random_wfo
from wfoc import (
    InputError, Nfa, Symbol, parse_automaton, parse_automaton_inline,
    serialize_automaton, serialize_automaton_inline, to_dot,
)
from wfoc.automata import state_key
from wfoc.cli import main
from wfoc.logic import parser
from wfoc.textfmt import canonical_names
from wfoc.weights import KEYWORDS
from wfoc.wfo_compiler import compile_stages


@pytest.mark.parametrize("name", sorted(ALL_TEXTS))
def test_round_trip(name):
    a = load(name)
    text = serialize_automaton(a)
    again = parse_automaton(text)
    assert serialize_automaton(again) == text


def test_serialization_is_stable_under_relabeling():
    shuffled = """
alphabet: a
states: 9 4
initial: 4
final: 9
trans: 4 a 4 2
trans: 9 a 4 2
"""
    straight = """
alphabet: a
states: 1 2
initial: 1
final: 2
trans: 1 a 1 2
trans: 2 a 1 2
"""
    assert serialize_automaton(parse_automaton(shuffled)) \
        == serialize_automaton(parse_automaton(straight))


def test_parse_nfa_three_field_lines():
    a = parse_automaton("""
alphabet: a
states: 1 2
initial: 1
final: 2
trans: 1 a 2
""")
    assert isinstance(a, Nfa)


def test_mixed_arity_rejected():
    with pytest.raises(InputError):
        parse_automaton("""
alphabet: a
states: 1 2
initial: 1
final: 2
trans: 1 a 2
trans: 2 a 1 2
""")


def test_duplicate_transition_rejected():
    with pytest.raises(InputError):
        parse_automaton("""
alphabet: a
states: 1
initial: 1
final: 1
trans: 1 a 1 1
trans: 1 a 1 2
""")


def test_unknown_state_rejected():
    with pytest.raises(InputError):
        parse_automaton("""
alphabet: a
states: 1
initial: 1
final: 2
""")


_HEAD = "alphabet: a\nstates: 1\ninitial: 1\nfinal: 1\n"


@pytest.mark.parametrize("text,message", [
    (_HEAD + "# comment\ntrans 1 a 1 2\n",
     "line 6: malformed line: 'trans 1 a 1 2'"),
    (_HEAD + "accepting: 1\n",
     "line 5: accepting sets need a name: 'accepting: 1'"),
    (_HEAD + "trans: 1 a\n",
     "line 5: trans needs 3 or 4 fields: 'trans: 1 a'"),
    ("alphabet: a\ntrnas: 1 a 1 2\n", "line 2: unknown section 'trnas'"),
    (_HEAD + "trans: 1 a 1 1\n\ntrans: 1 a 1 2\n",
     "line 7: duplicate transition (1, 'a', 1)"),
])
def test_section_errors_name_their_line(text, message):
    with pytest.raises(InputError) as err:
        parse_automaton(text)
    assert str(err.value) == message


@pytest.mark.parametrize("body,message", [
    ("trans 1 a 1", "malformed line: ' trans 1 a 1'"),
    ("accepting: 1", "accepting sets need a name: ' accepting: 1'"),
    ("trans: 1 a", "trans needs 3 or 4 fields: ' trans: 1 a'"),
    ("trnas: 1 a 1", "unknown section 'trnas'"),
    ("trans: 1 a 1 ; trans: 1 a 1", "duplicate transition (1, 'a', 1)"),
])
def test_header_section_errors_name_the_file_line(body, message):
    text = ("# fragment: no-sum\n\n# automaton A: alphabet: a ; states: 1 ;"
            " initial: 1 ; final: 1 ; %s\nzero\n" % body)
    with pytest.raises(InputError) as err:
        parser.parse_formula_file(text, "wfo")
    assert str(err.value) == "line 3: " + message


# an undeclared state or letter: the file, the error its line and token
_TWO = "alphabet: a\nstates: 1 2\n"
UNDECLARED = [
    (_TWO + "initial: 1\nfinal: 2\ntrans: 1 a 3 1\n",
     "line 5: trans names undeclared state '3'"),
    (_TWO + "initial: 1\nfinal: 2\n# comment\ntrans: 3 a 1 1\n",
     "line 6: trans names undeclared state '3'"),
    (_TWO + "initial: 1\nfinal: 2\ntrans: 1 b 2 1\n",
     "line 5: trans names undeclared letter 'b'"),
    (_TWO + "initial: 1\nfinal: 2\ntrans: 1 a[01] 2\n",
     "line 5: trans names undeclared letter 'a[01]'"),
    (_TWO + "initial: 1 5\nfinal: 2\n",
     "line 3: initial names undeclared state '5'"),
    ("final: q\n" + _TWO + "initial: 1\n",
     "line 1: final names undeclared state 'q'"),
    (_TWO + "initial: 1\nfinal: 2\naccepting  G: 2 7\n",
     "line 5: accepting G names undeclared state '7'"),
]


@pytest.mark.parametrize("text,message", UNDECLARED)
def test_undeclared_names_name_their_line(text, message, tmp_path, capsys):
    with pytest.raises(InputError) as err:
        parse_automaton(text)
    assert str(err.value) == message
    path = tmp_path / "in.wa"
    path.write_text(text)
    assert main(["classify", "--automaton", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("text,message", UNDECLARED)
def test_undeclared_names_in_a_header_name_its_line(text, message, tmp_path,
                                                    capsys):
    header = "# automaton A: " + " ; ".join(text.splitlines())
    path = tmp_path / "in.wfo"
    path.write_text("# fragment: no-sum\n\n%s\nzero\n" % header)
    assert main(["compile", "--formula", str(path), "--alphabet", "a"]) == 2
    want = "line 3:" + message.split(":", 1)[1]
    assert capsys.readouterr().err == "error: %s\n" % want


@pytest.mark.parametrize("text,line,token", [
    # `01` used to be read as state 1, silently merging the two
    ("alphabet: a\nstates: 1 01 2\ninitial: 1\nfinal: 2\n"
     "trans: 01 a 2 3\n", 2, "01"),
    ("alphabet: a\nstates: 1 2\ninitial: 1\nfinal: 2\n"
     "# comment\ntrans: 1 a 002 3\n", 6, "002"),
    ("alphabet: a\nstates: 0 1\ninitial: 00\nfinal: 1\n", 3, "00"),
])
def test_non_canonical_number_rejected(text, line, token):
    with pytest.raises(InputError) as err:
        parse_automaton(text)
    assert ("line %d" % line) in str(err.value)
    assert repr(token) in str(err.value)


def test_canonical_numbers_stay_integers():
    # a digit that is not decimal, such as a superscript, names a state
    a = parse_automaton("alphabet: a\nstates: 0 10 x01 \u00b2\ninitial: 0\n"
                        "final: 10\ntrans: 0 a 10\ntrans: 10 a x01\n")
    assert a.states == frozenset({0, 10, "x01", "\u00b2"})


def test_inline_round_trip():
    a = load("fibonacci")
    inline = serialize_automaton_inline(a)
    assert ";" in inline and "\n" not in inline
    b = parse_automaton_inline(inline)
    assert serialize_automaton(b) == serialize_automaton(a)


def test_fractional_and_symbolic_weights():
    a = parse_automaton("""
alphabet: a
states: 1
initial: 1
final: 1
trans: 1 a 1 1/2
""")
    from fractions import Fraction
    assert named_weights(a)[(1, "a", 1)] == Fraction(1, 2)
    assert "1/2" in serialize_automaton(a)
    b = parse_automaton("""
alphabet: a
states: 1
initial: 1
final: 1
trans: 1 a 1 t
""")
    from wfoc import Symbol
    assert named_weights(b)[(1, "a", 1)] == Symbol("t")


WEIGHTED_LINE = ("alphabet: a\nstates: 1\ninitial: 1\nfinal: 1\n"
                 "trans: 1 a 1 %s\n")


@pytest.mark.parametrize("token", [
    "1/0", "-1/0", "1.5", "1e3", "1/-2", "1/", "/2", "-", "+3", "--3",
    "a-b", "t.1", "\u00b2",
])
def test_non_weight_token_rejected(token):
    # these used to become symbolic weights (the superscript crashed)
    with pytest.raises(InputError) as err:
        parse_automaton(WEIGHTED_LINE % token)
    assert "line 5" in str(err.value) and repr(token) in str(err.value)


@pytest.mark.parametrize("token,weight", [
    ("3", 3), ("-3", -3), ("1/2", Fraction(1, 2)), ("-1/2", Fraction(-1, 2)),
    ("4/2", 2), ("t", Symbol("t")), ("w_1'", Symbol("w_1'")),
])
def test_weight_tokens_accepted(token, weight):
    assert parse_automaton(WEIGHTED_LINE % token).weights == (weight,)


@pytest.mark.parametrize("token", sorted(KEYWORDS))
def test_keyword_weight_rejected(token):
    # a keyword weight would print into tologic output that no formula
    # parser reads back
    with pytest.raises(InputError) as err:
        parse_automaton(WEIGHTED_LINE % token)
    assert "line 5" in str(err.value) and "keyword" in str(err.value)


@pytest.mark.parametrize("token", ["zeros", "Zero", "sum_", "prod'", "True",
                                   "exists1", "_false"])
def test_keyword_lookalikes_are_symbols(token):
    assert parse_automaton(WEIGHTED_LINE % token).weights == (Symbol(token),)


def test_formula_parser_shares_the_keywords():
    assert parser.KEYWORDS is KEYWORDS


def test_canonical_names_follow_state_key():
    rng = random.Random(SEED)
    for _ in range(12):
        phi = random_wfo(rng, ("a", "b"), depth=3, max_sum_vars=2)
        *_, (_, wa) = compile_stages(phi, {"a", "b"})
        names = canonical_names(wa)
        assert list(names) == sorted(wa.nfa.states, key=state_key)
        assert list(names.values()) == list(range(1, len(names) + 1))


def test_canonical_names_keep_equal_subtuples_of_other_types_apart():
    # (True, 2) == (1, 2), but state_key orders bools before ints
    states = {((1, 2), "a"), ((True, 2), "b"), ((0, 3), "c")}
    nfa = Nfa(states, (), (), (), ())
    assert list(canonical_names(nfa)) == sorted(states, key=state_key)


def test_dot_output_shape():
    dot = to_dot(load("fibonacci"))
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert "a | 1" in dot
