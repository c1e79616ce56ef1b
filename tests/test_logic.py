import hashlib
import random

import pytest

from corpus import SEED, all_words, random_fo_sentence, random_wfo
from reference_semantics import all_ext_words, classify, unmark
from wfoc import InputError, Nfa, SeqMultiset, Symbol
from wfoc.fo_compiler import compile_fo
from wfoc.logic import (
    And, Const, EqVar, Exists, Forall, FoTrue, Implies, LetterAt,
    Leq, Lt, Not, Or, ParseError, Plus, ProdX, RunAtom, ScopeError, StepIte,
    SumX, WIte, Zero, after, before, between,
    eval_fo, eval_step, eval_wfo_at, ext_alphabet, format_fo,
    format_step, format_wfo, free_vars, parse_fo,
    parse_formula_file, parse_step, parse_wfo, relativize,
    serialize_formula_file, uses_plus, uses_sumx,
)
from wfoc.logic.syntax import nodes

AB = ("a", "b")


def chain_nfa():
    # accepts a*b from 1 to 2
    return Nfa({1, 2}, {"a", "b"},
               {(1, "a", 1), (1, "b", 2)}, {1}, {2})


class TestParser:

    @pytest.mark.parametrize("text,node", [
        ("true", FoTrue()),
        ("!true", Not(FoTrue())),
        ("Pa(x) & Pb(x) | true", Or(And(LetterAt("a", "x"),
                                        LetterAt("b", "x")), FoTrue())),
        ("x <= y", Leq("x", "y")),
        ("x < y", Lt("x", "y")),
        ("x = y", EqVar("x", "y")),
    ])
    def test_fo_atoms_and_precedence(self, text, node):
        assert parse_fo(text) == node

    def test_implies_right_associative(self):
        got = parse_fo("true -> false -> true")
        assert got == Implies(FoTrue(), Implies(Not(FoTrue()), FoTrue()))

    def test_binder_extends_right(self):
        got = parse_fo("forall x. Pa(x) & Pb(x)")
        assert got == Forall("x", And(LetterAt("a", "x"),
                                      LetterAt("b", "x")))

    def test_step_ternary_right_associative(self):
        got = parse_step("true ? 1 : false ? 2 : 3")
        assert got == StepIte(FoTrue(), Const(1),
                              StepIte(Not(FoTrue()), Const(2), Const(3)))

    def test_weights(self):
        assert parse_step("1/2") == Const(__import__("fractions").Fraction(1, 2))
        assert parse_step("t") == Const(Symbol("t"))
        assert parse_step("-3") == Const(-3)

    @pytest.mark.parametrize("text,col", [
        ("prod x. 1/0", 9), ("prod x. -1/0", 9), ("prod x. 1/-2", 9),
        ("prod x.\n  Pa(x) ? 1/0 : 2", 11),
    ])
    def test_non_weight_rejected(self, text, col):
        # `1/0` used to compile to a symbolic weight
        with pytest.raises(InputError) as err:
            parse_wfo(text)
        line = text.count("\n") + 1
        assert str(err.value).startswith("line %d col %d: not a weight"
                                         % (line, col))

    @pytest.mark.parametrize("text,line,col,message", [
        ("prod x. Pa(x) & ? 1 : 2", 1, 17, "expected an atom, got '?'"),
        ("prod x. (Pa(x) | x <) ? 1 : 2", 1, 21,
         "expected variable, got ')'"),
        ("exists y. y < ? prod x. 1 : zero", 1, 15,
         "expected variable, got '?'"),
        ("prod x.\n  (Pa(x) & ) ? 1 : 2", 2, 12, "expected an atom, got ')'"),
        ("prod x. run:M(1,7) ? 1 : 0", 1, 17, "automaton 'M' has no state 7"),
        ("prod x. 1 : 2", 1, 11, "trailing input ':'"),
    ])
    def test_error_is_the_furthest_failure(self, text, line, col, message):
        # the error is reported at the first token no formula can go on
        # with, whichever layer the text around it turns out to be
        with pytest.raises(ParseError) as err:
            parse_wfo(text, automata={"M": chain_nfa()})
        assert str(err.value) == "line %d col %d: %s" % (line, col, message)
        assert err.value.where == (line, col)

    @pytest.mark.parametrize("text", ["prod x. 1.5", "prod x. 1e3"])
    def test_non_weight_is_trailing_input(self, text):
        with pytest.raises(InputError, match="line 1 col 10"):
            parse_wfo(text)

    def test_plus_binds_tighter_than_ternary(self):
        got = parse_wfo("true ? zero + zero : zero")
        assert got == WIte(FoTrue(), Plus(Zero(), Zero()), Zero())

    def test_rebinding_in_scope_is_an_error(self):
        with pytest.raises(ScopeError) as err:
            parse_wfo("sum x. sum x. zero")
        assert str(err.value) == "line 1 col 12: variable x is already bound"
        with pytest.raises(ScopeError) as err:
            parse_fo("forall x.\n  exists x. true")
        assert err.value.where == (2, 10)

    @pytest.mark.parametrize("text,message", [
        ("prod x. (1", "line 1 col 11: expected ), got end of input"),
        ("Pa(x) ? zero", "line 1 col 13: expected ':' of '?:', got end of "
         "input"),
        ("prod x.", "line 1 col 8: expected a weight, got end of input"),
    ])
    def test_error_at_end_of_input(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_wfo(text)
        assert str(err.value) == message

    def test_parallel_binders_get_renamed_apart(self):
        got = parse_wfo("(sum x. zero) + (sum x. zero)")
        assert isinstance(got, Plus)
        assert got.left.var != got.right.var

    def test_free_variables_allowed(self):
        got = parse_fo("forall x. Pa(y)")
        assert free_vars(got) == {"y"}
        assert free_vars(got)

    def test_parse_error_message_position(self):
        with pytest.raises(ParseError):
            parse_fo("forall x. &")

    def test_run_atom_needs_known_automaton(self):
        nfa = chain_nfa()
        got = parse_fo("run:M(1,2)", automata={"M": nfa})
        assert got == RunAtom("M", nfa, 1, 2)
        with pytest.raises(ParseError):
            parse_fo("run:M(1,2)")
        with pytest.raises(InputError):
            parse_fo("run:M(1,7)", automata={"M": nfa})

    @pytest.mark.parametrize("text", [
        "run:M(1,2;<x)", "run:M(1,2;>x)", "run:M(1,2;x,y)",
    ])
    def test_bounded_run_atoms(self, text):
        got = parse_fo("forall x. forall y. " + text,
                       automata={"M": chain_nfa()})
        atom = got.body.body
        assert atom.bounded

    @pytest.mark.parametrize("phi,text", [
        (And(LetterAt("a", "x"), Leq("x", "y")), "Pa(x) & (x <= y)"),
        (And(Lt("x", "y"), LetterAt("a", "x")), "x < y & Pa(x)"),
        (Or(EqVar("x", "y"), EqVar("y", "x")), "x = y | y = x"),
        (Not(Leq("x", "y")), "!(x <= y)"),
        (And(And(FoTrue(), FoTrue()), FoTrue()), "true & true & true"),
        (And(FoTrue(), And(FoTrue(), FoTrue())), "true & (true & true)"),
        (Or(And(FoTrue(), FoTrue()), FoTrue()), "true & true | true"),
        (And(Or(FoTrue(), FoTrue()), FoTrue()), "(true | true) & true"),
        (Implies(FoTrue(), Implies(FoTrue(), FoTrue())),
         "true -> true -> true"),
        (Implies(Implies(FoTrue(), FoTrue()), FoTrue()),
         "(true -> true) -> true"),
        (Implies(Or(FoTrue(), FoTrue()), Or(FoTrue(), FoTrue())),
         "true | true -> true | true"),
        (Or(Implies(FoTrue(), FoTrue()), FoTrue()), "(true -> true) | true"),
    ])
    def test_operators_print_by_precedence(self, phi, text):
        # brackets only where FO_OPERATORS' precedence and associativity
        # need them, and comparisons bracketed where an & would be
        assert format_fo(phi) == text
        assert parse_fo(text) == phi

    def test_fo_round_trip_random(self):
        rng = random.Random(SEED)
        for _ in range(60):
            phi = random_fo_sentence(rng, AB)
            assert parse_fo(format_fo(phi)) == phi

    def test_wfo_round_trip_random(self):
        rng = random.Random(SEED + 1)
        for _ in range(60):
            phi = random_wfo(rng, AB)
            assert parse_wfo(format_wfo(phi)) == phi

    def test_step_round_trip(self):
        text = "Pa(x) ? (Pb(x) ? 0 : 2) : 1"
        psi = parse_step(text)
        assert parse_step(format_step(psi)) == psi


class TestFormulaFile:

    def test_fragment_header_verified(self):
        parse_formula_file("# fragment: no-sum\nprod x. 1", "wfo")
        with pytest.raises(InputError):
            parse_formula_file("# fragment: no-sum\nsum x. prod y. 1", "wfo")
        with pytest.raises(InputError):
            parse_formula_file("# fragment: no-plus\nzero + zero", "wfo")

    def test_automaton_header_supplies_run_atoms(self):
        nfa = chain_nfa()
        text = serialize_formula_file(
            Forall("x", RunAtom("M", nfa, 1, 2, hi="x", bounded=True)), "fo")
        assert text.startswith("# automaton M:")
        again = parse_formula_file(text, "fo")
        assert again.formula == Forall(
            "x", RunAtom("M", nfa, 1, 2, hi="x", bounded=True))

    @pytest.mark.parametrize("header,message", [
        ("states: 1 2 ; initial: 1 ; final: 2 ; states: 1 2",
         "line 2: section 'states' repeats line 2"),
        ("states: 1 ; initial: 1 ; final: 1 ; trans: 1 a 01",
         "line 2: state '01' must be written 1"),
    ])
    def test_header_errors_name_the_header_line(self, header, message):
        text = "# fragment: no-sum\n# automaton A: alphabet: a ; %s\nzero\n"
        with pytest.raises(InputError) as err:
            parse_formula_file(text % header, "wfo")
        assert str(err.value) == message

    def test_wfo_file_round_trip(self):
        rng = random.Random(SEED + 2)
        for _ in range(20):
            phi = random_wfo(rng, AB)
            text = serialize_formula_file(phi, "wfo")
            assert parse_formula_file(text, "wfo").formula == phi


class TestEncoding:
    """The marked letters of `ext_alphabet`, read back by the test oracle
    `unmark` and by a compiled classifier."""

    def test_round_trip_random(self):
        # a word and a valuation are the unmarking of one marked word
        rng = random.Random(SEED)
        for _ in range(100):
            n = rng.randrange(1, 4)
            word = tuple(rng.choice(AB) for _ in range(n))
            k = rng.randrange(0, 3)
            vars = tuple(sorted(rng.sample(["x", "y", "z"], k)))
            sigma = {v: rng.randrange(1, n + 1) for v in vars}
            marked = [w for w in all_ext_words(AB, vars, n)
                      if unmark(vars, w) == (word, sigma)]
            assert len(marked) == 1

    def test_invalid_encodings(self):
        # no mark, or two marks, of x: no valuation, and the classifier
        # of a compiled formula rejects the word
        c = compile_fo(FoTrue(), AB, ("x",))
        for letters in [(("a", (0,)), ("b", (0,))),
                        (("a", (1,)), ("b", (1,)))]:
            assert unmark(("x",), letters) is None
            assert classify(c, letters) is None
        assert classify(c, (("a", (0,)), ("b", (1,)))) == "F"

    def test_plain_letters_only_without_vars(self):
        assert ext_alphabet(AB, ()) == list(AB)
        for a, bits in ext_alphabet(AB, ("y", "x")):
            assert a in AB and len(bits) == 2 and set(bits) <= {0, 1}

    def test_valuation_domain_must_match(self):
        # the valuation binds every free variable, at a position of the word
        phi = WIte(LetterAt("a", "y"), ProdX("x", Const(1)), Zero())
        with pytest.raises(InputError, match="unbound variables: y"):
            eval_wfo_at(phi, ("a",), {"x": 1})
        with pytest.raises(InputError, match="position 2 out of range"):
            eval_wfo_at(phi, ("a",), {"y": 2})

    def test_ext_alphabet_size(self):
        assert len(ext_alphabet(AB, ("x", "y"))) == 8
        assert ext_alphabet(AB, ()) == ["a", "b"]
        assert len(all_ext_words(AB, ("x",), 2)) == 16


class TestEvalFo:

    def test_empty_word_conventions(self):
        assert eval_fo(FoTrue(), ())
        assert eval_fo(Forall("x", Not(FoTrue())), ())
        assert not eval_fo(Exists("x", FoTrue()), ())
        with pytest.raises(InputError):
            eval_fo(LetterAt("a", "x"), ())

    def test_atoms(self):
        u = tuple("ab")
        assert eval_fo(LetterAt("a", "x"), u, {"x": 1})
        assert not eval_fo(LetterAt("a", "x"), u, {"x": 2})
        assert eval_fo(Leq("x", "y"), u, {"x": 1, "y": 1})
        assert not eval_fo(Lt("x", "y"), u, {"x": 1, "y": 1})
        assert eval_fo(EqVar("x", "y"), u, {"x": 2, "y": 2})

    def test_quantifiers(self):
        all_a = Forall("x", LetterAt("a", "x"))
        some_b = Exists("x", LetterAt("b", "x"))
        assert eval_fo(all_a, tuple("aaa"))
        assert not eval_fo(all_a, tuple("aba"))
        assert eval_fo(some_b, tuple("aba"))
        assert not eval_fo(some_b, tuple("aa"))

    def test_shadowing_rejected(self):
        with pytest.raises(InputError):
            eval_fo(Forall("x", FoTrue()), ("a",), {"x": 1})

    def test_run_atom_full_word(self):
        phi = RunAtom("M", chain_nfa(), 1, 2)
        assert eval_fo(phi, tuple("aab"))
        assert not eval_fo(phi, tuple("aba"))
        assert not eval_fo(phi, ())  # 1 != 2 on the empty factor

    def test_run_atom_bounded(self):
        # factor strictly between x and y
        phi = RunAtom("M", chain_nfa(), 1, 2, lo="x", hi="y", bounded=True)
        u = tuple("baabb")
        assert eval_fo(phi, u, {"x": 1, "y": 5})   # factor aab
        assert not eval_fo(phi, u, {"x": 1, "y": 4})  # factor aa
        assert not eval_fo(phi, u, {"x": 4, "y": 5})  # empty factor
        same_state = RunAtom("M", chain_nfa(), 1, 1, lo="x", hi="y",
                             bounded=True)
        assert eval_fo(same_state, u, {"x": 4, "y": 5})


class TestEvalStep:

    def test_cascade_takes_first_true_branch(self):
        psi = StepIte(LetterAt("a", "x"), Const(1),
                      StepIte(LetterAt("b", "x"), Const(2), Const(9)))
        u = tuple("ab")
        assert eval_step(psi, u, {"x": 1}) == 1
        assert eval_step(psi, u, {"x": 2}) == 2

    def test_rejects_empty_word(self):
        with pytest.raises(InputError):
            eval_step(Const(1), ())

    def test_symbolic_weight(self):
        assert eval_step(Const(Symbol("t")), ("a",)) == Symbol("t")


class TestEvalWfo:

    def test_prod_gives_one_sequence_per_word(self):
        phi = ProdX("x", StepIte(LetterAt("a", "x"), Const(1), Const(0)))
        assert eval_wfo_at(phi, tuple("aab")) == SeqMultiset({(1, 1, 0): 1})

    def test_zero(self):
        assert eval_wfo_at(Zero(), tuple("a")) == SeqMultiset()

    def test_sum_ranges_over_positions(self):
        phi = SumX("y", ProdX("x", StepIte(EqVar("x", "y"),
                                           Const(1), Const(0))))
        got = eval_wfo_at(phi, tuple("aaa"))
        assert got == SeqMultiset({(1, 0, 0): 1, (0, 1, 0): 1,
                                   (0, 0, 1): 1})

    def test_sum_can_repeat_sequences(self):
        phi = SumX("y", ProdX("x", Const(7)))
        assert eval_wfo_at(phi, tuple("ab")) == SeqMultiset({(7, 7): 2})

    def test_ite_and_plus(self):
        phi = WIte(Exists("z", LetterAt("b", "z")),
                   ProdX("x", Const(1)),
                   Plus(ProdX("x", Const(2)), ProdX("x", Const(2))))
        assert eval_wfo_at(phi, tuple("ab")) == SeqMultiset({(1, 1): 1})
        assert eval_wfo_at(phi, tuple("aa")) == SeqMultiset({(2, 2): 2})

    def test_empty_word_rejected(self):
        with pytest.raises(InputError):
            eval_wfo_at(ProdX("x", Const(1)), ())

    def test_free_vars_must_be_carried(self):
        phi = WIte(LetterAt("a", "y"), ProdX("x", Const(1)), Zero())
        with pytest.raises(InputError):
            eval_wfo_at(phi, tuple("aa"))
        assert eval_wfo_at(phi, tuple("ab"), {"y": 2}) == SeqMultiset()
        assert eval_wfo_at(phi, tuple("ab"), {"y": 1}) \
            == SeqMultiset({(1, 1): 1})

    @pytest.mark.parametrize("phi,word,valuation,message", [
        (ProdX("x", Const(1)), (), None,
         "weighted formulas are defined on non-empty words"),
        (ProdX("x", Const(1)), ("a",), {"y": 0},
         "position 0 out of range for y"),
        (ProdX("x", Const(1)), (), {"y": 1},
         "position 1 out of range for y"),
        (WIte(LetterAt("a", "y"), Zero(), Zero()), ("a",), {"z": 1},
         "unbound variables: y"),
        (SumX("y", ProdX("x", Const(1))), ("a",), {"y": 1},
         "shadowed variable y"),
        (ProdX("y", Const(1)), ("a",), {"y": 1}, "shadowed variable y"),
        (ProdX("x", StepIte(Exists("y", FoTrue()), Const(1), Const(2))),
         ("a",), {"y": 1}, "shadowed variable y"),
    ])
    def test_input_errors(self, phi, word, valuation, message):
        with pytest.raises(InputError) as err:
            eval_wfo_at(phi, word, valuation)
        assert str(err.value) == message

    def test_same_values_and_errors_as_the_marked_word_evaluator(self):
        # The multisets and InputErrors of 42,840 calls: 300 seeded
        # sentences, each also under a free y, on every word up to length
        # 3, with valuations that bind, leave y unbound, fall out of range
        # or shadow a binder.  The digest was recorded from the evaluator
        # that encoded each word and valuation as one marked word and
        # decoded it again, with its 4,500 unbound-variable errors reworded
        # from 'valuation domain [...] does not match variables [...]' to
        # 'unbound variables: ...', the wording of eval_fo and eval_step.
        rng = random.Random(SEED + 23)
        digest = hashlib.sha256()
        calls = 0
        for _ in range(300):
            phi = random_wfo(rng, AB)
            bound = sorted(n.var for n in nodes(phi) if hasattr(n, "var")
                           and not isinstance(n, LetterAt))
            valuations = [{}, {"y": 1}, {"y": 3, "z": 2}, {"y": 0}]
            if bound:
                valuations.append({"y": 2, rng.choice(bound): 1})
            for f in (phi, WIte(LetterAt("a", "y"), phi, Zero())):
                for word in [()] + all_words(AB, 3):
                    for valuation in valuations:
                        try:
                            got = eval_wfo_at(f, word, valuation).pretty()
                        except InputError as err:
                            got = "error: %s" % err
                        digest.update(("%s\n" % got).encode())
                        calls += 1
        assert calls == 42840
        assert digest.hexdigest() == ("15b5fc3a50fcf7ddc09c2abb776d4201"
                                      "aa11af568fb0b819a34447129f8f240d")

    def test_sum_normal_form_identities(self):
        rng = random.Random(SEED + 3)
        for _ in range(40):
            cond = random_fo_sentence(rng, AB, depth=2)
            f1 = random_wfo(rng, AB, depth=2)
            f2 = random_wfo(rng, AB, depth=2)
            ite = WIte(cond, f1, f2)
            split = Plus(WIte(cond, f1, Zero()),
                         WIte(Not(cond), f2, Zero()))
            pushed = WIte(cond, Plus(f1, f2), Zero())
            split2 = Plus(WIte(cond, f1, Zero()), WIte(cond, f2, Zero()))
            for word in all_words(AB, 3):
                assert eval_wfo_at(ite, word) == eval_wfo_at(split, word)
                assert eval_wfo_at(pushed, word) == eval_wfo_at(split2, word)


def _factor_words(u, mode_kind, i, j=None):
    if mode_kind == "before":
        return u[:i - 1]
    if mode_kind == "after":
        return u[i:]
    return u[i:j - 1] if j - 1 >= i else ()


class TestRelativize:

    def test_requires_sentence(self):
        with pytest.raises(InputError):
            relativize(LetterAt("a", "x"), before("y"))

    def test_double_bounding_rejected(self):
        phi = Exists("z", RunAtom("M", chain_nfa(), 1, 2, lo="z",
                                  bounded=True))
        with pytest.raises(InputError):
            relativize(phi, after("w"))

    def test_mode_variable_collision_freshened(self):
        phi = Forall("x", LetterAt("a", "x"))
        rel = relativize(phi, before("x"))
        assert "x" not in {rel.var}
        assert free_vars(rel) == {"x"}

    def test_defining_equivalences_random(self):
        rng = random.Random(SEED + 4)
        for _ in range(15):
            phi = random_fo_sentence(rng, AB)
            rb = relativize(phi, before("rx"))
            ra = relativize(phi, after("rx"))
            rm = relativize(phi, between("rx", "ry"))
            for word in all_words(AB, 4):
                n = len(word)
                for i in range(1, n + 1):
                    assert eval_fo(rb, word, {"rx": i}) \
                        == eval_fo(phi, _factor_words(word, "before", i))
                    assert eval_fo(ra, word, {"rx": i}) \
                        == eval_fo(phi, _factor_words(word, "after", i))
                    for j in range(1, n + 1):
                        assert eval_fo(rm, word, {"rx": i, "ry": j}) \
                            == eval_fo(phi,
                                       _factor_words(word, "between", i, j))

    def test_run_atom_gets_bounds(self):
        phi = RunAtom("M", chain_nfa(), 1, 2)
        rel = relativize(phi, between("x", "y"))
        u = tuple("baabb")
        for i in range(1, 6):
            for j in range(1, 6):
                factor = _factor_words(u, "between", i, j)
                assert eval_fo(rel, u, {"x": i, "y": j}) \
                    == eval_fo(phi, factor)
