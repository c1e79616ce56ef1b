"""End-to-end checks of the command line front end.

Commands run in-process through main(argv) so exit codes and output are
asserted directly; files go through tmp_path.
"""

import os
import random
import subprocess
import sys

import pytest

import wfoc
from wfoc import decompose, wfo_compiler
from wfoc.automata import (
    abstract_semantics, aperiodicity_index, classify_ambiguity, words_upto,
)
from wfoc.cli import main
from wfoc.logic.parser import parse_formula_file, serialize_formula_file
from wfoc.logic.syntax import SumX, WfoFormula, format_wfo
from wfoc.multiset import SeqMultiset
from wfoc.textfmt import parse_automaton
from wfoc.wfo_compiler import compile_wfo

from tests.corpus import ALL_TEXTS, SEED, load, random_wfo


def save(tmp_path, name):
    path = tmp_path / (name + ".wa")
    path.write_text(ALL_TEXTS[name])
    return str(path)


def read(path, mode="r"):
    with open(path, mode) as handle:
        return handle.read()


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEval:
    def test_multiset_output(self, tmp_path, capsys):
        tri = save(tmp_path, "triplerun")
        rc, out, _ = run(capsys, ["eval", "--automaton", tri, "--word", "aaab"])
        assert rc == 0
        assert out == "1 x [2,1,4,3]\n1 x [2,1,5,3]\n1 x [2,2,3,3]\n"

    def test_natural_semiring(self, tmp_path, capsys):
        fib = save(tmp_path, "fibonacci")
        rc, out, _ = run(capsys, ["eval", "--automaton", fib,
                                  "--word", "aaaaa", "--semiring", "natural"])
        assert rc == 0 and out == "5\n"

    def test_maxplus(self, tmp_path, capsys):
        cmm = save(tmp_path, "countminmax")
        rc, out, _ = run(capsys, ["eval", "--automaton", cmm,
                                  "--word", "aab", "--semiring", "maxplus"])
        assert rc == 0 and out == "2\n"

    def test_max_average(self, tmp_path, capsys):
        tri = save(tmp_path, "triplerun")
        rc, out, _ = run(capsys, ["eval", "--automaton", tri,
                                  "--word", "aaab", "--aggregator", "ma"])
        assert rc == 0 and out == "11/4\n"

    def test_word_tokens(self, tmp_path, capsys):
        tri = save(tmp_path, "triplerun")
        rc, out, _ = run(capsys, ["eval", "--automaton", tri,
                                  "--word-tokens", "a a a b"])
        assert rc == 0 and "2,2,3,3" in out

    def test_ma_rejects_semiring(self, tmp_path, capsys):
        tri = save(tmp_path, "triplerun")
        rc, _, err = run(capsys, ["eval", "--automaton", tri, "--word", "a",
                                  "--aggregator", "ma", "--semiring", "natural"])
        assert rc == 2 and "semiring" in err

    def test_sp_needs_semiring(self, tmp_path, capsys):
        tri = save(tmp_path, "triplerun")
        rc, _, err = run(capsys, ["eval", "--automaton", tri, "--word", "a",
                                  "--aggregator", "sp"])
        assert rc == 2 and "--semiring" in err

    def test_empty_word_rejected(self, tmp_path, capsys):
        tri = save(tmp_path, "triplerun")
        rc, _, _ = run(capsys, ["eval", "--automaton", tri, "--word", ""])
        assert rc == 2

    def test_unweighted_input_rejected(self, tmp_path, capsys):
        path = tmp_path / "plain.wa"
        path.write_text("alphabet: a\nstates: 1\ninitial: 1\nfinal: 1\n"
                        "trans: 1 a 1\n")
        rc, _, err = run(capsys, ["eval", "--automaton", str(path),
                                  "--word", "a"])
        assert rc == 2 and "weights" in err


    def test_word_errors_come_before_flag_errors(self, tmp_path, capsys):
        tri = save(tmp_path, "triplerun")
        rc, _, err = run(capsys, ["eval", "--automaton", tri, "--word", "z",
                                  "--aggregator", "sp"])
        assert rc == 2 and "unknown letter 'z'" in err

    def test_blockmax_abc100_maxplus(self, tmp_path, capsys):
        # 2^100 accepting runs: the forward pass never lists them
        blk = save(tmp_path, "blockmax")
        rc, out, _ = run(capsys, ["eval", "--automaton", blk,
                                  "--word", "abc" * 100,
                                  "--semiring", "maxplus"])
        assert rc == 0 and out == "100\n"

    @pytest.mark.parametrize("flags", [
        ["--semiring", name] for name in
        ("natural", "boolean", "minplus", "maxplus", "languages")]
        + [["--aggregator", "ma"]])
    def test_values_skip_the_multiset(self, tmp_path, capsys, monkeypatch,
                                      flags):
        tri = save(tmp_path, "triplerun")
        argv = ["eval", "--automaton", tri, "--word", "aaabb"] + flags
        _, want, _ = run(capsys, argv)

        def refuse(*args):
            raise AssertionError("abstract_semantics called")

        for mod in (wfoc.cli, wfoc.semantics, wfoc.automata):
            monkeypatch.setattr(mod, "abstract_semantics", refuse)
        assert run(capsys, argv) == (0, want, "")

    def test_multiset_semiring_prints_the_multiset(self, tmp_path, capsys):
        for name in ("triplerun", "blockmax", "mingap"):
            path = save(tmp_path, name)
            for word in ("aaab", "abcab", "abba", "bbcb"):
                argv = ["eval", "--automaton", path, "--word", word]
                assert run(capsys, argv + ["--semiring", "multiset"]) \
                    == run(capsys, argv)

class TestCompile:
    def test_round_trip_through_files(self, tmp_path, capsys):
        # tologic output feeds straight back into compile
        mode = save(tmp_path, "modeblocks")
        phi_path = str(tmp_path / "mode.wfo")
        back_path = str(tmp_path / "back.wa")
        assert run(capsys, ["tologic", "--automaton", mode,
                            "-o", phi_path])[0] == 0
        assert run(capsys, ["compile", "--formula", phi_path,
                            "-o", back_path])[0] == 0
        original = parse_automaton(ALL_TEXTS["modeblocks"])
        compiled = parse_automaton(read(back_path))
        for word in words_upto(original.nfa.alphabet, 4):
            assert abstract_semantics(compiled, word) \
                == abstract_semantics(original, word)

    def test_report_stages(self, tmp_path, capsys):
        src = tmp_path / "count.wfo"
        src.write_text("sum y. (Pa(y) ? prod x. 1 : prod x. 0)\n")
        rc, out, _ = run(capsys, ["compile", "--formula", str(src),
                                  "--alphabet", "a,b", "--report",
                                  "-o", str(tmp_path / "count.wa")])
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert all("states=" in line and "ambiguity=" in line
                   for line in lines)
        assert "projection bound" in lines[-1]
        assert "sum y." in lines[-1]

    def test_alphabet_required_when_uninferable(self, tmp_path, capsys):
        src = tmp_path / "one.wfo"
        src.write_text("prod x. 1\n")
        rc, _, err = run(capsys, ["compile", "--formula", str(src)])
        assert rc == 2 and "--alphabet" in err
        rc, out, _ = run(capsys, ["compile", "--formula", str(src),
                                  "--alphabet", "a"])
        assert rc == 0 and "alphabet: a" in out

    def test_dot_format(self, tmp_path, capsys):
        src = tmp_path / "one.wfo"
        src.write_text("prod x. (Pa(x) ? 2 : 3)\n")
        rc, out, _ = run(capsys, ["compile", "--formula", str(src),
                                  "--alphabet", "a b", "--format", "dot"])
        assert rc == 0 and out.startswith("digraph") and "| 2" in out

    def test_byte_determinism(self, tmp_path, capsys):
        mode = save(tmp_path, "modeblocks")
        phi_path = str(tmp_path / "mode.wfo")
        run(capsys, ["tologic", "--automaton", mode, "-o", phi_path])
        outs = []
        for attempt in ("x", "y"):
            dst = str(tmp_path / (attempt + ".wa"))
            assert run(capsys, ["compile", "--formula", phi_path,
                                "-o", dst])[0] == 0
            outs.append(read(dst, "rb"))
        assert outs[0] == outs[1]


# corpus automata that `tologic` translates; the others are refused
TRANSLATABLE = ("countminmax", "expsum", "linearcount", "mingap", "modeblocks",
                "splitmax", "splitmin", "switchpoints", "triplerun")

CLASS_WORDS = {"unambiguous": "unambiguous", "finitely": "finite",
               "polynomially": "polynomial (SCC-unambiguous)",
               "exponentially": "exponential"}


def per_subterm_report(phi, alphabet, vars, lines):
    """`compile --report` as first defined: every weighted subterm compiled
    on its own, children first; returns the aperiodicity index of phi."""
    for child in (getattr(phi, "then", None), getattr(phi, "els", None),
                  getattr(phi, "left", None), getattr(phi, "right", None)):
        if isinstance(child, WfoFormula):
            per_subterm_report(child, alphabet, vars, lines)
    note = ""
    if isinstance(phi, SumX):
        body_idx = per_subterm_report(phi.body, alphabet, vars + (phi.var,),
                                      lines)
        if body_idx is not None:
            note = " (projection bound %d)" % (2 * body_idx)
    wa = compile_wfo(phi, alphabet, vars)
    idx = aperiodicity_index(wa)
    lines.append("%s :: states=%d ambiguity=%s index=%s%s"
                 % (format_wfo(phi), len(wa.nfa.states),
                    CLASS_WORDS[classify_ambiguity(wa)], idx, note))
    return idx


def report_cases():
    rng = random.Random(SEED + 3)
    cases = [(name, None, ",".join(sorted(
        parse_automaton(ALL_TEXTS[name]).nfa.alphabet)))
        for name in TRANSLATABLE]
    cases += [("random-%d" % i, serialize_formula_file(
        random_wfo(rng, ("a", "b")), "wfo"), "a,b") for i in range(20)]
    return cases


REPORT_CASES = report_cases()


class TestReportStages:
    def test_report_compiles_once(self, tmp_path, capsys, monkeypatch):
        sw = save(tmp_path, "switchpoints")
        phi_path = str(tmp_path / "sw.wfo")
        assert run(capsys, ["tologic", "--automaton", sw,
                            "-o", phi_path])[0] == 0
        calls = []
        real = wfo_compiler.compile_product

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(wfo_compiler, "compile_product", counting)
        outs = []
        for extra in ([], ["--report"]):
            dst = tmp_path / ("out%d.wa" % len(extra))
            del calls[:]
            assert run(capsys, ["compile", "--formula", phi_path,
                                "-o", str(dst)] + extra)[0] == 0
            outs.append((len(calls), dst.read_bytes()))
        assert outs[0][0] > 0
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("name,text,alphabet", REPORT_CASES,
                             ids=[c[0] for c in REPORT_CASES])
    def test_report_matches_per_subterm_compilation(
            self, tmp_path, capsys, name, text, alphabet):
        phi_path = tmp_path / "phi.wfo"
        if text is None:
            src = save(tmp_path, name)
            assert run(capsys, ["tologic", "--automaton", src,
                                "-o", str(phi_path)])[0] == 0
        else:
            phi_path.write_text(text)
        rc, out, _ = run(capsys, ["compile", "--formula", str(phi_path),
                                  "--alphabet", alphabet, "--report",
                                  "-o", str(tmp_path / "out.wa")])
        assert rc == 0
        phi = parse_formula_file(phi_path.read_text(), "wfo").formula
        want = []
        per_subterm_report(phi, frozenset(alphabet.split(",")), (), want)
        assert out == "".join(line + "\n" for line in want)


# String state names, whose set order changes with the hash seed.  Four
# pairs of runs share the word `a`; the witness must not depend on which
# of them is explored first.
TIES = """alphabet: a b
states: s q1 q2 q3 q4 f
initial: s
final: f
trans: s a q1 1
trans: s a q2 2
trans: s a q3 3
trans: s a q4 4
trans: q1 b f 1
trans: q2 b f 1
trans: q3 a f 2
trans: q4 a f 3
"""

TIES_FORMULA = (
    "# automaton A: alphabet: a b ; states: s q1 q2 q3 q4 f ; initial: s ;"
    " final: f ; trans: s a q1 ; trans: s a q2 ; trans: s a q3 ;"
    " trans: s a q4 ; trans: q1 b f ; trans: q2 b f ; trans: q3 a f ;"
    " trans: q4 a f\n"
    "sum y. (Pa(y) & run:A(s,q2;<y) & run:A(q2,f;>y)) ? prod x. (x = y) ? 2"
    " : (run:A(s,q4;<x) & Pa(x)) ? 3 : 1 : prod x. run:A(s,q3;<x) ? 4 : 0\n")


def run_with_hash_seed(workdir, argv, seed):
    """Run the CLI in a fresh interpreter; returns its exit code, stdout,
    stderr and the bytes of every out* file it wrote."""
    workdir.mkdir()
    (workdir / "ties.wa").write_text(TIES)
    (workdir / "ties.wfo").write_text(TIES_FORMULA)
    src = os.path.dirname(os.path.dirname(os.path.abspath(wfoc.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "wfoc.cli"] + argv,
                          cwd=str(workdir), env=env, capture_output=True,
                          text=True, timeout=120)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())
             if p.name.startswith("out")}
    return proc.returncode, proc.stdout, proc.stderr, files


class TestHashSeedDeterminism:
    @pytest.mark.parametrize("argv,rc", [
        (["compile", "--report", "--formula", "ties.wfo", "-o", "out.wa"], 0),
        (["tologic", "--mode", "unambiguous", "--automaton", "ties.wa"], 1),
        (["decompose", "--automaton", "ties.wa", "-o", "out"], 0),
    ], ids=["compile-report", "tologic-refusal", "decompose"])
    def test_outputs_identical_across_hash_seeds(self, tmp_path, argv, rc):
        results = [run_with_hash_seed(tmp_path / str(seed), argv, seed)
                   for seed in (0, 1)]
        assert results[0][0] == rc
        assert results[0][1] or results[0][2]
        assert results[0] == results[1]


class TestCompileFo:
    def test_sentence_classifier(self, tmp_path, capsys):
        src = tmp_path / "allb.fo"
        src.write_text("forall z. Pb(z)\n")
        rc, out, _ = run(capsys, ["compile-fo", "--formula", str(src),
                                  "--alphabet", "a b"])
        assert rc == 0
        assert "accepting G:" in out
        cls = parse_automaton(out)
        assert ("b",) in [w for w in words_upto(cls.alphabet, 1)]

    def test_free_variable_marking(self, tmp_path, capsys):
        src = tmp_path / "atx.fo"
        src.write_text("Pa(x)\n")
        rc, out, _ = run(capsys, ["compile-fo", "--formula", str(src),
                                  "--vars", "x", "--alphabet", "a b"])
        assert rc == 0 and "a[1]" in out and "b[0]" in out


class TestTologic:
    def test_unambiguous_emits_plain_fragment(self, tmp_path, capsys):
        mode = save(tmp_path, "modeblocks")
        rc, out, _ = run(capsys, ["tologic", "--automaton", mode])
        assert rc == 0
        assert "# fragment: no-sum no-plus" in out
        parse_formula_file(out, "wfo")

    def test_scc_route_uses_sum(self, tmp_path, capsys):
        sw = save(tmp_path, "switchpoints")
        rc, out, _ = run(capsys, ["tologic", "--automaton", sw])
        assert rc == 0 and "sum " in out

    def test_forced_unambiguous_refuses(self, tmp_path, capsys):
        tri = save(tmp_path, "triplerun")
        rc, _, err = run(capsys, ["tologic", "--automaton", tri,
                                  "--mode", "unambiguous"])
        assert rc == 1 and "refused" in err and "runs" in err

    def test_scc_refuses_exponential(self, tmp_path, capsys):
        fib = save(tmp_path, "fibonacci")
        rc, _, err = run(capsys, ["tologic", "--automaton", fib,
                                  "--mode", "scc"])
        assert rc == 1 and "refused" in err

    # a formula letter is what the parser reads after the P of Pa(x); a
    # letter it cannot read must not reach the output
    @pytest.mark.parametrize("letters", ["a.b c", "\u00e9 b"],
                             ids=["dot", "accent"])
    def test_unwritable_letter_is_an_input_error(self, tmp_path, capsys,
                                                 letters):
        first, second = letters.split()
        path = tmp_path / "in.wa"
        path.write_text("alphabet: %s\nstates: 1 2\ninitial: 1\nfinal: 2\n"
                        "trans: 1 %s 2 1\ntrans: 2 %s 2 2\n"
                        % (letters, first, second), encoding="utf-8")
        phi_path = tmp_path / "in.wfo"
        rc, _, err = run(capsys, ["tologic", "--automaton", str(path),
                                  "-o", str(phi_path)])
        assert rc == 2 and "letter %r" % first in err
        assert not phi_path.exists()


# two initial states, both final: only the empty word has two runs
TWO_LOOPS = """
alphabet: a b
states: 1 2
initial: 1 2
final: 1 2
trans: 1 a 1 3
trans: 2 b 2 5
"""


# integer states with a gap; state 5 is isolated
GAPPED = """alphabet: a b
states: 1 2 4 5
initial: 1
final: 4
trans: 1 a 2 1
trans: 1 b 1 2
trans: 2 a 2 1
trans: 2 b 4 3
trans: 4 a 4 2
"""


class TestTologicStateNames:
    # the automaton headers of tologic output number the states 1..n; the
    # run atoms used to keep the original names
    @pytest.mark.parametrize("text", [TIES, GAPPED], ids=["ties", "gapped"])
    def test_round_trip(self, tmp_path, capsys, text):
        path = tmp_path / "in.wa"
        path.write_text(text)
        phi_path = str(tmp_path / "in.wfo")
        back_path = str(tmp_path / "back.wa")
        assert run(capsys, ["tologic", "--automaton", str(path),
                            "-o", phi_path])[0] == 0
        assert run(capsys, ["compile", "--formula", phi_path,
                            "-o", back_path])[0] == 0
        rc, out, _ = run(capsys, ["equiv", "--a", str(path),
                                  "--b", back_path, "--maxlen", "6"])
        assert (rc, out) == (0, "EQUIV up to 6\n")


class TestEmptyWordIgnored:
    def test_classify_unambiguous(self, tmp_path, capsys):
        path = tmp_path / "loops.wa"
        path.write_text(TWO_LOOPS)
        rc, out, _ = run(capsys, ["classify", "--automaton", str(path)])
        assert rc == 0 and out.startswith("ambiguity: unambiguous;")

    def test_tologic_sum_free_round_trip(self, tmp_path, capsys):
        path = tmp_path / "loops.wa"
        path.write_text(TWO_LOOPS)
        phi_path = str(tmp_path / "loops.wfo")
        back_path = str(tmp_path / "back.wa")
        assert run(capsys, ["tologic", "--automaton", str(path),
                            "-o", phi_path])[0] == 0
        assert "# fragment: no-sum no-plus" in read(phi_path)
        assert run(capsys, ["compile", "--formula", phi_path,
                            "-o", back_path])[0] == 0
        rc, out, _ = run(capsys, ["equiv", "--a", str(path),
                                  "--b", back_path, "--maxlen", "6"])
        assert rc == 0 and out == "EQUIV up to 6\n"

    def test_refusal_witness_is_non_empty(self, tmp_path, capsys):
        cmm = save(tmp_path, "countminmax")
        rc, _, err = run(capsys, ["tologic", "--automaton", cmm,
                                  "--mode", "unambiguous"])
        assert rc == 1
        assert "not unambiguous: 'a' has two accepting runs" in err


class TestDecompose:
    def test_triplerun_parts_sum_back(self, tmp_path, capsys):
        tri = save(tmp_path, "triplerun")
        prefix = str(tmp_path / "out")
        rc, out, _ = run(capsys, ["decompose", "--automaton", tri,
                                  "-o", prefix])
        assert rc == 0
        assert "bound K=3 (detected)" in out
        assert "A_>=3:" in out
        parts = [parse_automaton(read("%s.%d.wa" % (prefix, ell)))
                 for ell in (1, 2, 3)]
        original = parse_automaton(ALL_TEXTS["triplerun"])
        for word in words_upto(frozenset("ab"), 6):
            merged = SeqMultiset.empty()
            for part in parts:
                merged = merged.union(abstract_semantics(part, word))
            assert merged == abstract_semantics(original, word)

    def test_each_tracker_built_once(self, tmp_path, capsys, monkeypatch):
        # A_>=1..A_>=4 for K = 3; the printed A_>=k lines reuse them
        built = []
        real = decompose.build_a_geq_k

        def counting(a, k):
            built.append(k)
            return real(a, k)

        monkeypatch.setattr(decompose, "build_a_geq_k", counting)
        tri = save(tmp_path, "triplerun")
        rc, out, _ = run(capsys, ["decompose", "--automaton", tri,
                                  "-o", str(tmp_path / "out")])
        assert rc == 0 and "A_>=3: states=" in out
        assert built == [1, 2, 3, 4]

    def test_explicit_bound_too_small(self, tmp_path, capsys):
        tri = save(tmp_path, "triplerun")
        rc, _, err = run(capsys, ["decompose", "--automaton", tri,
                                  "-K", "2", "-o", str(tmp_path / "nope")])
        assert rc == 1 and "refused" in err

    def test_added_initial_is_flagged(self, tmp_path, capsys):
        mode = save(tmp_path, "modeblocks")
        rc, out, _ = run(capsys, ["decompose", "--automaton", mode,
                                  "-o", str(tmp_path / "m")])
        assert rc == 0
        assert "added a fresh initial state" in out
        assert "B_1:" in out

    def test_dot_output_files(self, tmp_path, capsys):
        mode = save(tmp_path, "modeblocks")
        prefix = str(tmp_path / "m")
        rc, _, _ = run(capsys, ["decompose", "--automaton", mode,
                                "-o", prefix, "--format", "dot"])
        assert rc == 0
        assert read(prefix + ".1.dot").startswith("digraph")


class TestClassify:
    @pytest.mark.parametrize("name,expect", [
        ("modeblocks", "ambiguity: unambiguous; aperiodic: yes, index=1"),
        ("triplerun", "ambiguity: finite; aperiodic: yes, index=3"),
        ("switchpoints",
         "ambiguity: polynomial (SCC-unambiguous); aperiodic: yes, index=2"),
        ("fibonacci", "ambiguity: exponential; aperiodic: yes, index=2"),
    ])
    def test_census(self, tmp_path, capsys, name, expect):
        path = save(tmp_path, name)
        rc, out, _ = run(capsys, ["classify", "--automaton", path])
        assert rc == 0 and out == expect + "\n"


class TestEquiv:
    def test_identical(self, tmp_path, capsys):
        tri = save(tmp_path, "triplerun")
        rc, out, _ = run(capsys, ["equiv", "--a", tri, "--b", tri,
                                  "--maxlen", "5"])
        assert rc == 0 and out == "EQUIV up to 5\n"

    def test_counterexample(self, tmp_path, capsys):
        tri = save(tmp_path, "triplerun")
        mode = save(tmp_path, "modeblocks")
        rc, out, _ = run(capsys, ["equiv", "--a", tri, "--b", mode,
                                  "--maxlen", "4"])
        assert rc == 1
        assert out.startswith("COUNTEREXAMPLE b\n")
        assert "(empty)" in out and "1 x [1]" in out

    def test_extra_dead_letter_is_harmless(self, tmp_path, capsys):
        fib = save(tmp_path, "fibonacci")
        padded = tmp_path / "padded.wa"
        padded.write_text(ALL_TEXTS["fibonacci"].replace(
            "alphabet: a", "alphabet: a b"))
        rc, out, _ = run(capsys, ["equiv", "--a", fib, "--b", str(padded),
                                  "--maxlen", "4"])
        assert rc == 0 and "EQUIV" in out

    def test_env_var_caps_sweep(self, tmp_path, capsys, monkeypatch):
        fib = save(tmp_path, "fibonacci")
        monkeypatch.setenv("WFOC_MAXLEN", "3")
        rc, out, _ = run(capsys, ["equiv", "--a", fib, "--b", fib])
        assert rc == 0 and out == "EQUIV up to 3\n"
        # a bad value is an input error (2), never a counterexample (1)
        for bad in ("abc", "0", "-3", "2.5", ""):
            monkeypatch.setenv("WFOC_MAXLEN", bad)
            rc, out, err = run(capsys, ["equiv", "--a", fib, "--b", fib])
            assert rc == 2 and out == ""
            assert "WFOC_MAXLEN" in err and repr(bad) in err

    @pytest.mark.parametrize("bad", ["0", "-3", "abc", "2.5", "", "\u00b2"])
    def test_bad_maxlen_flag_is_an_input_error(self, tmp_path, capsys, bad):
        # the two automata differ on every word, so no sweep may say EQUIV
        paths = []
        for w in (1, 2):
            path = tmp_path / ("w%d.wa" % w)
            path.write_text("alphabet: a\nstates: 1\ninitial: 1\nfinal: 1\n"
                            "trans: 1 a 1 %d\n" % w)
            paths.append(str(path))
        argv = ["equiv", "--a", paths[0], "--b", paths[1], "--maxlen"]
        assert run(capsys, argv + ["2"])[:2] == (
            1, "COUNTEREXAMPLE a\na:\n1 x [1]\nb:\n1 x [2]\n")
        rc, out, err = run(capsys, argv + [bad])
        assert rc == 2 and out == ""
        assert "--maxlen" in err and repr(bad) in err


    @pytest.mark.parametrize("pair", [("triplerun", "modeblocks"),
                                      ("splitmax", "countminmax"),
                                      ("mingap", "fibonacci")])
    def test_first_counterexample_is_the_brute_force_one(
            self, tmp_path, capsys, monkeypatch, pair):
        a, b = (load(name) for name in pair)
        alphabet = a.nfa.alphabet | b.nfa.alphabet

        def sem(wa, word):
            if set(word) - wa.nfa.alphabet:
                return SeqMultiset()
            return abstract_semantics(wa, word)

        first = next(word for word in words_upto(alphabet, 5)
                     if sem(a, word) != sem(b, word))

        def refuse(*args):
            raise AssertionError("abstract_semantics called")

        monkeypatch.setattr(wfoc.cli, "abstract_semantics", refuse)
        rc, out, _ = run(capsys, ["equiv", "--a", save(tmp_path, pair[0]),
                                  "--b", save(tmp_path, pair[1]),
                                  "--maxlen", "5"])
        assert rc == 1
        assert out.startswith("COUNTEREXAMPLE %s\n" % "".join(first))

class TestDotAndErrors:
    def test_dot_stdout(self, tmp_path, capsys):
        mode = save(tmp_path, "modeblocks")
        rc, out, _ = run(capsys, ["dot", "--automaton", mode])
        assert rc == 0
        assert out.startswith("digraph") and "doublecircle" in out

    def test_dot_to_file(self, tmp_path, capsys):
        mode = save(tmp_path, "modeblocks")
        dst = tmp_path / "m.dot"
        rc, _, _ = run(capsys, ["dot", "--automaton", mode, "-o", str(dst)])
        assert rc == 0 and dst.read_text().startswith("digraph")

    def test_missing_file(self, tmp_path, capsys):
        rc, _, err = run(capsys, ["classify", "--automaton",
                                  str(tmp_path / "absent.wa")])
        assert rc == 2 and "cannot read" in err

    def test_malformed_automaton(self, tmp_path, capsys):
        bad = tmp_path / "bad.wa"
        bad.write_text("alphabet a b\n")
        rc, _, _ = run(capsys, ["classify", "--automaton", str(bad)])
        assert rc == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
