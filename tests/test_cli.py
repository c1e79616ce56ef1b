"""End-to-end checks of the command line front end.

Commands run in-process through main(argv) so exit codes and output are
asserted directly; files go through tmp_path.
"""

import hashlib
import os
import random
import subprocess
import sys

import pytest

import wfoc
from wfoc import decompose, wfo_compiler
from wfoc.automata import (
    abstract_semantics, aperiodicity_index, classify_ambiguity,
)
from wfoc.cli import main
from wfoc.logic.parser import parse_formula_file, serialize_formula_file
from wfoc.logic.syntax import Plus, SumX, WfoFormula, Zero, format_wfo, nodes
from wfoc.multiset import SeqMultiset
from wfoc.semantics import (
    SEMIRING_NAMES, aggr_ma, aggr_sp, builtin_semiring, format_value,
)
from wfoc.textfmt import parse_automaton
from wfoc.wfo_compiler import compile_wfo

from reference_multiset import MULTISET_SEQS
from reference_semantics import multiset_sum, words_upto
from tests.corpus import ALL_TEXTS, SEED, load, random_wfo


# every state initial and final: aa has the 8 runs over -2, 9, 10, 1/2
MIXED = ("alphabet: a b\nstates: 1 2\ninitial: 1 2\nfinal: 1 2\n"
         "trans: 1 a 1 -2\ntrans: 1 a 2 9\ntrans: 2 a 1 10\n"
         "trans: 2 a 2 1/2\ntrans: 1 b 1 t\ntrans: 2 b 2 t\n")

_RUNS = ("alphabet: a b\nstates: 1 2 3 4\ninitial: 1\nfinal: 2\n"
         "trans: 1 a 1 -2\ntrans: 1 a 2 1/2\ntrans: 1 b 1 t\n")
DIFFERENT_TABLES = {
    "p": _RUNS + "trans: 2 b 2 9\ntrans: 1 b 3 10\n",
    "q": _RUNS + "trans: 2 b 2 9\ntrans: 2 a 3 u\n",
    "s": _RUNS + "trans: 2 b 2 10\ntrans: 1 a 4 u\ntrans: 4 b 2 -2\n",
    "mixed": MIXED,
}

# five states over {a, b, c}, 27 transitions, three initial states: the
# number of runs grows exponentially with the word length
DENSE = ("alphabet: a b c\nstates: 1 2 3 4 5\ninitial: 1 2 3\nfinal: 4 5\n"
         "trans: 1 a 1 1\ntrans: 1 b 2 3\ntrans: 1 b 5 3\ntrans: 1 c 1 0\n"
         "trans: 2 a 4 2\ntrans: 2 a 5 2\ntrans: 2 b 1 1\ntrans: 2 b 4 0\n"
         "trans: 2 b 5 2\ntrans: 2 c 2 3\ntrans: 3 a 1 1\ntrans: 3 a 2 2\n"
         "trans: 3 b 2 1\ntrans: 3 b 3 3\ntrans: 3 c 1 2\ntrans: 3 c 2 3\n"
         "trans: 3 c 4 1\ntrans: 4 a 3 3\ntrans: 4 b 2 3\ntrans: 4 b 4 3\n"
         "trans: 4 c 1 3\ntrans: 5 a 1 2\ntrans: 5 a 2 0\ntrans: 5 a 3 3\n"
         "trans: 5 b 1 2\ntrans: 5 b 5 2\ntrans: 5 c 3 2\n")


def _spec(name):
    """The text eval prints under --semiring name, from a word's multiset:
    its sum-product in that semiring, or in the free one of multisets."""
    s = MULTISET_SEQS if name == "multiset" else builtin_semiring(name)
    return lambda m: s.fmt(aggr_sp(s, m))


# each output mode of eval: its flags and its printed definition
EVAL_MODES = [([], _spec("multiset")),
              (["--aggregator", "ma"], lambda m: format_value(aggr_ma(m)))] \
    + [(flags + ["--semiring", name], _spec(name))
       for name in SEMIRING_NAMES + ("multiset",)
       for flags in ([], ["--aggregator", "sp"])]

# eval's flag errors, each with its message
EVAL_FLAG_ERRORS = [
    (["--word", "a", "--aggregator", "ma", "--semiring", "natural"],
     "max-average takes no semiring"),
    (["--word", "a", "--aggregator", "sp"], "sum-product needs --semiring"),
    ([], "need --word or --word-tokens"),
]


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

        for mod in (wfoc.cli, wfoc.automata):
            monkeypatch.setattr(mod, "abstract_semantics", refuse)
        assert run(capsys, argv) == (0, want, "")

    def test_multiset_semiring_prints_the_multiset(self, tmp_path, capsys):
        for name in ("triplerun", "blockmax", "mingap"):
            path = save(tmp_path, name)
            for word in ("aaab", "abcab", "abba", "bbcb"):
                argv = ["eval", "--automaton", path, "--word", word]
                assert run(capsys, argv + ["--semiring", "multiset"]) \
                    == run(capsys, argv)

    def test_every_mode_prints_its_specification(self, tmp_path, capsys):
        # each mode's output is its definition on the word's multiset,
        # formatted; where the definition refuses a weight, eval refuses
        # one on a single line (which weight it names is the forward
        # pass's order)
        rng = random.Random(SEED)
        texts = dict(ALL_TEXTS, mixed=MIXED)
        refused = 0
        for name in sorted(texts):
            path = tmp_path / (name + ".wa")
            path.write_text(texts[name])
            wa = parse_automaton(texts[name])
            letters = sorted(wa.nfa.alphabet)
            for _ in range(5):
                word = "".join(rng.choice(letters)
                               for _ in range(rng.randint(1, 6)))
                m = abstract_semantics(wa, word)
                for flags, spec in EVAL_MODES:
                    argv = ["eval", "--automaton", str(path), "--word", word]
                    rc, out, err = run(capsys, argv + flags)
                    try:
                        want = spec(m) + "\n"
                    except wfoc.InputError:
                        refused += 1
                        assert (rc, out, err.count("\n")) == (2, "", 1)
                        assert err.startswith("error: "), err
                    else:
                        assert (rc, out, err) == (0, want, ""), (name, word)
            for flags, message in EVAL_FLAG_ERRORS:
                argv = ["eval", "--automaton", str(path)] + flags
                assert run(capsys, argv) \
                    == (2, "", "error: %s\n" % message), (name, flags)
        assert refused > 0

    def test_mixed_weights_print_in_canonical_order(self, tmp_path, capsys):
        # numbers by value (9 before 10, -2 before 1/2), then symbols
        path = tmp_path / "mixed.wa"
        path.write_text(MIXED)
        rc, out, _ = run(capsys, ["eval", "--automaton", str(path),
                                  "--word", "aab"])
        assert rc == 0
        assert out == ("1 x [-2,-2,t]\n1 x [-2,9,t]\n1 x [1/2,1/2,t]\n"
                       "1 x [1/2,10,t]\n1 x [9,1/2,t]\n1 x [9,10,t]\n"
                       "1 x [10,-2,t]\n1 x [10,9,t]\n")

    def test_weights_are_ranked_once_per_eval(self, tmp_path, capsys,
                                              monkeypatch):
        # no sort key per sequence or per weight occurrence: 2^13 runs of
        # 40 weights each rank the automaton's distinct weights once
        text = MIXED.replace("trans: 1 b 1 t", "trans: 1 b 1 u")
        path = tmp_path / "runs.wa"
        path.write_text(text)
        distinct = len(set(parse_automaton(text).weights))
        calls = []
        real = wfoc.multiset.weight_sort_key
        monkeypatch.setattr(wfoc.multiset, "weight_sort_key",
                            lambda w: calls.append(w) or real(w))
        rc, out, _ = run(capsys, ["eval", "--automaton", str(path),
                                  "--word", "abb" + "a" * 11 + "b" * 26])
        assert rc == 0 and out.count("\n") == 2 ** 13
        assert len(calls) <= distinct == 6


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

    def test_empty_alphabet_is_an_input_error(self, tmp_path, capsys):
        # not a fall-back to the formula's letters
        src = tmp_path / "pa.wfo"
        src.write_text("prod x. (Pa(x) ? 2 : 3)\n")
        for flag in ("", " , "):
            rc, out, err = run(capsys, ["compile", "--formula", str(src),
                                        "--alphabet", flag])
            assert rc == 2 and out == ""
            assert "--alphabet" in err and repr(flag) in err

    def test_comment_sign_in_a_letter_is_an_input_error(self, tmp_path,
                                                        capsys):
        # an automaton written with it would not read back: '#' starts a
        # comment in the text format
        src = tmp_path / "one.wfo"
        src.write_text("prod x. (Pa(x) ? 2 : 1)\n")
        out_path = tmp_path / "h.wa"
        for letters in ("a,#", "a b#"):
            rc, out, err = run(capsys, ["compile", "--formula", str(src),
                                        "--alphabet", letters,
                                        "-o", str(out_path)])
            assert (rc, out) == (2, "")
            assert err.startswith("error: letter '") and "'#'" in err
            assert not out_path.exists()
        wa = save(tmp_path, "triplerun")
        rc, out, err = run(capsys, ["eval", "--automaton", wa,
                                    "--word-tokens", "a #x"])
        assert (rc, out) == (2, "")
        assert err == ("error: letter '#x' cannot be written: '#' starts "
                       "a comment\n")

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

    def test_chain_60_bytes_are_pinned(self, tmp_path, capsys):
        # chain-60 with fixed weights, past the benchmark's chain-30: its
        # classifiers take the most refinement rounds.  Both digests were
        # recorded before minimize was seeded by distances.
        n = 60
        lines = ["alphabet: a b",
                 "states: " + " ".join(map(str, range(1, n + 1))),
                 "initial: 1", "final: %d" % n]
        lines += ["trans: %d a %d %d" % (i, i + 1, i % 4)
                  for i in range(1, n)]
        lines += ["trans: %d b %d %d" % (i, i, i * 7 % 4)
                  for i in range(1, n + 1)]
        chain = tmp_path / "chain60.wa"
        chain.write_text("\n".join(lines) + "\n")
        phi, back = tmp_path / "chain60.wfo", tmp_path / "back.wa"
        assert run(capsys, ["tologic", "--automaton", str(chain),
                            "-o", str(phi)])[0] == 0
        assert run(capsys, ["compile", "--formula", str(phi),
                            "-o", str(back)])[0] == 0
        assert hashlib.sha256(read(phi, "rb")).hexdigest() == (
            "95559b712e938e3de5c0b9c6fee5409dd9b1ddb3c41fcc8f4ccbb994b0556bc9")
        assert hashlib.sha256(read(back, "rb")).hexdigest() == (
            "ec299e6e2334e7f14d56c3300d350be0128eee7566eabc6cd4ab758fbd2f35eb")

    def test_chain_150_bytes_are_pinned(self, tmp_path, capsys):
        # chain-150 with the same fixed weights: 299 condition classifiers
        # meet in one position product.  Both digests were recorded before
        # the product decoded a transition from its candidate conditions
        # only and kept its suffix tables as bytes.
        chain = tmp_path / "chain150.wa"
        chain.write_text(_chain_text(150))
        phi, back = tmp_path / "chain150.wfo", tmp_path / "back.wa"
        assert run(capsys, ["tologic", "--automaton", str(chain),
                            "-o", str(phi)])[0] == 0
        assert run(capsys, ["compile", "--formula", str(phi),
                            "-o", str(back)])[0] == 0
        assert hashlib.sha256(read(phi, "rb")).hexdigest() == (
            "6dfe189d0b487f83f67f7afa75abbe06ffa105b594544cd8a2387eba3837f83e")
        assert hashlib.sha256(read(back, "rb")).hexdigest() == (
            "169684113e170239d1fa1c82b710b7ac163f679cebf708ec8610abbc4b211a08")

    def test_chain_200_round_trip_at_the_default_recursion_limit(
            self, tmp_path):
        # a fresh interpreter, as a user runs it: chain-200's sentence
        # nests deeper than a recursive walk of it could go
        (tmp_path / "chain.wa").write_text(_chain_text(200))
        for argv in (["tologic", "--automaton", "chain.wa", "-o", "c.wfo"],
                     ["compile", "--formula", "c.wfo", "-o", "back.wa"]):
            assert run_fresh(tmp_path, argv) == (0, "", "")
        assert run_fresh(tmp_path, ["equiv", "--a", "chain.wa",
                                    "--b", "back.wa"]) \
            == (0, "EQUIV up to 8\n", "")

    def test_dia_8_tologic_reads_back(self, tmp_path):
        # eight diamonds: every accepted word has 256 runs, and the
        # sentence is a sum of 256 summands nested to the left
        (tmp_path / "dia.wa").write_text(_dia_text(8))
        assert run_fresh(tmp_path, ["tologic", "--automaton", "dia.wa",
                                    "-o", "dia.wfo"]) == (0, "", "")
        parsed = parse_formula_file(read(tmp_path / "dia.wfo"), "wfo")
        assert sum(isinstance(n, Plus) for n in nodes(parsed.formula)) == 255

    def test_dia_9_tologic_reads_back(self, tmp_path):
        # 512 summands nested to the left: the recursive printers needed
        # two frames per summand, past the default recursion limit
        (tmp_path / "dia.wa").write_text(_dia_text(9))
        assert run_fresh(tmp_path, ["tologic", "--automaton", "dia.wa",
                                    "-o", "dia.wfo"]) == (0, "", "")
        parsed = parse_formula_file(read(tmp_path / "dia.wfo"), "wfo")
        assert sum(isinstance(n, Plus) for n in nodes(parsed.formula)) == 511

    def test_chain_1200_scc_tologic_at_the_default_recursion_limit(
            self, tmp_path):
        # one switching sequence of 1,199 transitions: its guard conjoins
        # 3,597 atoms, and the enumeration walks 1,199 components deep
        (tmp_path / "chain.wa").write_text(_chain_text(1200))
        assert run_fresh(tmp_path, ["tologic", "--mode", "scc",
                                    "--automaton", "chain.wa",
                                    "-o", "chain.wfo"]) == (0, "", "")
        parsed = parse_formula_file(read(tmp_path / "chain.wfo"), "wfo")
        assert sum(isinstance(n, SumX) for n in nodes(parsed.formula)) \
            == 1199


def _dia_text(k):
    """dia-k: k diamonds over {a, b} with seeded weights; every accepted
    word has 2^k runs."""
    rng = random.Random(SEED)
    lines = ["alphabet: a b",
             "states: " + " ".join(["s%d" % i for i in range(k + 1)]
                                   + ["%s%d" % (c, i) for i in range(k)
                                      for c in "uv"]),
             "initial: s0", "final: s%d" % k]
    for i in range(k):
        for c in "uv":
            lines += ["trans: s%d a %s%d %d" % (i, c, i, rng.randrange(4)),
                      "trans: %s%d a s%d %d" % (c, i, i + 1, rng.randrange(4)),
                      "trans: %s%d b %s%d %d" % (c, i, c, i, rng.randrange(4))]
    lines += ["trans: s%d b s%d %d" % (i, i, rng.randrange(4))
              for i in range(k + 1)]
    return "\n".join(lines) + "\n"


def _chain_text(n):
    """chain-n over {a, b} with fixed weights."""
    return "\n".join(["alphabet: a b",
                      "states: " + " ".join(map(str, range(1, n + 1))),
                      "initial: 1", "final: %d" % n] + _chain_lines(n)) + "\n"


def _chain_lines(n, offset=0):
    """chain-n's transitions on states offset+1..offset+n, fixed weights."""
    return (["trans: %d a %d %d" % (offset + i, offset + i + 1, i % 4)
             for i in range(1, n)]
            + ["trans: %d b %d %d" % (offset + i, offset + i, i * 7 % 4)
               for i in range(1, n + 1)])


# the benchmark's analyze inputs past the corpus, with fixed weights: the
# benchmark draws their weights from its seed, so its digests cover only
# the corpus
ANALYZE_PINS = {
    "chain150": "\n".join(
        ["alphabet: a b", "states: " + " ".join(map(str, range(1, 151))),
         "initial: 1", "final: 150"] + _chain_lines(150)) + "\n",
    "union3x15": "\n".join(
        ["alphabet: a b", "states: " + " ".join(map(str, range(1, 46))),
         "initial: 1 16 31", "final: 15 30 45"]
        + [line for c in range(3) for line in _chain_lines(15, 15 * c)])
    + "\n",
}

# sha256 of each command's stdout followed by the files it wrote, in name
# order; recorded before the transition monoid was built over interned rows
ANALYZE_DIGESTS = {
    ("chain150", "classify"):
        "0d8ed815326402a86d8c48d258c3166a331493bd42a978c998c5bb303fb1e4b0",
    ("chain150", "tologic"):
        "6dfe189d0b487f83f67f7afa75abbe06ffa105b594544cd8a2387eba3837f83e",
    ("chain150", "decompose"):
        "cee8b8e4292dd9bb88033db6f91df0bd66d18f82bb31fb7a4c79d92633f7c2f2",
    ("union3x15", "classify"):
        "3d319d032c369f3aa1db5f8588dcba65759edd91d7dce41c479227081b7d3c2b",
    ("union3x15", "tologic"):
        "8e2af70aeddf807f96752ef7f53ede52d7627522ef5cbf599afa53e3a3df6df9",
    ("union3x15", "decompose"):
        "7418f78dacab395b245cf414e4bca5ded594a18ca9ddff1b8d00de1108c64193",
}


@pytest.mark.parametrize("name,command", sorted(ANALYZE_DIGESTS))
def test_analyze_bytes_are_pinned(name, command, tmp_path, monkeypatch,
                                  capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.wa").write_text(ANALYZE_PINS[name])
    (tmp_path / "out").mkdir()
    extra = {"classify": [], "tologic": ["-o", "out/phi.wfo"],
             "decompose": ["-o", "out/parts"]}[command]
    rc, out, err = run(capsys, [command, "--automaton", "in.wa"] + extra)
    assert (rc, err) == (0, "")
    digest = hashlib.sha256(out.encode())
    for path in sorted((tmp_path / "out").iterdir()):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == ANALYZE_DIGESTS[name, command]


# two chain copies with string state names, as in the CI decompose step
CHAINS = """alphabet: a b
states: p1 p2 p3 q1 q2 q3
initial: p1 q1
final: p3 q3
trans: p1 a p2 1
trans: p2 a p3 2
trans: p1 b p1 0
trans: p2 b p2 1
trans: p3 b p3 3
trans: q1 a q2 2
trans: q2 a q3 0
trans: q1 b q1 1
trans: q2 b q2 3
trans: q3 b q3 1
"""

# writers that no other pin covers: (files to write, argv, sha256 of
# stdout followed by the out* files written, in name order); recorded
# before the numbered form was merged into Nfa
WRITER_PINS = {
    "dot": (
        {"in.wa": ALL_TEXTS["modeblocks"]}, ["dot", "--automaton", "in.wa"],
        "452589e8d629511fd618d0362972506ae64cae0c839260d63c17d50743cff59f"),
    "compile-fo": (
        {"in.fo": "(exists y. x < y & Pb(y)) & (forall z. z < x -> Pa(z))\n"},
        ["compile-fo", "--formula", "in.fo", "--vars", "x",
         "--alphabet", "a b"],
        "0ca24690414ac406384def8d932341e77fb31e998fd9bf9e0fd230ae1a6b94e9"),
    "compile-report": (
        {"in.wfo": "sum y. (Pa(y) ? prod x. 1 : prod x. 0)\n"},
        ["compile", "--report", "--formula", "in.wfo", "--alphabet", "a,b"],
        "173d4c0add53576797d66da8fd77bd11767937777fcc958b073a47a7fab69735"),
    "decompose": (
        {"in.wa": CHAINS}, ["decompose", "--automaton", "in.wa", "-o", "out"],
        "aabf06c66b0aba991bc012ff2bced590353dc5b64d0d6b0f5ddff27fc2ec0db7"),
}


@pytest.mark.parametrize("name", sorted(WRITER_PINS))
def test_writer_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    files, argv, want = WRITER_PINS[name]
    monkeypatch.chdir(tmp_path)
    for path, text in files.items():
        (tmp_path / path).write_text(text)
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    digest = hashlib.sha256(out.encode())
    for path in sorted(tmp_path.glob("out*")):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == want


def _mixed_ab(n, salt):
    """A fixed word of n letters a and b, spread irregularly."""
    return "".join("ab"[(i * i + salt * i) // 3 % 2] for i in range(n))


def _blockmax_word(blocks):
    """`blocks` short a/b blocks joined by c: 2^blocks runs on blockmax."""
    return "c".join(_mixed_ab(1 + i * 3 % 4, i) for i in range(blocks))


# fixed long words, one per corpus automaton, of the shapes the benchmark
# draws from its seed: the benchmark's semantics digests cover only equiv
SEMANTICS_WORDS = {
    "switchpoints": "a" * 30 + "ba" * 10 + "b" * 30,
    "modeblocks": "".join("a" * (i * 7 % 6) + "bc"[i * i % 3 % 2]
                          for i in range(60)),
    "triplerun": "a" * 60 + "aaab" + "b" * 60,
    "fibonacci": "a" * 250,
    "blockmax": _blockmax_word(14),
    "countminmax": _mixed_ab(250, 1),
    "expsum": _mixed_ab(250, 2),
    "linearcount": "a" * 250,
    "splitmax": _mixed_ab(200, 3),
    "splitmin": _mixed_ab(200, 4),
    "mingap": "".join("b" if i * 13 % 200 < 66 else "a" for i in range(200)),
}

# sha256 of eval's stdout in the 8 output modes, one after the other (the
# multiset semiring and languages get blockmax's word of 10 blocks, as in
# the benchmark: their sums are quadratic); recorded before the multiset
# carrier shared run suffixes
SEMANTICS_DIGESTS = {
    "blockmax":
        "950d938bf7cc640a14f5a73904a1fe7ae0cb62dc317f6af5c7a50374bd0a6488",
    "countminmax":
        "8313f2bbd993c82449e2002b1a7f37d163f48bb8172e057183459dd5c3621a53",
    "expsum":
        "7593576dcdb77b23bf9eaa762b1328c5dee171e122dfcda47e6f4c5f66243f7b",
    "fibonacci":
        "ae455d3706f75a3ce1f8217a3ba3f3cff58a1073066f615ee707bea95c727ba0",
    "linearcount":
        "9dcdfbd06e528a0612c31cec323ccdc98fab70aa874c50cea4414fa3107ddb51",
    "mingap":
        "2417368986bb9ccf891373127c1c24a7fbc781066bbe814c95b8674ab1673ba0",
    "modeblocks":
        "27fbd7c8cd760f69ed8449cfec99caf9f6de1d346a0fac2aaa2170e5519217d6",
    "splitmax":
        "f5045e70f4bbc5cfb2bc860652508308a7e1b0806bed09e1fe4c54f7a2fcfc55",
    "splitmin":
        "23480d3b95b95f19d18414e4503ff94ad147a96e2c3fac0bbcae9cdd98784b7f",
    "switchpoints":
        "3253bb5e668049b24177c92509e1152eaf76346980d9cbda7cb37ca2975b2c53",
    "triplerun":
        "68f5bcac8067195ab570b121bd8eeb199f0786518b42d8a239588922043efd4e",
}


@pytest.mark.parametrize("name", sorted(SEMANTICS_DIGESTS))
def test_eval_bytes_are_pinned(name, tmp_path, capsys):
    wa = save(tmp_path, name)
    digest = hashlib.sha256()
    lines = []
    for flags in ([], ["--semiring", "natural"], ["--semiring", "boolean"],
                  ["--semiring", "minplus"], ["--semiring", "maxplus"],
                  ["--semiring", "languages"], ["--semiring", "multiset"],
                  ["--aggregator", "ma"]):
        word = SEMANTICS_WORDS[name]
        if name == "blockmax" and flags[1:] in (["languages"], ["multiset"]):
            word = _blockmax_word(10)
        rc, out, err = run(capsys, ["eval", "--automaton", wa, "--word", word]
                           + flags)
        assert (rc, err) == (0, "")
        digest.update(out.encode())
        lines.append(out.count("\n"))
    if name == "blockmax":
        assert lines[0] == 2 ** 14
    assert digest.hexdigest() == SEMANTICS_DIGESTS[name]


def test_equiv_counterexample_bytes_are_pinned(tmp_path, capsys):
    a = save(tmp_path, "triplerun")
    b = tmp_path / "perturbed.wa"
    b.write_text(ALL_TEXTS["triplerun"].replace("trans: 5 b 6 3",
                                                "trans: 5 b 6 4"))
    rc, out, err = run(capsys, ["equiv", "--a", a, "--b", str(b)])
    assert (rc, err) == (1, "")
    assert out.startswith("COUNTEREXAMPLE aab\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2403f3835ad0a3c91351231719908858d1cc7503209b7ee7f325dc70e3d01d63")


# every `tologic` outcome on the corpus, in each mode: the sha256 of the
# written sentence file, or the refusal printed with exit code 1
_REFUSED_UNAMBIGUOUS = "refused: not unambiguous: %r has two accepting runs\n"
_REFUSED_SCC = ("refused: not SCC-unambiguous: %r has two runs inside one"
                " component\n")
TOLOGIC_OUTCOMES = {
    "blockmax": (_REFUSED_SCC % "cc", _REFUSED_UNAMBIGUOUS % "c",
                 _REFUSED_SCC % "cc"),
    "countminmax": (
        "dbc349f2c7302d21742bdecfe02f23e986f5461c44ddb1933481268ea3eb2784",
        _REFUSED_UNAMBIGUOUS % "a", None),
    "expsum": (
        "d5f88cba88cb33400eff4af9edecb81e64a327dd0c5df808b61234ee37ed2a28",
        _REFUSED_UNAMBIGUOUS % "a", None),
    "fibonacci": (_REFUSED_SCC % "aa", _REFUSED_UNAMBIGUOUS % "aaa",
                  _REFUSED_SCC % "aa"),
    "linearcount": (
        "9f0807773485b37337c5033d18c52cb57bd080cde778f5f26574ecec936abd49",
        _REFUSED_UNAMBIGUOUS % "aa", None),
    "mingap": (
        "5bf180314a7a5f8e3611d563473d855f6a24da980b35ef5d0f3af44e36bca743",
        _REFUSED_UNAMBIGUOUS % "bbb", None),
    "modeblocks": (
        "7e9aa1998e4d6f0ac5d784d2d1109313dfa69a07c340cc560f17281c37bcf765",
        None,
        "140e6b22c672b0e7862a30d72223731c233d48737572510d8f1a9920b626d6a8"),
    "splitmax": (
        "5c33976f849e33040f4447a99820a8827cc1a6092ff56e62fb6be2cdbafa100d",
        _REFUSED_UNAMBIGUOUS % "a", None),
    "splitmin": (
        "775ce9de0101967fdc87c277c1879403b1060e4f9f05920f2ca46e37893b4773",
        _REFUSED_UNAMBIGUOUS % "a", None),
    "switchpoints": (
        "7b37df1baccc4dd5c0a0896ea9ab2cabf6044e8fe7648475fff74bf2f2c6f1d6",
        _REFUSED_UNAMBIGUOUS % "aaab", None),
    "triplerun": (
        "ba1bd9bd8957a511f8c159e0cad720b632b1f33ce3b0eccd320028a39ef031a9",
        _REFUSED_UNAMBIGUOUS % "aab", None),
}
TOLOGIC_MODES = ("auto", "unambiguous", "scc")


def tologic_pin(name, mode):
    """The pinned outcome; None in a slot means the same as auto."""
    pins = TOLOGIC_OUTCOMES[name]
    want = pins[TOLOGIC_MODES.index(mode)]
    return pins[0] if want is None else want


@pytest.mark.parametrize("name", sorted(TOLOGIC_OUTCOMES))
@pytest.mark.parametrize("mode", TOLOGIC_MODES)
def test_tologic_outcomes_are_pinned(name, mode, tmp_path, capsys):
    out = tmp_path / "out.wfo"
    rc, stdout, err = run(capsys, ["tologic", "--mode", mode, "--automaton",
                                   save(tmp_path, name), "-o", str(out)])
    want = tologic_pin(name, mode)
    assert stdout == ""
    if want.startswith("refused: "):
        assert (rc, err, out.exists()) == (1, want, False)
    else:
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want


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


# some y > x reads b, and the letters strictly between x and y spell a*b
BETWEEN = ("# automaton A: alphabet: a b ; states: 1 2 ; initial: 1 ;"
           " final: 2 ; trans: 1 a 1 ; trans: 1 b 2\n"
           "exists y. x < y & run:A(1,2;x,y) & Pb(y)\n")
COMPILE_BETWEEN = ["compile-fo", "--formula", "between.fo", "--vars", "x",
                   "--alphabet", "a b"]
BETWEEN_CLASSIFIER = (
    "alphabet: a[0] a[1] b[0] b[1]\n"
    "states: 1 2 3 4 5 6\n"
    "initial: 1\n"
    "final: 6\n"
    "accepting G: 2 4 5\n"
    "trans: 1 a[0] 1\n" "trans: 1 a[1] 2\n"
    "trans: 1 b[0] 1\n" "trans: 1 b[1] 2\n"
    "trans: 2 a[0] 2\n" "trans: 2 a[1] 3\n"
    "trans: 2 b[0] 4\n" "trans: 2 b[1] 3\n"
    "trans: 3 a[0] 3\n" "trans: 3 a[1] 3\n"
    "trans: 3 b[0] 3\n" "trans: 3 b[1] 3\n"
    "trans: 4 a[0] 5\n" "trans: 4 a[1] 3\n"
    "trans: 4 b[0] 6\n" "trans: 4 b[1] 3\n"
    "trans: 5 a[0] 5\n" "trans: 5 a[1] 3\n"
    "trans: 5 b[0] 5\n" "trans: 5 b[1] 3\n"
    "trans: 6 a[0] 6\n" "trans: 6 a[1] 3\n"
    "trans: 6 b[0] 6\n" "trans: 6 b[1] 3\n")


# Two weights outside every numeric carrier on accepting runs of `bbba`,
# both embedded on its last letter: the forward pass starts from state 3,
# the first initial state in state order, so every refusal names t.
SYMBOLS = """alphabet: a b
states: q1 2 3 q4
initial: q1 3
final: 2 3
trans: q1 b q1 1
trans: q1 a 2 u
trans: 3 b 3 1
trans: 3 a 3 t
trans: 2 a q4 1
"""


def run_fresh(workdir, argv, seed=0):
    """Run the CLI in a fresh interpreter; returns its exit code, stdout
    and stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wfoc.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "wfoc.cli"] + argv,
                          cwd=str(workdir), env=env, capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_with_hash_seed(workdir, argv, seed):
    """Run the CLI in a fresh interpreter; returns its exit code, stdout,
    stderr and the bytes of every out* file it wrote."""
    workdir.mkdir()
    (workdir / "ties.wa").write_text(TIES)
    (workdir / "ties.wfo").write_text(TIES_FORMULA)
    (workdir / "symbols.wa").write_text(SYMBOLS)
    (workdir / "between.fo").write_text(BETWEEN)
    rc, out, err = run_fresh(workdir, argv, seed)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())
             if p.name.startswith("out")}
    return rc, out, err, files


class TestHashSeedDeterminism:
    @pytest.mark.parametrize("argv,rc", [
        (["compile", "--report", "--formula", "ties.wfo", "-o", "out.wa"], 0),
        (["tologic", "--mode", "unambiguous", "--automaton", "ties.wa"], 1),
        (["decompose", "--automaton", "ties.wa", "-o", "out"], 0),
        (COMPILE_BETWEEN, 0),
    ], ids=["compile-report", "tologic-refusal", "decompose", "compile-fo"])
    def test_outputs_identical_across_hash_seeds(self, tmp_path, argv, rc):
        results = [run_with_hash_seed(tmp_path / str(seed), argv, seed)
                   for seed in (0, 1)]
        assert results[0][0] == rc
        assert results[0][1] or results[0][2]
        assert results[0] == results[1]

    @pytest.mark.parametrize("flags,carrier", [
        (["--semiring", "boolean"], "boolean"),
        (["--aggregator", "ma"], "max-average"),
    ], ids=["boolean", "ma"])
    def test_eval_refusals_identical_across_hash_seeds(self, tmp_path, flags,
                                                       carrier):
        argv = ["eval", "--automaton", "symbols.wa", "--word", "bbba", *flags]
        want = (2, "", "error: symbolic weight t not usable in %s\n"
                % carrier, {})
        for seed in range(6):
            assert run_with_hash_seed(tmp_path / str(seed), argv, seed) \
                == want


class TestParserReuse:
    """main builds its argument parser once per process; a command run
    after another, failing one gives what it gives in a fresh process."""

    @pytest.mark.parametrize("first", [
        ["eval", "--automaton", "symbols.wa", "--word", "ba",
         "--semiring", "natural"],
        ["eval", "--automaton", "symbols.wa", "--word", "ba",
         "--semiring", "tropical"],
        ["equiv", "--a", "symbols.wa"],
        ["eval", "--automaton", "missing.wa", "--word", "ba"],
    ], ids=["refusal", "bad-choice", "missing-flag", "missing-file"])
    def test_two_commands_in_one_process(self, tmp_path, capsys, monkeypatch,
                                         first):
        (tmp_path / "symbols.wa").write_text(SYMBOLS)
        second = ["eval", "--automaton", "symbols.wa", "--word", "bbba",
                  "--semiring", "natural"]
        want = [run_fresh(tmp_path, argv) for argv in (first, second)]
        monkeypatch.chdir(tmp_path)
        got = []
        for argv in (first, second):
            try:
                rc = main(argv)
            except SystemExit as stop:
                rc = stop.code
            captured = capsys.readouterr()
            got.append((rc, captured.out, captured.err))
        assert got == want
        assert want[0][0] == 2 and want[1][0] == 2
        assert want[1][2] == "error: symbolic weight t not usable in natural\n"

    def test_main_builds_no_parser_per_call(self, tmp_path, capsys,
                                            monkeypatch):
        wa = save(tmp_path, "triplerun")
        assert run(capsys, ["eval", "--automaton", wa, "--word", "a"])[0] == 0

        def refuse(*args, **kwargs):
            raise AssertionError("a second parser was built")

        monkeypatch.setattr("argparse.ArgumentParser", refuse)
        for _ in range(2):
            assert run(capsys, ["eval", "--automaton", wa, "--word",
                                "aaab"])[:2] == (0, "1 x [2,1,4,3]\n"
                                                    "1 x [2,1,5,3]\n"
                                                    "1 x [2,2,3,3]\n")


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

    def test_classifier_bytes(self, tmp_path, capsys, monkeypatch):
        # a run atom between x and y under an exists: every byte is pinned
        monkeypatch.chdir(tmp_path)
        (tmp_path / "between.fo").write_text(BETWEEN)
        assert run(capsys, COMPILE_BETWEEN) == (0, BETWEEN_CLASSIFIER, "")

    def test_empty_alphabet_is_an_input_error(self, tmp_path, capsys):
        src = tmp_path / "atx.fo"
        src.write_text("Pa(x)\n")
        rc, out, err = run(capsys, ["compile-fo", "--formula", str(src),
                                    "--vars", "x", "--alphabet", ""])
        assert rc == 2 and out == "" and "--alphabet" in err


class TestTransitionFree:
    """`compile` writes `zero` as an automaton without transitions, so
    without weights; every command reads it back."""

    def compiled(self, capsys, tmp_path, name, text):
        src = tmp_path / (name + ".wfo")
        src.write_text(text)
        dst = str(tmp_path / (name + ".wa"))
        assert run(capsys, ["compile", "--formula", str(src),
                            "--alphabet", "a,b", "-o", dst])[0] == 0
        return dst

    def test_equiv_with_itself(self, tmp_path, capsys):
        zero = self.compiled(capsys, tmp_path, "zero", "zero\n")
        assert "trans:" not in read(zero)
        rc, out, _ = run(capsys, ["equiv", "--a", zero, "--b", zero,
                                  "--maxlen", "4"])
        assert rc == 0 and out == "EQUIV up to 4\n"

    def test_equiv_with_a_product(self, tmp_path, capsys):
        zero = self.compiled(capsys, tmp_path, "zero", "zero\n")
        one = self.compiled(capsys, tmp_path, "one", "prod x. 1\n")
        rc, out, _ = run(capsys, ["equiv", "--a", zero, "--b", one,
                                  "--maxlen", "4"])
        assert rc == 1
        assert out == "COUNTEREXAMPLE a\na:\n(empty)\nb:\n1 x [1]\n"

    def test_tologic_gives_zero_which_compiles_back(self, tmp_path, capsys):
        zero = self.compiled(capsys, tmp_path, "zero", "zero\n")
        back = str(tmp_path / "back.wfo")
        assert run(capsys, ["tologic", "--automaton", zero,
                            "-o", back])[0] == 0
        assert parse_formula_file(read(back), "wfo").formula == Zero()
        again = str(tmp_path / "again.wa")
        assert run(capsys, ["compile", "--formula", back, "--alphabet",
                            "a,b", "-o", again])[0] == 0
        assert read(again, "rb") == read(zero, "rb")

    def test_tologic_round_trip_needs_no_alphabet(self, tmp_path, capsys):
        # tologic declares its input even when no atom uses it, and
        # compile takes the alphabet from that header
        zero = self.compiled(capsys, tmp_path, "zero", "zero\n")
        back = str(tmp_path / "back.wfo")
        assert run(capsys, ["tologic", "--automaton", zero,
                            "-o", back])[0] == 0
        assert read(back) == ("# automaton A: alphabet: a b ; states: 1 ;"
                              " initial: 1 ; final:\n"
                              "# fragment: no-sum no-plus\nzero\n")
        again = str(tmp_path / "again.wa")
        assert run(capsys, ["compile", "--formula", back,
                            "-o", again]) == (0, "", "")
        assert run(capsys, ["equiv", "--a", zero, "--b", again]) \
            == (0, "EQUIV up to 8\n", "")

    def test_named_letters_win_over_headers(self, tmp_path, capsys):
        src = tmp_path / "pa.wfo"
        src.write_text("# automaton B: alphabet: a b c ; states: 1 ;"
                       " initial: 1 ; final: 1\nprod x. (Pa(x) ? 2 : 3)\n")
        rc, out, _ = run(capsys, ["compile", "--formula", str(src)])
        assert rc == 0 and out.startswith("alphabet: a\n")

    def test_eval_and_decompose(self, tmp_path, capsys):
        zero = self.compiled(capsys, tmp_path, "zero", "zero\n")
        rc, out, _ = run(capsys, ["eval", "--automaton", zero, "--word", "ab",
                                  "--semiring", "natural"])
        assert rc == 0 and out == "0\n"
        rc, out, _ = run(capsys, ["decompose", "--automaton", zero,
                                  "-o", str(tmp_path / "part")])
        assert rc == 0 and "K=0" in out


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


# two states over marked letters; three runs on a[01]a[01]a[01]
MARKED = ("alphabet: a[01] a[10]\nstates: 1 2\ninitial: 1\nfinal: 2\n"
          "trans: 1 a[01] 1 1\ntrans: 1 a[01] 2 2\ntrans: 2 a[01] 2 3\n"
          "trans: 2 a[10] 2 1\n")


class TestMarkedLetterWitnesses:
    """Witness words spell marked letters as the text format does."""

    @pytest.mark.parametrize("argv,want", [
        (["decompose", "-o", "p"],
         "refused: ambiguity grows polynomially; 'a[01]a[01]a[01]' already"
         " has more than 2 accepting runs\n"),
        (["decompose", "-K", "0", "-o", "p"],
         "refused: not 0-ambiguous: 'a[01]' has at least 1 accepting runs\n"),
        (["tologic", "--mode", "unambiguous"],
         "refused: not unambiguous: 'a[01]a[01]' has two accepting runs\n"),
    ], ids=["decompose", "decompose-K0", "tologic"])
    def test_refusal_names_the_word(self, tmp_path, capsys, monkeypatch,
                                    argv, want):
        argv = [argv[0], "--automaton", "in.wa"] + argv[1:]
        assert run_in(tmp_path, capsys, monkeypatch, MARKED, argv) == \
            (1, "", want)

    def test_counterexample_names_the_word(self, tmp_path, capsys):
        paths = []
        for name, text in (("a", MARKED),
                           ("b", MARKED.replace("a[10] 2 1", "a[10] 2 2"))):
            (tmp_path / (name + ".wa")).write_text(text)
            paths.append(str(tmp_path / (name + ".wa")))
        assert run(capsys, ["equiv", "--a", paths[0], "--b", paths[1],
                            "--maxlen", "3"])[:2] == (
            1, "COUNTEREXAMPLE a[01]a[10]\na:\n1 x [2,1]\nb:\n1 x [2,2]\n")


# a's powers cycle with period 2 on {1, 2} and 3 on {3, 4, 5}: only the
# whole matrix has period 6
LCM_CYCLES = ("alphabet: a b\nstates: 1 2 3 4 5 6\ninitial: 1\nfinal: 6\n"
              "trans: 1 a 2 1\ntrans: 2 a 1 1\ntrans: 1 b 3 1\n"
              "trans: 3 a 4 1\ntrans: 4 a 5 1\ntrans: 5 a 3 1\n"
              "trans: 5 b 6 1\n")
# one run on a; the cycle 3 <-> 4 is reached from no initial state
DEAD_CYCLE = ("alphabet: a\nstates: 1 2 3 4\ninitial: 1\nfinal: 2\n"
              "trans: 1 a 2 1\ntrans: 3 a 4 1\ntrans: 4 a 3 1\n")


class TestAperiodicityRefusal:
    """Every translation mode refuses a non-aperiodic automaton naming the
    shortest word whose powers cycle, and the period of that cycle."""

    @pytest.mark.parametrize("mode", [[], ["--mode", "unambiguous"],
                                      ["--mode", "scc"]],
                             ids=["default", "unambiguous", "scc"])
    @pytest.mark.parametrize("text,word,period", [
        # the a-cycle
        ("alphabet: a\nstates: 1 2\ninitial: 1\nfinal: 2\n"
         "trans: 1 a 2 1\ntrans: 2 a 1 1\n", "a", 2),
        ("alphabet: a\nstates: 1 2 3\ninitial: 1\nfinal: 3\n"
         "trans: 1 a 2 1\ntrans: 2 a 3 1\ntrans: 3 a 1 1\n", "a", 3),
        # a fixes every state, b swaps 1 and 2
        ("alphabet: a b\nstates: 1 2\ninitial: 1\nfinal: 2\n"
         "trans: 1 a 1 0\ntrans: 2 a 2 0\ntrans: 1 b 2 1\ntrans: 2 b 1 1\n",
         "b", 2),
        # a, b and ba all have powers that settle; ab swaps 1 and 2
        ("alphabet: a b\nstates: 1 2 3\ninitial: 1\nfinal: 3\n"
         "trans: 1 a 1 0\ntrans: 1 b 2 1\ntrans: 2 a 3 2\n"
         "trans: 3 a 3 0\ntrans: 3 b 1 1\n", "ab", 2),
        ("alphabet: a[01] a[10]\nstates: 1 2\ninitial: 1\nfinal: 1\n"
         "trans: 1 a[10] 1 0\ntrans: 1 a[01] 2 1\ntrans: 2 a[01] 1 1\n",
         "a[01]", 2),
        (LCM_CYCLES, "a", 6),
        (DEAD_CYCLE, "a", 2),
    ], ids=["cycle2", "cycle3", "swap-b", "swap-ab", "marked", "lcm",
            "dead-cycle"])
    def test_aperiodicity_refusal_names_word_and_period(
            self, tmp_path, capsys, monkeypatch, text, word, period, mode):
        want = ("refused: automaton is not aperiodic: the powers of %r cycle"
                " with period %d\n" % (word, period))
        argv = ["tologic", "--automaton", "in.wa"] + mode
        assert run_in(tmp_path, capsys, monkeypatch, text, argv) == \
            (1, "", want)

    @pytest.mark.parametrize("mode", [[], ["--mode", "unambiguous"],
                                      ["--mode", "scc"]],
                             ids=["default", "unambiguous", "scc"])
    def test_refusal_builds_one_monoid(self, tmp_path, capsys, monkeypatch,
                                       mode):
        # the cycle's one component of two states closes once, cut to it
        built = []
        real = wfoc.automata.transition_monoid
        monkeypatch.setattr(wfoc.automata, "transition_monoid",
                            lambda nfa, keep=None: built.append(keep)
                            or real(nfa, keep))
        cycle = ("alphabet: a\nstates: 1 2\ninitial: 1\nfinal: 2\n"
                 "trans: 1 a 2 1\ntrans: 2 a 1 1\n")
        argv = ["tologic", "--automaton", "in.wa"] + mode
        rc, _, err = run_in(tmp_path, capsys, monkeypatch, cycle, argv)
        assert rc == 1 and err.startswith("refused: automaton is not")
        assert built == [0b11]


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
            merged = multiset_sum(abstract_semantics(part, word)
                                  for part in parts)
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

    @pytest.mark.parametrize("name", ["modeblocks", "countminmax", "expsum"])
    def test_one_single_initial_copy(self, tmp_path, capsys, monkeypatch,
                                     name):
        # the parts and the input's note: and index lines share one copy
        # with a fresh initial state, which ensure_single_initial builds
        # as the decompose module's only Nfa(...)
        copies = []
        real = decompose.Nfa

        def counting(*args):
            copies.append(args[3])
            return real(*args)

        monkeypatch.setattr(decompose, "Nfa", counting)
        path = save(tmp_path, name)
        rc, out, _ = run(capsys, ["decompose", "--automaton", path,
                                  "-o", str(tmp_path / "m")])
        assert rc == 0 and "added a fresh initial state" in out
        assert len(copies) == 1

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

    @pytest.mark.parametrize("text", [LCM_CYCLES, DEAD_CYCLE],
                             ids=["lcm", "dead-cycle"])
    def test_cycling_but_unambiguous(self, tmp_path, capsys, monkeypatch,
                                     text):
        argv = ["classify", "--automaton", "in.wa"]
        assert run_in(tmp_path, capsys, monkeypatch, text, argv) == \
            (0, "ambiguity: unambiguous; aperiodic: no\n", "")


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

    def test_different_weight_tables(self, tmp_path, capsys):
        # weights on dead transitions put 10 only in p's table and u only
        # in q's; s adds a run of [u,-2] on ab
        paths = {}
        for name, text in DIFFERENT_TABLES.items():
            paths[name] = str(tmp_path / (name + ".wa"))
            with open(paths[name], "w") as handle:
                handle.write(text)
        cases = [
            (("p", "q", "4"), 0, "EQUIV up to 4\n"),
            (("q", "p", None), 0, "EQUIV up to 8\n"),
            (("p", "s", None), 1, "COUNTEREXAMPLE ab\na:\n1 x [1/2,9]\n"
             "b:\n1 x [1/2,10]\n1 x [u,-2]\n"),
            (("s", "p", "3"), 1, "COUNTEREXAMPLE ab\na:\n1 x [1/2,10]\n"
             "1 x [u,-2]\nb:\n1 x [1/2,9]\n"),
            (("s", "mixed", "3"), 1, "COUNTEREXAMPLE a\na:\n1 x [1/2]\n"
             "b:\n1 x [-2]\n1 x [1/2]\n1 x [9]\n1 x [10]\n"),
        ]
        for (a, b, maxlen), code, want in cases:
            argv = ["equiv", "--a", paths[a], "--b", paths[b]]
            if maxlen:
                argv += ["--maxlen", maxlen]
            assert run(capsys, argv) == (code, want, "")

    def test_equivalent_inputs_never_run_the_sweep(self, tmp_path, capsys,
                                                   monkeypatch):
        tri = save(tmp_path, "triplerun")
        phi, back = str(tmp_path / "tri.wfo"), str(tmp_path / "back.wa")
        assert run(capsys, ["tologic", "--automaton", tri, "-o", phi])[0] == 0
        assert run(capsys, ["compile", "--formula", phi, "-o", back])[0] == 0
        dense = tmp_path / "dense.wa"
        dense.write_text(DENSE)

        def refuse(*args):
            raise AssertionError("semantics_upto called")

        monkeypatch.setattr(wfoc.cli, "semantics_upto", refuse)
        assert run(capsys, ["equiv", "--a", tri, "--b", back]) == (
            0, "EQUIV up to 8\n", "")
        # runs grow exponentially with the length: a sweep would not answer
        assert run(capsys, ["equiv", "--a", str(dense), "--b", str(dense),
                            "--maxlen", "40"]) == (0, "EQUIV up to 40\n", "")

    def test_first_difference_beyond_maxlen(self, tmp_path, capsys):
        # a^5 is the one word either accepts, with weights ending 1 and 2
        argv = ["equiv"]
        for flag, last in (("--a", 1), ("--b", 2)):
            path = tmp_path / ("chain%d.wa" % last)
            path.write_text(
                "alphabet: a\nstates: 1 2 3 4 5 6\ninitial: 1\nfinal: 6\n"
                + "".join("trans: %d a %d %d\n" % (i, i + 1, last if i == 5
                                                     else 1)
                          for i in range(1, 6)))
            argv += [flag, str(path)]
        assert run(capsys, argv + ["--maxlen", "4"]) == (
            0, "EQUIV up to 4\n", "")
        assert run(capsys, argv + ["--maxlen", "9"]) == (
            1, "COUNTEREXAMPLE aaaaa\na:\n1 x [1,1,1,1,1]\n"
            "b:\n1 x [1,1,1,1,2]\n", "")

    def test_counterexample_sweep_reads_only_its_length(
            self, tmp_path, capsys, monkeypatch):
        # first_difference has shown every shorter word equal, so the sweep
        # that prints the counterexample visits the words of its length only
        paths = {}
        for name in ("p", "s"):
            paths[name] = tmp_path / (name + ".wa")
            paths[name].write_text(DIFFERENT_TABLES[name])
        for last in (1, 2):
            paths[last] = tmp_path / ("chain%d.wa" % last)
            paths[last].write_text(
                "alphabet: a\nstates: 1 2 3 4 5 6\ninitial: 1\nfinal: 6\n"
                + "".join("trans: %d a %d %d\n" % (i, i + 1, last if i == 5
                                                     else 1)
                          for i in range(1, 6)))
        sweep, lengths = wfoc.cli.semantics_upto, []

        def recording(*args):
            for word, sem in sweep(*args):
                lengths.append(len(word))
                yield word, sem

        monkeypatch.setattr(wfoc.cli, "semantics_upto", recording)
        cases = [(("p", "s"), "COUNTEREXAMPLE ab\n", 2),
                 ((1, 2), "COUNTEREXAMPLE aaaaa\n", 5)]
        for (a, b), head, length in cases:
            lengths.clear()
            rc, out, err = run(capsys, ["equiv", "--a", str(paths[a]),
                                        "--b", str(paths[b])])
            assert (rc, err) == (1, "") and out.startswith(head)
            assert lengths and set(lengths) == {length}, lengths

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

        for mod in (wfoc.cli, wfoc.automata):
            monkeypatch.setattr(mod, "abstract_semantics", refuse)
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

    @pytest.mark.parametrize("crash, line", [
        (MemoryError(), "error: out of memory\n"),
        (RecursionError("maximum recursion depth exceeded"),
         "error: maximum recursion depth exceeded\n")],
        ids=["memory", "recursion"])
    def test_a_crash_exits_3_on_one_line(self, tmp_path, capsys,
                                         monkeypatch, crash, line):
        # a crash is neither an answer nor a refusal (exit 1): it prints
        # one error line, no traceback, and exits 3
        def crashing(*args):
            raise crash

        formula = tmp_path / "f.wfo"
        formula.write_text("prod x. 1\n")
        monkeypatch.setattr(wfoc.cli, "compile_wfo", crashing)
        assert run(capsys, ["compile", "--formula", str(formula),
                            "--alphabet", "a,b"]) == (3, "", line)

    def test_any_other_exception_keeps_its_traceback(self, tmp_path,
                                                     capsys, monkeypatch):
        def crashing(*args):
            raise KeyError("a bug")

        formula = tmp_path / "f.wfo"
        formula.write_text("prod x. 1\n")
        monkeypatch.setattr(wfoc.cli, "compile_wfo", crashing)
        with pytest.raises(KeyError):
            main(["compile", "--formula", str(formula), "--alphabet", "a,b"])

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


# -- input that is refused rather than reinterpreted --------------------------

ONCE = ("alphabet: a b\nstates: 1 2\ninitial: 1\nfinal: 2\naccepting G: 1\n"
        "trans: 1 a 2 1\ntrans: 2 b 2 3\n")
HEADER = ("# automaton A: alphabet: a ; states: 1 2 ; initial: 1 ; final: 2"
          " ; trans: 1 a 1 ; trans: 1 a 2\n")
ARABIC_3 = "\u0663"
CLASSIFY = ["classify", "--automaton", "in.wa"]
COMPILE = ["compile", "--formula", "in.wfo"]
EQUIV = ["equiv", "--a", "in.wa", "--b", "in.wa"]
DECOMPOSE = ["decompose", "--automaton", "in.wa", "-o", "parts"]


def input_cases():
    """(id, input file text, argv, environment, substrings of the error);
    a text for `in.wfo` when argv compiles, else for `in.wa`."""
    cases = []
    for line_no, line in enumerate(ONCE.splitlines()[:5], start=1):
        key = line.partition(":")[0]
        cases.append(("repeated-" + key.split()[0], ONCE + line + "\n",
                      CLASSIFY, {},
                      ["line 8", repr(key), "line %d" % line_no]))
    return cases + [
        ("weight-digit", ONCE.replace("2 b 2 3", "2 b 2 " + ARABIC_3),
         CLASSIFY, {}, ["line 7", repr(ARABIC_3)]),
        ("repeated-automaton-header",
         HEADER + "# automaton A: alphabet: b ; states: 1 ; initial: 1 ;"
         " final: 1 ; trans: 1 b 1\nprod x. 1\n",
         COMPILE, {}, ["line 2", "'A'", "line 1"]),
        ("prod-digit", "prod x. %s\n" % ARABIC_3,
         COMPILE + ["--alphabet", "a"], {}, ["col 9", repr(ARABIC_3)]),
        ("run-state-digit",
         HEADER + "prod x. run:A(1,%s;<x) ? 1 : 0\n" % ARABIC_3, COMPILE, {},
         ["line 2 col 17", repr(ARABIC_3)]),
        ("maxlen-digit", ONCE, EQUIV + ["--maxlen", ARABIC_3], {},
         ["--maxlen", repr(ARABIC_3)]),
        ("maxlen-env-digit", ONCE, EQUIV, {"WFOC_MAXLEN": ARABIC_3},
         ["WFOC_MAXLEN", repr(ARABIC_3)]),
        ("bound-digit", ONCE, DECOMPOSE + ["-K", ARABIC_3], {},
         ["-K", repr(ARABIC_3)]),
        ("bound-underscore", ONCE, DECOMPOSE + ["-K", "1_0"], {},
         ["-K", "'1_0'"]),
        ("bound-negative", ONCE, DECOMPOSE + ["-K", "-1"], {},
         ["-K", "'-1'"]),
    ]


def run_in(tmp_path, capsys, monkeypatch, text, argv, env=()):
    monkeypatch.chdir(tmp_path)
    for name, value in dict(env).items():
        monkeypatch.setenv(name, value)
    path = "in.wfo" if argv[0] == "compile" else "in.wa"
    (tmp_path / path).write_text(text, encoding="utf-8")
    return run(capsys, argv)


class TestInputIsNotReinterpreted:
    @pytest.mark.parametrize("case", input_cases(), ids=lambda c: c[0])
    def test_refused_naming_line_or_token(self, tmp_path, capsys,
                                          monkeypatch, case):
        _, text, argv, env, words = case
        rc, out, err = run_in(tmp_path, capsys, monkeypatch, text, argv, env)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        for word in words:
            assert word in err, (word, err)

    @pytest.mark.parametrize("text,argv", [
        (ONCE, CLASSIFY), (HEADER + "prod x. 1\n", COMPILE),
        (ONCE, EQUIV + ["--maxlen", "3"]), (ONCE, DECOMPOSE + ["-K", "1"]),
        (ONCE, DECOMPOSE + ["-K", "01"]),
    ])
    def test_each_section_once_parses(self, tmp_path, capsys, monkeypatch,
                                      text, argv):
        assert run_in(tmp_path, capsys, monkeypatch, text, argv)[0] == 0
