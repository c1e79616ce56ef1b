"""Correctness oracles, run outside the timed region.

Automata are read with this module's own parser and their multisets built
by its own forward pass over the runs, so every check on an automaton is
independent of the program's automata, multiset and semantics layers.
Formulas are evaluated with the program's brute-force evaluator
`wfoc.logic.evaluate.eval_wfo_at`, the reference its own test suite uses.
Each check returns None when the output is right and a one-line reason
when it is not.
"""

import functools
import itertools
import re
from fractions import Fraction

EQUIV_MAXLEN = 8


class Aut:
    """A weighted automaton as plain data: trans is [(src, letter, dst, w)]."""

    def __init__(self, text):
        fields, trans = {}, []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, rest = line.partition(":")
            if key == "trans":
                s, a, d, w = rest.split()
                trans.append((s, a, d, _weight(w)))
            else:
                fields[key.strip()] = rest.split()
        self.alphabet = sorted(fields["alphabet"])
        self.states = fields["states"]
        self.initial = fields["initial"]
        self.final = set(fields["final"])
        self.trans = trans
        self.out = {}
        for s, a, d, w in trans:
            self.out.setdefault((s, a), []).append((d, w))

    def multiset(self, word):
        """{weight sequence: number of accepting runs carrying it}."""
        front = {s: {(): 1} for s in self.initial}
        for letter in word:
            nxt = {}
            for s, seqs in front.items():
                for d, w in self.out.get((s, letter), ()):
                    bucket = nxt.setdefault(d, {})
                    for seq, n in seqs.items():
                        key = seq + (w,)
                        bucket[key] = bucket.get(key, 0) + n
            front = nxt
        out = {}
        for s, seqs in front.items():
            if s in self.final:
                for seq, n in seqs.items():
                    out[seq] = out.get(seq, 0) + n
        return out

    def runs_between(self, p, q, word):
        counts = {p: 1}
        for letter in word:
            nxt = {}
            for s, n in counts.items():
                for d, _w in self.out.get((s, letter), ()):
                    nxt[d] = nxt.get(d, 0) + n
            counts = nxt
        return counts.get(q, 0)

    def accepting_runs(self, word):
        return sum(self.runs_between(p, q, word)
                   for p in self.initial for q in self.final)

    def size(self):
        return len(self.states), len(self.trans)


def _weight(token):
    if "/" in token:
        num, den = token.split("/")
        return Fraction(int(num), int(den))
    return int(token)


def words_upto(alphabet, maxlen):
    for n in range(1, maxlen + 1):
        yield from ("".join(w) for w in itertools.product(alphabet, repeat=n))


def short_words(alphabet):
    """All words the formula checks sweep: up to 5 letters over two, 4 over
    three."""
    return list(words_upto(alphabet, 5 if len(alphabet) <= 2 else 4))


# -- output formats ----------------------------------------------------------


def fmt_weight(w):
    if isinstance(w, Fraction) and w.denominator != 1:
        return "%d/%d" % (w.numerator, w.denominator)
    return str(int(w))


def pretty(ms):
    return "\n".join("%d x [%s]" % (n, ",".join(fmt_weight(w) for w in seq))
                     for seq, n in sorted(ms.items()))


def aggregate(ms, mode):
    """Expected `eval` output for one output mode, computed directly."""
    sums = [sum(seq) for seq in ms]
    if mode in ("abstract", "multiset"):
        return pretty(ms)
    if mode == "natural":
        total = 0
        for seq, n in ms.items():
            prod = n
            for w in seq:
                prod *= w
            total += prod
        return fmt_weight(total)
    if mode == "boolean":
        return "true" if any(all(w != 0 for w in seq) for seq in ms) else "false"
    if mode == "minplus":
        return fmt_weight(min(sums)) if sums else "inf"
    if mode == "maxplus":
        return fmt_weight(max(sums)) if sums else "-inf"
    if mode == "ma":
        if not ms:
            return "-inf"
        return fmt_weight(max(Fraction(sum(seq), len(seq)) for seq in ms))
    if mode == "languages":
        words = sorted({"".join(fmt_weight(w) for w in seq) for seq in ms})
        return "{" + ", ".join(w if w else "eps" for w in words) + "}"
    raise KeyError(mode)


# -- checks --------------------------------------------------------------------


def _expect_rc(res, rc):
    if res.rc != rc:
        return "exit code %s, expected %d" % (res.rc, rc)
    return None


def _formula_matches(formula_text, aut, words):
    """eval_wfo_at on the formula against the automaton, word by word."""
    from wfoc.logic.evaluate import eval_wfo_at
    from wfoc.logic.parser import parse_formula_file
    phi = parse_formula_file(formula_text, "wfo").formula
    for w in words:
        got = dict(eval_wfo_at(phi, tuple(w)).items())
        if got != aut.multiset(w):
            return "semantics differ on %r" % w
    return None


def check_compile(res, formula_text, words, same_as=None):
    """The compiled automaton has the formula's semantics on `words`;
    `same_as` is a reference automaton checked on the same words instead
    of the (slow) brute-force evaluator when given."""
    bad = _expect_rc(res, 0)
    if bad:
        return bad
    out = Aut(res.files[0][1])
    if same_as is not None:
        ref = Aut(same_as)
        for w in words:
            if out.multiset(w) != ref.multiset(w):
                return "semantics differ on %r" % w
        return None
    return _formula_matches(formula_text, out, words)


def check_report(res, plain_output):
    """`--report` writes the same automaton as a plain compile and ends with
    the line for the whole sentence."""
    bad = _expect_rc(res, 0)
    if bad:
        return bad
    if plain_output is None or res.files[0][1] != plain_output:
        return "report output differs from plain compile"
    last = res.out.rstrip("\n").splitlines()[-1]
    states = Aut(plain_output).size()[0]
    if " :: states=%d " % states not in last:
        return "last report line does not describe the output"
    return None


def check_tologic(res, aut_text, words, refused):
    aut = Aut(aut_text)
    if refused:
        bad = _expect_rc(res, 1)
        if bad:
            return bad
        m = re.match(r"refused: .*'([a-z]+)'", res.err)
        if not m:
            return "refusal names no witness"
        if max(aut.runs_between(p, p, m.group(1)) for p in aut.states) < 2:
            return "witness %r has no two runs around one state" % m.group(1)
        return None
    bad = _expect_rc(res, 0)
    if bad:
        return bad
    return _formula_matches(res.files[0][1], aut, words)


def check_classify(res, kind, index):
    bad = _expect_rc(res, 0)
    if bad:
        return bad
    want = "ambiguity: %s; aperiodic: yes, index=%d\n" % (kind, index)
    if res.out != want:
        return "classify printed %r, expected %r" % (res.out, want)
    return None


def check_decompose(res, aut_text, words, refused):
    aut = Aut(aut_text)
    if refused:
        bad = _expect_rc(res, 1)
        if bad:
            return bad
        m = re.match(r"refused: .*'([a-z]+)' already has more than (\d+)",
                     res.err)
        if not m:
            return "refusal names no witness"
        if aut.accepting_runs(m.group(1)) <= int(m.group(2)):
            return "witness %r has too few runs" % m.group(1)
        return None
    bad = _expect_rc(res, 0)
    if bad:
        return bad
    parts = [Aut(text) for _name, text in res.files]
    if not parts:
        return "no parts written"
    for w in words:
        union = {}
        for part in parts:
            if part.accepting_runs(w) > 1:
                return "a part is ambiguous on %r" % w
            for seq, n in part.multiset(w).items():
                union[seq] = union.get(seq, 0) + n
        if union != aut.multiset(w):
            return "union of parts differs on %r" % w
    return None


@functools.lru_cache(maxsize=2)
def _multiset(aut_text, word):
    return Aut(aut_text).multiset(word)


def check_eval(res, aut_text, word, mode):
    bad = _expect_rc(res, 0)
    if bad:
        return bad
    want = aggregate(_multiset(aut_text, word), mode) + "\n"
    if res.out != want:
        return "eval output differs (%d bytes, expected %d)" % (
            len(res.out), len(want))
    return None


def check_value(res, want):
    bad = _expect_rc(res, 0)
    if bad:
        return bad
    if res.out != want + "\n":
        return "printed %r, expected %r" % (res.out[:40], want)
    return None


def expected_equiv(a_text, b_text):
    """Expected `equiv` exit code and output, by brute force over all words
    up to the default bound in the command's own word order."""
    a, b = Aut(a_text), Aut(b_text)
    for w in words_upto(sorted(set(a.alphabet) | set(b.alphabet)),
                        EQUIV_MAXLEN):
        ma, mb = a.multiset(w), b.multiset(w)
        if ma != mb:
            lines = ["COUNTEREXAMPLE " + w]
            for tag, ms in (("a", ma), ("b", mb)):
                lines += [tag + ":", pretty(ms) if ms else "(empty)"]
            return 1, "\n".join(lines) + "\n"
    return 0, "EQUIV up to %d\n" % EQUIV_MAXLEN


def check_equiv(res, rc, out):
    bad = _expect_rc(res, rc)
    if bad:
        return bad
    if res.out != out:
        return "equiv printed %r, expected %r" % (res.out[:60], out[:60])
    return None
