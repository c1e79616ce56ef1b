"""Command line front end: evaluation, compilation in both directions,
decomposition, classification, and desk-scale equivalence checking.

Exit codes: 0 on success, 1 when a verification or hypothesis check fails
(equiv counterexample, refused translation, refused decomposition), 2 on
bad input, 3 on running out of memory or recursion depth (one `error:`
line).  Output is deterministic for fixed inputs.
"""

import argparse
import functools
import os
import sys

from .automata import (
    WeightedAutomaton, abstract_semantics, aperiodicity_index, check_word,
    classify_ambiguity, first_difference, forward, is_unambiguous,
    semantics_upto, underlying_nfa,
    EXPONENTIALLY, FINITELY, POLYNOMIALLY, UNAMBIGUOUS,
)
from .decompose import decompose_with_trackers
from .errors import HypothesisError, InputError
from .fo_compiler import compile_fo
from .logic.syntax import SumX, format_wfo, free_vars, letters_in
from .logic.parser import parse_formula_file, serialize_formula_file
from .multiset import weight_table
from .semantics import builtin_semiring, format_value, max_average
from .textfmt import (
    parse_automaton, parse_letter, render_word, serialize_automaton, to_dot,
)
from .wa_to_wfo import (
    ATOM_NAME, auto_wa_to_wfo, scc_unambiguous_to_wfo, unambiguous_wa_to_wfo,
)
from .wfo_compiler import compile_stages, compile_wfo

SEMIRING_FLAGS = ("natural", "boolean", "minplus", "maxplus", "languages",
                  "multiset")


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise InputError("cannot read %s: %s" % (path, err))


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise InputError("cannot write %s: %s" % (out, err))


def _load_automaton(path):
    return parse_automaton(_read(path))


def _load_weighted(path) -> WeightedAutomaton:
    """A weighted automaton; one without transitions has nothing to weigh
    (`compile` writes `zero` that way), so it reads with no weights."""
    a = _load_automaton(path)
    if not isinstance(a, WeightedAutomaton):
        if a.transitions:
            raise InputError("%s has no transition weights" % path)
        a = WeightedAutomaton(a, {})
    return a


def _word_of(args):
    if getattr(args, "word_tokens", None) is not None:
        return tuple(parse_letter(t) for t in args.word_tokens.split())
    if getattr(args, "word", None) is not None:
        return tuple(args.word)
    raise InputError("need --word or --word-tokens")


def _split_names(text):
    return [t for t in text.replace(",", " ").split() if t]


def _alphabet_for(parsed, override):
    """--alphabet, else the formula's letters, else its headers' letters."""
    if override is not None:
        names = _split_names(override)
        if not names:
            raise InputError("--alphabet must name at least one letter, "
                             "not %r" % override)
        return frozenset(parse_letter(t) for t in names)
    letters = letters_in(parsed.formula) or set().union(
        *(a.alphabet for a in parsed.automata.values()))
    if not letters:
        raise InputError("cannot infer an alphabet; pass --alphabet")
    return frozenset(letters)


def _render(a, fmt):
    return to_dot(a) if fmt == "dot" else serialize_automaton(a)


def _count(source, text, least):
    """A count written in ASCII digits and at least `least` (0 or 1)."""
    if not (text.isascii() and text.isdecimal() and int(text) >= least):
        raise InputError("%s must be a %s integer, not %r" % (
            source, "positive" if least else "non-negative", text))
    return int(text)


def _maxlen(args):
    if args.maxlen is not None:
        return _count("--maxlen", args.maxlen, 1)
    return _count("WFOC_MAXLEN", os.environ.get("WFOC_MAXLEN", "8"), 1)


# -- commands -----------------------------------------------------------------


def _cmd_eval(args):
    wa = _load_weighted(args.automaton)
    word = _word_of(args)
    check_word(wa.nfa, word)
    if args.aggregator == "ma":
        if args.semiring:
            raise InputError("max-average takes no semiring")
        print(format_value(max_average(wa, word)))
    elif args.aggregator == "sp" and not args.semiring:
        raise InputError("sum-product needs --semiring")
    elif args.semiring in (None, "multiset"):
        # no flags mean the multiset, as --semiring multiset does: it is
        # the value in the free semiring
        print(abstract_semantics(wa, word).pretty())
    else:
        semiring = builtin_semiring(args.semiring)
        print(semiring.fmt(forward(wa, word, semiring.carrier)))
    return 0


def _cmd_compile(args):
    parsed = parse_formula_file(_read(args.formula), "wfo")
    alphabet = _alphabet_for(parsed, args.alphabet)
    if args.report:
        prev_idx = None                 # a sum's body is the stage before it
        for phi, wa in compile_stages(parsed.formula, alphabet):
            idx = aperiodicity_index(wa)
            note = ""
            if isinstance(phi, SumX) and prev_idx is not None:
                note = " (projection bound %d)" % (2 * prev_idx)
            print("%s :: states=%d ambiguity=%s index=%s%s"
                  % (format_wfo(phi), len(wa.nfa.states),
                     _CLASS_WORDS[classify_ambiguity(wa)], idx, note))
            prev_idx = idx
    else:
        wa = compile_wfo(parsed.formula, alphabet)
    _emit(_render(wa, args.format), args.out)
    return 0


def _cmd_compile_fo(args):
    parsed = parse_formula_file(_read(args.formula), "fo")
    alphabet = _alphabet_for(parsed, args.alphabet)
    vars = tuple(_split_names(args.vars)) if args.vars \
        else tuple(sorted(free_vars(parsed.formula)))
    cls = compile_fo(parsed.formula, alphabet, vars)
    _emit(_render(cls.nfa, args.format), args.out)
    return 0


def _cmd_tologic(args):
    wa = _load_weighted(args.automaton)
    if args.mode == "unambiguous":
        phi = unambiguous_wa_to_wfo(wa)
    elif args.mode == "scc":
        phi = scc_unambiguous_to_wfo(wa)
    else:
        phi = auto_wa_to_wfo(wa)
    # the header keeps the alphabet of a sentence that names no letter
    _emit(serialize_formula_file(phi, "wfo", {ATOM_NAME: wa.nfa}), args.out)
    return 0


def _cmd_decompose(args):
    wa = _load_weighted(args.automaton)
    bound = None if args.bound is None else _count("-K", args.bound, 0)
    parts, geqs, norm = decompose_with_trackers(wa, bound)
    k = len(parts)
    # the monoid reads the letters' matrices alone, so automata that share
    # a successor table (norm and A_>=1 when every state is reachable, an
    # unambiguous input's B_1, a union's parts) share one index
    indices = {}

    def index(a):
        table = underlying_nfa(a).masks
        if table not in indices:
            indices[table] = aperiodicity_index(a)
        return indices[table]

    m = index(norm)
    print("input: states=%d index=%s bound K=%d%s"
          % (len(wa.nfa.states), m, k,
             "" if bound is not None else " (detected)"))
    if norm is not wa:
        print("note: added a fresh initial state (input had %d)"
              % len(wa.nfa.initial))
    for stage, geq in enumerate(geqs[:k], start=1):
        bound = "" if m is None else " bound=%d" % (stage * (m + 1))
        print("A_>=%d: states=%d index=%s%s"
              % (stage, len(geq.states), index(geq), bound))
    suffix = "dot" if args.format == "dot" else "wa"
    for ell, part in enumerate(parts, start=1):
        path = "%s.%d.%s" % (args.out, ell, suffix)
        _emit(_render(part, args.format), path)
        print("B_%d: states=%d unambiguous=%s index=%s -> %s"
              % (ell, len(part.nfa.states),
                 "yes" if is_unambiguous(part) else "no",
                 index(part), path))
    return 0


_CLASS_WORDS = {
    UNAMBIGUOUS: "unambiguous",
    FINITELY: "finite",
    POLYNOMIALLY: "polynomial (SCC-unambiguous)",
    EXPONENTIALLY: "exponential",
}


def _cmd_classify(args):
    a = _load_automaton(args.automaton)
    kind = _CLASS_WORDS[classify_ambiguity(a)]
    idx = aperiodicity_index(a)
    aper = "no" if idx is None else "yes, index=%d" % idx
    print("ambiguity: %s; aperiodic: %s" % (kind, aper))
    return 0


def _cmd_equiv(args):
    first = _load_weighted(args.a)
    second = _load_weighted(args.b)
    maxlen = _maxlen(args)
    length = first_difference(first, second, maxlen)
    if length is None:
        print("EQUIV up to %d" % maxlen)
        return 0
    # decided exactly: every shorter word is equal, so the sweep of that
    # one length only finds the first counterexample to print, over one
    # weight table for both automata, so that each word compares as two
    # dicts
    alphabet = first.nfa.alphabet | second.nfa.alphabet
    weights = weight_table([*first.weights, *second.weights])
    word, got, want = next(
        (word, got, want) for (word, got), (_, want) in zip(
            semantics_upto(first, alphabet, length, weights, length),
            semantics_upto(second, alphabet, length, weights, length))
        if got != want and (got or want))
    print("COUNTEREXAMPLE %s" % render_word(word))
    for tag, sem in (("a", got), ("b", want)):
        body = sem.pretty() if sem else "(empty)"
        print("%s:" % tag)
        print(body)
    return 1


def _cmd_dot(args):
    _emit(to_dot(_load_automaton(args.automaton)), args.out)
    return 0


# -- argument plumbing ---------------------------------------------------------


def _add_format(sub):
    sub.add_argument("--format", choices=("text", "dot"), default="text")


@functools.cache       # one per process: each leaves reference cycles
def build_parser():
    parser = argparse.ArgumentParser(
        prog="wfoc",
        description="weighted automata and weighted first-order logic")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("eval", help="evaluate an automaton on a word")
    sub.add_argument("--automaton", required=True)
    sub.add_argument("--word")
    sub.add_argument("--word-tokens", dest="word_tokens")
    sub.add_argument("--semiring", choices=SEMIRING_FLAGS)
    sub.add_argument("--aggregator", choices=("sp", "ma"))
    sub.set_defaults(fn=_cmd_eval)

    sub = subs.add_parser("compile", help="compile a weighted sentence")
    sub.add_argument("--formula", required=True)
    sub.add_argument("-o", "--out")
    sub.add_argument("--alphabet")
    sub.add_argument("--report", action="store_true")
    _add_format(sub)
    sub.set_defaults(fn=_cmd_compile)

    sub = subs.add_parser("compile-fo", help="compile a boolean formula")
    sub.add_argument("--formula", required=True)
    sub.add_argument("--vars")
    sub.add_argument("-o", "--out")
    sub.add_argument("--alphabet")
    _add_format(sub)
    sub.set_defaults(fn=_cmd_compile_fo)

    sub = subs.add_parser("tologic", help="translate an automaton to logic")
    sub.add_argument("--automaton", required=True)
    sub.add_argument("-o", "--out")
    sub.add_argument("--mode", choices=("auto", "unambiguous", "scc"),
                     default="auto")
    sub.set_defaults(fn=_cmd_tologic)

    sub = subs.add_parser("decompose",
                          help="split into unambiguous automata")
    sub.add_argument("--automaton", required=True)
    sub.add_argument("-K", dest="bound")
    sub.add_argument("-o", "--out", required=True)
    _add_format(sub)
    sub.set_defaults(fn=_cmd_decompose)

    sub = subs.add_parser("classify", help="ambiguity and aperiodicity")
    sub.add_argument("--automaton", required=True)
    sub.set_defaults(fn=_cmd_classify)

    sub = subs.add_parser("equiv", help="compare two automata on all short words")
    sub.add_argument("--a", required=True)
    sub.add_argument("--b", required=True)
    sub.add_argument("--maxlen")
    sub.set_defaults(fn=_cmd_equiv)

    sub = subs.add_parser("dot", help="DOT export")
    sub.add_argument("--automaton", required=True)
    sub.add_argument("-o", "--out")
    sub.set_defaults(fn=_cmd_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HypothesisError as err:
        print("refused: %s" % err, file=sys.stderr)
        return 1
    except InputError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as err:
        print("error: %s" % (str(err) or "out of memory"), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
