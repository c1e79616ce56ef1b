"""Line-oriented text format and DOT export for automata.

    alphabet: a b c
    states: 1 2 3 4
    initial: 1
    final: 4
    accepting G: 2 3        # optional named extra sets
    trans: 1 a 1 2          # src letter dst weight (weight omitted for Nfa)

'#' starts a comment, and every section but `trans` appears at most
once.  Weights are decimal integers, rationals p/q (ASCII digits), or
symbolic tokens spelled as identifiers.  Letters over an extended alphabet
(base letter plus a bit per variable) are rendered as base[bits], e.g.
a[01], here and in every witness word the program prints.
"""

from __future__ import annotations

from .automata import Nfa, WeightedAutomaton, filled_nfa, underlying_nfa
from .errors import InputError
from .weights import format_weight, parse_weight


def render_letter(letter) -> str:
    if isinstance(letter, tuple):
        base, bits = letter
        return "%s[%s]" % (base, "".join(str(b) for b in bits))
    return str(letter)


def render_word(word) -> str:
    """A word as its letters rendered one after another."""
    return "".join(map(render_letter, word))


def parse_letter(token: str):
    if "#" in token:
        raise InputError("letter %r cannot be written: '#' starts a comment"
                         % token)
    if token.endswith("]") and "[" in token:
        base, _, rest = token.partition("[")
        bits = rest[:-1]
        if base and all(c in "01" for c in bits) and bits:
            return (base, tuple(int(c) for c in bits))
    return token


def _parse_state(token: str, line_no: int):
    """A decimal token names an integer state, provided it is written the
    way the integer prints: `01` and `1` would otherwise be one state."""
    if not token.isdecimal():
        return token
    if str(int(token)) != token:
        raise InputError("line %d: state %r must be written %d"
                         % (line_no, token, int(token)))
    return int(token)


def _parse_fields(lines):
    """Sections of the (line number, text) pairs `lines`: the sets of
    letters and of states, {section: states} for initial, final and each
    accepting set, checked against the states, and the trans lines."""
    alphabet = states = None
    groups, trans_lines = {}, []
    seen = {}                   # section -> the line that gave it
    for line_no, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise InputError("line %d: malformed line: %r" % (line_no, raw))
        key = " ".join(key.split())
        if key in seen and key != "trans":
            raise InputError("line %d: section %r repeats line %d"
                             % (line_no, key, seen[key]))
        seen[key] = line_no
        tokens = rest.split()
        if key == "alphabet":
            alphabet = {parse_letter(t) for t in tokens}
        elif key == "states":
            states = {_parse_state(t, line_no) for t in tokens}
        elif key in ("initial", "final") or key.startswith("accepting"):
            if key.startswith("accepting") and len(key.split()) != 2:
                raise InputError("line %d: accepting sets need a name: %r"
                                 % (line_no, raw))
            groups[key] = [_parse_state(t, line_no) for t in tokens]
        elif key == "trans":
            if len(tokens) not in (3, 4):
                raise InputError("line %d: trans needs 3 or 4 fields: %r"
                                 % (line_no, raw))
            trans_lines.append((line_no, tokens))
        else:
            raise InputError("line %d: unknown section %r" % (line_no, key))
    if alphabet is None or states is None:
        raise InputError("missing alphabet or states section")
    if "initial" not in groups or "final" not in groups:
        raise InputError("missing initial or final section")
    for key, group in groups.items():
        for s in group:
            if s not in states:
                raise InputError("line %d: %s names undeclared state %r"
                                 % (seen[key], key, str(s)))
    return alphabet, states, groups, trans_lines


def parse_automaton(text: str, line_no=None):
    """Parse the text format; returns WeightedAutomaton when every trans
    line carries a weight, Nfa when none does.  Errors name the line they
    are on, or `line_no` for every line when it is given."""
    alphabet, states, groups, trans_lines = _parse_fields(
        (line_no or n, raw) for n, raw in enumerate(text.splitlines(), 1))
    weighted_flags = {len(t) == 4 for (_, t) in trans_lines}
    if len(weighted_flags) > 1:
        raise InputError("mix of weighted and unweighted transitions")
    weighted = weighted_flags == {True}

    def edges(nfa):
        """Each trans line as (position, letter index, target position,
        weight), checked in line order."""
        pos, rank = nfa.pos, nfa.rank
        n, letters = len(nfa.order), len(nfa.letters)
        seen = set()            # the lines' (position, letter, position)
        for line_no, tokens in trans_lines:
            src = pos.get(_parse_state(tokens[0], line_no))
            j = rank.get(parse_letter(tokens[1]))
            dst = pos.get(_parse_state(tokens[2], line_no))
            if src is None or j is None or dst is None:
                kind, token = ("state", tokens[0]) if src is None else \
                    ("letter", tokens[1]) if j is None \
                    else ("state", tokens[2])
                raise InputError("line %d: trans names undeclared %s %r"
                                 % (line_no, kind, token))
            key = (src * letters + j) * n + dst
            if key in seen:
                raise InputError(
                    "line %d: duplicate transition %r" % (line_no, (
                        nfa.order[src], nfa.letters[j], nfa.order[dst])))
            seen.add(key)
            w = None
            if weighted:
                try:
                    w = parse_weight(tokens[3])
                except InputError as err:
                    raise InputError("line %d: %s" % (line_no, err))
            yield src, j, dst, w

    nfa, weights = filled_nfa(
        states, alphabet, groups.pop("initial"), groups.pop("final"),
        {key.split()[1]: group for key, group in groups.items()}, edges)
    return WeightedAutomaton.from_weights(nfa, weights) if weighted else nfa


def parse_automaton_inline(text: str, line_no=1):
    """Same format with ';' separating the lines, for a single-line header
    on line `line_no` of its file, which every error names."""
    return parse_automaton("\n".join(text.split(";")), line_no)


def canonical_names(a):
    """The renaming of canonical_relabel: the states in the automaton's
    `order`, numbered from 1."""
    return {s: i for i, s in enumerate(underlying_nfa(a).order, 1)}


def canonical_relabel(a):
    """Deterministically rename states to 1..n in the automaton's order."""
    nfa = underlying_nfa(a)
    names = canonical_names(nfa)
    out = Nfa(names.values(), nfa.alphabet,
              [(names[s], l, names[d]) for (s, l, d) in nfa.transitions],
              map(names.get, nfa.initial), map(names.get, nfa.final),
              {k: map(names.get, v) for k, v in nfa.accepting.items()})
    # the renaming keeps the order, so every transition its number
    return out if nfa is a else WeightedAutomaton.from_weights(out, a.weights)


def _names(nfa, group):
    """The canonical names of a set of states, ascending."""
    return " ".join(str(i) for i, s in enumerate(nfa.order, 1) if s in group)


def serialize_automaton(a) -> str:
    """Canonical text form; byte-identical for equal automata.  States are
    written by their canonical names, transitions in the automaton's
    order."""
    nfa = underlying_nfa(a)
    lines = ["alphabet: " + " ".join(map(render_letter, nfa.letters)),
             "states: " + _names(nfa, nfa.states),
             "initial: " + _names(nfa, nfa.initial),
             "final: " + _names(nfa, nfa.final)]
    for name in sorted(nfa.accepting):
        lines.append("accepting %s: %s"
                     % (name, _names(nfa, nfa.accepting[name])))
    weights = a.weights if isinstance(a, WeightedAutomaton) else None
    labels = list(map(render_letter, nfa.letters))
    for i, j, d, t in nfa.edges():
        line = "trans: %d %s %d" % (i + 1, labels[j], d + 1)
        lines.append(line if weights is None
                     else "%s %s" % (line, format_weight(weights[t])))
    return "\n".join(lines) + "\n"


def serialize_automaton_inline(a) -> str:
    return " ; ".join(serialize_automaton(a).strip().splitlines())


def _gvquote(s) -> str:
    return '"%s"' % str(s).replace("\\", "\\\\").replace('"', '\\"')


def to_dot(a) -> str:
    """One node per state (double circle when final, arrow-in when initial),
    named by its canonical name; edge labels 'letter | weight' for
    weighted automata."""
    nfa = underlying_nfa(a)
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for i, s in enumerate(nfa.order, 1):
        shape = "doublecircle" if s in nfa.final else "circle"
        lines.append("  %s [shape=%s];" % (_gvquote(i), shape))
    for k, i in enumerate(_names(nfa, nfa.initial).split()):
        lines.append('  __start%d [shape=point, label=""];' % k)
        lines.append("  __start%d -> %s;" % (k, _gvquote(i)))
    weights = a.weights if isinstance(a, WeightedAutomaton) else None
    grouped = {}
    for i, j, d, t in nfa.edges():
        label = render_letter(nfa.letters[j])
        if weights is not None:
            label += " | " + format_weight(weights[t])
        grouped.setdefault((i + 1, d + 1), []).append(label)
    for (i, j), labels in sorted(grouped.items()):
        label = "\\n".join(sorted(labels))
        lines.append('  %s -> %s [label="%s"];'
                     % (_gvquote(i), _gvquote(j), label.replace('"', '\\"')))
    lines.append("}")
    return "\n".join(lines) + "\n"
