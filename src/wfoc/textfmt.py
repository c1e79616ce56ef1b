"""Line-oriented text format and DOT export for automata.

    alphabet: a b c
    states: 1 2 3 4
    initial: 1
    final: 4
    accepting G: 2 3        # optional named extra sets
    trans: 1 a 1 2          # src letter dst weight (weight omitted for Nfa)

'#' starts a comment.  Weights are decimal integers, rationals p/q, or
symbolic tokens spelled as identifiers.  Letters over an extended alphabet
(base letter plus a bit per variable) are rendered as base[bits], e.g.
a[01].
"""

from __future__ import annotations

from .automata import Nfa, WeightedAutomaton, state_key, letter_key
from .errors import InputError
from .weights import format_weight, parse_weight


def render_letter(letter) -> str:
    if isinstance(letter, tuple):
        base, bits = letter
        return "%s[%s]" % (base, "".join(str(b) for b in bits))
    return str(letter)


def parse_letter(token: str):
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


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _parse_fields(lines):
    alphabet = None
    states = None
    initial = None
    final = None
    accepting = {}
    trans_lines = []
    for line_no, raw in enumerate(lines, start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise InputError("malformed line: %r" % raw)
        key = key.strip()
        tokens = rest.split()
        if key == "alphabet":
            alphabet = [parse_letter(t) for t in tokens]
        elif key == "states":
            states = [_parse_state(t, line_no) for t in tokens]
        elif key == "initial":
            initial = [_parse_state(t, line_no) for t in tokens]
        elif key == "final":
            final = [_parse_state(t, line_no) for t in tokens]
        elif key.startswith("accepting"):
            parts = key.split()
            if len(parts) != 2:
                raise InputError("accepting sets need a name: %r" % raw)
            accepting[parts[1]] = [_parse_state(t, line_no) for t in tokens]
        elif key == "trans":
            if len(tokens) not in (3, 4):
                raise InputError("trans needs 3 or 4 fields: %r" % raw)
            trans_lines.append((line_no, tokens))
        else:
            raise InputError("unknown section %r" % key)
    if alphabet is None or states is None:
        raise InputError("missing alphabet or states section")
    if initial is None or final is None:
        raise InputError("missing initial or final section")
    return alphabet, states, initial, final, accepting, trans_lines


def parse_automaton(text: str):
    """Parse the text format; returns WeightedAutomaton when every trans
    line carries a weight, Nfa when none does."""
    alphabet, states, initial, final, accepting, trans_lines = \
        _parse_fields(text.splitlines())
    weighted_flags = {len(t) == 4 for (_, t) in trans_lines}
    if len(weighted_flags) > 1:
        raise InputError("mix of weighted and unweighted transitions")
    weighted = weighted_flags == {True}
    transitions = set()
    wgt = {}
    for line_no, tokens in trans_lines:
        src = _parse_state(tokens[0], line_no)
        letter = parse_letter(tokens[1])
        dst = _parse_state(tokens[2], line_no)
        t = (src, letter, dst)
        if t in transitions:
            raise InputError("duplicate transition %r" % (t,))
        transitions.add(t)
        if weighted:
            try:
                wgt[t] = parse_weight(tokens[3])
            except InputError as err:
                raise InputError("line %d: %s" % (line_no, err))
    nfa = Nfa(states, alphabet, transitions, initial, final, accepting)
    return WeightedAutomaton(nfa, wgt) if weighted else nfa


def parse_automaton_inline(text: str):
    """Same format with ';' separating the lines (for single-line headers)."""
    return parse_automaton("\n".join(part for part in text.split(";")))


def canonical_names(states):
    """The renaming of canonical_relabel: states sorted by structural key
    and numbered from 1."""
    return {s: i for i, s in enumerate(sorted(states, key=state_key), 1)}


def canonical_relabel(a):
    """Deterministically rename states to 1..n (sorted by structural key)."""
    nfa = a.nfa if isinstance(a, WeightedAutomaton) else a
    names = canonical_names(nfa.states)
    out = Nfa(names.values(), nfa.alphabet,
              {(names[s], l, names[d]) for (s, l, d) in nfa.transitions},
              {names[s] for s in nfa.initial},
              {names[s] for s in nfa.final},
              {k: {names[s] for s in v} for k, v in nfa.accepting.items()})
    if isinstance(a, WeightedAutomaton):
        wgt = {(names[s], l, names[d]): w for (s, l, d), w in a.wgt.items()}
        return WeightedAutomaton(out, wgt)
    return out


def _sorted_states(states):
    return sorted(states, key=state_key)


def _fmt_state(s):
    return str(s)


def serialize_automaton(a) -> str:
    """Canonical text form; byte-identical for equal automata."""
    a = canonical_relabel(a)
    nfa = a.nfa if isinstance(a, WeightedAutomaton) else a
    wgt = a.wgt if isinstance(a, WeightedAutomaton) else None
    lines = []
    lines.append("alphabet: " + " ".join(
        render_letter(l) for l in sorted(nfa.alphabet, key=letter_key)))
    lines.append("states: " + " ".join(
        _fmt_state(s) for s in _sorted_states(nfa.states)))
    lines.append("initial: " + " ".join(
        _fmt_state(s) for s in _sorted_states(nfa.initial)))
    lines.append("final: " + " ".join(
        _fmt_state(s) for s in _sorted_states(nfa.final)))
    for name in sorted(nfa.accepting):
        lines.append("accepting %s: %s" % (name, " ".join(
            _fmt_state(s) for s in _sorted_states(nfa.accepting[name]))))
    for t in sorted(nfa.transitions,
                    key=lambda t: (state_key(t[0]), letter_key(t[1]),
                                   state_key(t[2]))):
        (s, l, d) = t
        if wgt is None:
            lines.append("trans: %s %s %s" % (s, render_letter(l), d))
        else:
            lines.append("trans: %s %s %s %s"
                         % (s, render_letter(l), d, format_weight(wgt[t])))
    return "\n".join(lines) + "\n"


def serialize_automaton_inline(a) -> str:
    return " ; ".join(serialize_automaton(a).strip().splitlines())


def _gvquote(s) -> str:
    return '"%s"' % str(s).replace("\\", "\\\\").replace('"', '\\"')


def to_dot(a) -> str:
    """One node per state (double circle when final, arrow-in when initial);
    edge labels 'letter | weight' for weighted automata."""
    a = canonical_relabel(a)
    nfa = a.nfa if isinstance(a, WeightedAutomaton) else a
    wgt = a.wgt if isinstance(a, WeightedAutomaton) else None
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for s in _sorted_states(nfa.states):
        shape = "doublecircle" if s in nfa.final else "circle"
        lines.append("  %s [shape=%s];" % (_gvquote(s), shape))
    for i, s in enumerate(_sorted_states(nfa.initial)):
        lines.append('  __start%d [shape=point, label=""];' % i)
        lines.append("  __start%d -> %s;" % (i, _gvquote(s)))
    grouped = {}
    for t in nfa.transitions:
        (s, l, d) = t
        label = render_letter(l)
        if wgt is not None:
            label += " | " + format_weight(wgt[t])
        grouped.setdefault((s, d), []).append(label)
    for (s, d) in sorted(grouped, key=lambda sd: (state_key(sd[0]),
                                                  state_key(sd[1]))):
        label = "\\n".join(sorted(grouped[(s, d)]))
        lines.append('  %s -> %s [label="%s"];'
                     % (_gvquote(s), _gvquote(d), label.replace('"', '\\"')))
    lines.append("}")
    return "\n".join(lines) + "\n"
