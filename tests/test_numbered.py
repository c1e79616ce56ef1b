"""Every reader of an automaton's fixed order against the sorting code it
replaced.

The references below are the earlier implementations: each sorted the
automaton by `state_key`/`letter_key` on its own and kept a private index
of it.  They must agree with the readers of an Nfa's numbered form
(`order`, `pos`, `letters`, `succ` and what is derived from them) on the
corpus and on seeded random automata whose states mix ints, strings and
tuples (tuples whose parts mix `bool` and `int` among them).
`Nfa.order`, which sorts plain int names without `state_key`, is checked
against the keyed sort; the bucketed successor table against the
key-sorted one (`reference_automata.ReferenceNumbered`), and
the backward co-reachability sweep against the component-based one it
replaced.  The successor table's readers (`Nfa.out`, the runs, the
forward pass, trim and the union) are checked against references that
read `transitions` alone.  The transition monoid's Cayley table and the
aperiodicity index read off it are checked against the closure and the
power-by-multiplication loop they replaced.  Every classifier, built
through one subset construction of bit-mask automata, is checked against
the per-atom cores and the frozenset subsets for the existential
quantifier that came before it, run alongside a validity DFA with one
state per core state for the words that mark a variable twice and
minimized by a row-by-row Moore refinement; its connectives are binary
products, one minimized table per node, against which a chain of `&`
compiled as one product (and `|` and `->` as its duals) is checked.  The
subset constructions, trimmed to the states that can still accept, are
checked table for table against the untrimmed construction and
tabulation they replaced (`reference_classifiers`).
"""

import collections
import contextlib
import functools
import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from corpus import ALL_TEXTS, SEED, load, named_weights, random_fo
from reference_automata import (
    ReferenceNumbered, mat_mul, monoid_matrices, reference_coreachable,
    walked_aperiodicity, walked_index, walked_witness,
)
from reference_classifiers import (
    table, untrimmed_dfa_from_nfa, untrimmed_on_validity, untrimmed_subsets,
)
from reference_semantics import Run, count_runs, enumerate_runs, words_upto
import wfoc.automata
from wfoc import (
    HypothesisError, Nfa, WeightedAutomaton, fo_compiler, parse_automaton,
    serialize_automaton, to_dot,
)
from wfoc.automata import (
    ambiguity_witness, aperiodicity_index, aperiodicity_witness,
    coreachable_states, explore, forward, letter_key, live_sets,
    reachable_nfa, runs_witness, scc_decompose, seq_counts, shortest_word,
    state_key, transition_monoid, trim, underlying_nfa, weighted_union,
)
from wfoc.decompose import build_a_geq_k, ensure_single_initial
from wfoc.multiset import weight_table
from wfoc.errors import InputError
from wfoc.semantics import builtin_semiring
from wfoc.fo_compiler import (
    _swap, ClassifierDfa, compile_fo, dfa_from_nfa, minimize,
)
from wfoc.logic import (
    And, EqVar, Exists, Forall, FoTrue, Implies, LetterAt, Leq, Lt, Not, Or,
    RunAtom,
)
from wfoc.logic.encoding import lift_table, marked_letters
from wfoc.logic.syntax import ProdX, fo_conditions, nodes
from wfoc.textfmt import _gvquote, render_letter
from wfoc.wa_to_wfo import auto_wa_to_wfo, enumerate_switching
from wfoc.wfo_compiler import compile_wfo
from wfoc.weights import Symbol, format_weight


# -- references ---------------------------------------------------------------


def _sorted_transitions(nfa):
    return sorted(nfa.transitions,
                  key=lambda t: (state_key(t[0]), letter_key(t[1]),
                                 state_key(t[2])))


def reference_scc(a):
    """Tarjan over states, then a topological renumbering that rescans
    every component and edge per pick."""
    nfa = underlying_nfa(a)
    order = sorted(nfa.states, key=state_key)
    succ = {s: [] for s in nfa.states}
    for (s, _, d) in _sorted_transitions(nfa):
        if d not in succ[s]:
            succ[s].append(d)
    index, low, on_stack, stack, comps = {}, {}, set(), [], []
    counter = itertools.count()
    for root in order:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = next(counter)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    s = stack.pop()
                    on_stack.discard(s)
                    comp.add(s)
                    if s == node:
                        break
                comps.append(frozenset(comp))
    comps.reverse()
    comp_of_tmp = {s: i for i, comp in enumerate(comps) for s in comp}
    edges = {(comp_of_tmp[s], comp_of_tmp[d]) for (s, _, d) in nfa.transitions
             if comp_of_tmp[s] != comp_of_tmp[d]}
    remaining = set(range(len(comps)))
    indeg = {i: 0 for i in remaining}
    for (i, j) in edges:
        indeg[j] += 1
    final_order = []
    while remaining:
        ready = [i for i in remaining if indeg[i] == 0]
        ready.sort(key=lambda i: min(state_key(s) for s in comps[i]))
        pick = ready[0]
        final_order.append(pick)
        remaining.discard(pick)
        for (i, j) in edges:
            if i == pick and j in remaining:
                indeg[j] -= 1
    renum = {old: new for new, old in enumerate(final_order)}
    return (tuple(comps[old] for old in final_order),
            {s: renum[comp_of_tmp[s]] for s in comp_of_tmp},
            frozenset((renum[i], renum[j]) for (i, j) in edges))


def reference_witness(a, start_pairs, end_pairs, within=None):
    nfa = underlying_nfa(a)
    allowed = nfa.states if within is None else within
    letters = sorted(nfa.alphabet, key=letter_key)

    @functools.cache
    def out(q, letter):
        return sorted(nfa.out(q, letter), key=state_key)

    def step(state):
        r, s, diverged = state
        for letter in letters:
            for r2 in out(r, letter):
                if r2 not in allowed:
                    continue
                for s2 in out(s, letter):
                    if s2 in allowed:
                        yield letter, (r2, s2, diverged or r2 != s2)

    starts = sorted(((r, s, r != s) for (r, s) in start_pairs
                     if r in allowed and s in allowed),
                    key=lambda st: state_key(st[:2]))
    return shortest_word(starts, step,
                         lambda st: st[2] and st[:2] in end_pairs)


def reference_runs_witness(a, cap):
    nfa = underlying_nfa(a)
    states = sorted(nfa.states, key=state_key)
    letters = sorted(nfa.alphabet, key=letter_key)
    idx = {s: i for i, s in enumerate(states)}
    finals = [idx[s] for s in states if s in nfa.final]
    pre = {}
    for (s, letter, d) in nfa.transitions:
        pre.setdefault((letter, idx[d]), []).append(idx[s])
    start = tuple(1 if s in nfa.initial else 0 for s in states)

    def step(vec):
        for letter in letters:
            yield letter, tuple(
                min(cap, sum(vec[i] for i in pre.get((letter, j), ())))
                for j in range(len(states)))

    return shortest_word([start], step,
                         lambda vec: sum(vec[j] for j in finals) >= cap)


def reference_tracker(a, k):
    """The k-run tracker stepping through `Nfa.out` by state name, its
    states renamed to positions once it is built."""
    nfa = underlying_nfa(ensure_single_initial(underlying_nfa(a)))
    (q0,) = nfa.initial

    def step(src):
        qs, cs = src[:k], src[k:]
        for letter in nfa.letters:
            outs = [nfa.out(qs[ell], letter) for ell in range(k)]
            for qs2 in itertools.product(*outs):
                cs2 = []
                for ell in range(k - 1):
                    if cs[ell] == 1:
                        cs2.append(1)
                    elif nfa.pos[qs2[ell]] < nfa.pos[qs2[ell + 1]]:
                        cs2.append(1)
                    elif qs2[ell] == qs2[ell + 1]:
                        cs2.append(0)
                    else:
                        break
                else:
                    yield letter, qs2 + tuple(cs2), None

    named = reachable_nfa(
        [(q0,) * k + (0,) * (k - 1)], step, nfa.letters,
        lambda s: all(q in nfa.final for q in s[:k]) and all(s[k:]))[0]

    def rename(s):
        return tuple(nfa.pos[q] for q in s[:k]) + s[k:]

    return Nfa(map(rename, named.states), named.alphabet,
               {(rename(p), x, rename(q)) for p, x, q in named.transitions},
               map(rename, named.initial), map(rename, named.final))


def reference_bool_matrices(nfa):
    order = sorted(nfa.states, key=state_key)
    pos = {s: i for i, s in enumerate(order)}
    mats = {}
    for a in sorted(nfa.alphabet, key=letter_key):
        rows = [0] * len(order)
        for (s, letter, d) in nfa.transitions:
            if letter == a:
                rows[pos[s]] |= 1 << pos[d]
        mats[a] = tuple(rows)
    return mats


def reference_monoid(nfa):
    gens = list(reference_bool_matrices(nfa).values())
    products = explore(gens, lambda m: ((g, mat_mul(m, g)) for g in gens))
    return set(gens) | {m for (_, _, m) in products}


def reference_aperiodicity_index(a):
    """Every power e^(t+1) = e^t . e as a matrix product, until it stops
    changing."""
    monoid = reference_monoid(underlying_nfa(a))
    if not monoid:
        return 1
    bound = len(monoid) + 1
    worst = 1
    for e in monoid:
        power = e
        t = 1
        while t <= bound:
            nxt = mat_mul(power, e)
            if nxt == power:
                break
            power = nxt
            t += 1
        else:
            return None
        worst = max(worst, t)
    return worst


_CLASS = {True: 0, False: 1, None: 2}


def image(rows, mask):
    """The union of rows[i] over the positions i set in mask."""
    return mat_mul((mask,), rows)[0]


def reference_minimize(c):
    """Moore refinement from the {F, G, reject} partition, each round's
    signatures read row by row over every letter."""
    block = [None] + [_CLASS[v] for v in c.verdicts]    # block[s], s >= 1
    count = len(set(c.verdicts))
    while True:
        sigs = {}
        new = [None] + [
            sigs.setdefault((block[s], *[block[d] for d in row]), len(sigs))
            for s, row in enumerate(c.delta, 1)]
        if len(sigs) == count:
            break
        block, count = new, len(sigs)
    if count == len(c.delta):
        return c
    first = {}
    for s in range(1, len(new)):
        first.setdefault(new[s], s)
    delta = tuple(tuple(new[d] + 1 for d in c.delta[s - 1])
                  for s in first.values())
    verdicts = tuple(c.verdicts[s - 1] for s in first.values())
    return ClassifierDfa(c.letters, delta, verdicts, c.base_alphabet, c.vars)


def reference_on_validity(core, base, vars):
    """The core alongside the validity DFA, with one state (core, -1) per
    core state reached after some variable was marked twice."""
    start, step, yes = core
    step = functools.lru_cache(maxsize=None)(step)
    masks = [sum(b << i for i, b in enumerate(a[1])) if vars else 0
             for a in marked_letters(base, vars)]
    full = (1 << len(vars)) - 1

    @functools.lru_cache(maxsize=None)
    def marks(seen):
        return [-1 if seen < 0 or seen & m else seen | m for m in masks]

    return reference_minimize(table(
        (start, 0), lambda s: list(zip(step(s[0]), marks(s[1]))),
        lambda s: yes(s[0]) if s[1] == full else None, base, vars))


# the binary connectives as verdict functions of their operands' verdicts
_TAKE = {And: lambda a, b: a and b, Or: lambda a, b: a or b,
         Implies: lambda a, b: (not a) or b}


def reference_combine(c1, c2, take):
    """The synchronous product of two classifiers, minimized: a binary
    connective as one product per node, as compile_fo built it before
    it took a chain of `&` as one product."""
    def verdict(state):
        v1, v2 = c1.verdicts[state[0] - 1], c2.verdicts[state[1] - 1]
        return None if v1 is None or v2 is None else take(v1, v2)

    return reference_minimize(table(
        (1, 1),
        lambda s: list(zip(c1.delta[s[0] - 1], c2.delta[s[1] - 1])),
        verdict, c1.base_alphabet, c1.vars))


def reference_dfa_from_nfa(nfa):
    letters = marked_letters(nfa.alphabet, ())

    def subset_step(subset, letter):
        return frozenset(d for s in subset for d in nfa.out(s, letter))

    return reference_minimize(table(
        frozenset(nfa.initial),
        lambda subset: [subset_step(subset, a) for a in letters],
        lambda subset: not nfa.final.isdisjoint(subset), nfa.alphabet, ()))


def reference_core_true(letters):
    return 0, lambda s: [0] * len(letters), lambda s: True


def reference_core_letter_at(phi, letters, vars):
    # pending (0) until the mark, then yes (1) or no (2) for good
    i = vars.index(phi.var)
    pending = [(1 if a[0] == phi.letter else 2) if a[1][i] else 0
               for a in letters]
    rows = (pending, [1] * len(letters), [2] * len(letters))
    return 0, rows.__getitem__, lambda s: s == 1


def reference_core_order(phi, letters, vars):
    # neither mark seen (0) / x seen first (1) / yes (2) / no (3); a y
    # mark before the x mark decides no at once
    ix, iy = vars.index(phi.left), vars.index(phi.right)
    on_both = 3 if isinstance(phi, Lt) else 2
    on_x = 3 if isinstance(phi, EqVar) else 1
    neither = [on_both if a[1][ix] and a[1][iy] else on_x if a[1][ix]
               else 3 if a[1][iy] else 0 for a in letters]
    xfirst = [2 if a[1][iy] else 1 for a in letters]
    rows = (neither, xfirst, [2] * len(letters), [3] * len(letters))
    return 0, rows.__getitem__, lambda s: s == 2


def reference_core_run_atom(phi, letters, vars):
    """Tagged states: ("w",) before the lo mark, ("s", mask) while the
    factor is simulated and ("d", verdict) once the hi mark decided."""
    nfa, p, q = phi.nfa, phi.p, phi.q
    rows = dict(zip(nfa.letters, nfa.masks))
    stuck = (0,) * len(nfa.states)
    final = 1 << nfa.pos[q]

    def fired(a, v):
        return v is not None and a[1][vars.index(v)]

    fires = [(fired(a, phi.lo), fired(a, phi.hi),
              rows.get(a[0] if vars else a, stuck)) for a in letters]
    done = {True: ("d", True), False: ("d", False)}
    simulate = ("s", 1 << nfa.pos[p])
    wait = ("w",)

    def step(state):
        if state[0] == "d":
            return [state] * len(fires)
        if state == wait:
            return [done[p == q] if hi else simulate if lo else wait
                    for lo, hi, _ in fires]
        return [done[bool(state[1] & final)] if hi
                else ("s", image(row, state[1]))
                for _, hi, row in fires]

    def yes(state):
        return state == done[True] or (
            phi.hi is None and state[0] == "s" and bool(state[1] & final))

    return simulate if phi.lo is None else wait, step, yes


def reference_core(phi, letters, vars):
    if isinstance(phi, FoTrue):
        return reference_core_true(letters)
    if isinstance(phi, LetterAt):
        return reference_core_letter_at(phi, letters, vars)
    if isinstance(phi, (Leq, Lt, EqVar)):
        return reference_core_order(phi, letters, vars)
    return reference_core_run_atom(phi, letters, vars)


def reference_exists(c, var):
    """The mark-erasing subset construction on frozensets of states."""
    vars = tuple(v for v in c.vars if v != var)
    lifts = lift_table(c.base_alphabet, vars, var)
    rows = c.delta
    accept = frozenset(s for s, v in enumerate(c.verdicts, 1) if v)

    def step(subset):
        return [frozenset(rows[s - 1][i] for s in subset for i in (i0, i1))
                for _, i0, i1 in lifts]

    return reference_on_validity(
        (frozenset([1]), step, lambda subset: not accept.isdisjoint(subset)),
        c.base_alphabet, vars)


def reference_compile(phi, base, vars):
    """compile_fo with the cores above in place of the one subset core."""
    if isinstance(phi, Not):
        return _swap(reference_compile(phi.sub, base, vars))
    if isinstance(phi, (And, Or, Implies)):
        return reference_combine(reference_compile(phi.left, base, vars),
                                 reference_compile(phi.right, base, vars),
                                 _TAKE[type(phi)])
    if isinstance(phi, (Exists, Forall)):
        inner = tuple(sorted(vars + (phi.var,)))
        body = reference_compile(phi.body, base, inner)
        if isinstance(phi, Exists):
            return reference_exists(body, phi.var)
        return _swap(reference_exists(_swap(body), phi.var))
    return reference_on_validity(
        reference_core(phi, marked_letters(base, vars), vars), base, vars)


def reference_relabel(a):
    nfa = underlying_nfa(a)
    names = {s: i for i, s in enumerate(sorted(nfa.states, key=state_key), 1)}
    out = Nfa(names.values(), nfa.alphabet,
              {(names[s], l, names[d]) for (s, l, d) in nfa.transitions},
              {names[s] for s in nfa.initial},
              {names[s] for s in nfa.final},
              {k: {names[s] for s in v} for k, v in nfa.accepting.items()})
    if isinstance(a, WeightedAutomaton):
        wgt = named_weights(a)
        return WeightedAutomaton(out, {(names[s], l, names[d]): w
                                       for (s, l, d), w in wgt.items()})
    return out


def _sorted_states(states):
    return sorted(states, key=state_key)


def reference_serialize(a):
    a = reference_relabel(a)
    nfa = underlying_nfa(a)
    wgt = named_weights(a) if isinstance(a, WeightedAutomaton) else None
    lines = ["alphabet: " + " ".join(
        render_letter(l) for l in sorted(nfa.alphabet, key=letter_key))]
    lines.append("states: " + " ".join(
        str(s) for s in _sorted_states(nfa.states)))
    lines.append("initial: " + " ".join(
        str(s) for s in _sorted_states(nfa.initial)))
    lines.append("final: " + " ".join(
        str(s) for s in _sorted_states(nfa.final)))
    for name in sorted(nfa.accepting):
        lines.append("accepting %s: %s" % (name, " ".join(
            str(s) for s in _sorted_states(nfa.accepting[name]))))
    for t in _sorted_transitions(nfa):
        (s, l, d) = t
        if wgt is None:
            lines.append("trans: %s %s %s" % (s, render_letter(l), d))
        else:
            lines.append("trans: %s %s %s %s"
                         % (s, render_letter(l), d, format_weight(wgt[t])))
    return "\n".join(lines) + "\n"


def reference_dot(a):
    a = reference_relabel(a)
    nfa = underlying_nfa(a)
    wgt = named_weights(a) if isinstance(a, WeightedAutomaton) else None
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


def _adjacency(nfa):
    # successor lists in the set order of the transitions
    out = {}
    for (s, a, d) in nfa.transitions:
        out.setdefault((s, a), []).append(d)
    return out


def reference_enumerate_runs(a, p, q, word):
    """A depth-first walk in set order, then a sort by state sequence."""
    nfa = underlying_nfa(a)
    out = _adjacency(nfa)
    runs = []

    def walk(state, i, acc):
        if i == len(word):
            if state == q:
                runs.append(Run(p, tuple(acc)))
            return
        for dst in out.get((state, word[i]), []):
            acc.append((state, word[i], dst))
            walk(dst, i + 1, acc)
            acc.pop()

    walk(p, 0, [])
    runs.sort(key=lambda r: tuple(map(state_key, (p,) + tuple(
        d for (_, _, d) in r.trans))))
    return runs


def reference_live_sets(nfa, steps):
    live = [frozenset(nfa.final)]
    for letters in reversed(steps):
        live.append(frozenset(s for (s, a, d) in nfa.transitions
                              if a in letters and d in live[-1]))
    live.reverse()
    return live


def reference_forward(wa, word, carrier):
    """The forward pass over the sorted transitions: the front starts at
    the initial states in state_key order and each step scans the
    transitions of its states in that order."""
    live = reference_live_sets(wa.nfa, [(a,) for a in word])
    trans = _sorted_transitions(wa.nfa)
    front = {s: carrier.one for s in sorted(wa.nfa.initial, key=state_key)
             if s in live[0]}
    lifted, wgt = {}, named_weights(wa)
    for letter, keep in zip(word, live[1:]):
        nxt = {}
        for s, v in front.items():
            for t in trans:
                if t[0] == s and t[1] == letter and t[2] in keep:
                    if t not in lifted:
                        lifted[t] = carrier.embed(wgt[t])
                    carrier.mac(nxt, t[2], v, lifted[t])
        front = nxt
    return carrier.total(front.values())


def reference_trim(nfa):
    def closure(start, edges):
        seen = set(start)
        while True:
            grown = seen | {d for (s, d) in edges if s in seen}
            if grown == seen:
                return seen
            seen = grown

    reach = closure(nfa.initial, {(s, d) for (s, _, d) in nfa.transitions})
    coreach = closure(nfa.final, {(d, s) for (s, _, d) in nfa.transitions})
    keep = reach & coreach
    return Nfa(keep, nfa.alphabet,
               {t for t in nfa.transitions if t[0] in keep and t[2] in keep},
               nfa.initial & keep, nfa.final & keep,
               {k: v & keep for k, v in nfa.accepting.items()})


def reference_union(a, b):
    """The tagged union by a fixpoint over the transitions: states (tag,
    rank in state_key order), kept when reachable from an initial one."""
    parts = (a, b)
    rank = [{s: i for i, s in enumerate(_sorted_states(wa.nfa.states))}
            for wa in parts]

    def tagged(tag, states):
        return {(tag, rank[tag][s]) for s in states}

    wgt = {((tag, rank[tag][p]), x, (tag, rank[tag][q])): w
           for tag, wa in enumerate(parts)
           for (p, x, q), w in named_weights(wa).items()}
    initial = tagged(0, a.nfa.initial) | tagged(1, b.nfa.initial)
    states = set(initial)
    while True:
        grown = states | {d for (s, _, d) in wgt if s in states}
        if grown == states:
            break
        states = grown
    wgt = {t: w for t, w in wgt.items() if t[0] in states}
    final = (tagged(0, a.nfa.final) | tagged(1, b.nfa.final)) & states
    return WeightedAutomaton(
        Nfa(states, a.nfa.alphabet, set(wgt), initial, final), wgt)


# -- inputs -------------------------------------------------------------------


# True == 1 and (True, 2) == (1, 2): a set keeps whichever comes first, and
# state_key still orders bools before ints
NAMES = [0, 1, 2, 7, 12, True, False, "p", "q", "r1", "Z", (0, 1),
         (True, 2), (1, 2), (False, "a"), (1, (True, 0)), ("s", 3),
         ((2, False), 1), (2, "b"), (True, (False, 3)), ((), 4)]
ALPHABETS = [("a", "b"), ("b", "c", "a"), ("a",),
             (("a", (0, 1)), ("a", (1, 0)), ("b", (0, 0)))]
WEIGHTS = [0, 1, 2, 3, Fraction(1, 2), Symbol("x")]


def mixed_automaton(rng, weighted=False):
    states = list(dict.fromkeys(rng.sample(NAMES, rng.randint(1, 6))))
    letters = rng.choice(ALPHABETS)
    density = rng.choice([0.15, 0.3, 0.5])
    trans = {(s, a, d) for s in states for a in letters for d in states
             if rng.random() < density}
    initial = {s for s in states if rng.random() < 0.4} or {states[0]}
    final = {s for s in states if rng.random() < 0.5}
    accepting = {"G": {s for s in states if rng.random() < 0.3}} \
        if rng.random() < 0.3 else None
    nfa = Nfa(states, letters, trans, initial, final, accepting)
    if not weighted:
        return nfa
    return WeightedAutomaton(nfa, {t: rng.choice(WEIGHTS) for t in trans})


def pool(count, seed, weighted=False):
    rng = random.Random(seed)
    corpus = [load(name) for name in sorted(ALL_TEXTS)]
    if not weighted:
        corpus = [wa.nfa for wa in corpus]
    return corpus + [mixed_automaton(rng, weighted) for _ in range(count)]


NFAS = pool(240, SEED + 11)


def _pairs(rng, states, k):
    states = list(states)
    return {(rng.choice(states), rng.choice(states)) for _ in range(k)}


# -- comparisons --------------------------------------------------------------


def test_numbered_form_is_built_once():
    # what is derived from the successor table is derived on first use
    for nfa in NFAS[:20]:
        assert nfa.transitions is nfa.transitions
        assert nfa.masks is nfa.masks
        assert list(nfa.order) == sorted(nfa.states, key=state_key)


def test_numbered_form_follows_the_sorts():
    for nfa in NFAS:
        assert list(nfa.letters) == sorted(nfa.alphabet, key=letter_key)
        assert nfa.pos == {s: i for i, s in enumerate(nfa.order)}
        assert list(nfa.transitions) == _sorted_transitions(nfa)
        assert list(nfa.states) == list(nfa.order)


def _name_sets(rng):
    """Seeded (kind, names) pairs; the first two kinds are sorted as they
    are by `Nfa.order`, the others through state_key."""
    ints = [rng.randint(-50, 50) for _ in range(12)]
    flat = [tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 4)))
            for _ in range(12)]
    yield "ints", ints
    yield "flat int tuples", flat
    yield "bools in tuples", flat + [(True, 0), (1, False), (0,), (False,),
                                     (True, True, 2)]
    yield "ints and bools", ints + [True, False]
    yield "bools", [True, False]
    yield "strings", ["s%d" % rng.randint(0, 99) for _ in range(8)] + ["", "Z"]
    yield "nested tuples", flat + [((1, 2), 3), (0, (rng.randint(0, 3),)),
                                   ((),)]
    yield "frozensets", [frozenset(rng.sample(range(6), rng.randint(0, 3)))
                         for _ in range(8)]
    yield "mixed", rng.sample(NAMES, 8)
    yield "empty", []


@pytest.mark.parametrize("seed", range(5))
def test_order_sorts_plain_ints_as_state_key_does(seed, monkeypatch):
    import wfoc.automata
    calls = []

    def counted(s):
        calls.append(s)
        return state_key(s)

    monkeypatch.setattr(wfoc.automata, "state_key", counted)
    for kind, names in _name_sets(random.Random(SEED + seed)):
        calls.clear()
        nfa = Nfa(names, (), (), (), ())
        order, keyed = nfa.order, bool(calls)
        plain = kind in ("ints", "flat int tuples", "empty")
        assert keyed != plain, kind
        assert list(order) == sorted(nfa.states, key=state_key), kind


def test_compile_sorts_no_state_through_state_key(tmp_path, monkeypatch,
                                                  capsys):
    # every compile stage names its states by flat int tuples, and the
    # parsed automaton and run-atom headers by ints
    import wfoc.automata
    from wfoc.cli import main
    order = Nfa._set.__code__
    calls = []

    def counted(s):
        if sys._getframe(1).f_code is order:
            calls.append(s)
        return state_key(s)

    nfa = chain(30)
    chain_wa = tmp_path / "chain.wa"
    chain_wa.write_text(serialize_automaton(
        WeightedAutomaton(nfa, dict.fromkeys(nfa.transitions, 1))))
    phi, back = str(tmp_path / "chain.wfo"), str(tmp_path / "back.wa")
    monkeypatch.setattr(wfoc.automata, "state_key", counted)
    assert main(["tologic", "--automaton", str(chain_wa), "-o", phi]) == 0
    assert main(["compile", "--formula", phi, "-o", back]) == 0
    capsys.readouterr()
    assert calls == []
    # a state name of another kind still goes through state_key
    Nfa({"p", "q"}, (), (), (), ())
    assert sorted(calls) == ["p", "q"]


@functools.cache
def numbering_cases():
    """The corpus, the 300 random automata of the monoid cases and 3,000
    more: states mixing ints, strings and tuples, letters with no
    transition, automata with no final state."""
    rng = random.Random(SEED + 21)
    return ([load(name).nfa for name in sorted(ALL_TEXTS)]
            + pool(300, 0xA9E1)[len(ALL_TEXTS):]
            + [mixed_automaton(rng) for _ in range(3000)])


def test_numbering_cases_cover_the_edge_cases():
    cases = numbering_cases()
    assert any(not nfa.final for nfa in cases)
    assert any({a for (_, a, _) in nfa.transitions} < nfa.alphabet
               for nfa in cases)
    assert any(len({type(s) for s in nfa.states}) == 3 for nfa in cases)


def test_numbered_matches_sorted_reference():
    for nfa in numbering_cases():
        got, want = nfa, ReferenceNumbered(nfa)
        assert (got.letters, got.pos) == (want.letters, want.pos)
        assert got.succ == want.succ
        assert got.transitions == want.transitions
        assert got.masks == want.masks


def test_coreachable_states_match_scc_reference():
    for nfa in numbering_cases():
        assert {nfa.order[i] for i in coreachable_states(nfa)} \
            == reference_coreachable(nfa)


def test_scc_decompose_matches_reference():
    rng = random.Random(SEED + 12)
    cases = [wa.nfa for wa in map(load, sorted(ALL_TEXTS))]
    cases += [mixed_automaton(rng) for _ in range(3000)]
    for nfa in cases:
        scc = scc_decompose(nfa)
        components, component_of, dag_edges = reference_scc(nfa)
        assert scc.components == components
        assert scc.component_of == component_of
        assert scc.dag_edges == dag_edges


def test_scc_decompose_is_not_quadratic_in_components():
    # an a-chain with a b back-edge every 7 states: 11,430 components
    n = 20001
    trans = {(i, "a", i + 1) for i in range(n - 1)}
    trans |= {(i + 3, "b", i) for i in range(0, n - 3, 7)}
    nfa = Nfa(range(n), "ab", trans, {0}, {n - 1})
    started = time.process_time()
    scc = scc_decompose(nfa)
    assert time.process_time() - started < 3.0
    assert len(scc.components) == 11430
    assert scc.component_of[0] == 0 and scc.component_of[n - 1] == 11429


@pytest.mark.parametrize("i", range(len(NFAS)))
def test_ambiguity_witness_matches_reference(i):
    nfa = NFAS[i]
    rng = random.Random(SEED + i)
    states = nfa.states
    withins = [None, scc_decompose(nfa).components[0],
               {s for s in states if rng.random() < 0.7}]
    for within in withins:
        for _ in range(3):
            starts = _pairs(rng, states, rng.randint(1, 6))
            ends = _pairs(rng, states, rng.randint(1, 8))
            assert ambiguity_witness(nfa, starts, ends, within) == \
                reference_witness(nfa, starts, ends, within)
    every = set(itertools.product(states, states))
    assert ambiguity_witness(nfa, every, every) == \
        reference_witness(nfa, every, every)


@pytest.mark.parametrize("i", range(len(NFAS)))
def test_max_accepting_runs_matches_reference(i):
    nfa = NFAS[i]
    for cap in (1, 2, 3, 5):
        assert runs_witness(nfa, cap) == reference_runs_witness(nfa, cap)


def test_runs_witness_is_the_first_word_trimmed_or_not():
    # the shortlex-least word with cap runs, whether or not dead states
    # are trimmed first; checked by brute force on words up to length 5
    for nfa in NFAS:
        words = list(words_upto(nfa.alphabet, 5))
        counts = [count_runs(nfa, w) for w in words]
        for cap in (1, 2, 3, 5):
            got = runs_witness(nfa, cap)
            assert got == runs_witness(trim(nfa), cap)
            first = next((w for w, n in zip(words, counts) if n >= cap),
                         None)
            if first is not None:
                assert got == first
            else:
                assert got is None or len(got) > 5
                assert got is None or count_runs(nfa, got) >= cap


def test_trackers_match_reference():
    for nfa in NFAS:
        for k in (1, 2, 3):
            assert build_a_geq_k(nfa, k) == reference_tracker(nfa, k)


def test_monoid_generators_match_reference():
    for nfa in NFAS:
        gens = reference_bool_matrices(nfa)
        assert nfa.masks == tuple(gens.values())
        assert set(monoid_matrices(transition_monoid(nfa))) \
            == reference_monoid(nfa)


def chain(n):
    """States 1..n over {a, b}: i a i+1 and i b i; index n."""
    return Nfa(range(1, n + 1), "ab",
               [(i, "a", i + 1) for i in range(1, n)]
               + [(i, "b", i) for i in range(1, n + 1)], {1}, {n})


def chain_union(k, n):
    """k state-disjoint copies of chain(n); index n."""
    copies = [chain(n) for _ in range(k)]
    return Nfa([(c, s) for c in range(k) for s in copies[c].states], "ab",
               [((c, p), a, (c, q)) for c in range(k)
                for (p, a, q) in copies[c].transitions],
               [(c, 1) for c in range(k)], [(c, n) for c in range(k)])


def cycle(n):
    """An a-cycle of length n: a^t never stabilizes for n >= 2."""
    return Nfa(range(n), "a", [(i, "a", (i + 1) % n) for i in range(n)],
               {0}, {0})


MONOID_CASES = (
    [load(name).nfa for name in sorted(ALL_TEXTS)]
    + [chain(n) for n in (60, 100, 150)]
    + [chain_union(k, n) for k, n in ((3, 10), (3, 15), (4, 6))]
    + pool(300, 0xA9E1)[len(ALL_TEXTS):]
    + [cycle(2), cycle(3),
       Nfa({1, 2}, "ab", (), {1}, {2}),                  # no transitions
       Nfa({1}, (), (), {1}, {1}),                        # no letters
       Nfa({1, 2, 3}, "abc", {(1, "a", 2), (1, "b", 2), (2, "a", 3),
                              (2, "b", 3), (3, "c", 1)}, {1}, {3})])


def test_aperiodicity_index_matches_power_products():
    for nfa in MONOID_CASES:
        assert aperiodicity_index(nfa) == reference_aperiodicity_index(nfa)
        assert set(monoid_matrices(transition_monoid(nfa))) \
            == reference_monoid(nfa)


def test_aperiodicity_index_edge_cases():
    assert [aperiodicity_index(nfa) for nfa in MONOID_CASES[-5:]] == \
        [None, None, 1, 1, 3]
    assert [aperiodicity_index(chain(n)) for n in (60, 100, 150)] == \
        [60, 100, 150]


def test_cayley_table_multiplies_out():
    for nfa in MONOID_CASES:
        gens = nfa.masks
        monoid = transition_monoid(nfa)
        elements = monoid_matrices(monoid)
        assert len(set(elements)) == len(monoid) == len(monoid.right)
        lengths = []
        for e, matrix in enumerate(elements):
            assert [elements[n] for n in monoid.right[e]] == \
                [mat_mul(matrix, g) for g in gens]
            word = monoid.word(e)
            product = gens[word[0]]
            for g in word[1:]:
                product = mat_mul(product, gens[g])
            assert product == matrix
            lengths.append(len(word))
        assert lengths == sorted(lengths)       # numbered breadth-first


def test_equal_letters_are_one_element():
    monoid = transition_monoid(MONOID_CASES[-1])
    assert monoid.parent[:2] == ((None, 0), (None, 2))
    assert all(row[0] == row[1] for row in monoid.right)


def test_index_images_each_row_once_in_the_closure(monkeypatch):
    # the closure computes each distinct row's image once per letter, and
    # the index reads the Cayley table without computing another
    import wfoc.automata
    calls = []
    image = wfoc.automata._image

    def counted(rows, mask):
        calls.append(None)
        return image(rows, mask)

    monkeypatch.setattr(wfoc.automata, "_image", counted)
    nfa = chain(150)
    transition_monoid(nfa)      # rows: the 150 singletons and the empty row
    assert len(calls) == 151 * len(nfa.alphabet) == 302
    calls.clear()
    assert aperiodicity_index(nfa) == 150
    assert len(calls) == 302


def small_nfas(count, seed):
    """Seeded automata of 1-7 states over 1-3 letters, each (state,
    letter, state) a transition with chance d/n, d one of 0.5, 1 and 1.5:
    sparse enough that the powers of many of them cycle."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, letters = rng.randint(1, 7), "abc"[:rng.randint(1, 3)]
        chance = rng.choice((0.5, 1.0, 1.5)) / n
        out.append(Nfa(range(n), letters,
                       {(s, a, d) for s in range(n) for a in letters
                        for d in range(n) if rng.random() < chance},
                       {0}, {n - 1}))
    return out


def test_power_walk_matches_walking_every_element():
    # skipping the powers of walked elements moves neither the index nor
    # the first element whose powers cycle
    kinds = set()
    for nfa in small_nfas(2000, SEED + 29):
        monoid = transition_monoid(nfa)
        got = wfoc.automata._aperiodicity(monoid)
        assert got == walked_aperiodicity(monoid)
        kinds.add(got[0] is None)
    assert kinds == {True, False}


def test_aperiodicity_matches_walking_every_element():
    # MONOID_CASES: the corpus, chain-N, chain unions, 300 random automata
    # and cycles
    for nfa in MONOID_CASES:
        assert aperiodicity_index(nfa) == walked_index(nfa)
        assert aperiodicity_witness(nfa) == walked_witness(nfa)
    assert {walked_index(nfa) is None for nfa in MONOID_CASES} \
        == {True, False}


def test_chain_index_walks_the_powers_of_two_elements(monkeypatch):
    # the letter a's powers are every element but b's, the identity
    walks = []
    power_cycle = wfoc.automata._power_cycle

    def counted(monoid, e):
        walks.append(e)
        return power_cycle(monoid, e)

    monkeypatch.setattr(wfoc.automata, "_power_cycle", counted)
    assert aperiodicity_index(chain(150)) == 150
    assert len(walks) == 2


def test_decompose_closes_one_monoid_per_table(tmp_path, monkeypatch,
                                               capsys):
    # norm, A_>=1 and B_1 of chain-150 share one successor table
    from wfoc.cli import main
    closures = []
    closure = wfoc.automata.transition_monoid

    def counted(nfa):
        closures.append(nfa)
        return closure(nfa)

    nfa = chain(150)
    path = tmp_path / "chain.wa"
    path.write_text(serialize_automaton(
        WeightedAutomaton(nfa, dict.fromkeys(nfa.transitions, 1))))
    monkeypatch.setattr(wfoc.automata, "transition_monoid", counted)
    assert main(["decompose", "--automaton", str(path),
                 "-o", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "A_>=1: states=150 index=150 bound=151" in out
    assert "B_1: states=150 unambiguous=yes index=150" in out
    assert len(closures) == 1


def test_parse_reads_no_named_transitions(monkeypatch):
    # the parser fills the successor table and the weights by position
    reads = []
    named = Nfa.transitions

    def counted(nfa):
        reads.append(nfa)
        return named.fget(nfa)

    texts = [serialize_automaton(load(name)) for name in sorted(ALL_TEXTS)]
    texts.append(serialize_automaton(chain(30)))
    monkeypatch.setattr(Nfa, "transitions", property(counted))
    parsed = [parse_automaton(text) for text in texts]
    assert reads == []
    monkeypatch.undo()
    assert [serialize_automaton(a) for a in parsed] == texts


def test_classifier_tables_match_reference():
    for nfa in NFAS:
        got, want = dfa_from_nfa(nfa), reference_dfa_from_nfa(nfa)
        assert (got.letters, got.delta, got.verdicts) == \
            (want.letters, want.delta, want.verdicts)


def _hand_table(delta, verdicts):
    letters = tuple("abcd"[:len(delta[0])])
    return ClassifierDfa(letters, tuple(map(tuple, delta)), tuple(verdicts),
                         letters, ())


HAND_TABLES = {
    # columns a and c are equal, b differs from both
    "duplicate-columns": _hand_table(
        [(2, 1, 2), (3, 4, 3), (3, 3, 3), (4, 4, 4)],
        [None, True, False, False]),
    "all-columns-equal": _hand_table(
        [(2, 2, 2), (3, 3, 3), (1, 1, 1)], [True, True, False]),
    "one-state": _hand_table([(1, 1)], [True]),
    "one-reject-state": _hand_table([(1,)], [None]),
    "all-reject": _hand_table([(2, 3), (3, 1), (1, 2)], [None] * 3),
    "already-minimal": _hand_table(
        [(2, 3), (2, 4), (4, 3), (4, 4)], [None, True, False, None]),
}


@pytest.mark.parametrize("name", sorted(HAND_TABLES))
def test_minimize_matches_reference_on_hand_tables(name):
    c = HAND_TABLES[name]
    got, want = minimize(c), reference_minimize(c)
    assert (got.letters, got.delta, got.verdicts) == \
        (want.letters, want.delta, want.verdicts)
    if name == "already-minimal":
        assert got is c
    if name in ("one-state", "one-reject-state", "all-reject"):
        assert len(got.delta) == 1


def test_minimize_matches_reference_on_random_tables():
    rng = random.Random(SEED + 17)
    for _ in range(300):
        n, k = rng.randint(1, 12), rng.randint(1, 4)
        cols = [[rng.randint(1, n) for _ in range(n)] for _ in range(k)]
        cols += [rng.choice(cols) for _ in range(rng.randint(0, 2))]
        c = _hand_table(list(zip(*cols[:4])),
                        [rng.choice((True, False, None)) for _ in range(n)])
        got, want = minimize(c), reference_minimize(c)
        assert (got.delta, got.verdicts) == (want.delta, want.verdicts), c


def _cycle_table(rng, n, k):
    """Every letter permutes the states; the first letter is one n-cycle,
    so every state reaches every other and the distances to F and to G tie
    along the cycle wherever the verdicts repeat."""
    cycle = [*range(2, n + 1), 1]
    cols = [cycle] + [rng.sample(range(1, n + 1), n) for _ in range(k - 1)]
    period = rng.choice([p for p in range(1, n + 1) if n % p == 0])
    pattern = [rng.choice((True, False, None)) for _ in range(period)]
    return _hand_table(list(zip(*cols)), [pattern[s % period]
                                          for s in range(n)])


def _unreaching_table(rng, n, k):
    """States 1..m may enter a trap m+1..n that holds no F state (or no G
    state): the trap's states are at distance -1 from F (or G)."""
    m = rng.randint(1, n - 1)
    missing = rng.choice((True, False))
    rows = [[rng.randint(1, n) for _ in range(k)] for _ in range(m)]
    rows += [[rng.randint(m + 1, n) for _ in range(k)] for _ in range(m, n)]
    verdicts = [rng.choice((True, False, None)) for _ in range(m)]
    verdicts += [rng.choice((not missing, None)) for _ in range(m, n)]
    return _hand_table(rows, verdicts)


def _distance(c, s, verdict):
    """Length of a shortest word leading from s to a state with the
    verdict, or -1."""
    front, seen = [s], {s}
    for length in range(len(c.delta)):
        if any(c.verdicts[t - 1] is verdict for t in front):
            return length
        front = [d for t in front for d in c.delta[t - 1] if d not in seen]
        seen.update(front)
    return -1


def test_seeded_minimize_matches_reference():
    # minimize starts from the distances to F and to G; the reference
    # refines from {F, G, reject} alone, row by row
    rng = random.Random(SEED + 25)
    tables = []
    for _ in range(200):
        n, k = rng.randint(2, 14), rng.randint(1, 4)
        tables.append(_cycle_table(rng, n, k))
        tables.append(_unreaching_table(rng, n, k))
    split = unreached = 0
    for c in tables:
        got, want = minimize(c), reference_minimize(c)
        assert (got.delta, got.verdicts) == (want.delta, want.verdicts), c
        assert minimize(got) is got
        seeds = {(_distance(c, s, True), _distance(c, s, False))
                 for s in range(1, len(c.delta) + 1)}
        split += len(seeds) < len(got.delta)
        unreached += any(-1 in seed for seed in seeds)
    # Moore still splits what the distances leave tied, and many tables
    # have states that reach no F or no G
    assert split > 150 and unreached > 200


# run atoms read the corpus automata and mixed ones over plain letters
RUN_NFAS = [nfa for nfa in NFAS[:len(ALL_TEXTS) + 40]
            if all(isinstance(a, str) for a in nfa.alphabet)]
CONTEXTS = [(), ("x",), ("x", "y")]


def run_atoms_of_every_shape(vars):
    """For every automaton: each lo and hi bound (None or a variable of
    vars, lo = hi among them), with p = q and with p != q where it can."""
    bounds = [None, *vars]
    for i, nfa in enumerate(RUN_NFAS):
        p, q = nfa.order[0], nfa.order[-1]
        for lo in bounds:
            for hi in bounds:
                for end in dict.fromkeys((p, q)):
                    yield RunAtom("A%d" % i, nfa, p, end, lo, hi)


def random_classifier_formula(rng, scope, depth):
    kind = rng.choice(["atom", "run", "not", "and", "or", "implies",
                       "exists", "forall"] if depth > 0 else ["atom", "run"])
    if kind == "atom":
        return random_fo(rng, ("a", "b", "c"), list(scope), 0)
    if kind == "run":
        i = rng.randrange(len(RUN_NFAS))
        nfa = RUN_NFAS[i]
        p = rng.choice(nfa.order)
        q = p if rng.random() < 0.25 else rng.choice(nfa.order)
        return RunAtom("A%d" % i, nfa, p, q, rng.choice([None, *scope]),
                       rng.choice([None, *scope]))
    if kind == "not":
        return Not(random_classifier_formula(rng, scope, depth - 1))
    if kind in ("and", "or", "implies"):
        return {"and": And, "or": Or, "implies": Implies}[kind](
            random_classifier_formula(rng, scope, depth - 1),
            random_classifier_formula(rng, scope, depth - 1))
    var = "v%d" % len(scope)
    body = random_classifier_formula(rng, scope + (var,), depth - 1)
    return (Exists if kind == "exists" else Forall)(var, body)


def _same_classifier(phi, base, vars):
    got, want = compile_fo(phi, base, vars), reference_compile(phi, base, vars)
    assert (got.letters, got.delta, got.verdicts) == \
        (want.letters, want.delta, want.verdicts), (phi, base, vars)


@pytest.mark.parametrize("vars", CONTEXTS, ids=["none", "x", "x-y"])
def test_run_atoms_of_every_shape_match_reference(vars):
    atoms = list(run_atoms_of_every_shape(vars))
    shapes = {(a.lo, a.hi, a.p == a.q) for a in atoms}
    assert len(shapes) == 2 * (len(vars) + 1) ** 2
    assert {a.nfa for a in atoms} >= {load(name).nfa for name in ALL_TEXTS}
    for phi in atoms:
        _same_classifier(phi, frozenset("ab"), vars)


@pytest.mark.parametrize("vars", CONTEXTS, ids=["none", "x", "x-y"])
def test_classifiers_match_reference(vars):
    rng = random.Random(SEED + len(vars))
    kinds, nested = set(), 0
    for _ in range(200):
        base = frozenset(rng.choice(["a", "ab", "abc"]))
        phi = random_classifier_formula(rng, vars, rng.randint(2, 4))
        kinds |= {type(node) for node in nodes(phi)}
        nested += any(isinstance(inner, (Exists, Forall))
                      for node in nodes(phi)
                      if isinstance(node, (Exists, Forall))
                      for inner in nodes(node.body))
        _same_classifier(phi, base, vars)
    assert {Exists, Forall, RunAtom, LetterAt, Not, And, Or, Implies} <= kinds
    assert nested >= 20


def test_classifiers_over_no_letters_match_reference():
    # with no letters the subset construction has no rows to transpose
    rng = random.Random(SEED + 26)
    for vars in CONTEXTS:
        for _ in range(20):
            phi = random_classifier_formula(rng, vars, rng.randint(0, 3))
            _same_classifier(phi, frozenset(), vars)
    empty = Nfa({1, 2}, set(), set(), {1}, {2})
    got, want = dfa_from_nfa(empty), reference_dfa_from_nfa(empty)
    assert (got.delta, got.verdicts) == (want.delta, want.verdicts) == (
        ((),), (False,))

# -- chains of `&` and `|` as one product ---------------------------------------


def settled_operand(rng, scope, seen):
    """A valid or unsatisfiable operand: true, !true, an unsatisfiable
    existential (the last two have a dead start state) or Pa(x) & Pb(x),
    which joins the chain it is in."""
    var = "v%d" % len(scope)
    options = [FoTrue(), Not(FoTrue()),
               Exists(var, And(LetterAt("a", var), LetterAt("b", var)))]
    if scope:
        x = rng.choice(scope)
        options.append(And(LetterAt("a", x), LetterAt("b", x)))
    phi = rng.choice(options)
    seen["dead start", None] += isinstance(phi, (Not, Exists))
    return phi


def chain_run_atom(rng, scope, seen):
    i = rng.randrange(len(RUN_NFAS))
    nfa = RUN_NFAS[i]
    p = rng.choice(nfa.order)
    q = p if rng.random() < 0.25 else rng.choice(nfa.order)
    lo, hi = rng.choice([None, *scope]), rng.choice([None, *scope])
    seen["run shape", (lo is None, hi is None, lo == hi, p == q)] += 1
    return RunAtom("A%d" % i, nfa, p, q, lo, hi)


def fold_chain(rng, ops, kind, shape):
    """ops joined by kind, nested to the left, to the right or at random
    cuts."""
    if len(ops) == 1:
        return ops[0]
    cut = {"left": len(ops) - 1, "right": 1}.get(shape) \
        or rng.randint(1, len(ops) - 1)
    return kind(fold_chain(rng, ops[:cut], kind, shape),
                fold_chain(rng, ops[cut:], kind, shape))


def chain_operand(rng, scope, depth, seen):
    kinds = ["atom", "run", "settled"]
    if depth > 0:
        kinds += ["not", "exists", "forall", "chain", "implies"]
    kind = rng.choice(kinds)
    seen[kind, None] += 1
    if kind == "atom":
        return random_fo(rng, ("a", "b", "c"), list(scope), 0)
    if kind == "run":
        return chain_run_atom(rng, scope, seen)
    if kind == "settled":
        return settled_operand(rng, scope, seen)
    if kind == "not":
        return Not(chain_operand(rng, scope, depth - 1, seen))
    if kind == "implies":
        return Implies(chain_operand(rng, scope, depth - 1, seen),
                       chain_operand(rng, scope, depth - 1, seen))
    if kind == "chain":
        return random_chain(rng, scope, depth - 1, seen, 4)
    var = "v%d" % len(scope)
    body = chain_operand(rng, scope + (var,), depth - 1, seen)
    return (Exists if kind == "exists" else Forall)(var, body)


def random_chain(rng, scope, depth, seen, longest=12):
    """A chain of `&` or `|` over 2..longest operands."""
    ops = [chain_operand(rng, scope, depth, seen)
           for _ in range(rng.randint(2, longest))]
    kind, shape = rng.choice([And, Or]), rng.choice(["left", "right", "tree"])
    seen[kind, shape] += 1
    seen["length", len(ops)] += 1
    return fold_chain(rng, ops, kind, shape)


def conjunction_chain_cases(seen):
    """2,000 seeded (formula, base, vars): chains of `&` and `|` and
    implications, over every context and base alphabet in turn."""
    rng = random.Random(SEED + 27)
    for i in range(2000):
        vars = ((), ("x",), ("x", "y"), ("x", "y", "z"))[i % 4]
        base = frozenset(("a", "ab", "abc", "")[i // 4 % 4])
        if rng.random() < 0.85:
            phi = random_chain(rng, vars, rng.randint(0, 2), seen)
        else:
            phi = Implies(chain_operand(rng, vars, 1, seen),
                          chain_operand(rng, vars, 1, seen))
        yield phi, base, vars


def test_conjunction_chains_match_reference():
    # compile_fo takes a chain of `&` as one product of its operands'
    # cores and `|` and `->` as its duals; the reference minimizes after
    # every binary connective
    seen = collections.Counter()
    memos = {}
    for phi, base, vars in conjunction_chain_cases(seen):
        got = compile_fo(phi, base, vars, memos.setdefault((base, vars), {}))
        want = reference_compile(phi, base, vars)
        assert (got.letters, got.delta, got.verdicts) == \
            (want.letters, want.delta, want.verdicts), (phi, base, vars)
    assert all(seen["length", n] for n in range(2, 13))
    assert all(seen[kind, shape] for kind in (And, Or)
               for shape in ("left", "right", "tree"))
    # every run atom shape: each bound absent or a variable, lo = hi
    # among them, p = q and p != q
    assert len({key for key in seen if key[0] == "run shape"}) == 10
    assert all(seen[kind, None] > 100 for kind in (
        "not", "exists", "forall", "implies", "chain", "settled",
        "dead start"))


# -- subset constructions trimmed to the states that can still accept ---------


@contextlib.contextmanager
def untrimmed():
    """compile_fo and dfa_from_nfa with the untrimmed subset construction
    and tabulation they had before (`reference_classifiers`)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fo_compiler, "_subsets", untrimmed_subsets)
        patch.setattr(fo_compiler, "_on_validity", untrimmed_on_validity)
        yield


def tabulated(compile, *args):
    """compile(*args), every classifier table tabulated on the way (its
    letters, rows and verdicts after minimize) and the sizes of the
    tables minimize was handed."""
    tables, sizes = [], []
    on_validity, minimize_ = fo_compiler._on_validity, fo_compiler.minimize

    def record(core, base, vars):
        c = on_validity(core, base, vars)
        tables.append((c.letters, c.delta, c.verdicts))
        return c

    def count(c):
        sizes.append(len(c.delta))
        return minimize_(c)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fo_compiler, "_on_validity", record)
        patch.setattr(fo_compiler, "minimize", count)
        return compile(*args), tables, sizes


def test_trimmed_chains_match_untrimmed():
    # the 2,000 formulas of the conjunction chains, each classifier
    # compiled both ways with a memo of its own per context
    trimmed, plain = {}, {}
    for phi, base, vars in conjunction_chain_cases(collections.Counter()):
        key = (base, vars)
        got, tables, _ = tabulated(compile_fo, phi, base, vars,
                                   trimmed.setdefault(key, {}))
        with untrimmed():
            want, want_tables, _ = tabulated(compile_fo, phi, base, vars,
                                             plain.setdefault(key, {}))
        assert tables == want_tables, (phi, base, vars)
        assert (got.delta, got.verdicts) == (want.delta, want.verdicts)


def chain_automaton(n):
    """chain-n over {a, b}: i a i+1 and i b i, weights 0..3."""
    trans = {(i, "a", i + 1): i % 4 for i in range(1, n)}
    trans.update({(i, "b", i): (i + 1) % 4 for i in range(1, n + 1)})
    return WeightedAutomaton(Nfa(range(1, n + 1), "ab", trans, {1}, {n}),
                             trans)


def translations():
    """The default tologic sentence of every translatable corpus
    automaton and of chain-10, -20 and -30, with its alphabet."""
    for wa in [load(name) for name in sorted(ALL_TEXTS)] + [
            chain_automaton(n) for n in (10, 20, 30)]:
        try:
            yield auto_wa_to_wfo(wa), wa.nfa.alphabet
        except HypothesisError:             # too ambiguous to translate
            continue


def test_trimmed_compiles_match_untrimmed():
    # every classifier that compile_wfo tabulates for a tologic sentence
    # (its conditions, their subformulas and quantifiers), in order, and
    # the output bytes
    compiled, states, want_states = 0, 0, 0
    for phi, alphabet in translations():
        got, tables, sizes = tabulated(compile_wfo, phi, alphabet)
        with untrimmed():
            want, want_tables, want_sizes = tabulated(compile_wfo, phi,
                                                      alphabet)
        assert tables == want_tables
        assert serialize_automaton(got) == serialize_automaton(want)
        compiled, states = compiled + 1, states + sum(sizes)
        want_states += sum(want_sizes)
    assert compiled >= 10 and states < want_states


def test_chain_conditions_reach_minimize_minimal():
    # chain-30's 59 position-product conditions: trimmed, each table is
    # minimal as tabulated; untrimmed, 870 of its states were dead
    phi, _ = list(translations())[-1]
    prods = [node for node in nodes(phi) if isinstance(node, ProdX)]

    def conditions():
        for prod in prods:
            memo = {}
            for cond in fo_conditions(prod.step):
                compile_fo(cond, "ab", (prod.var,), memo)

    _, tables, sizes = tabulated(conditions)
    assert len(sizes) == 59
    assert sum(sizes) == sum(len(t[1]) for t in tables) == 1977
    with untrimmed():
        _, want_tables, want_sizes = tabulated(conditions)
    assert tables == want_tables
    assert sum(want_sizes) == 2847


def test_trimmed_subset_dfas_match_untrimmed():
    # dfa_from_nfa on the seeded automata, some with states that reach
    # no final one, and on decompose's k-run trackers
    dead = 0
    for nfa in NFAS:
        dead += len(coreachable_states(nfa)) < len(nfa.order)
        for a in [nfa] + [build_a_geq_k(nfa, k) for k in (1, 2)]:
            got, want = dfa_from_nfa(a), untrimmed_dfa_from_nfa(a)
            assert (got.letters, got.delta, got.verdicts) == \
                (want.letters, want.delta, want.verdicts)
    assert dead > 50


def test_serialized_bytes_match_reference():
    for a in NFAS + pool(200, SEED + 13, weighted=True):
        assert serialize_automaton(a) == reference_serialize(a)
        assert to_dot(a) == reference_dot(a)


def test_switching_sequences_come_out_sorted():
    for wa in pool(200, SEED + 14, weighted=True):
        nfa = wa.nfa
        scc = scc_decompose(nfa)
        for p, q in itertools.product(nfa.order, nfa.order):
            if scc.same(p, q):
                continue
            seqs = enumerate_switching(nfa, p, q)
            assert seqs == sorted(seqs, key=state_key)


# -- the successor table -------------------------------------------------------


def test_out_lists_successors_in_order():
    for nfa in NFAS:
        for s, a in itertools.product(nfa.order, nfa.letters):
            assert nfa.out(s, a) == [d for d in nfa.order
                                     if (s, a, d) in nfa.transitions]
        assert nfa.out(nfa.order[0], "not a letter") == []


def test_enumerate_runs_matches_reference():
    rng = random.Random(SEED + 15)
    for nfa in NFAS:
        letters = nfa.letters
        for _ in range(4):
            p, q = rng.choice(nfa.order), rng.choice(nfa.order)
            word = tuple(rng.choice(letters)
                         for _ in range(rng.randint(1, 4)))
            assert enumerate_runs(nfa, p, q, word) == \
                reference_enumerate_runs(nfa, p, q, word)


def _states_of(nfa, mask):
    return frozenset(s for i, s in enumerate(nfa.order) if mask >> i & 1)


def test_live_sets_match_reference():
    rng = random.Random(SEED + 16)
    for nfa in NFAS:
        letters = nfa.letters + ("not a letter",)
        steps = [tuple(rng.sample(letters, rng.randint(1, len(letters))))
                 for _ in range(rng.randint(0, 4))]
        got = [_states_of(nfa, live) for live in live_sets(nfa, steps)]
        assert got == reference_live_sets(nfa, steps)


def _logged(carrier, log):
    def embed(w):
        log.append(w)
        return carrier.embed(w)
    return carrier._replace(embed=embed)


def _outcome(fn):
    try:
        return fn()
    except InputError as err:
        return "error: %s" % err


@pytest.mark.parametrize("semiring", [None, "natural", "boolean"])
def test_forward_embeds_weights_in_the_reference_order(semiring):
    # the order weights are embedded in fixes which refusal a word gets
    for wa in pool(120, SEED + 17, weighted=True):
        carrier = seq_counts(weight_table(wa.weights)) \
            if semiring is None \
            else builtin_semiring(semiring).carrier
        for word in words_upto(wa.nfa.alphabet, 3):
            got_log, want_log = [], []
            got = _outcome(lambda: forward(wa, word,
                                           _logged(carrier, got_log)))
            want = _outcome(lambda: reference_forward(
                wa, word, _logged(carrier, want_log)))
            assert (got, got_log) == (want, want_log)


def test_trim_matches_reference():
    for a in NFAS + pool(100, SEED + 18, weighted=True):
        nfa = underlying_nfa(a)
        assert underlying_nfa(trim(a)) == reference_trim(nfa)


def test_union_matches_reference():
    rng = random.Random(SEED + 19)
    by_alphabet = {}
    for wa in pool(100, SEED + 20, weighted=True):
        by_alphabet.setdefault(wa.nfa.alphabet, []).append(wa)
    for group in by_alphabet.values():
        for _ in range(min(40, len(group) ** 2)):
            a, b = rng.choice(group), rng.choice(group)
            assert weighted_union(a, b) == reference_union(a, b)
