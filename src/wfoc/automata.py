"""Non-deterministic and weighted automata.

Run enumeration, multiset semantics, strongly connected components,
ambiguity classification, aperiodicity analysis, the closure
constructions (synchronous product, disjoint union, trim), and the
breadth-first exploration that every construction on reachable states
shares.

All values are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import InputError
from .multiset import SeqMultiset
from .weights import is_weight


def state_key(s):
    """Deterministic total order over heterogeneous state/letter ids."""
    if isinstance(s, bool):
        return (0, int(s))
    if isinstance(s, int):
        return (1, s)
    if isinstance(s, str):
        return (2, s)
    if isinstance(s, tuple):
        return (3, tuple(state_key(x) for x in s))
    if isinstance(s, frozenset):
        return (4, tuple(sorted(state_key(x) for x in s)))
    return (5, repr(s))


letter_key = state_key


class Nfa:
    """A non-deterministic automaton (Q, Sigma, Delta, I, F) plus optional
    named extra accepting sets."""

    __slots__ = ("states", "alphabet", "transitions", "initial", "final",
                 "accepting", "_out", "_into", "_hash")

    def __init__(self, states, alphabet, transitions, initial, final,
                 accepting=None):
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.transitions = frozenset(transitions)
        self.initial = frozenset(initial)
        self.final = frozenset(final)
        acc = {}
        for name, group in (accepting or {}).items():
            acc[name] = frozenset(group)
        self.accepting = acc
        self._out = None
        self._into = None
        self._hash = None
        self._validate()

    def _validate(self):
        for t in self.transitions:
            if len(t) != 3:
                raise InputError("malformed transition %r" % (t,))
            src, letter, dst = t
            if src not in self.states or dst not in self.states:
                raise InputError("transition %r uses undeclared state" % (t,))
            if letter not in self.alphabet:
                raise InputError("transition %r uses undeclared letter" % (t,))
        for group in (self.initial, self.final, *self.accepting.values()):
            if not group <= self.states:
                raise InputError("accepting/initial set outside states")

    # -- derived lookup tables (built lazily, never mutated afterwards) --

    def out(self, src, letter):
        if self._out is None:
            table = {}
            for (s, a, d) in self.transitions:
                table.setdefault((s, a), []).append(d)
            self._out = table
        return self._out.get((src, letter), [])

    def into(self, dst, letter):
        if self._into is None:
            table = {}
            for (s, a, d) in self.transitions:
                table.setdefault((d, a), []).append(s)
            self._into = table
        return self._into.get((dst, letter), [])

    def with_sets(self, initial=None, final=None, accepting=None):
        return Nfa(self.states, self.alphabet, self.transitions,
                   self.initial if initial is None else initial,
                   self.final if final is None else final,
                   self.accepting if accepting is None else accepting)

    def _canon(self):
        return (self.states, self.alphabet, self.transitions, self.initial,
                self.final, frozenset((k, v) for k, v in self.accepting.items()))

    def __eq__(self, other):
        if not isinstance(other, Nfa):
            return NotImplemented
        return self._canon() == other._canon()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._canon())
        return self._hash

    def __repr__(self):
        return "Nfa(%d states, %d transitions)" % (
            len(self.states), len(self.transitions))


class WeightedAutomaton:
    """An Nfa together with a total weight map on its transitions."""

    __slots__ = ("nfa", "wgt", "_hash")

    def __init__(self, nfa: Nfa, wgt):
        self.nfa = nfa
        wgt = dict(wgt)
        if set(wgt) != set(nfa.transitions):
            raise InputError("weight map must cover exactly the transitions")
        for w in wgt.values():
            if not is_weight(w):
                raise InputError("bad weight %r" % (w,))
        self.wgt = wgt
        self._hash = None

    states = property(lambda self: self.nfa.states)
    alphabet = property(lambda self: self.nfa.alphabet)
    transitions = property(lambda self: self.nfa.transitions)
    initial = property(lambda self: self.nfa.initial)
    final = property(lambda self: self.nfa.final)

    def __eq__(self, other):
        if not isinstance(other, WeightedAutomaton):
            return NotImplemented
        return self.nfa == other.nfa and self.wgt == other.wgt

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nfa, frozenset(self.wgt.items())))
        return self._hash

    def __repr__(self):
        return "WeightedAutomaton(%d states, %d transitions)" % (
            len(self.nfa.states), len(self.nfa.transitions))


def underlying_nfa(a):
    return a.nfa if isinstance(a, WeightedAutomaton) else a


# -- exploration ------------------------------------------------------------


def explore(starts, step):
    """Breadth-first search from `starts`, yielding every edge
    (state, letter, successor) of the reachable part once.

    step(state) lists the (letter, successor) pairs of a state.  States
    are expanded in the order they are first reached, and within a state
    in the order step lists them, so the edges come out sorted by the
    length of the shortest word reaching their source.  Consumers may
    stop early."""
    order = list(dict.fromkeys(starts))
    seen = set(order)
    for state in order:                  # order grows during the loop
        for letter, nxt in step(state):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
            yield state, letter, nxt


def reachable_nfa(initial, step, alphabet, final) -> Nfa:
    """The part of an automaton reachable from `initial`, given by its
    step function in explore's form; final(state) tells the final states.
    Weighted callers record each edge's weight as their step yields it."""
    initial = set(initial)
    trans = set(explore(initial, step))
    states = initial | {d for (_, _, d) in trans}
    return Nfa(states, alphabet, trans, initial, filter(final, states))


def shortest_word(starts, step, goal):
    """Shortest non-empty word leading from a start state to a state
    satisfying goal, as a tuple of letters, or None; ties go to the first
    edge explore yields."""
    parent = dict.fromkeys(starts)
    for (src, letter, dst) in explore(starts, step):
        if goal(dst):
            word = [letter]
            while parent[src] is not None:
                src, letter = parent[src]
                word.append(letter)
            return tuple(reversed(word))
        parent.setdefault(dst, (src, letter))
    return None


@dataclass(frozen=True)
class Run:
    """A run: start state plus a chain of transitions with matching
    endpoints.  The empty chain is the empty run from start to start."""

    start: object
    trans: tuple

    def __post_init__(self):
        prev = self.start
        for (src, _, dst) in self.trans:
            if src != prev:
                raise InputError("transition endpoints do not chain")
            prev = dst

    @property
    def end(self):
        return self.trans[-1][2] if self.trans else self.start

    @property
    def label(self):
        return tuple(a for (_, a, _) in self.trans)

    @property
    def state_sequence(self):
        return (self.start,) + tuple(d for (_, _, d) in self.trans)

    def weights(self, wa: WeightedAutomaton):
        return tuple(wa.wgt[t] for t in self.trans)


def enumerate_runs(a, p, q, word):
    """All runs from p to q labeled by word, deterministically ordered.

    The empty word is allowed only for p = q and yields the empty run.
    """
    nfa = underlying_nfa(a)
    if p not in nfa.states or q not in nfa.states:
        raise InputError("unknown state")
    word = tuple(word)
    for letter in word:
        if letter not in nfa.alphabet:
            raise InputError("unknown letter %r" % (letter,))
    if not word:
        if p != q:
            raise InputError("empty word requires p = q")
        return [Run(p, ())]
    runs = []

    def walk(state, i, acc):
        if i == len(word):
            if state == q:
                runs.append(Run(p, tuple(acc)))
            return
        for dst in nfa.out(state, word[i]):
            acc.append((state, word[i], dst))
            walk(dst, i + 1, acc)
            acc.pop()

    walk(p, 0, [])
    runs.sort(key=lambda r: tuple(state_key(s) for s in r.state_sequence))
    return runs


def count_accepting_runs(a, word):
    nfa = underlying_nfa(a)
    word = tuple(word)
    if not word:
        raise InputError("semantics is defined on non-empty words only")
    counts = {s: 1 for s in nfa.initial}
    for letter in word:
        nxt = {}
        for s, n in counts.items():
            for d in nfa.out(s, letter):
                nxt[d] = nxt.get(d, 0) + n
        counts = nxt
    return sum(n for s, n in counts.items() if s in nfa.final)


def check_word(nfa, word):
    """InputError unless word is a non-empty word over the alphabet."""
    if not word:
        raise InputError("semantics is defined on non-empty words only")
    for letter in word:
        if letter not in nfa.alphabet:
            raise InputError("unknown letter %r" % (letter,))


def live_sets(nfa, steps):
    """live[i] for i = 0..len(steps): the states from which a word that
    takes its j-th letter from steps[j] for every j >= i can reach a final
    state.  With steps = [(a,) for a in word], live[i] is the set of states
    that read word[i:] into a final state."""
    live = [frozenset(nfa.final)]
    for letters in reversed(steps):
        live.append(frozenset(s for d in live[-1] for a in letters
                              for s in nfa.into(d, a)))
    live.reverse()
    return live


def _extend(wa, front, letter, keep):
    """The runs of `front` (state -> {weight prefix -> count}) extended by
    one letter, where they end in `keep`."""
    nxt = {}
    for s, seqs in front.items():
        for d in wa.nfa.out(s, letter):
            if d not in keep:
                continue
            w = wa.wgt[(s, letter, d)]
            bucket = nxt.setdefault(d, {})
            for seq, n in seqs.items():
                key = seq + (w,)
                bucket[key] = bucket.get(key, 0) + n
    return nxt


def _accepted(front) -> SeqMultiset:
    """The multiset of a front whose states are all final."""
    out = {}
    for seqs in front.values():
        for seq, n in seqs.items():
            out[seq] = out.get(seq, 0) + n
    return SeqMultiset(out)


def abstract_semantics(wa: WeightedAutomaton, word) -> SeqMultiset:
    """Multiset of weight sequences of accepting runs on a non-empty word."""
    word = tuple(word)
    check_word(wa.nfa, word)
    live = live_sets(wa.nfa, [(letter,) for letter in word])
    front = {s: {(): 1} for s in wa.nfa.initial if s in live[0]}
    for letter, keep in zip(word, live[1:]):
        front = _extend(wa, front, letter, keep)
    return _accepted(front)


def semantics_upto(wa: WeightedAutomaton, alphabet, maxlen):
    """(word, abstract_semantics(wa, word)) for every word of
    words_upto(alphabet, maxlen), in that order; the multiset is None for
    a word with a letter outside the automaton's alphabet.

    One depth-first pass per length extends each prefix's runs by one
    letter, so prefixes are shared and only the fronts of the current
    word's prefixes are alive.  Runs are kept only in states that can
    still reach a final state in the letters left."""
    letters = sorted(alphabet, key=letter_key)
    # reach[r]: the states some word of r more letters takes to a final one
    reach = live_sets(wa.nfa, [letters] * maxlen)[::-1]
    start = {s: {(): 1} for s in wa.nfa.initial}

    def walk(prefix, front, left):
        for letter in letters:
            word = prefix + (letter,)
            nxt = None if front is None or letter not in wa.nfa.alphabet \
                else _extend(wa, front, letter, reach[left - 1])
            if left > 1:
                yield from walk(word, nxt, left - 1)
            else:
                yield word, None if nxt is None else _accepted(nxt)

    for n in range(1, maxlen + 1):
        yield from walk((), start, n)


def pair_semantics(wa: WeightedAutomaton, p, q, word) -> SeqMultiset:
    return SeqMultiset([r.weights(wa) for r in enumerate_runs(wa, p, q, word)])


def accepts(a, word) -> bool:
    nfa = underlying_nfa(a)
    current = set(nfa.initial)
    for letter in word:
        current = {d for s in current for d in nfa.out(s, letter)}
        if not current:
            return False
    return bool(current & nfa.final)


def words_upto(alphabet, maxlen):
    """All non-empty words up to maxlen, deterministic order."""
    letters = sorted(alphabet, key=letter_key)
    for n in range(1, maxlen + 1):
        for word in itertools.product(letters, repeat=n):
            yield word


def language_upto(a, maxlen):
    return {w for w in words_upto(underlying_nfa(a).alphabet, maxlen)
            if accepts(a, w)}


# -- strongly connected components -----------------------------------------


@dataclass(frozen=True)
class SccDecomposition:
    component_of: dict       # state -> component id
    components: tuple        # id -> frozenset of states
    dag_edges: frozenset     # (cid, cid') edges between distinct components

    def same(self, p, q) -> bool:
        return self.component_of[p] == self.component_of[q]


def scc_decompose(a) -> SccDecomposition:
    """Tarjan, iterative; component ids are assigned in topological order
    (sources first) with deterministic tie-breaking."""
    nfa = underlying_nfa(a)
    order = sorted(nfa.states, key=state_key)
    succ = {s: [] for s in nfa.states}
    for (s, _, d) in sorted(nfa.transitions,
                            key=lambda t: (state_key(t[0]), letter_key(t[1]),
                                           state_key(t[2]))):
        if d not in succ[s]:
            succ[s].append(d)

    index = {}
    low = {}
    on_stack = set()
    stack = []
    comps = []
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

    # Tarjan emits components in reverse topological order; flip it and
    # re-sort ties deterministically per topological layer.
    comps.reverse()
    comp_of_tmp = {}
    for i, comp in enumerate(comps):
        for s in comp:
            comp_of_tmp[s] = i
    edges = set()
    for (s, _, d) in nfa.transitions:
        ci, cj = comp_of_tmp[s], comp_of_tmp[d]
        if ci != cj:
            edges.add((ci, cj))
    # topological renumber with stable tie-break by smallest member key
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
    components = tuple(comps[old] for old in final_order)
    component_of = {s: renum[comp_of_tmp[s]] for s in comp_of_tmp}
    dag_edges = frozenset((renum[i], renum[j]) for (i, j) in edges)
    return SccDecomposition(component_of, components, dag_edges)


# -- ambiguity --------------------------------------------------------------


def ambiguity_witness(a, start_pairs, end_pairs, within=None):
    """Shortest non-empty word with two distinct runs that go from the
    states of a start pair to the states of an end pair, staying inside
    `within` when given; None when there is no such word.

    One breadth-first pass over (pair, diverged) states of the square
    product: the flag records that the two runs have differed so far.
    Pairs sharing a word are expanded in `state_key` order, which fixes
    the witness whatever the order of the sets."""
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


def unambiguity_witness(a):
    """Shortest word with two accepting runs, or None."""
    nfa = underlying_nfa(a)
    return ambiguity_witness(
        nfa, {(i, j) for i in nfa.initial for j in nfa.initial},
        {(f, g) for f in nfa.final for g in nfa.final})


def scc_ambiguity_witness(a):
    """Shortest word with two runs between states of one SCC, taking the
    components in order, or None; a run between two such states never
    leaves their component."""
    nfa = underlying_nfa(a)
    for comp in scc_decompose(nfa).components:
        diagonal = {(s, s) for s in comp}
        w = ambiguity_witness(nfa, diagonal, diagonal, within=comp)
        if w is not None:
            return w
    return None


def is_unambiguous(a) -> bool:
    """At most one accepting run per word."""
    return unambiguity_witness(a) is None


def is_scc_unambiguous(a) -> bool:
    """Unambiguous between every pair of states of a common SCC."""
    return scc_ambiguity_witness(a) is None


def _has_same_word_loop_ladder(nfa) -> bool:
    """Distinct p != q with a common word looping p->p, going p->q and
    looping q->q (triple-product reachability)."""
    scc = scc_decompose(nfa)
    letters = sorted(nfa.alphabet, key=letter_key)
    # the loops need p and q on cycles, and q reachable from p
    on_cycle = {s for comp in scc.components if len(comp) > 1
                for s in comp} | {s for (s, _, d) in nfa.transitions
                                  if s == d}

    def successors(s):
        return ((a, d) for a in letters for d in nfa.out(s, a))

    for p in on_cycle:
        comp_p = scc.components[scc.component_of[p]]
        reach = {d for (_, _, d) in explore([p], successors)}
        for q in (reach & on_cycle) - {p}:
            comp_q = scc.components[scc.component_of[q]]

            def step(state):
                r1, r2, r3 = state
                for a in letters:
                    for d1 in nfa.out(r1, a):
                        if d1 not in comp_p:
                            continue
                        for d2 in nfa.out(r2, a):
                            for d3 in nfa.out(r3, a):
                                if d3 in comp_q:
                                    yield a, (d1, d2, d3)

            target = (p, q, q)
            if shortest_word([(p, p, q)], step,
                             lambda st: st == target) is not None:
                return True
    return False


UNAMBIGUOUS = "unambiguous"
FINITELY = "finitely"
POLYNOMIALLY = "polynomially"
EXPONENTIALLY = "exponentially"


def classify_ambiguity(a) -> str:
    """Least ambiguity class of a trimmed automaton.

    Structural criteria only: square product for unambiguity, pair
    reachability inside SCCs for the polynomial frontier, the same-word
    loop ladder for the finite frontier.
    """
    nfa = trim(underlying_nfa(a))
    if is_unambiguous(nfa):
        return UNAMBIGUOUS
    if not is_scc_unambiguous(nfa):
        return EXPONENTIALLY
    if _has_same_word_loop_ladder(nfa):
        return POLYNOMIALLY
    return FINITELY


def max_accepting_runs(a, cap, maxlen=None):
    """Breadth-first search over per-state run-count vectors, entries
    capped at `cap`, over the non-empty words of length at most `maxlen`
    when given.  Returns (best, word): the largest accepting-run total
    seen and the shortest word reaching `cap`, or None.  On a trim
    automaton without a length bound, a None word makes `best` the exact
    ambiguity degree, since a capped count would propagate to some final
    state and trigger."""
    nfa = underlying_nfa(a)
    states = sorted(nfa.states, key=state_key)
    letters = sorted(nfa.alphabet, key=letter_key)
    idx = {s: i for i, s in enumerate(states)}
    finals = [idx[s] for s in states if s in nfa.final]
    pre = {}
    for (s, letter, d) in nfa.transitions:
        pre.setdefault((letter, idx[d]), []).append(idx[s])
    start = tuple(1 if s in nfa.initial else 0 for s in states)
    depth = {start: 0}
    best = 0

    def step(vec):
        if maxlen is not None and depth[vec] >= maxlen:
            return
        for letter in letters:
            nxt = tuple(min(cap, sum(vec[i] for i in pre.get((letter, j), ())))
                        for j in range(len(states)))
            depth.setdefault(nxt, depth[vec] + 1)
            yield letter, nxt

    def reaches_cap(vec):
        # every vector reached by a non-empty word passes here
        nonlocal best
        acc = sum(vec[j] for j in finals)
        best = max(best, acc)
        return acc >= cap

    word = shortest_word([start], step, reaches_cap)
    return (best, None) if word is None else (cap, word)


def ambiguity_degree_bounded(a, maxlen) -> int:
    """Exact max number of accepting runs over all words up to maxlen."""
    nfa = underlying_nfa(a)
    if maxlen < 1:
        raise InputError("length bound must be >= 1")
    # a word of length n has at most |Q|^(n+1) runs: the cap never binds
    best, _ = max_accepting_runs(nfa, len(nfa.states) ** (maxlen + 1) + 1,
                                 maxlen)
    return best


# -- aperiodicity -----------------------------------------------------------


def _bool_matrices(nfa):
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


def _mat_mul(m1, m2):
    out = []
    for bits in m1:
        row = 0
        while bits:
            low = bits & -bits
            row |= m2[low.bit_length() - 1]
            bits ^= low
        out.append(row)
    return tuple(out)


def transition_monoid(nfa):
    """Closure of the per-letter boolean matrices under composition."""
    gens = list(_bool_matrices(nfa).values())
    products = explore(gens, lambda m: ((g, _mat_mul(m, g)) for g in gens))
    return set(gens) | {m for (_, _, m) in products}


def aperiodicity_index(a):
    """Least m >= 1 with e^m = e^(m+1) for every transition-monoid element,
    or None when some element never stabilizes (period > 1)."""
    nfa = underlying_nfa(a)
    monoid = transition_monoid(nfa)
    if not monoid:
        return 1
    bound = len(monoid) + 1
    worst = 1
    for e in monoid:
        power = e
        t = 1
        while t <= bound:
            nxt = _mat_mul(power, e)
            if nxt == power:
                break
            power = nxt
            t += 1
        else:
            return None
        worst = max(worst, t)
    return worst


# -- closure constructions --------------------------------------------------


def product(a: Nfa, b: Nfa) -> Nfa:
    """Synchronous product on the pair states reachable from the initial
    pairs; a pair is final when both of its states are."""
    if a.alphabet != b.alphabet:
        raise InputError("product requires a common alphabet")

    def step(pair):
        p, q = pair
        for letter in a.alphabet:
            for succ in itertools.product(a.out(p, letter), b.out(q, letter)):
                yield letter, succ

    return reachable_nfa(
        [(p, q) for p in a.initial for q in b.initial], step, a.alphabet,
        lambda pair: pair[0] in a.final and pair[1] in b.final)


def disjoint_union(a: Nfa, b: Nfa) -> Nfa:
    """State-disjoint union with deterministic 0/1 tags."""
    if a.alphabet != b.alphabet:
        raise InputError("union requires a common alphabet")
    st = {(0, s) for s in a.states} | {(1, s) for s in b.states}
    tr = {((0, s), l, (0, d)) for (s, l, d) in a.transitions} | \
         {((1, s), l, (1, d)) for (s, l, d) in b.transitions}
    init = {(0, s) for s in a.initial} | {(1, s) for s in b.initial}
    fin = {(0, s) for s in a.final} | {(1, s) for s in b.final}
    return Nfa(st, a.alphabet, tr, init, fin)


def weighted_union(a: WeightedAutomaton, b: WeightedAutomaton) -> WeightedAutomaton:
    nfa = disjoint_union(a.nfa, b.nfa)
    wgt = {((0, s), l, (0, d)): w for (s, l, d), w in a.wgt.items()}
    wgt.update({((1, s), l, (1, d)): w for (s, l, d), w in b.wgt.items()})
    return WeightedAutomaton(nfa, wgt)


def reachable_states(nfa: Nfa):
    forward = explore(nfa.initial, lambda s: (
        (a, d) for a in nfa.alphabet for d in nfa.out(s, a)))
    return set(nfa.initial) | {d for (_, _, d) in forward}


def coreachable_states(nfa: Nfa):
    backward = explore(nfa.final, lambda s: (
        (a, p) for a in nfa.alphabet for p in nfa.into(s, a)))
    return set(nfa.final) | {p for (_, _, p) in backward}


def restrict(nfa: Nfa, keep) -> Nfa:
    keep = set(keep)
    return Nfa(keep, nfa.alphabet,
               {t for t in nfa.transitions if t[0] in keep and t[2] in keep},
               nfa.initial & keep, nfa.final & keep,
               {k: v & keep for k, v in nfa.accepting.items()})


def trim(a):
    """Restriction to states both reachable and co-reachable."""
    nfa = underlying_nfa(a)
    keep = reachable_states(nfa) & coreachable_states(nfa)
    trimmed = restrict(nfa, keep)
    if isinstance(a, WeightedAutomaton):
        wgt = {t: a.wgt[t] for t in trimmed.transitions}
        return WeightedAutomaton(trimmed, wgt)
    return trimmed
