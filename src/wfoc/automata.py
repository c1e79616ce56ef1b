"""Non-deterministic and weighted automata.

The forward pass that gives every value of a word (the multiset and each
semiring's: one step, `_stepper`, moves a state -> value front in a
`Carrier`; the multiset's carrier, `seq_counts`, is built per pass over
a weight table and extends runs as rank strings onto a suffix that the
runs in one state share, copying a run only where runs meet), the
shortest length at which two automata's multisets differ (exactly, from
a basis of forward vectors), strongly connected components, ambiguity
classification, aperiodicity analysis (the transition monoid with its
right Cayley table, its elements held as tuples of interned row numbers,
and one walk of powers shared by the index and the witness that skips
every power of an element it has walked), the closure constructions
(disjoint union, trim), and the breadth-first exploration that every
construction on reachable states shares: `reachable_nfa` is the one
builder of a construction's states.  No function lists the runs one by
one.

An `Nfa` is its own numbered form: its states sorted by `state_key` once
(`order`, each state's position in `pos`), its letters sorted by
`letter_key` (`letters`, `rank`) and one successor table over positions,
from which the transitions in order and the per-letter bit masks are
derived.  A weighted automaton's weights are a tuple read by transition
number; a parsed automaton's come with its lines, as the successor
table is filled (`filled_nfa`).  Every analysis, construction and
forward pass and the serializer read these instead of sorting or
indexing on their own.

All values are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
from dataclasses import dataclass

from .errors import InputError
from .multiset import SeqMultiset, weight_table
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
    named extra accepting sets, over the positions of its states: `order`
    sorts the states by state_key (pos[s] the position of s, `states` a
    set view), `letters` the alphabet by letter_key (rank[a] the index of
    a), and succ[j][i] lists the transitions leaving position i on
    letters[j] as (target position, number) pairs, by target.  Numbers
    count the transitions in (position, letter, position) order, the
    order of `transitions`; masks[j][i] has succ[j][i]'s targets as bits.
    The constructor checks named transitions; a construction's automata
    (`reachable_nfa`) and a parsed one (`filled_nfa`) are filled by
    position."""

    __slots__ = ("order", "pos", "states", "letters", "rank", "alphabet",
                 "succ", "initial", "final", "accepting", "_transitions",
                 "_masks", "_hash", "_sccs")

    def __init__(self, states, alphabet, transitions, initial, final,
                 accepting=None):
        states, transitions = frozenset(states), frozenset(transitions)
        self._set(states, sorted(set(alphabet), key=letter_key), initial,
                  final, accepting)
        for t in transitions:
            if len(t) != 3:
                raise InputError("malformed transition %r" % (t,))
            src, letter, dst = t
            if src not in states or dst not in states:
                raise InputError("transition %r uses undeclared state" % (t,))
            if letter not in self.rank:
                raise InputError("transition %r uses undeclared letter" % (t,))
        for group in (self.initial, self.final, *self.accepting.values()):
            if not group <= states:
                raise InputError("accepting/initial set outside states")
        edges = ((s, self.rank[a], d, None) for s, a, d in transitions)
        self.succ = _successors(self, edges, self.pos)[0]

    def _set(self, states, letters, initial, final, accepting=None):
        """Every field but `succ`, over `letters` in letter_key order.
        Int names or int tuples (no bool) sort directly, as by state_key."""
        kinds = set(map(type, states))
        if kinds == {tuple}:
            kinds = set(map(type, itertools.chain(*states)))
        self.order = tuple(sorted(
            states, key=None if kinds <= {int} else state_key))
        self.pos = {s: i for i, s in enumerate(self.order)}
        self.states = self.pos.keys()
        self.letters = tuple(letters)
        self.alphabet = frozenset(self.letters)
        self.rank = {a: j for j, a in enumerate(self.letters)}
        self.initial = frozenset(initial)
        self.final = frozenset(final)
        self.accepting = {name: frozenset(group)
                          for name, group in (accepting or {}).items()}
        self._transitions = self._masks = self._hash = self._sccs = None

    def edges(self):
        """(position, letter index, target position, number) for every
        transition, by number."""
        for i in range(len(self.order)):
            for j, out in enumerate(self.succ):
                for d, t in out[i]:
                    yield i, j, d, t

    @property
    def transitions(self):
        """The transitions (src, letter, dst) by number."""
        if self._transitions is None:
            order, letters = self.order, self.letters
            self._transitions = tuple(
                (s, a, order[d]) for i, s in enumerate(order)
                for a, out in zip(letters, self.succ) for d, _ in out[i])
        return self._transitions

    @property
    def masks(self):
        if self._masks is None:
            self._masks = tuple(
                tuple(sum(1 << d for d, _ in out) for out in rows)
                for rows in self.succ)
        return self._masks

    def mask(self, states):
        """The positions of some states, as a bit mask."""
        return sum(1 << self.pos[s] for s in states)

    def out(self, src, letter):
        """The successors of src on letter, in `order`."""
        j = self.rank.get(letter)
        return [] if j is None else [
            self.order[d] for d, _ in self.succ[j][self.pos[src]]]

    def _canon(self):
        return (self.order, self.letters, self.succ, self.initial,
                self.final, frozenset(self.accepting.items()))

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
            len(self.order), len(self.transitions))


def _successors(nfa, edges, at):
    """nfa's successor table and the payloads by transition number, from
    (source, letter index, target, payload) `edges`, each (source, letter,
    target) once, whose ends at[] maps to positions.  A cell holds its one
    pair until a second comes; only a cell of two or more is sorted."""
    n = len(nfa.order)
    table = [[None] * n for _ in nfa.letters]
    for s, j, d, w in edges:
        row, i, pair = table[j], at[s], (at[d], w)
        cell = row[i]
        if cell is None:
            row[i] = pair
        elif type(cell) is list:
            cell.append(pair)
        else:
            row[i] = [cell, pair]
    payloads = []
    for i in range(n):
        for row in table:
            cell = row[i]
            if cell is None:
                row[i] = ()
            elif type(cell) is tuple:       # a lone pair
                row[i] = ((cell[0], len(payloads)),)
                payloads.append(cell[1])
            else:
                cell.sort()         # by target: the targets are distinct
                row[i] = tuple([(d, len(payloads) + k)
                                for k, (d, _) in enumerate(cell)])
                payloads += [w for _, w in cell]
    return tuple(map(tuple, table)), payloads


def bits(mask):
    """The positions set in a bit mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class WeightedAutomaton:
    """An Nfa together with a total weight map on its transitions, read by
    number: weights[t] weighs nfa.transitions[t]."""

    __slots__ = ("nfa", "weights", "_hash")

    def __init__(self, nfa: Nfa, wgt):
        """wgt maps each transition (src, letter, dst) to its weight."""
        wgt = dict(wgt)
        if len(wgt) != len(nfa.transitions) \
                or not all(map(wgt.__contains__, nfa.transitions)):
            raise InputError("weight map must cover exactly the transitions")
        for w in wgt.values():
            if not is_weight(w):
                raise InputError("bad weight %r" % (w,))
        self.nfa, self._hash = nfa, None
        self.weights = tuple(map(wgt.__getitem__, nfa.transitions))

    @classmethod
    def from_weights(cls, nfa: Nfa, weights) -> "WeightedAutomaton":
        """nfa weighted by transition number, as constructions make it."""
        out = cls.__new__(cls)
        out.nfa, out.weights, out._hash = nfa, tuple(weights), None
        return out

    def __eq__(self, other):
        if not isinstance(other, WeightedAutomaton):
            return NotImplemented
        return self.nfa == other.nfa and self.weights == other.weights

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nfa, self.weights))
        return self._hash

    def __repr__(self):
        return "WeightedAutomaton(%d states, %d transitions)" % (
            len(self.nfa.order), len(self.weights))


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


def reachable_nfa(initial, step, letters, final):
    """The part of an automaton reachable from `initial`, given by its
    step function, and the weights of its transitions by number, over
    `letters` already in letter_key order.  step(state) lists a state's
    (letter, successor, weight) triples, each (letter, successor) once;
    final(state) tells the final states.  The reached names are sorted
    once, and the successor table and the weights filled by position in
    one pass, unchecked."""
    found = list(dict.fromkeys(initial))
    starts, number = found[:], {s: k for k, s in enumerate(found)}
    rank = {a: j for j, a in enumerate(letters)}
    edges = []      # flat: source, letter index, target, weight, ...
    for k, state in enumerate(found):       # found grows during the loop
        for letter, nxt, w in step(state):
            d = number.get(nxt)
            if d is None:
                d = number[nxt] = len(found)
                found.append(nxt)
            edges += (k, rank[letter], d, w)
    nfa = Nfa.__new__(Nfa)
    nfa._set(found, letters, starts, filter(final, found))
    nfa.succ, weights = _successors(nfa, zip(*[iter(edges)] * 4),
                                    list(map(nfa.pos.__getitem__, found)))
    return nfa, weights


def filled_nfa(states, alphabet, initial, final, accepting, edges):
    """An Nfa over these names, unchecked, and the payloads of its
    transitions by number: edges(nfa) lists (position, letter index,
    target position, payload) for each transition once, reading the
    positions off nfa's `pos` and `rank` (a reader checks its lines
    there)."""
    nfa = Nfa.__new__(Nfa)
    nfa._set(states, sorted(set(alphabet), key=letter_key), initial, final,
             accepting)
    nfa.succ, payloads = _successors(nfa, edges(nfa), range(len(nfa.order)))
    return nfa, payloads


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


def check_word(nfa, word):
    """InputError unless word is a non-empty word over the alphabet."""
    if not word:
        raise InputError("semantics is defined on non-empty words only")
    for letter in word:
        if letter not in nfa.alphabet:
            raise InputError("unknown letter %r" % (letter,))


def live_sets(nfa, steps):
    """live[i] for i = 0..len(steps), a bit mask over positions: the
    states from which a word taking its j-th letter from steps[j] (a
    tuple), for every j >= i, reaches a final state (with steps =
    [(a,) for a in word], the states that read word[i:] into a final
    one).  Each distinct (letters, after) pair is computed once, so on a
    long word over a small automaton a position is one lookup."""
    masks = dict(zip(nfa.letters, nfa.masks))
    live = [nfa.mask(nfa.final)]
    memo = {}
    for letters in reversed(steps):
        after = live[-1]
        pre = memo.get((letters, after))
        if pre is None:
            pre = memo[letters, after] = sum(
                1 << i for i in {i for a in letters
                                 for i, out in enumerate(masks.get(a, ()))
                                 if out & after})
        live.append(pre)
    live.reverse()
    return live


class Carrier(collections.namedtuple("Carrier", "one embed mac total")):
    """What a forward pass values runs in: a semiring's (`semantics`) or
    the multiset's (`seq_counts`).  Initial states start at `one`;
    `embed` lifts a weight, raising for one outside the carrier;
    `mac(front, d, v, w)` is front[d] <- front[d] + v.w (zero if missing),
    runs of value v extended by w; it may change only what the step's new
    front owns, never v, `one` or what they share; `total` sums a front."""


def seq_counts(weights) -> Carrier:
    """The multiset semantics as a carrier over the weight table `weights`
    (`multiset.weight_table`; it must hold every weight the pass embeds).
    A weight embeds as its rank character.  A value is a pair (counts,
    suffix), every code of counts followed by suffix (`one` is ({"": 1},
    "")): a run into an empty slot shares v's counts under suffix + w, and
    a second run turns the slot into a dict of full codes that the new
    front owns (suffix ""), so a code is copied only where runs meet and
    shared counts never change."""
    chars = {w: chr(i) for i, w in enumerate(weights)}

    def mac(front, d, v, w):
        counts, suffix = v
        acc = front.get(d)
        if acc is None:
            front[d] = counts, suffix + w
            return
        acc, tail = acc
        if tail:
            acc = {code + tail: n for code, n in acc.items()}
            front[d] = acc, ""
        suffix += w
        for code, n in counts.items():
            code += suffix
            acc[code] = acc.get(code, 0) + n

    def total(values) -> SeqMultiset:
        out = {}
        for counts, suffix in values:
            for code, n in counts.items():
                code += suffix
                out[code] = out.get(code, 0) + n
        return SeqMultiset.over(weights, out)

    return Carrier(({"": 1}, ""), chars.__getitem__, mac, total)


def _stepper(wa: WeightedAutomaton, carrier: Carrier):
    """The one forward step over wa in a carrier: advance(front, letter,
    keep) is the front, from positions to values, after one more letter
    on the positions of the mask `keep`, visited in the table's order.
    Each transition's weight is embedded once per stepper, when a run
    first takes it into `keep`."""
    succ, rank, weights = wa.nfa.succ, wa.nfa.rank, wa.weights
    embed, mac = carrier.embed, carrier.mac
    lifted = [None] * len(weights)

    def advance(front, letter, keep):
        out = succ[rank[letter]]
        nxt = {}
        for i, v in front.items():
            for d, t in out[i]:
                if keep >> d & 1:
                    w = lifted[t]
                    if w is None:
                        w = lifted[t] = embed(weights[t])
                    mac(nxt, d, v, w)
        return nxt

    return advance


def forward(wa: WeightedAutomaton, word, carrier: Carrier):
    """The carrier's sum, over the accepting runs on a non-empty word, of
    the product of their embedded weights, left to right.  Runs are kept
    only in states that read the rest of the word into a final state, so
    a weight is embedded exactly when it lies on an accepting run."""
    word = tuple(word)
    check_word(wa.nfa, word)
    live = live_sets(wa.nfa, [(letter,) for letter in word])
    initial = wa.nfa.mask(wa.nfa.initial)
    front = dict.fromkeys(bits(initial & live[0]), carrier.one)
    advance = _stepper(wa, carrier)
    for letter, keep in zip(word, live[1:]):
        front = advance(front, letter, keep)
    return carrier.total(front.values())


def abstract_semantics(wa: WeightedAutomaton, word) -> SeqMultiset:
    """Multiset of weight sequences of accepting runs on a non-empty word."""
    return forward(wa, word, seq_counts(weight_table(wa.weights)))


_DONE = object()


def semantics_upto(wa: WeightedAutomaton, alphabet, maxlen, weights=None,
                   first=1):
    """(word, abstract_semantics(wa, word)) for every word over alphabet
    of length `first` to maxlen, shortest first and each length in
    lexicographic order of the letters sorted by letter_key; the multiset
    is None for a word with a letter outside the automaton's alphabet.
    The multisets are over the weight table `weights` (by
    default wa's own), so two sweeps over one table compare word by word
    as dicts.

    One depth-first pass per length advances each prefix's front by one
    letter, so prefixes are shared and only the fronts of the current
    word's prefixes are alive.  They are kept on an explicit stack, so a
    word may be longer than the recursion limit.  Runs are kept only in
    states that can still reach a final state in the letters left."""
    letters = tuple(sorted(alphabet, key=letter_key))
    # reach[r]: the states some word of r more letters takes to a final one
    reach = live_sets(wa.nfa, [letters] * maxlen)[::-1]
    carrier = seq_counts(weight_table(wa.weights) if weights is None
                         else weights)
    start = dict.fromkeys(bits(wa.nfa.mask(wa.nfa.initial)),
                          carrier.one)
    advance = _stepper(wa, carrier)
    known = wa.nfa.alphabet

    for n in range(first, maxlen + 1):
        # stack[d]: the front after the first d letters of word, and the
        # letters still to try at position d
        word, stack = [], [(start, iter(letters))]
        while stack:
            front, todo = stack[-1]
            letter = next(todo, _DONE)
            if letter is _DONE:
                stack.pop()
                del word[-1:]
                continue
            nxt = None if front is None or letter not in known \
                else advance(front, letter, reach[n - len(stack)])
            if len(stack) < n:
                word.append(letter)
                stack.append((nxt, iter(letters)))
            else:
                yield (*word, letter), None if nxt is None \
                    else carrier.total(nxt.values())


def first_difference(a: WeightedAutomaton, b: WeightedAutomaton, maxlen):
    """The length of the shortest non-empty word of length at most maxlen
    on which a and b have different multisets (a letter outside an
    automaton's alphabet gives it the empty one), or None if there is none.

    A multiset automaton is an automaton with natural counts over the
    letters (letter, rank of the weight in the table of both automata's
    weights): a word's multiset gives each weight sequence the count of
    the accepting runs labelled by it.  So the question is one of linear
    algebra over the two automata's state vectors side by side (Tzeng,
    SIAM J. Comput. 1992).  A breadth-first search by word length steps
    every vector kept at one length by every such letter, starting from
    the initial vector (the empty word is never tested), and keeps a new
    vector only if it is independent of the kept ones (fraction-free
    integer elimination).  The kept vectors of lengths 1..n span every
    word's vector of those lengths, so the first non-zero difference of
    final counts comes on a kept vector, at the shortest differing length.
    A length that keeps no vector leaves the span closed: no longer word
    differs either."""
    weights = weight_table([*a.weights, *b.weights])
    rank = {w: r for r, w in enumerate(weights)}
    code = {letter: j * len(weights) for j, letter in enumerate(
        sorted(a.nfa.alphabet | b.nfa.alphabet, key=letter_key))}
    # edges[i]: the (letter, weight) code and target of each transition
    # leaving position i of a then b; final[i]: +1 on a's, -1 on b's.  A
    # state that reaches no final state would only add a free coordinate,
    # so no edge enters one.
    edges, start, final = [], {}, {}
    for sign, wa in ((1, a), (-1, b)):
        nfa, base = wa.nfa, len(edges)
        live = coreachable_states(nfa)
        rows = [[] for _ in nfa.order]
        for i, j, d, t in nfa.edges():
            if d in live:
                rows[i].append((code[nfa.letters[j]] + rank[wa.weights[t]],
                                base + d))
        edges += rows
        start.update(dict.fromkeys(
            (base + i for i in bits(nfa.mask(nfa.initial)) if i in live), 1))
        final.update(dict.fromkeys(
            (base + i for i in bits(nfa.mask(nfa.final))), sign))
    basis = {}          # least position of a kept vector -> the vector

    def reduce(vec):
        """vec minus its part in the span of `basis`, divided by the gcd
        of its entries, without zero entries: empty iff vec lies in that
        span."""
        while True:
            g = math.gcd(*vec.values())
            vec = {i: v // g for i, v in vec.items() if v}
            pivots = [i for i in vec if i in basis]
            if not pivots:
                return vec
            p = min(pivots)
            row, y = basis[p], vec[p]
            vec = {i: row[p] * v for i, v in vec.items()}
            for i, v in row.items():
                vec[i] = vec.get(i, 0) - y * v

    level = [start]
    for n in range(1, maxlen + 1):
        kept = []
        for vec in level:
            steps = {}
            for i, v in vec.items():
                for c, d in edges[i]:
                    nxt = steps.setdefault(c, {})
                    nxt[d] = nxt.get(d, 0) + v
            for c in sorted(steps):
                new = reduce(steps[c])
                if not new:
                    continue
                if sum(v * final[i] for i, v in new.items() if i in final):
                    return n
                basis[min(new)] = new
                kept.append(new)
        if not kept:
            return None
        level = kept
    return None


# -- strongly connected components -----------------------------------------


@dataclass(frozen=True)
class SccDecomposition:
    component_of: dict       # state -> component id
    components: tuple        # id -> frozenset of states
    dag_edges: frozenset     # (cid, cid') edges between distinct components

    def same(self, p, q) -> bool:
        return self.component_of[p] == self.component_of[q]


def scc_decompose(a) -> SccDecomposition:
    """Tarjan, iterative, over positions.  Each component is named by its
    least position, and the ids are assigned in topological order
    (sources first), the ready component with the least name first.  The
    result is kept on the Nfa."""
    nfa = underlying_nfa(a)
    if nfa._sccs is not None:
        return nfa._sccs
    succ = nfa.succ
    n = len(nfa.order)
    index, low = [None] * n, [0] * n    # index: n once the SCC is done
    comp_of = [None] * n
    visits = itertools.count()
    stack, work = [], []

    def enter(s):
        index[s] = low[s] = next(visits)
        stack.append(s)
        work.append((s, (d for out in succ for d, _ in out[s])))

    for root in range(n):
        if index[root] is None:
            enter(root)
        while work:
            node, it = work[-1]
            for child in it:
                if index[child] is None:
                    enter(child)
                    break
                low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[node])
                if low[node] == index[node]:
                    comp = [stack.pop()]
                    while comp[-1] != node:
                        comp.append(stack.pop())
                    name = min(comp)
                    for s in comp:
                        index[s], comp_of[s] = n, name

    later = {c: set() for c in comp_of}
    for i, c in enumerate(comp_of):
        later[c].update(comp_of[d] for out in succ for d, _ in out[i])
        later[c].discard(c)
    indeg = collections.Counter(itertools.chain.from_iterable(later.values()))
    # Kahn's renumbering, the least ready name first
    ready = [c for c in later if indeg[c] == 0]     # ascending: a heap
    renum = {}
    while ready:
        c = heapq.heappop(ready)
        renum[c] = len(renum)
        for d in later[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(ready, d)
    members = [[] for _ in renum]
    for i, s in enumerate(nfa.order):
        members[renum[comp_of[i]]].append(s)
    nfa._sccs = SccDecomposition(
        {s: renum[comp_of[i]] for i, s in enumerate(nfa.order)},
        tuple(map(frozenset, members)),
        frozenset((renum[c], renum[d]) for c in later for d in later[c]))
    return nfa._sccs


# -- ambiguity --------------------------------------------------------------


def ambiguity_witness(a, start_pairs, end_pairs, within=None):
    """Shortest non-empty word with two distinct runs that go from the
    states of a start pair to the states of an end pair, staying inside
    `within` when given; None when there is no such word.

    One breadth-first pass over (pair, diverged) states of the square
    product, over positions in the automaton's `order`: the flag records
    that the two runs have differed so far.  Pairs sharing a word are
    expanded in position order, which fixes the witness whatever the
    order of the sets."""
    nfa = underlying_nfa(a)
    allowed = nfa.states if within is None else within
    keep = nfa.mask(allowed)

    def step(state):
        r, s, diverged = state
        for letter, rows in zip(nfa.letters, nfa.masks):
            outs = list(bits(rows[s] & keep))
            for r2 in bits(rows[r] & keep):
                for s2 in outs:
                    yield letter, (r2, s2, diverged or r2 != s2)

    pos = nfa.pos
    starts = sorted((pos[r], pos[s], r != s) for (r, s) in start_pairs
                    if r in allowed and s in allowed)
    ends = {(pos[f], pos[g]) for (f, g) in end_pairs
            if f in allowed and g in allowed}
    return shortest_word(starts, step,
                         lambda st: st[2] and st[:2] in ends)


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
    looping q->q (triple-product reachability over positions)."""
    scc = scc_decompose(nfa)
    comp = [scc.component_of[s] for s in nfa.order]
    moves = list(zip(nfa.letters, nfa.succ))
    # the loops need p and q on cycles, and q reachable from p
    on_cycle = {i for i, c in enumerate(comp)
                if len(scc.components[c]) > 1} | {
        i for i, _, d, _ in nfa.edges() if d == i}

    def successors(i):
        return ((a, d) for a, out in moves for d, _ in out[i])

    for p in on_cycle:
        reach = {d for (_, _, d) in explore([p], successors)}
        for q in (reach & on_cycle) - {p}:

            def step(state):
                r1, r2, r3 = state
                for a, out in moves:
                    for d1, _ in out[r1]:
                        if comp[d1] != comp[p]:
                            continue
                        for d2, _ in out[r2]:
                            for d3, _ in out[r3]:
                                if comp[d3] == comp[q]:
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


def runs_witness(a, cap):
    """The shortlex-least non-empty word with at least `cap` accepting
    runs, or None.  Breadth-first search over per-state run-count vectors
    with entries capped at `cap`; dead states never feed a final one, so
    trimming the automaton first does not change the word."""
    nfa = underlying_nfa(a)
    finals = [nfa.pos[s] for s in nfa.final]
    start = tuple(1 if s in nfa.initial else 0 for s in nfa.order)

    def step(vec):
        for letter, rows in zip(nfa.letters, nfa.masks):
            nxt = [0] * len(vec)
            for i, n in enumerate(vec):
                if n:
                    for j in bits(rows[i]):
                        nxt[j] += n
            yield letter, tuple(min(cap, n) for n in nxt)

    return shortest_word([start], step,
                         lambda vec: sum(vec[j] for j in finals) >= cap)


# -- aperiodicity -----------------------------------------------------------


def _image(rows, mask):
    """The union of rows[i] over the positions i set in mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


class TransitionMonoid:
    """The semigroup generated by the letters' boolean matrices (row i of a
    matrix is the bit mask of the positions it takes position i to),
    numbered breadth-first as the closure finds it: first the distinct
    letter matrices in letter order, then every product the first time it
    appears.  by_rows[e] is element e as the tuple of its rows' numbers
    in `rows`, the distinct row masks.  right[e][g] is the number of
    element e times letter g's matrix, one entry per letter, so `right`
    is the right Cayley table.  parent[e] is (p, g) with element e equal
    to element p times letter g, and p None for a letter's own matrix;
    following it back spells a shortest word of e.  len() is the element
    count, read off `right`."""

    __slots__ = ("rows", "by_rows", "right", "parent")

    def __init__(self, rows, by_rows, right, parent):
        self.rows, self.by_rows = rows, by_rows
        self.right, self.parent = right, parent

    def __len__(self):
        return len(self.right)

    def word(self, e):
        """The letter indices of element e's shortest word, in order."""
        word = []
        while e is not None:
            e, g = self.parent[e]
            word.append(g)
        word.reverse()
        return word


def transition_monoid(nfa) -> TransitionMonoid:
    """Closure of the per-letter boolean matrices under composition, with
    its right Cayley table, over interned rows: each distinct row mask is
    numbered (the singletons first) and its image under each letter is
    computed once.  An element is the tuple of its rows' numbers, its
    product with a letter one lookup per row."""
    gens, n = nfa.masks, len(nfa.order)
    rows = [1 << i for i in range(n)]
    row_number = {m: r for r, m in enumerate(rows)}
    img = [[] for _ in gens]        # img[g][r]: the number of rows[r] . g
    for mask in rows:               # rows grows in the loop
        for g, gen in enumerate(gens):
            out = _image(gen, mask)
            r = row_number.setdefault(out, len(rows))
            if r == len(rows):
                rows.append(out)
            img[g].append(r)
    number, elements, parent = {}, [], []
    for g, step in enumerate(img):
        matrix = tuple(step[:n])
        if number.setdefault(matrix, len(elements)) == len(elements):
            elements.append(matrix)
            parent.append((None, g))
    steps = [step.__getitem__ for step in img]
    right = []
    for e, matrix in enumerate(elements):   # elements grows in the loop
        out = []
        for g, step in enumerate(steps):
            product = tuple(map(step, matrix))
            f = number.setdefault(product, len(elements))
            if f == len(elements):
                elements.append(product)
                parent.append((e, g))
            out.append(f)
        right.append(tuple(out))
    return TransitionMonoid(tuple(rows), tuple(elements), tuple(right),
                            tuple(parent))


def _power_cycle(monoid: TransitionMonoid, e):
    """(index, period, powers) of element e: e^index is the first power
    that comes back, and it comes back every period-th power; powers
    lists e, e^2, ... up to the last power before the first repeat.

    Powers are read off the right Cayley table: e^(t+1) is e^t walked
    along e's word, one table lookup per letter.  The closure's row
    images are the only products; the walk costs |word(e)| lookups per
    power and stops at the first power it has seen."""
    word, power, seen, right = monoid.word(e), e, {}, monoid.right
    while power not in seen:
        seen[power] = len(seen) + 1     # the exponent of this power
        for g in word:
            power = right[power][g]
    return seen[power], len(seen) + 1 - seen[power], seen


def _aperiodicity(monoid: TransitionMonoid):
    """(index, None) when every element's powers settle, index the least
    m >= 1 with e^m = e^(m+1) for all e; else (None, (e, period)) for the
    first element e whose powers cycle with period > 1.

    The elements are walked in their breadth-first order, skipping every
    power of an element already walked: if e^m = e^(m+1), then e^j
    settles by power ceil(m/j) <= m, also with period 1, so a skipped
    element moves neither the index nor the first element that cycles."""
    worst, walked = 1, bytearray(len(monoid))
    for e in range(len(monoid)):
        if walked[e]:
            continue
        index, period, powers = _power_cycle(monoid, e)
        if period > 1:
            return None, (e, period)
        worst = max(worst, index)
        for p in powers:
            walked[p] = 1
    return worst, None


def aperiodicity_index(a):
    """Least m >= 1 with e^m = e^(m+1) for every transition-monoid element,
    or None when some element's powers cycle with period > 1."""
    return _aperiodicity(transition_monoid(underlying_nfa(a)))[0]


def aperiodicity_witness(a):
    """(word, period) for the first transition-monoid element whose powers
    end in a cycle of period > 1, or None when the automaton is aperiodic:
    word is the element's shortest word, as letters.  Elements are
    numbered breadth-first, so no shorter word has powers that cycle."""
    nfa = underlying_nfa(a)
    monoid = transition_monoid(nfa)
    cycling = _aperiodicity(monoid)[1]
    if cycling is None:
        return None
    e, period = cycling
    return tuple(nfa.letters[g] for g in monoid.word(e)), period


# -- closure constructions --------------------------------------------------


def weighted_union(a: WeightedAutomaton, b: WeightedAutomaton) -> WeightedAutomaton:
    """State-disjoint union on the part reachable from the initial states:
    a state is (tag, position), tag 0 for a and 1 for b, the position in
    that input's `order`.  Unreachable input states are dropped."""
    if a.nfa.alphabet != b.nfa.alphabet:
        raise InputError("union requires a common alphabet")
    parts = (a, b)
    finals = [wa.nfa.mask(wa.nfa.final) for wa in parts]

    def step(state):
        tag, i = state
        nfa, weights = parts[tag].nfa, parts[tag].weights
        for letter, out in zip(nfa.letters, nfa.succ):
            for d, t in out[i]:
                yield letter, (tag, d), weights[t]

    return WeightedAutomaton.from_weights(*reachable_nfa(
        [(tag, wa.nfa.pos[q]) for tag, wa in enumerate(parts)
         for q in wa.nfa.initial],
        step, a.nfa.letters, lambda s: finals[s[0]] >> s[1] & 1))


def reachable_states(nfa: Nfa):
    """The positions of the states reachable from an initial one."""
    starts = [nfa.pos[s] for s in nfa.initial]
    forward = explore(starts, lambda i: (
        (j, d) for j, out in enumerate(nfa.succ) for d, _ in out[i]))
    return set(starts).union(d for (_, _, d) in forward)


def _distances(preds, targets):
    """Breadth-first distance from each state 1..n to the nearest state in
    targets, read backward along preds; -1 where no target is reachable."""
    dist = [-1] * len(preds)
    for s in targets:
        dist[s] = 0
    frontier, layer = targets, 0
    while frontier:
        layer += 1
        reached = []
        for d in frontier:
            for s in preds[d]:
                if dist[s] < 0:
                    dist[s] = layer
                    reached.append(s)
        frontier = reached
    return dist


def _coreachable(rows, n, targets):
    """The states 0..n-1 of a bit-mask automaton (rows[j][i]: the mask of
    the states that state i reaches on letter j) that reach the mask
    targets, as a mask: `_distances` with state i as its state i + 1."""
    preds = [[] for _ in range(n + 1)]
    for row in rows:
        for s, mask in enumerate(row, 1):
            while mask:
                low = mask & -mask
                preds[low.bit_length()].append(s)
                mask ^= low
    dist = _distances(preds, [i + 1 for i in bits(targets)])
    return sum(1 << s - 1 for s, d in enumerate(dist) if d >= 0)


def coreachable_states(nfa: Nfa):
    """The positions of the states some word takes to a final state (the
    final states included)."""
    return set(bits(_coreachable(nfa.masks, len(nfa.order),
                                 nfa.mask(nfa.final))))


def restrict(nfa: Nfa, keep):
    """The part of nfa on the positions `keep` that its initial states
    reach inside them (all of them when keep holds the states on
    accepting runs), and the number in nfa of each of its transitions."""
    pos, order = nfa.pos, nfa.order

    def step(s):
        for letter, out in zip(nfa.letters, nfa.succ):
            for d, t in out[pos[s]]:
                if d in keep:
                    yield letter, order[d], t

    sub, numbers = reachable_nfa([q for q in nfa.initial if pos[q] in keep],
                                 step, nfa.letters, nfa.final.__contains__)
    sub.accepting = {k: v.intersection(sub.states)
                     for k, v in nfa.accepting.items()}
    return sub, numbers


def trim(a):
    """Restriction to states both reachable and co-reachable."""
    nfa = underlying_nfa(a)
    sub, numbers = restrict(nfa,
                            reachable_states(nfa) & coreachable_states(nfa))
    return sub if nfa is a else WeightedAutomaton.from_weights(
        sub, map(a.weights.__getitem__, numbers))
