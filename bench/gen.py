"""Seeded input generators.

Every input file the benchmark hands the program is produced here from a
`random.Random` seeded by `--seed`: transition weights, words, formulas and
perturbations.  The one exception is the fixed chain-300 input (see
`inputs/make_chain300.py`).  Formulas are written as text in the concrete
syntax, not built through the program's own AST and serializer, so a change
to the program cannot change its inputs.
"""

from collections import deque

AB = ("a", "b")


def automaton_text(alphabet, states, initial, final, trans):
    """Text format of a weighted automaton; trans is [(src, letter, dst, w)]."""
    lines = ["alphabet: " + " ".join(alphabet),
             "states: " + " ".join(str(s) for s in states),
             "initial: " + " ".join(str(s) for s in initial),
             "final: " + " ".join(str(s) for s in final)]
    lines += ["trans: %s %s %s %s" % t for t in trans]
    return "\n".join(lines) + "\n"


def _chain_trans(n, rng, offset=0):
    trans = [(offset + i, "a", offset + i + 1, rng.randrange(4))
             for i in range(1, n)]
    trans += [(offset + i, "b", offset + i, rng.randrange(4))
              for i in range(1, n + 1)]
    return trans


def chain(n, rng):
    """chain-N: states 1..N over {a, b}, transitions `i a i+1` and `i b i`,
    initial 1, final N, weights drawn from 0..3.  It accepts exactly the
    words with N-1 letters a, each on one run; it is unambiguous and its
    aperiodicity index is N (a^(N-1) is non-zero, a^N is zero)."""
    return automaton_text(AB, range(1, n + 1), [1], [n], _chain_trans(n, rng))


def chain_union(k, n, rng):
    """k state-disjoint chain-n copies with independent weights: every
    accepted word has exactly k runs, so the union is finitely (not
    un-) ambiguous for k >= 2, with aperiodicity index n."""
    trans = []
    for c in range(k):
        trans += _chain_trans(n, rng, c * n)
    return automaton_text(AB, range(1, k * n + 1),
                          [c * n + 1 for c in range(k)],
                          [c * n + n for c in range(k)], trans)


def chain_word(n, rng, extra_b):
    """A word chain-n accepts: n-1 letters a and extra_b letters b."""
    word = ["a"] * (n - 1) + ["b"] * extra_b
    rng.shuffle(word)
    return "".join(word)


def random_wfo(rng, letters, depth, max_sums):
    """A random wFO sentence as formula-file text, fully parenthesised.

    Same distribution as the test suite's generator: `zero` and `prod` at
    the leaves, `?:`, `+` and at most max_sums `sum` binders inside, step
    formulas of constants and `?:`, and FO conditions over the variables in
    scope."""
    names = iter(range(1, 10 ** 6))
    sums = [0]

    def fresh():
        return "v%d" % next(names)

    def fo(scope, d):
        atoms = ["true", "false"] + (["letter", "cmp"] if scope else [])
        kind = rng.choice(atoms if d <= 0 else atoms + [
            "not", "and", "or", "implies", "forall", "exists"])
        if kind in ("true", "false"):
            return kind
        if kind == "letter":
            return "P%s(%s)" % (rng.choice(letters), rng.choice(scope))
        if kind == "cmp":
            return "%s%s%s" % (rng.choice(scope), rng.choice(["<=", "<", "="]),
                               rng.choice(scope))
        if kind == "not":
            return "!(%s)" % fo(scope, d - 1)
        if kind in ("and", "or", "implies"):
            op = {"and": "&", "or": "|", "implies": "->"}[kind]
            return "(%s) %s (%s)" % (fo(scope, d - 1), op, fo(scope, d - 1))
        var = fresh()
        return "%s %s. (%s)" % ("forall" if kind == "forall" else "exists",
                                var, fo(scope + [var], d - 1))

    def step(scope, d):
        if d <= 0 or rng.random() < 0.4:
            return str(rng.randrange(4))
        return "(%s) ? (%s) : (%s)" % (fo(scope, d - 1), step(scope, d - 1),
                                       step(scope, d - 1))

    def wfo(scope, d):
        kinds = ["zero", "prod"]
        if d > 0:
            kinds += ["ite", "plus"] + (["sum"] if sums[0] < max_sums else [])
        kind = rng.choice(kinds)
        if kind == "zero":
            return "zero"
        if kind == "prod":
            var = fresh()
            return "prod %s. (%s)" % (var, step(scope + [var], max(d - 1, 0)))
        if kind == "ite":
            return "(%s) ? (%s) : (%s)" % (fo(scope, d - 1), wfo(scope, d - 1),
                                           wfo(scope, d - 1))
        if kind == "plus":
            return "(%s) + (%s)" % (wfo(scope, d - 1), wfo(scope, d - 1))
        sums[0] += 1
        var = fresh()
        return "sum %s. (%s)" % (var, wfo(scope + [var], d - 1))

    return wfo([], depth) + "\n"


def _random_ab(rng, n, letters=AB):
    return "".join(rng.choice(letters) for _ in range(n))


def _scatter(rng, n, k, letter, rest="a"):
    """A word of length n with `letter` at k random positions."""
    word = [rest] * n
    for i in rng.sample(range(n), k):
        word[i] = letter
    return "".join(word)


def eval_word(name, rng, blocks=14):
    """A long word of a shape the corpus automaton `name` accepts.

    The seed picks the letters; the sizes that set the cost (length, runs,
    distinct sequences) stay within a few percent of fixed values, so that
    one seed costs the program about as much as another.  The multisets
    stay in the thousands of sequences, except blockmax: 2^blocks."""
    r = rng.randint
    if name == "switchpoints":
        # (m-1)p runs, flat around m = p = 30
        m = r(27, 33)
        return "a" * m + "ba" * r(9, 11) + "b" * (60 - m)
    if name == "modeblocks":
        return "".join("a" * r(0, 5) + rng.choice("bc") for _ in range(60))
    if name == "triplerun":
        n = r(50, 70)
        return "a" * n + "aaab" + "b" * (120 - n)
    if name in ("fibonacci", "linearcount"):
        return "a" * r(245, 255)
    if name == "blockmax":
        sizes = [1 + i % 4 for i in range(blocks)]
        rng.shuffle(sizes)
        return "c".join(_random_ab(rng, k) for k in sizes)
    if name in ("countminmax", "expsum"):
        return _random_ab(rng, r(245, 255))
    if name in ("splitmax", "splitmin"):
        return _random_ab(rng, r(195, 205))
    if name == "mingap":
        # a run per pair of consecutive b's: 66 b's, 65 runs
        return _scatter(rng, 200, 66, "b")
    raise KeyError(name)


def _parse_trans(text):
    head, trans = {}, []
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        if key == "trans":
            s, a, d, w = rest.split()
            trans.append((s, a, d, int(w)))
        elif key:
            head[key] = rest.split()
    return head, trans


def _distances(start, edges):
    dist = {s: 0 for s in start}
    work = deque(start)
    while work:
        s = work.popleft()
        for d in edges.get(s, ()):
            if d not in dist:
                dist[d] = dist[s] + 1
                work.append(d)
    return dist


def perturb(text, rng, maxlen):
    """Copy of an automaton with one weight changed by 1..3, on a transition
    that lies on an accepting run of length at most maxlen, so that the
    change is visible to a bounded `equiv` sweep."""
    head, trans = _parse_trans(text)
    fwd, bwd = {}, {}
    for s, _a, d, _w in trans:
        fwd.setdefault(s, []).append(d)
        bwd.setdefault(d, []).append(s)
    before = _distances(head["initial"], fwd)
    after = _distances(head["final"], bwd)
    usable = [i for i, (s, _a, d, _w) in enumerate(trans)
              if s in before and d in after
              and before[s] + 1 + after[d] <= maxlen]
    pick = rng.choice(usable)
    s, a, d, w = trans[pick]
    trans[pick] = (s, a, d, w + rng.randint(1, 3))
    return automaton_text(head["alphabet"], head["states"], head["initial"],
                          head["final"], trans)
