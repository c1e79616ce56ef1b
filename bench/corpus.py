"""The benchmark's own copy of the eleven example automata.

The texts are frozen here so that edits to the test fixtures cannot change
what the benchmark measures.  Each entry also records the answers known for
it by construction: its ambiguity class and aperiodicity index as
`classify` prints them, whether `tologic` translates it, and whether
`decompose` accepts it (finitely ambiguous) or refuses it.
"""

# four-state machine whose runs pick one switch point per letter block
SWITCHPOINTS = """
alphabet: a b
states: 1 2 3 4
initial: 1
final: 4
trans: 1 a 1 2
trans: 1 a 2 1
trans: 2 a 2 3
trans: 2 a 3 5
trans: 3 b 2 3
trans: 3 b 3 5
trans: 3 b 4 1
trans: 4 b 4 2
"""

# two modes looping on a, handing over on b/c; single accepting sink
MODEBLOCKS = """
alphabet: a b c
states: 1 2 3
initial: 1 2
final: 3
trans: 1 a 1 2
trans: 1 b 1 1
trans: 1 b 2 1
trans: 1 b 3 1
trans: 2 a 2 3
trans: 2 c 1 1
trans: 2 c 2 1
trans: 2 c 3 1
"""

# exactly three accepting runs on a^n a^3 b b^p
TRIPLERUN = """
alphabet: a b
states: 1 2 3 4 5 6
initial: 1
final: 6
trans: 1 a 1 2
trans: 1 a 2 2
trans: 1 a 3 1
trans: 2 a 4 1
trans: 2 a 5 3
trans: 3 a 5 5
trans: 4 a 6 4
trans: 5 b 6 3
trans: 6 b 6 3
"""

# run count on a^n is the n-th Fibonacci number
FIBONACCI = """
alphabet: a
states: 1 2
initial: 1
final: 2
trans: 1 a 1 1
trans: 1 a 2 1
trans: 2 a 1 1
"""

# per c-separated block, pick the a-counting or the b-counting state
BLOCKMAX = """
alphabet: a b c
states: 1 2
initial: 1 2
final: 1 2
trans: 1 a 1 1
trans: 1 b 1 0
trans: 1 c 1 0
trans: 1 c 2 0
trans: 2 a 2 0
trans: 2 b 2 1
trans: 2 c 2 0
trans: 2 c 1 0
"""

# two parallel counters, never interacting
COUNTMINMAX = """
alphabet: a b
states: 1 2
initial: 1 2
final: 1 2
trans: 1 a 1 1
trans: 1 b 1 0
trans: 2 a 2 0
trans: 2 b 2 1
"""

# 2^(#a) on one state, 3^(#b) on the other
EXPSUM = """
alphabet: a b
states: 1 2
initial: 1 2
final: 1 2
trans: 1 a 1 2
trans: 1 b 1 1
trans: 2 a 2 1
trans: 2 b 2 3
"""

# n runs on a^n, value n over the natural semiring
LINEARCOUNT = """
alphabet: a
states: 1 2
initial: 1
final: 2
trans: 1 a 1 1
trans: 1 a 2 1
trans: 2 a 2 1
"""

# max over splits w = uv of (count of a in u) + (count of b in v)
SPLITMAX = """
alphabet: a b
states: 1 2
initial: 1
final: 1 2
trans: 1 a 1 1
trans: 1 a 2 1
trans: 1 b 1 0
trans: 1 b 2 1
trans: 2 a 2 0
trans: 2 b 2 1
"""

# min over splits w = uv of (count of a in u) + (count of b in v)
SPLITMIN = """
alphabet: a b
states: 1 2
initial: 1
final: 1 2
trans: 1 a 1 1
trans: 1 a 2 0
trans: 1 b 1 0
trans: 1 b 2 0
trans: 2 a 2 0
trans: 2 b 2 1
"""

# length of the shortest a-gap between two b's, infinity if none
MINGAP = """
alphabet: a b
states: 1 2 3
initial: 1
final: 3
trans: 1 a 1 0
trans: 1 b 1 0
trans: 1 b 2 0
trans: 2 a 2 1
trans: 2 b 3 0
trans: 3 a 3 0
trans: 3 b 3 0
"""

CORPUS = {
    "switchpoints": SWITCHPOINTS,
    "modeblocks": MODEBLOCKS,
    "triplerun": TRIPLERUN,
    "fibonacci": FIBONACCI,
    "blockmax": BLOCKMAX,
    "countminmax": COUNTMINMAX,
    "expsum": EXPSUM,
    "linearcount": LINEARCOUNT,
    "splitmax": SPLITMAX,
    "splitmin": SPLITMIN,
    "mingap": MINGAP,
}

# name -> (ambiguity class, aperiodicity index) as `classify` prints them
CLASSIFY = {
    "switchpoints": ("polynomial (SCC-unambiguous)", 2),
    "modeblocks": ("unambiguous", 1),
    "triplerun": ("finite", 3),
    "fibonacci": ("exponential", 2),
    "blockmax": ("exponential", 1),
    "countminmax": ("finite", 1),
    "expsum": ("finite", 1),
    "linearcount": ("polynomial (SCC-unambiguous)", 1),
    "splitmax": ("polynomial (SCC-unambiguous)", 1),
    "splitmin": ("polynomial (SCC-unambiguous)", 1),
    "mingap": ("polynomial (SCC-unambiguous)", 2),
}

# exponentially ambiguous automata are not SCC-unambiguous: tologic refuses
TRANSLATABLE = tuple(n for n in CORPUS
                     if CLASSIFY[n][0] != "exponential")

# only finitely ambiguous automata split into unambiguous parts
DECOMPOSABLE = tuple(n for n in CORPUS
                     if CLASSIFY[n][0] in ("unambiguous", "finite"))
