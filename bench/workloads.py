"""The three workloads: their input files and their job lists.

A job is one `wfoc` command line, run in-process as `wfoc.cli.main(argv)`
from the child's work directory, with its outputs under `out/<index>/`.
Each job carries its oracle (see oracles.py) and whether its input is
fixed (the same for every seed, so its output digest is compared with
`reference_digests.json`); all share the wall-clock budget JOB_BUDGET_S.
Two jobs are known limits of the program at the commit that defined the
benchmark.  They stay in their workloads but run after the timed pass, and
count as known failures only while they fail with the status they are
marked with; lifting the limit shows in ok_ratio.

Why these workloads:
- compile puts nearly all time in wfo_compiler and fo_compiler (and the
  state_key sorts in Nfa.out and canonical_relabel), with no aperiodicity
  or multiset work; the chain-N points carry the cubic growth.
- analyze puts the time in aperiodicity_index / transition_monoid (tologic
  calls them 3x, classify 1x, decompose per stage and part) and in the
  run-tracker construction; no wFO compilation and no multisets.
- semantics puts the time in abstract_semantics, SeqMultiset and the
  aggregators; memory grows with ambiguity.  Its round trips are compiled
  during set-up, so no compiler work is timed.
`automata` is used differently by each: many short-lived Nfa objects
(compile), the same few automata queried many times (analyze), long
forward passes (semantics).
"""

import os
import shutil

import corpus
import gen
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
NAMES = ("compile", "analyze", "semantics")

JOB_BUDGET_S = 30.0

# memory budget of a workload's child process (RLIMIT_AS); the semantics
# budget is what stops the blockmax (abc)^100 multiset
MEMORY_MB = {"compile": 1024, "analyze": 1024, "semantics": 256}

EVAL_MODES = (
    ("abstract", []),
    ("natural", ["--semiring", "natural"]),
    ("boolean", ["--semiring", "boolean"]),
    ("minplus", ["--semiring", "minplus"]),
    ("maxplus", ["--semiring", "maxplus"]),
    ("languages", ["--semiring", "languages"]),
    ("multiset", ["--semiring", "multiset"]),
    ("ma", ["--aggregator", "ma"]),
)
# sum-product over these two carriers unions values pairwise, quadratic in
# the number of sequences: blockmax gets 10 blocks there instead of 14
QUADRATIC_MODES = ("languages", "multiset")


class Job:
    def __init__(self, job_id, argv, check, fixed=False, limit=None):
        self.id = job_id
        self.argv = argv
        self.check = check      # fn(result, results_by_id) -> None | reason
        self.fixed = fixed
        # known limit at the defining commit, or None: (the status prefix
        # the job fails with, why)
        self.limit = limit
        self.outdir = None

    @property
    def command(self):
        return self.argv[0]


class Builder:
    """Collects jobs and writes input files under in/ of the work dir."""

    def __init__(self, run_cli):
        self.run_cli = run_cli
        self.jobs = []
        os.makedirs("in", exist_ok=True)

    def write(self, name, text):
        path = os.path.join("in", name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def cli(self, argv):
        """Set-up through the program itself; must succeed."""
        rc, _out, err = self.run_cli(argv)
        if rc != 0:
            raise RuntimeError("set-up step %r failed: %s" % (argv, err))

    def add(self, job_id, argv, check, **kw):
        job = Job(job_id, argv, check, **kw)
        job.outdir = os.path.join("out", str(len(self.jobs)))
        os.makedirs(job.outdir, exist_ok=True)
        job.argv = [a.replace("{out}", job.outdir) for a in argv]
        self.jobs.append(job)
        return job


def _chain_words(n, rng, count=3):
    """Words of the accepted shape plus one word one letter a short."""
    return ([gen.chain_word(n, rng, rng.randint(0, 4)) for _ in range(count)]
            + [gen.chain_word(n - 1, rng, 2)])


def build(workload, rng, run_cli):
    b = Builder(run_cli)
    {"compile": _compile, "analyze": _analyze,
     "semantics": _semantics}[workload](b, rng)
    return b.jobs


def _compile(b, rng):
    plain = {}
    for name in corpus.TRANSLATABLE:
        wa = b.write(name + ".wa", corpus.CORPUS[name])
        b.cli(["tologic", "--automaton", wa, "-o", "in/%s.wfo" % name])
        with open("in/%s.wfo" % name, encoding="utf-8") as handle:
            formula = handle.read()
        words = oracles.short_words(oracles.Aut(corpus.CORPUS[name]).alphabet)
        plain[name] = b.add(
            "compile/" + name,
            ["compile", "--formula", "in/%s.wfo" % name, "-o", "{out}/out.wa"],
            lambda res, _all, f=formula, w=words:
                oracles.check_compile(res, f, w),
            fixed=True)
    for n in (10, 20, 30):
        text = gen.chain(n, rng)
        wa = b.write("chain-%d.wa" % n, text)
        b.cli(["tologic", "--automaton", wa, "-o", "in/chain-%d.wfo" % n])
        b.add("compile/chain-%d" % n,
              ["compile", "--formula", "in/chain-%d.wfo" % n,
               "-o", "{out}/out.wa"],
              lambda res, _all, t=text, w=_chain_words(n, rng):
                  oracles.check_compile(res, None, w, same_as=t))
    for i in range(40):
        text = gen.random_wfo(rng, gen.AB, rng.randint(3, 5), 2)
        path = b.write("random-%02d.wfo" % i, text)
        b.add("compile/random-%02d" % i,
              ["compile", "--formula", path, "--alphabet", "a,b",
               "-o", "{out}/out.wa"],
              lambda res, _all, f=text, w=oracles.short_words(gen.AB):
                  oracles.check_compile(res, f, w))
    for name in corpus.TRANSLATABLE:
        if name == "triplerun":
            continue     # --report recompiles every subterm: 18 s here
        b.add("report/" + name,
              ["compile", "--report", "--formula", "in/%s.wfo" % name,
               "-o", "{out}/out.wa"],
              lambda res, results, j=plain[name].id: oracles.check_report(
                  res, results[j].files[0][1] if results[j].files else None),
              fixed=True)
    shutil.copy(os.path.join(HERE, "inputs", "chain300.wfo"), "in")
    with open(os.path.join(HERE, "inputs", "chain300.wa"),
              encoding="utf-8") as handle:
        chain300 = handle.read()
    b.add("compile/chain-300",
          ["compile", "--formula", "in/chain300.wfo", "-o", "{out}/out.wa"],
          lambda res, _all, t=chain300, w=_chain_words(300, rng, 1):
              oracles.check_compile(res, None, w, same_as=t),
          fixed=True, limit=("RecursionError", "parser recursion"))


def _analyze(b, rng):
    # (name, text, class, index, translatable, decomposable, tologic words,
    #  decompose words, fixed input)
    subjects = []
    for name, text in corpus.CORPUS.items():
        kind, index = corpus.CLASSIFY[name]
        words = oracles.short_words(oracles.Aut(text).alphabet)
        subjects.append((name, text, kind, index, name in corpus.TRANSLATABLE,
                         name in corpus.DECOMPOSABLE, words, words, True))
    for n in (60, 100, 150):
        words = _chain_words(n, rng, 2)
        # the brute-force evaluator needs seconds per word at this length
        subjects.append(("chain-%d" % n, gen.chain(n, rng), "unambiguous", n,
                         True, True, words[:1], words, False))
    for k, n in ((3, 10), (3, 15), (4, 6)):
        # tologic writes one sum binder per a-transition of each chain and
        # the evaluator tries all |w|^(n-1) valuations: sweep the short
        # words it handles quickly, plus a^(n-1) where that is cheap
        longest = max(l for l in range(1, 6) if 2 ** l * l ** (n - 1) <= 20000)
        twords = list(oracles.words_upto(gen.AB, longest))
        if (n - 1) ** (n - 1) <= 4096:
            twords.append("a" * (n - 1))
        subjects.append(("union-%dx%d" % (k, n), gen.chain_union(k, n, rng),
                         "finite", n, True, True, twords,
                         _chain_words(n, rng, 2), False))
    for name, text, kind, index, translatable, decomposable, twords, dwords, \
            fixed in subjects:
        wa = b.write(name + ".wa", text)
        b.add("classify/" + name, ["classify", "--automaton", wa],
              lambda res, _all, k=kind, i=index:
                  oracles.check_classify(res, k, i),
              fixed=fixed)
        b.add("tologic/" + name,
              ["tologic", "--automaton", wa, "-o", "{out}/out.wfo"],
              lambda res, _all, t=text, w=twords, r=not translatable:
                  oracles.check_tologic(res, t, w, r),
              fixed=fixed)
        b.add("decompose/" + name,
              ["decompose", "--automaton", wa, "-o", "{out}/parts"],
              lambda res, _all, t=text, w=dwords, r=not decomposable:
                  oracles.check_decompose(res, t, w, r),
              fixed=fixed)


def _semantics(b, rng):
    for name, text in corpus.CORPUS.items():
        wa = b.write(name + ".wa", text)
        long_word = gen.eval_word(name, rng)
        short_word = gen.eval_word(name, rng, blocks=10) \
            if name == "blockmax" else long_word
        for mode, flags in EVAL_MODES:
            word = short_word if mode in QUADRATIC_MODES else long_word
            b.add("eval/%s/%s" % (name, mode),
                  ["eval", "--automaton", wa, "--word", word] + flags,
                  lambda res, _all, t=text, w=word, m=mode:
                      oracles.check_eval(res, t, w, m))
    for name in corpus.TRANSLATABLE:
        text = corpus.CORPUS[name]
        wa = "in/%s.wa" % name
        b.cli(["tologic", "--automaton", wa, "-o", "in/rt-%s.wfo" % name])
        b.cli(["compile", "--formula", "in/rt-%s.wfo" % name,
               "-o", "in/rt-%s.wa" % name])
        b.add("equiv/roundtrip-" + name,
              ["equiv", "--a", wa, "--b", "in/rt-%s.wa" % name],
              lambda res, _all: oracles.check_equiv(
                  res, 0, "EQUIV up to %d\n" % oracles.EQUIV_MAXLEN),
              fixed=True)
        perturbed = gen.perturb(text, rng, oracles.EQUIV_MAXLEN)
        pt = b.write("pt-%s.wa" % name, perturbed)
        b.add("equiv/perturbed-" + name, ["equiv", "--a", wa, "--b", pt],
              lambda res, _all, x=text, y=perturbed: oracles.check_equiv(
                  res, *oracles.expected_equiv(x, y)))
    # 2^100 sequences: runs into the memory budget until eval stops
    # materialising the multiset
    b.add("eval/blockmax/abc100",
          ["eval", "--automaton", "in/blockmax.wa", "--word", "abc" * 100,
           "--semiring", "maxplus"],
          lambda res, _all: oracles.check_value(res, "100"),
          fixed=True, limit=("out of memory budget",
                            "abstract multiset of 2^100 sequences"))
