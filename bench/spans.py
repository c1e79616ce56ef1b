"""Span tracing from outside the program.

`Tracer.install` wraps the public functions of each layer (a module of
`src/wfoc`) and rebinds every name that refers to them in every loaded
`wfoc` module, plus `Nfa.out` and `SeqMultiset.pretty` on their classes.
A wrapper records one span per call: function, start, end, parent span,
job, the exception type when the call raised, and the MEASURES counters.
Spans are timed by the clock the tracer is given and stay in memory; after
the pass `rescale` maps their times to reference seconds (see clock.py),
`layer_metrics` derives the per-layer numbers from them and `dump` writes
them out.  Self time is a span's duration minus the time its
child spans cover.  Very hot helpers (the ones in SKIP, and generators,
whose call returns before any work) are not wrapped.
"""

import gzip
import importlib
import inspect
from array import array
import json
import sys

LAYERS = ("cli", "textfmt", "logic.parser", "wa_to_wfo", "wfo_compiler",
          "fo_compiler", "automata", "decompose", "semantics", "multiset")

METHODS = {"automata": (("Nfa", "out"),),
           "multiset": (("SeqMultiset", "pretty"),)}

# called per state or per letter, or only once at import: wrapping them would
# mostly measure the wrapper
SKIP = {"automata.state_key", "automata.letter_key", "automata.underlying_nfa",
        "textfmt.render_letter", "textfmt.parse_letter",
        "semantics.builtin_semiring", "cli.build_parser"}


def _states(a):
    nfa = getattr(a, "nfa", a)
    return len(nfa.states)


def _nfa_key(a):
    return hash(getattr(a, "nfa", a)._canon())


def _args_key(args):
    try:
        return hash(args)
    except TypeError:
        return hash(repr(args))


# counters taken at a function's boundary: name -> (fields, fn(args, result))
# where fn returns one value per field; "key" values are collected into a
# set to give the share of distinct calls
MEASURES = {
    "wfo_compiler.compile_product": (("out_states",), lambda a, r: (_states(r),)),
    "wfo_compiler.compile_ite": (("out_states",), lambda a, r: (_states(r),)),
    "wfo_compiler.compile_sum_var": (("out_states",), lambda a, r: (_states(r),)),
    "decompose.build_a_geq_k": (("out_states",), lambda a, r: (_states(r),)),
    "fo_compiler.minimize": (("in_states", "out_states"),
                             lambda a, r: (_states(a[0]), _states(r))),
    "fo_compiler.compile_fo": (("key",), lambda a, r: (_args_key(a),)),
    "automata.aperiodicity_index": (("key",), lambda a, r: (_nfa_key(a[0]),)),
    "automata.transition_monoid": (("elements",), lambda a, r: (len(r),)),
    "automata.abstract_semantics": (("sequences",), lambda a, r: (len(r),)),
}


class Tracer:
    def __init__(self, now):
        self.now = now
        self.names = []                  # function id -> "layer.qualname"
        # one entry per span, in call order; arrays keep a pass of a few
        # hundred thousand spans within the workload's memory budget
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.errors = {}                 # span -> exception type name
        self.counters = {}               # span -> MEASURES values
        self.stack = []
        self.job = -1
        self.saved = []      # (owner, attribute, original) to undo install

    def _wrapper(self, fid, fn, measure):
        fids, starts, ends = self.fid, self.start, self.end
        parents, jobs, stack = self.parent, self.job_of, self.stack
        clock = self.now

        def traced(*args, **kwargs):
            idx = len(fids)
            try:
                fids.append(fid)
                parents.append(stack[-1] if stack else -1)
                jobs.append(self.job)
                starts.append(0.0)
                ends.append(0.0)
            except MemoryError:   # keep the arrays aligned for later spans
                for column in (fids, parents, jobs, starts, ends):
                    del column[idx:]
                raise
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if measure is not None:
                self.counters[idx] = measure[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("wfoc." + layer)
            targets = [(name, obj) for name, obj in vars(mod).items()
                       if inspect.isfunction(obj)
                       and obj.__module__ == mod.__name__
                       and not name.startswith("_")
                       and not inspect.isgeneratorfunction(obj)]
            for cls_name, meth in METHODS.get(layer, ()):
                targets.append(("%s.%s" % (cls_name, meth),
                                getattr(getattr(mod, cls_name), meth)))
            for qualname, fn in targets:
                full = "%s.%s" % (layer, qualname)
                if full in SKIP or id(fn) in wrappers:
                    continue
                self.names.append(full)
                wrappers[id(fn)] = (fn, self._wrapper(
                    len(self.names) - 1, fn, MEASURES.get(full)))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = getattr(cls, meth)
                self.saved.append((cls, meth, fn))
                setattr(cls, meth, wrappers[id(fn)][1])
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "wfoc" and not mod_name.startswith("wfoc."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self.saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved = []

    def rescale(self, reference):
        """Map every span's start and end through reference()."""
        for column in (self.start, self.end):
            for i, t in enumerate(column):
                column[i] = reference(t)

    def dump(self, path, job_ids):
        """Gzipped tab-separated spans, one per line after a header:
        name, start, end, parent line (-1: none), job, error, counters."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\tjob\terror\tcounters\n")
            for i, fid in enumerate(self.fid):
                name = self.names[fid]
                values = self.counters.get(i, ())
                counters = {f: v for f, v in zip(MEASURES[name][0], values)
                            if f != "key"} if values else {}
                job = self.job_of[i]
                out.write("%s\t%r\t%r\t%d\t%s\t%s\t%s\n" % (
                    name, self.start[i], self.end[i], self.parent[i],
                    job_ids[job] if job >= 0 else "-",
                    self.errors.get(i, "-"),
                    json.dumps(counters) if counters else "-"))

    def layer_metrics(self):
        """Calls and self time per function and per layer, the boundary
        counters of MEASURES, and refusals (HypothesisError leaving a
        layer), as a flat {metric name: value} dict."""
        layer_of = [max((l for l in LAYERS if name.startswith(l + ".")),
                        key=len) for name in self.names]
        n = len(self.names)
        calls, self_s, refusals = [0] * n, [0.0] * n, [0] * n
        for i, fid in enumerate(self.fid):
            duration = self.end[i] - self.start[i]
            calls[fid] += 1
            self_s[fid] += duration
            parent = self.parent[i]
            if parent >= 0:
                self_s[self.fid[parent]] -= duration
        for i, error in self.errors.items():
            parent = self.parent[i]
            if error == "HypothesisError" and (
                    parent < 0 or
                    layer_of[self.fid[parent]] != layer_of[self.fid[i]]):
                refusals[self.fid[i]] += 1
        sums = [{} for _ in range(n)]
        keys = [set() for _ in range(n)]
        for i, values in self.counters.items():
            fid = self.fid[i]
            for field, value in zip(MEASURES[self.names[fid]][0], values):
                if field == "key":
                    keys[fid].add(value)
                else:
                    sums[fid][field] = sums[fid].get(field, 0) + value
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = 0
            out[layer + ".self_s"] = 0.0
            out[layer + ".refusals"] = 0
        for fid, name in enumerate(self.names):
            layer = layer_of[fid]
            out[layer + ".calls"] += calls[fid]
            out[layer + ".self_s"] += self_s[fid]
            out[layer + ".refusals"] += refusals[fid]
            out[name + ".calls"] = calls[fid]
            out[name + ".self_s"] = self_s[fid]
            fields = MEASURES.get(name, ((),))[0]
            if "key" in fields:
                out[name + ".distinct_ratio"] = (
                    len(keys[fid]) / calls[fid] if calls[fid] else 0.0)
            if "in_states" in fields:
                seen = sums[fid].get("in_states", 0)
                out[name + ".kept_ratio"] = (
                    sums[fid].get("out_states", 0) / seen if seen else 0.0)
            elif "out_states" in fields:
                out[name + ".out_states"] = sums[fid].get("out_states", 0)
            for field in ("elements", "sequences"):
                if field in fields:
                    out["%s.%s" % (name, field)] = sums[fid].get(field, 0)
        return out
