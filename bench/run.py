"""Benchmark of the wfoc command line: one workload, one seed, one run.

    python3 bench/run.py --workload {compile,analyze,semantics} --seed N
                         --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
Every pass of the workload runs in a fresh child process (bench/worker.py):
set-up, then the timed pass, in which each job is one in-process
`wfoc.cli.main(argv)` call, exactly what a user runs minus interpreter
start.  Times are the child's CPU time.  Outputs are checked by independent
oracles outside the timed region, in the first child; later children, each
with another string-hash seed, must reproduce its output digests byte for
byte.

--trace 0 starts children until the next one would end after S seconds
(at least one) and reports the end-to-end metrics, medians over children.
--trace 1 runs one untraced and one traced child and reports the
per-layer metrics of the traced pass, with the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"} whose metrics are
the ones BENCHMARK.json lists for the chosen --trace.  `failed` counts
unexpected failures; the workloads' known limits (see workloads.py) are
named and counted in fail_ratio and ok_ratio instead.  The exit code is 0
whenever a result is printed, and non-zero without a result when the
checkout has no program to measure or a child cannot set up.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import clock
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
RUN_BUDGET_S = 170.0
COMMANDS = ("compile", "tologic", "classify", "decompose", "eval", "equiv")


class SetupFailed(Exception):
    pass


def spawn(workload, seed, run_dir, index, check, spans_path=None,
          timeout_s=RUN_BUDGET_S):
    """Run one child; returns (result dict or None, wall seconds, killed job
    id or None)."""
    workdir = os.path.join(run_dir, "child%d" % index)
    os.makedirs(workdir)
    result = os.path.join(run_dir, "child%d.jsonl" % index)
    # a different string-hash seed per child: outputs must not depend on it
    env = dict(os.environ, PYTHONHASHSEED=str(index))
    env.pop("WFOC_MAXLEN", None)      # equiv must use its default bound
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--workdir", workdir, "--result", result]
    if check:
        argv.append("--check")
    if spans_path:
        argv += ["--spans", spans_path]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=timeout_s)
        stderr = proc.stderr.decode(errors="replace")
    except subprocess.TimeoutExpired:
        stderr = "child killed after %.0f s\n" % timeout_s
    wall = time.monotonic() - start
    started = []
    if os.path.exists(result):
        with open(result, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "result" in record:
                    return record["result"], wall, None
                started.append(record["start"])
    if not started:
        raise SetupFailed("%s child could not set up:\n%s"
                          % (workload, stderr.strip()[-2000:]))
    sys.stderr.write(stderr[-2000:])
    return None, wall, started[-1]


def _killed_records(jobs_ref, killed):
    """Failure records for a child killed mid-pass, whose results are lost:
    one per job, naming the job it was running."""
    records = []
    status = "result lost: child killed later"
    for rec in jobs_ref:
        if rec["id"] == killed:
            status = "child killed while running it"
        records.append(dict(rec, digest=None, problem=None, limit=None,
                            status=status))
        if rec["id"] == killed:
            status = "not run: child killed"
    return records


def summarise(children, reference, others=()):
    """Fold child results into the end-to-end figures; `others` (traced or
    killed children) count for correctness and failures, not for timings."""
    first = children[0]
    records = [rec for child in children + list(others)
               for rec in child["jobs"]]
    unexpected = [r for r in records if r["problem"] or
                  (r["status"] != "ok" and not r["limit"])]
    known = [r for r in records if r["status"] != "ok" and r["limit"]]
    wrong = [r for r in first["jobs"] if r["problem"]]
    drifted_runs = []
    base = {r["id"]: r["digest"] for r in first["jobs"]}
    for child in children[1:] + list(others):
        for r in child["jobs"]:
            if r["digest"] and base.get(r["id"]) and r["digest"] != base[r["id"]]:
                drifted_runs.append(r["id"])
    fixed = {r["id"]: r["digest"] for r in first["jobs"] if r["fixed"]}
    checked = [j for j in fixed if reference.get(j)]
    matched = [j for j in checked if fixed[j] == reference[j]]
    job_s = {r["id"]: statistics.median(
        c["jobs"][i]["seconds"] for c in children)
        for i, r in enumerate(first["jobs"]) if r["timed"]}
    per_command = {}
    for cmd in COMMANDS:
        totals = [sum(r["seconds"] for r in c["jobs"]
                      if r["command"] == cmd and r["timed"])
                  for c in children]
        if any(totals):
            per_command[cmd] = statistics.median(totals)
    return {
        "children": len(children),
        "passes": [c["pass_s"] for c in children],
        "pass_s": statistics.median(c["pass_s"] for c in children),
        "pass_cpu_s": statistics.median(c["pass_cpu_s"] for c in children),
        "host_speed": [x for c in children for x in c["host_speed"]],
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "per_command": per_command,
        "slowest": sorted(job_s.items(), key=lambda kv: -kv[1])[:10],
        "out_states": sum(r["states"] for r in first["jobs"]),
        "out_transitions": sum(r["transitions"] for r in first["jobs"]),
        "attempted": len(records),
        "fail_ratio": (len(unexpected) + len(known)) / len(records),
        "unexpected": unexpected,
        "known": known,
        "wrong": wrong,
        "nondeterministic": drifted_runs,
        "hash_checked": len(checked),
        "hash_match": len(matched),
        "hash_drift": [j for j in checked if fixed[j] != reference[j]],
    }


def src_lines():
    out = {}
    for layer in spans.LAYERS:
        path = os.path.join(ROOT, "src", "wfoc", *layer.split(".")) + ".py"
        with open(path, encoding="utf-8") as handle:
            out[layer + ".lines"] = sum(1 for _ in handle)
    return out


def print_summary(workload, seed, trace, s):
    print("bench %s seed=%d trace=%d: %d child pass(es), %d jobs attempted"
          % (workload, seed, trace, s["children"], s["attempted"]))
    print("  pass_s by child: " + " ".join("%.3f" % p for p in s["passes"]))
    rows = [("setup_s", s["setup_s"], "s"),
            ("setup_cpu_s", s["setup_cpu_s"], "s, unscaled"),
            ("pass_s", s["pass_s"], "s"),
            ("pass_cpu_s", s["pass_cpu_s"], "s, unscaled"),
            ("host_sample", statistics.median(s["host_speed"]),
             "s, median (reference %g s)" % clock.REFERENCE_S)]
    rows += [("%s_s" % c, v, "s") for c, v in s["per_command"].items()]
    rows += [("peak_rss_mb", s["peak_rss_mb"], "MB"),
             ("out_states", s["out_states"], "count"),
             ("out_transitions", s["out_transitions"], "count"),
             ("fail_ratio", s["fail_ratio"], "failed/attempted"),
             ("hash_drift", len(s["hash_drift"]), "count"),
             ("hash_match", s["hash_match"], "count of %d" % s["hash_checked"])]
    for name, value, unit in rows:
        print("  %-16s %12.4f %s" % (name, value, unit) if isinstance(value, float)
              else "  %-16s %12d %s" % (name, value, unit))
    print("  slowest jobs (median s): " + ", ".join(
        "%s %.3f" % kv for kv in s["slowest"]))
    for kind, rows in (("known limit", s["known"]), ("FAILED", s["unexpected"])):
        seen = {}
        for r in rows:
            seen.setdefault(r["id"], r)
        for job_id, r in seen.items():
            print("  %-13s %s: %s%s" % (
                kind, job_id, r["problem"] or r["status"],
                " (%s; %.3f s CPU, after the pass)"
                % (r["limit"], r["seconds"]) if r["limit"] else ""))
    for j in s["hash_drift"]:
        print("  HASH DRIFT    %s" % j)
    for j in sorted(set(s["nondeterministic"])):
        print("  NONDETERMINISTIC %s" % j)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "wfoc", "cli.py")):
        sys.stderr.write("no program to measure: %s/src/wfoc is missing\n"
                         % ROOT)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "reference_digests.json"),
              encoding="utf-8") as f:
        reference = json.load(f).get(args.workload, {})

    run_dir = os.path.join(WORK, "%s-seed%d-%d"
                           % (args.workload, args.seed, os.getpid()))
    os.makedirs(run_dir)
    start = time.monotonic()
    children, traced, lost = [], [], []
    indices = itertools.count()

    def child(check=False, spans_path=None):
        index = next(indices)
        budget = max(5.0, RUN_BUDGET_S - (time.monotonic() - start))
        result, wall, killed = spawn(args.workload, args.seed, run_dir, index,
                                     check, spans_path, budget)
        if result is None:
            if not children:
                raise SetupFailed("the first child died running %s" % killed)
            lost.append({"jobs": _killed_records(children[0]["jobs"], killed)})
        else:
            (traced if spans_path else children).append(result)
        return result, wall

    try:
        if args.trace:
            child(check=True)
            child(spans_path=os.path.join(WORK, "spans-%s-seed%d.tsv.gz"
                                          % (args.workload, args.seed)))
            if not traced:
                raise SetupFailed("the traced child died before its spans "
                                  "were summed")
        else:
            while True:
                result, wall = child(check=not children)
                # later children run no oracles
                if time.monotonic() - start + wall - (result or {}).get(
                        "check_s", 0.0) > min(args.seconds, RUN_BUDGET_S):
                    break
    except SetupFailed as exc:
        sys.stderr.write("%s\n" % exc)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    s = summarise(children, reference, traced + lost)
    s["setup_s"] = statistics.median(c["setup_s"] for c in children + traced)
    s["setup_cpu_s"] = statistics.median(c["setup_cpu_s"]
                                         for c in children + traced)
    print_summary(args.workload, args.seed, args.trace, s)
    values = {
        "setup_s": s["setup_s"],
        "pass_s": s["pass_s"],
        "peak_rss_mb": s["peak_rss_mb"],
        "ok_ratio": 1 - s["fail_ratio"],
        "hash_match": s["hash_match"],
    }
    if args.trace:
        layers, traced_pass = traced[0]["layers"], traced[0]["pass_s"]
        values.update(layers)
        values.update(src_lines())
        values["trace.pass_s"] = traced_pass
        values["trace.overhead_s"] = traced_pass - s["pass_s"]
        for cmd in COMMANDS:
            values["cli.%s_s" % cmd] = s["per_command"].get(cmd, 0.0)
        values["cli.out_states"] = s["out_states"]
        values["cli.out_transitions"] = s["out_transitions"]
        print("  tracing overhead %.4f s (traced pass %.4f s)"
              % (values["trace.overhead_s"], traced_pass))
        for layer in sorted(spans.LAYERS,
                            key=lambda l: -layers[l + ".self_s"]):
            print("  %-28s %10.4f s self, %8d calls" % (
                layer, layers[layer + ".self_s"], layers[layer + ".calls"]))
        functions = [k[:-len(".self_s")] for k in layers
                     if k.endswith(".self_s")
                     and k[:-len(".self_s")] not in spans.LAYERS]
        for name in sorted(functions,
                           key=lambda f: -layers[f + ".self_s"])[:10]:
            print("  %-40s %10.4f s self, %8d calls" % (
                name, layers[name + ".self_s"], layers[name + ".calls"]))
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    print(json.dumps({
        "correct": not s["wrong"] and not s["nondeterministic"],
        "attempted": s["attempted"],
        "failed": len(s["unexpected"]),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
