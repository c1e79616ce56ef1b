"""One child process of the benchmark: set up a workload, run one timed
pass over its jobs, then (outside the timed region) digest and check the
outputs.  Started by run.py; stdlib only and single-threaded.

    python3 bench/worker.py --workload W --seed N --workdir DIR
        --result FILE [--check] [--spans FILE]

Times are CPU time of this process (user plus system), scaled to a
reference host speed by a clock.Clock: setup_s from process start to
the first timed job, pass_s the sum of the pass's jobs.  The known-limit
jobs run after the pass, untraced and unscaled, once pass_s and
peak_rss_mb are read, so a job that runs into a budget moves neither.

Budgets act on this process only: RLIMIT_AS caps its memory for the whole
workload, and the clock's SIGALRM cuts each job at its wall-clock budget.
Progress lines go to FILE as the pass runs, so that run.py can name the job
a killed child was running; the last line of FILE is the result.
"""

import argparse
import hashlib
import io
import json
import os
import random
import resource
import sys
import time

from clock import Clock, JobBudget
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Result:
    __slots__ = ("rc", "out", "err", "status", "t0", "t1", "seconds",
                 "files")

    def __init__(self, rc, out, err, status, t0, t1):
        self.rc, self.out, self.err = rc, out, err
        self.status, self.t0, self.t1 = status, t0, t1
        self.seconds = t1 - t0  # CPU seconds; scaled after the pass
        self.files = []       # [(name, text)] written by the job, sorted


def run_cli(main, argv, clock, budget_s=None):
    """wfoc.cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    rc, status = None, "ok"
    sys.stdout, sys.stderr = out, err
    if budget_s:
        clock.deadline = time.monotonic() + budget_s
    start = clock.now()
    try:
        rc = main(argv)
    except JobBudget:
        status = "over its %g s budget" % budget_s
    except MemoryError:
        status = "out of memory budget"
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # the job failed; the pass goes on
        status = "%s: %s" % (type(exc).__name__, str(exc)[:120])
    finally:
        clock.deadline = None
        end = clock.now()
        sys.stdout, sys.stderr = saved
    return Result(rc, out.getvalue(), err.getvalue(), status, start, end)


def _digest(res):
    h = hashlib.sha256()
    h.update(("rc=%s\n" % res.rc).encode())
    for part in (res.out, res.err):
        h.update(part.encode())
        h.update(b"\0")
    for name, text in res.files:
        h.update(name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


def _automaton_size(text):
    states = trans = 0
    for line in text.splitlines():
        if line.startswith("states:"):
            states = len(line.split()) - 1
        elif line.startswith("trans:"):
            trans += 1
    return states, trans


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--spans", help="trace the pass; write its spans here")
    args = ap.parse_args()

    limit = workloads.MEMORY_MB[args.workload] << 20
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import wfoc.cli
    if not os.path.abspath(wfoc.cli.__file__).startswith(src + os.sep):
        raise SystemExit("wfoc was not imported from %s" % src)

    os.chdir(args.workdir)
    with open(args.result, "w", encoding="utf-8") as report:
        def emit(record):
            report.write(json.dumps(record) + "\n")
            report.flush()

        _run(args, wfoc.cli, emit)


def _run(args, cli, emit):
    # cli.main is looked up per call: tracing rebinds it
    def setup_cli(argv):
        res = run_cli(cli.main, argv, clock)
        return res.rc, res.out, res.err + res.status

    clock = Clock()
    clock.start()
    rng = random.Random("%s-%d" % (args.workload, args.seed))
    jobs = workloads.build(args.workload, rng, setup_cli)
    setup_cpu_s = clock.now()

    tracer = None
    if args.spans:
        tracer = spans.Tracer(clock.now)
        tracer.install()

    # -- the timed pass --
    results = {}
    timed = [(i, job) for i, job in enumerate(jobs) if not job.limit]
    for index, job in timed:
        emit({"start": job.id})
        if tracer:
            tracer.job = index
        results[job.id] = run_cli(cli.main, job.argv, clock,
                                  workloads.JOB_BUDGET_S)
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracer.rescale(clock.reference)
    setup_s = clock.scaled(0.0, setup_cpu_s)
    pass_cpu_s = pass_s = 0.0
    for _index, job in timed:
        res = results[job.id]
        res.seconds = clock.scaled(res.t0, res.t1)
        pass_cpu_s += res.t1 - res.t0
        pass_s += res.seconds

    # -- the known limits, after the pass --
    for job in jobs:
        if job.limit:
            emit({"start": job.id})
            results[job.id] = run_cli(cli.main, job.argv, clock,
                                      workloads.JOB_BUDGET_S)

    # -- outside the timed region --
    records = []
    for job in jobs:
        res = results[job.id]
        for name in sorted(os.listdir(job.outdir)):
            with open(os.path.join(job.outdir, name), encoding="utf-8") as f:
                res.files.append((name, f.read()))
        states = trans = 0
        if job.command in ("compile", "decompose"):
            for _name, text in res.files:
                s, t = _automaton_size(text)
                states, trans = states + s, trans + t
        # a known limit counts as such only while it fails as marked
        known = (job.limit[1] if job.limit and res.status != "ok"
                 and res.status.startswith(job.limit[0]) else None)
        records.append({
            "id": job.id, "command": job.command, "seconds": res.seconds,
            "timed": not job.limit, "rc": res.rc, "status": res.status,
            "fixed": job.fixed, "limit": known,
            "states": states, "transitions": trans,
            "digest": _digest(res) if res.status == "ok" else None,
            "problem": None})
    check_start = time.monotonic()
    if args.check:
        for job, rec in zip(jobs, records):
            if rec["status"] != "ok":
                continue
            try:
                rec["problem"] = job.check(results[job.id], results)
            except Exception as exc:  # an output the oracle cannot read
                rec["problem"] = "oracle raised %s: %s" % (
                    type(exc).__name__, str(exc)[:120])
    check_s = time.monotonic() - check_start

    layers = None
    if tracer:
        layers = tracer.layer_metrics()
        tracer.dump(args.spans, [job.id for job in jobs])
    emit({"result": {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s,
                     "pass_s": pass_s, "pass_cpu_s": pass_cpu_s,
                     "host_speed": clock.samples, "check_s": check_s,
                     "peak_rss_mb": peak_rss_mb, "jobs": records,
                     "layers": layers}})


if __name__ == "__main__":
    main()
