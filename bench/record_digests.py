"""Record the reference digests of the fixed-input jobs' outputs.

    python3 bench/record_digests.py

The benchmark's hash_match / hash_drift compare against these.  Re-record
only when a change of output bytes is intended; every oracle of the
recording pass must accept its output.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main():
    digests = {}
    for workload in workloads.NAMES:
        run_dir = os.path.join(run.WORK, "record-%s-%d" % (workload, os.getpid()))
        os.makedirs(run_dir)
        try:
            result, _wall, killed = run.spawn(workload, 1, run_dir, 0, True)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if result is None:
            sys.exit("%s: child died running %s" % (workload, killed))
        rejected = [r["id"] for r in result["jobs"] if r["problem"]]
        if rejected:
            sys.exit("%s: oracles rejected %s" % (workload, ", ".join(rejected)))
        digests[workload] = {r["id"]: r["digest"] for r in result["jobs"]
                             if r["fixed"] and r["digest"]}
    with open(os.path.join(run.HERE, "reference_digests.json"), "w",
              encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
