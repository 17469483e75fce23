"""cspcover benchmark: one seeded workload per run, one client, closed loop.

    python3 perfbench/run.py --workload reduce-pipeline --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout; the package is loaded from `src/`
(nothing is installed).  With `--trace 0` the last line of standard output
is a JSON object with the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics of a separate traced run.  The lines before it report the
round count, failed operations by exception, and the workload's own named
figures.  Failed output checks are listed on standard error.  See README.md.
"""

import argparse
import importlib
import json
import os
import shutil
import sys

import harness

WORKLOADS = {
    "reduce-pipeline": "pipeline",
    "spectral-analysis": "spectral",
    "cover-search": "coversearch",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(harness.SRC, "cspcover",
                                       "__init__.py")):
        print("error: no cspcover sources under %s" % harness.SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(1, harness.SRC)
    workload = importlib.import_module(WORKLOADS[args.workload])
    workdir = os.path.join(harness.HERE, ".work",
                           "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        result, lines, problems = harness.run(
            workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("check failed: %s" % problem, file=sys.stderr)
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
