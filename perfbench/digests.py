"""SHA-256 digests of the `reduce` outputs of each reduce-pipeline job.

    python3 perfbench/digests.py --seed 1

Runs each job's `lc-gen` and its exact and sampled `reduce` calls once, the
same calls the benchmark makes for that seed, and prints one digest per
output file.  The digests are reference data for keeping CLI output
byte-identical across changes (compare them between two commits); they are
not a pass/fail check.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

import harness
import pipeline


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    workdir = os.path.join(harness.HERE, ".work", "digests-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        for job in pipeline.setup(None, args.seed, workdir):
            calls = [job.lc_gen_args()]
            for sample in (False, True):
                calls += [job.reduce_args(t, sample) for t in job.tests]
            for argv in calls:
                subprocess.run(
                    [sys.executable, "-m", "cspcover.cli"] + argv,
                    cwd=job.dir, env=harness.child_env(), check=True,
                    stdout=subprocess.DEVNULL)
            for fname in sorted(os.listdir(job.dir)):
                if fname.endswith((".csp", ".csp.pred")):
                    with open(os.path.join(job.dir, fname), "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    print("seed=%d job=%s %s %s" % (args.seed, job.name,
                                                   fname, digest))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
