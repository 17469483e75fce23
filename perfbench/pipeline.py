"""reduce-pipeline: the paper's completeness loop through the `cspcover` CLI.

A round is two jobs, run one after the other.  Each job takes one seeded
source game through the CLI, one subprocess per call:

  lc-gen, then lc-sat (unique game) or lc-cover (d = 2 game);
  exact `reduce` for each test the source admits;
  `witness` for each test, then `fraction` on the witness file;
  `reject-id` on the t2 and t3 witness pairs;
  `reduce --sample` for the same tests.

Job U is a unique (d = 1) game and runs t1, t2 and t3.  Job D is a d = 2
game with one left label, where every labeling satisfies; it runs t2, whose
test distribution is the only one that depends on d (t3 on the same source
would add 3.5 s a round, about a third, through code job U already runs).
"""

import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import checks
import harness
import tracing

NAME = "reduce-pipeline"
PROBES = ("compute", "spawn")
IMPORTS = "import cspcover"
BUDGET = 10**8
EPS = Fraction(1, 4)
TRACED_CLI = os.path.join(harness.HERE, "traced_cli.py")

NAE22 = "2 2\n01\n10\n"
P0 = "2\n00 1/2\n11 1/2\n"
P1 = "2\n01 1/2\n10 1/2\n"

# name, synthesis kind, nu, nv, labels_u, labels_v, tests, samples per test
JOBS = (
    ("U", "unique-consistent", 2, 2, 1, 1, ("t1", "t2", "t3"), 200),
    ("D", "dto1-random", 1, 1, 1, 2, ("t2",), 128),
)


class Job:
    def __init__(self, spec, rng, workdir):
        (self.name, self.kind, self.nu, self.nv, self.nl, self.nr,
         self.tests, self.samples) = spec
        self.game_seed = rng.getrandbits(32)
        self.sample_seed = rng.getrandbits(32)
        self.eps = EPS
        self.dir = os.path.join(workdir, self.name)
        os.makedirs(self.dir, exist_ok=True)
        for fname, text in (("nae22.pred", NAE22), ("p0.dist", P0),
                            ("p1.dist", P1)):
            with open(os.path.join(self.dir, fname), "w") as fh:
                fh.write(text)

    def lc_gen_args(self):
        return ["lc-gen", "--kind", self.kind, "--nu", str(self.nu),
                "--nv", str(self.nv), "--labels-u", str(self.nl),
                "--labels-v", str(self.nr), "--seed", str(self.game_seed),
                "--out", "game.lc"]

    def reduce_args(self, test, sample=False):
        """`reduce` of one test, exact or sampled, into `<test>.csp` or
        `<test>.sample.csp`."""
        if sample:
            return (["reduce", test, "--source", "game.lc", "--out",
                     test + ".sample.csp", "--sample", str(self.samples),
                     "--seed", str(self.sample_seed)]
                    + self.test_args(test))
        return (["reduce", test, "--source", "game.lc", "--out",
                 test + ".csp", "--budget", str(BUDGET)]
                + self.test_args(test))

    def test_args(self, test):
        eps = "%d/%d" % (self.eps.numerator, self.eps.denominator)
        if test == "t1":
            return ["--predicate", "nae22.pred", "--a", "01"]
        if test == "t2":
            return ["--p0", "p0.dist", "--p1", "p1.dist", "--eps", eps]
        return ["--eps", eps]

    def read(self, fname):
        with open(os.path.join(self.dir, fname)) as fh:
            return fh.read()


def setup(lib, seed, workdir):
    rng = random.Random(seed)
    return [Job(spec, rng, workdir) for spec in JOBS]


def cli(rec, kind, label, job, argv):
    """One CLI subprocess, timed from spawn to exit.

    Returns (exited 0, the `key = value` lines it printed).
    """
    env = harness.child_env()
    tracer = rec.tracer
    out_path = os.path.join(job.dir, "stdout.txt")
    err_path = os.path.join(job.dir, "stderr.txt")
    if tracer is None:
        cmd = [sys.executable, "-m", "cspcover.cli"] + argv
    else:
        span = tracer.open("cli.cmd_" + argv[0].replace("-", "_"))
        spans_path = os.path.join(job.dir, "spans.jsonl")
        env.update(PERFBENCH_TRACE=tracer.trace_id,
                   PERFBENCH_PARENT=span["id"], PERFBENCH_SPANS=spans_path)
        cmd = [sys.executable, TRACED_CLI] + argv
    with open(out_path, "w+") as out, open(err_path, "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=job.dir, env=env, stdout=out,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
        err.seek(0)
        stderr = err.read()
    if tracer is not None:
        tracer.close(span)
        tracer.spans.extend(tracing.read_spans(spans_path))
        os.remove(spans_path)
    rec.peak_rss_kb = max(rec.peak_rss_kb, usage.ru_maxrss)
    error = None
    if proc.returncode != 0:
        error = "exit%d" % proc.returncode
        print("%s: %s" % (label, stderr.strip()), file=sys.stderr)
    rec.add(kind, label, elapsed, error)
    return proc.returncode == 0, checks.parse_kv(stdout)


def check_instance(rec, job, test, fname, reported):
    """Header, arities, variable range and exact total weight of a file,
    and its constraint count against the one the CLI `reported`."""
    (q, k, nvars, ncons), cons = checks.parse_instance(job.read(fname))
    pq, pk, members = checks.parse_predicate(job.read(fname + ".pred"))
    want_k = 2 if test == "t1" else 4
    where = "%s %s %s" % (job.name, test, fname)
    rec.check((q, k, pq, pk) == (2, want_k, 2, want_k), where + ": q/k")
    rec.check(nvars == job.nv * 2 ** (2 * job.nr), where + ": nvars")
    rec.check(ncons == len(cons) == reported, where + ": constraint count")
    rec.check(all(len(v) == k and all(0 <= x < nvars for x in v)
                  for v, _, _ in cons), where + ": scopes")
    rec.check(sum(c[2] for c in cons) == 1, where + ": weights sum to 1")
    want = (frozenset({(0, 1), (1, 0)}) if test == "t1"
            else checks.odd_parity(4))
    rec.check(members == want, where + ": predicate")
    return cons, members


def check_game(rec, job):
    nu, nv, nl, nr, unique, edges = checks.parse_game(job.read("game.lc"))
    ok = (nu, nv, nl, nr) == (job.nu, job.nv, job.nl, job.nr)
    ok = ok and len(edges) == nu * nv
    d = nr // nl
    for u, v, proj in edges:
        ok = ok and len(proj) == nr and all(0 <= x < nl for x in proj)
        ok = ok and all(proj.count(i) == d for i in range(nl))
    rec.check(ok and unique == (job.kind == "unique-consistent"),
              "%s: game file" % job.name)
    return edges


def run_job(rec, job):
    ok, out = cli(rec, "light", "lc-gen", job, job.lc_gen_args())
    if not ok:
        return
    edges = check_game(rec, job)
    if job.kind == "unique-consistent":
        ok, out = cli(rec, "light", "lc-sat", job, [
            "lc-sat", "game.lc", "--out", "labeling.txt",
            "--budget", str(BUDGET)])
        if ok:
            rec.check(out.get("value") == "1/1", job.name + ": lc-sat")
    else:
        ok, out = cli(rec, "light", "lc-cover", job, [
            "lc-cover", "game.lc", "--c", "1", "--out", "labeling.txt",
            "--budget", str(BUDGET)])
        if ok:
            rec.check(out.get("coverable") == "true",
                      job.name + ": lc-cover")
    if not ok:
        return
    left, right = checks.parse_labelings(job.read("labeling.txt"), job.nu)[0]
    rec.check(checks.labeling_value(edges, left, right) == 1,
              job.name + ": labeling recount")

    exact = {}
    for test in job.tests:
        ok, out = cli(rec, "heavy", "reduce " + test, job,
                      job.reduce_args(test))
        if ok:
            count = int(out["nconstraints"])
            rec.samples["reduce.constraints"].append(count)
            exact[test] = check_instance(rec, job, test, test + ".csp",
                                         count)

    for test in job.tests:
        wname = test + ".witness"
        ok, out = cli(rec, "other", "witness " + test, job, [
            "witness", test, "--source", "game.lc", "--labelings",
            "labeling.txt", "--out", wname, "--budget", str(BUDGET)]
            + job.test_args(test))
        if not ok or test not in exact:
            continue
        cons, members = exact[test]
        parts = checks.parse_assignments(job.read(wname))
        where = "%s witness %s" % (job.name, test)
        for i, a in enumerate(parts):
            frac = checks.covered_fraction(cons, 2, members, [a])
            rec.check(out.get("fraction:%d" % i) == "%d/%d" % (
                frac.numerator, frac.denominator), where + ": fraction")
            if test != "t1":
                rec.check(frac >= 1 - job.eps, where + ": half covers 1-eps")
        rec.check(len(parts) == 2 and out.get("union") == "1/1"
                  and checks.covered_fraction(cons, 2, members, parts) == 1,
                  where + ": union")

        ok, out = cli(rec, "other", "fraction " + test, job, [
            "fraction", test + ".csp", "--predicate", test + ".csp.pred",
            "--assignments", wname])
        if ok:
            rec.check(out.get("fraction") == "1/1",
                      "%s fraction %s" % (job.name, test))

        if test == "t1":
            continue
        ok, out = cli(rec, "other", "reject-id " + test, job, [
            "reject-id", test + ".csp", "--predicate", test + ".csp.pred",
            "--assignments", wname, "--budget", str(BUDGET)])
        if ok:
            lhs = checks.even_parity_fraction(cons, parts)
            rec.check(out.get("lhs") == "%d/%d" % (lhs.numerator,
                                                   lhs.denominator)
                      and out.get("deviation") == "0/1",
                      "%s reject-id %s" % (job.name, test))

    for test in job.tests:
        ok, out = cli(rec, "mid", "sample " + test, job,
                      job.reduce_args(test, sample=True))
        if not ok:
            continue
        count = int(out["nconstraints"])
        rec.samples["sample.constraints"].append(count)
        cons, _ = check_instance(rec, job, test, test + ".sample.csp", count)
        if test in exact:
            keys = {(v, lits) for v, lits, _ in exact[test][0]}
            rec.check(all((v, lits) in keys for v, lits, _ in cons),
                      "%s sample %s: keys in exact support" % (job.name, test))


def run_round(rec, lib, jobs):
    for job in jobs:
        with rec.case("job"):
            run_job(rec, job)


def named_metrics(rec):
    s = rec.samples

    def seconds(prefix):
        return sum(sum(v) for k, v in s.items() if k.startswith(prefix))

    return [
        ("pipeline_job_s", statistics.median(s["job"]), "s"),
        ("reduce_constraints_per_s",
         sum(s["reduce.constraints"]) / seconds("reduce "), "1/s"),
        ("sample_constraints_per_s",
         sum(s["sample.constraints"]) / seconds("sample "), "1/s"),
        ("light_call_s",
         statistics.median(s["lc-gen"] + s["lc-sat"] + s["lc-cover"]), "s"),
        ("peak_rss_mb", rec.peak_rss_kb / 1024.0, "MB"),
    ]
