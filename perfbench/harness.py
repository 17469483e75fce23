"""The closed-loop runner shared by the three workloads.

One client runs whole rounds of a workload's fixed operation list, one
operation at a time, until the next round would end past `--seconds`.  Each
operation is timed alone; output checks run between operations and are never
inside a timed region.  An operation that raises is counted as failed, with
its exception type, and the run goes on.
"""

import collections
import contextlib
import fnmatch
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5

# Operation kinds every workload sorts its timed calls into (see README).
KINDS = ("light", "mid", "heavy")

# metric, unit, span name patterns, and what is summed: None for self time,
# "spans" for the number of spans, otherwise a span counter.
PER_LAYER = (
    ("cli.import_s", "s", ("cli.import",), None),
    ("cli.calls", "count", ("cli.cmd_*",), "spans"),
    ("textio.parse_s", "s", ("textio.parse_*",), None),
    ("textio.format_s", "s", ("textio.format_*",), None),
    ("textio.bytes", "B", ("textio.*",), "bytes"),
    ("reductions.generate_s", "s", ("reductions.generate_*",), None),
    ("reductions.constraints", "count", ("reductions.generate_*",),
     "constraints"),
    ("reductions.sample_s", "s", ("reductions.sample_*",), None),
    ("reductions.sampled", "count", ("reductions.sample_*",), "sampled"),
    ("reductions.witness_s", "s", ("reductions.t?_completeness_witness",),
     None),
    ("reductions.reject_id_s", "s",
     ("reductions.rejection_identity_check",), None),
    ("reductions.decode_s", "s", ("reductions.decode_*",), None),
    ("reductions.candidates", "count", ("reductions.generate_*",), "budget"),
    ("csp.build_s", "s", ("csp.CspInstance",), None),
    ("csp.covered_fraction_s", "s", ("csp.covered_fraction",), None),
    ("csp.cover_s", "s", ("csp.find_cover", "csp.covering_number"), None),
    ("csp.mis_s", "s", ("csp.max_independent_set",), None),
    ("csp.candidates", "count",
     ("csp.find_cover", "csp.covering_number", "csp.max_independent_set"),
     "budget"),
    ("labelcover.synthesize_s", "s", ("labelcover.synthesize",), None),
    ("labelcover.solve_s", "s",
     ("labelcover.max_satisfiable", "labelcover.is_c_coverable"), None),
    ("boolanalysis.efron_stein_s", "s", ("boolanalysis.efron_stein",), None),
    ("boolanalysis.influence_s", "s",
     ("boolanalysis.influence", "boolanalysis.degree_d_influence",
      "boolanalysis.all_influences", "boolanalysis.all_degree_d_influences"),
     None),
    ("boolanalysis.fourier_s", "s", ("boolanalysis.fourier",), None),
    ("correlated.invariance_gap_s", "s", ("correlated.invariance_gap",), None),
    ("correlated.atoms", "count", ("correlated.invariance_gap",), "budget"),
    ("correlated.commute_check_s", "s", ("correlated.commute_check",), None),
    ("correlated.rho_s", "s", ("correlated.correlation_rho",), None),
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def fresh_import_seconds(statement):
    """Wall time of a new interpreter that runs `statement` and exits."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", statement], env=child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=False,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError("%r failed: %s" % (statement, proc.stderr.decode()))
    return elapsed


def compute_probe():
    """Seconds a fixed exact-rational loop takes in this process."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 2500):
        acc += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def spawn_probe():
    """Seconds a new interpreter takes to start and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(),
                   check=True)
    return time.perf_counter() - start


# name: (probe, its reference seconds)
PROBES = {"compute": (compute_probe, 0.005), "spawn": (spawn_probe, 0.05)}


class Clock:
    """Turns wall seconds into calibrated seconds.

    The machine this benchmark was built on runs the same code up to 1.8
    times slower for tens of seconds at a time, as other tenants of its host
    come and go, and each of its two CPUs changes speed on its own: raw wall
    times of one commit spread by 15-25 % from run to run.  So the run is
    pinned to one CPU, and the recorder runs the workload's probes between
    operations, spending about a tenth of the run on them.  Each operation's
    wall time is divided by the geometric mean, over the probes, of the
    probe's mean time just before and just after it over the probe's
    reference time.  A calibrated second is a wall second on a machine where
    every probe takes its reference time.  In-process workloads use the
    compute probe; the CLI workload, whose calls are part interpreter
    start-up and part computation, uses both.
    """

    def __init__(self, probes):
        self.probes = {name: [PROBES[name][0]()] for name in probes}
        self.gap = 10 * sum(h[0] for h in self.probes.values())
        self._at = time.perf_counter()

    def due(self):
        return time.perf_counter() - self._at >= self.gap

    def factor(self):
        """Probe now; the scale for what ran since the previous probe."""
        slowdown = 1.0
        for name, history in self.probes.items():
            history.append(PROBES[name][0]())
            slowdown *= (history[-2] + history[-1]) / (2 * PROBES[name][1])
        self._at = time.perf_counter()
        return slowdown ** (-1.0 / len(self.probes))

    def run_factor(self):
        """One scale for the whole run, from the median of each probe."""
        slowdown = 1.0
        for name, history in self.probes.items():
            slowdown *= statistics.median(history) / PROBES[name][1]
        return slowdown ** (-1.0 / len(self.probes))


class Recorder:
    """Operation counts, failures, check results and calibrated times."""

    def __init__(self, tracer, clock):
        self.tracer = tracer
        self.clock = clock
        self.attempted = 0
        self.failures = collections.Counter()
        self.problems = []
        self.rounds = []
        self.samples = collections.defaultdict(list)
        self.peak_rss_kb = 0
        self._round = None
        self._case_ids = None
        self._case_total = None
        self._pending = []

    def _settle(self):
        """Calibrate the operations finished since the last probe."""
        factor = self.clock.factor()
        for kind, label, seconds in self._pending:
            seconds *= factor
            self._round[kind] += seconds
            self.samples[label].append(seconds)
            if self._case_total is not None:
                self._case_total += seconds
        self._pending = []

    def begin_round(self):
        self._round = collections.Counter()
        self._case_ids = collections.Counter()

    def end_round(self):
        self._settle()
        self.rounds.append(self._round)

    def add(self, kind, label, seconds, error=None):
        """One finished operation of `kind` that took `seconds` of wall
        time; `error` names how it failed."""
        self.attempted += 1
        if error is not None:
            self.failures["%s %s" % (label, error)] += 1
        self._pending.append((kind, label, seconds))
        if self.clock.due():
            self._settle()

    def call(self, kind, label, fn, *args, **kwargs):
        """Time one library call: (True, result), or (False, None) when it
        raised."""
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # counted as a failed operation
            self.add(kind, label, time.perf_counter() - start,
                     type(exc).__name__)
            return False, None
        self.add(kind, label, time.perf_counter() - start)
        return True, out

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)

    @contextlib.contextmanager
    def case(self, name):
        """A job or case: its calibrated total goes to `samples[name]`, and
        in the traced run it is the root span of its calls."""
        if self.clock.due():
            self._settle()
        self._case_total = 0.0
        if self.tracer is None:
            yield
        else:
            n = self._case_ids[name]
            self._case_ids[name] += 1
            trace_id = "r%d.%s.%d" % (len(self.rounds), name, n)
            with self.tracer.root(trace_id, name):
                yield
        self._settle()
        self.samples[name].append(self._case_total)
        self._case_total = None


def _per_layer(spans, nrounds, scale):
    """Each layer metric over the set-up plus one average round; times are
    span self times multiplied by `scale`."""
    selfs = tracing.self_times(spans)
    out = {}
    for metric, unit, patterns, what in PER_LAYER:
        setup_part = rounds_part = 0.0
        for s in spans:
            if not any(fnmatch.fnmatchcase(s["name"], p) for p in patterns):
                continue
            if what is None:
                value = selfs[s["id"]]
            elif what == "spans":
                value = 1
            else:
                value = s["counts"].get(what, 0)
            if (s["trace"] or "").startswith("setup"):
                setup_part += value
            else:
                rounds_part += value
        value = setup_part + rounds_part / nrounds
        if unit == "s":
            value *= scale
        else:
            value = round(value, 6)
        out[metric] = {"value": value, "unit": unit}
    return out


def run(workload, seed, seconds, trace, workdir):
    """Set up, run rounds for `seconds`, and return (result, report lines)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = tracing.Tracer("p%d" % os.getpid()) if trace else None
    lib = tracing.load(tracer)
    clock = Clock(workload.PROBES)
    rec = Recorder(tracer, clock)
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        imported = fresh_import_seconds(workload.IMPORTS)
        start = time.perf_counter()
        if tracer is None:
            inputs = workload.setup(lib, seed, workdir)
        else:
            with tracer.root("setup", "setup"):
                inputs = workload.setup(lib, seed, workdir)
        elapsed = imported + time.perf_counter() - start
        setup_times.append(elapsed * clock.factor())
    start = time.monotonic()
    walls = []
    while True:
        began = time.monotonic()
        rec.begin_round()
        workload.run_round(rec, lib, inputs)
        rec.end_round()
        walls.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    rounds = rec.rounds
    round_totals = [sum(r.values()) for r in rounds]
    if trace:
        metrics = _per_layer(tracer.spans, len(rounds), clock.run_factor())
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.dump(os.path.join(
            HERE, "out", "spans-%s-seed%d.jsonl" % (workload.NAME, seed)))
    else:
        rss_kb = rec.peak_rss_kb or resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "round_s": {"value": statistics.median(round_totals),
                        "unit": "s"},
        }
        for kind in KINDS:
            metrics[kind + "_s"] = {
                "value": statistics.median(r[kind] for r in rounds),
                "unit": "s",
            }
        metrics["peak_rss_mb"] = {"value": rss_kb / 1024.0, "unit": "MB"}
    lines = [
        "workload=%s seed=%d trace=%d rounds=%d attempted=%d failed=%d "
        "round_s=%.4f round_wall_s=%.3f %s" % (
            workload.NAME, seed, trace, len(rounds), rec.attempted,
            sum(rec.failures.values()), statistics.median(round_totals),
            statistics.median(walls),
            " ".join("%s_probe_s=%.5f" % (name, statistics.median(h))
                     for name, h in clock.probes.items())),
    ]
    for what, n in sorted(rec.failures.items()):
        lines.append("failed %s x%d" % (what, n))
    if not trace:
        for name, value, unit in workload.named_metrics(rec):
            lines.append("%s = %.6g %s" % (name, value, unit))
    result = {
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": sum(rec.failures.values()),
        "metrics": metrics,
    }
    return result, lines, rec.problems
