"""cover-search: in-process calls into the exact searches of `csp`.

A round runs, one call at a time:

  light  `covering_number` and `max_independent_set` on each of the 996
         connected graphs with at most 7 vertices under NAE(2,2), where
         per-call overhead dominates;
  mid    `find_cover` and `max_independent_set` on T1 and T3 gadget outputs
         generated (in set-up) from seeded unique games;
  heavy  `find_cover` and `max_independent_set` on seeded random NAE(2,3)
         and NAE(3,2) instances, where mask enumeration dominates;
  fault  two operations that fail today and are counted as failed:
         (a) `covering_number` on one NAE(2,2) constraint over 18 variables
         with a budget of 10^5 (the answer is 1, but every variable is
         enumerated, so the budget runs out), and (b) `max_independent_set`
         on 1,500 variables with one constraint (the search recurses once
         per variable and raises RecursionError).

Every call gets its own explicit `Budget`.
"""

import math
import random
import statistics
from fractions import Fraction

import checks

NAME = "cover-search"
PROBES = ("compute",)
IMPORTS = "import cspcover, networkx"
BUDGET = 10**8
FAULT_A_VARS = 18
FAULT_A_BUDGET = 10**5
FAULT_B_VARS = 1500
MAX_C = 4
EPS = Fraction(1, 4)
# The reference searches for a smaller cover only below this many subsets.
SUBSET_LIMIT = 200_000

# (q, k, variables, constraints, instances per round)
RANDOM_NAE = ((2, 3, 13, 39, 2), (3, 2, 9, 24, 2))
# (test, nu, nv, labels) of the gadget sources
GADGETS = (("t1", 2, 2, 1), ("t1", 2, 3, 1), ("t3", 2, 2, 1))


def _instance(lib, pred, n, scopes):
    zeros = (0,) * pred.k
    return lib.csp.CspInstance(pred, range(n), [(s, zeros, 1) for s in scopes])


def _plain(inst):
    """The instance as tuples for the reference code."""
    return [(c.vars, c.literals, c.weight) for c in inst.constraints]


def _atlas(lib):
    import networkx

    pred = lib.predicate.nae(2, 2)
    graphs = []
    for G in networkx.graph_atlas_g():
        n = G.number_of_nodes()
        if n == 0 or not networkx.is_connected(G):
            continue
        edges = sorted(tuple(sorted(e)) for e in G.edges())
        graphs.append((n, edges, _instance(lib, pred, n, edges)))
    return graphs


def _random_nae(lib, rng):
    out = []
    for q, k, n, m, count in RANDOM_NAE:
        pred = lib.predicate.nae(q, k)
        for _ in range(count):
            scopes = set()
            while len(scopes) < m:
                scopes.add(tuple(sorted(rng.sample(range(n), k))))
            out.append(_instance(lib, pred, n, sorted(scopes)))
    return out


def _gadgets(lib, rng):
    R = lib.reductions
    out = []
    for test, nu, nv, labels in GADGETS:
        source = lib.labelcover.synthesize(
            "unique-consistent", nu=nu, nv=nv, nlabels_u=labels,
            nlabels_v=labels, seed=rng.getrandbits(32))
        if test == "t1":
            params = R.T1Params(lib.predicate.nae(2, 2), (0, 1), source)
            out.append(R.generate_t1(params, budget=lib.errors.Budget(BUDGET)))
        else:
            params = R.T3Params(EPS, source)
            out.append(R.generate_t3(params, budget=lib.errors.Budget(BUDGET)))
    return out


def setup(lib, seed, workdir):
    rng = random.Random(seed)
    pred = lib.predicate.nae(2, 2)
    return {
        "atlas": _atlas(lib),
        "random": _random_nae(lib, rng),
        "gadgets": _gadgets(lib, rng),
        "fault_a": _instance(lib, pred, FAULT_A_VARS, [(0, 1)]),
        "fault_b": _instance(lib, pred, FAULT_B_VARS, [(0, 1)]),
        "expected": {},
    }


def _reference(inst):
    """By brute force: (least, exact, MIS size).  Every cover size below
    `least` is ruled out; `exact` says a cover of size `least` exists, and
    is False where the search stopped at SUBSET_LIMIT."""
    pred = inst.predicate
    cons = _plain(inst)
    maximal = checks.maximal_masks(checks.coverage_masks(
        inst.nvars, pred.q, cons, frozenset(pred.members)))
    mis = checks.max_independent_size(inst.nvars, [c[0] for c in cons])
    full = (1 << len(cons)) - 1
    for size in range(1, MAX_C + 1):
        if math.comb(len(maximal), size) > SUBSET_LIMIT:
            return size, False, mis
        if checks.covers_with(maximal, size, full):
            return size, True, mis
    return MAX_C + 1, True, mis


def _solve(rec, lib, kind, inst, expected):
    """find_cover with its witness recounted, then max_independent_set."""
    least, exact, mis_size = expected
    B = lib.errors.Budget
    pred = inst.predicate
    ok, cover = rec.call(kind, "find_cover", lib.csp.find_cover, inst,
                         MAX_C, budget=B(BUDGET))
    if ok and cover is None:
        rec.check(exact and least > MAX_C, "find_cover found no cover")
    elif ok:
        values = [a.values for a in cover.assignments]
        rec.check(checks.covered_fraction(_plain(inst), pred.q,
                                          frozenset(pred.members), values)
                  == 1, "find_cover witness is not a cover")
        rec.check(len(values) == least if exact else len(values) >= least,
                  "find_cover is not minimum")
    ok, mis = rec.call(kind, "max_independent_set",
                       lib.csp.max_independent_set, inst, budget=B(BUDGET))
    if ok:
        rec.check(mis[0] == mis_size, "max_independent_set size")


def _atlas_sweep(rec, lib, graphs, expected):
    B = lib.errors.Budget
    results = []
    for n, edges, inst in graphs:
        ok, c = rec.call("light", "covering_number", lib.csp.covering_number,
                         inst, 3, budget=B(BUDGET))
        ok2, mis = rec.call("light", "max_independent_set",
                            lib.csp.max_independent_set, inst,
                            budget=B(BUDGET))
        results.append((c if ok else None, mis[0] if ok2 else None))
    if "atlas" not in expected:
        expected["atlas"] = [
            ((checks.chromatic_number(n, edges) - 1).bit_length(),
             checks.max_independent_size(n, edges))
            for n, edges, _ in graphs
        ]
    rec.check(results == expected["atlas"],
              "atlas covering numbers or MIS sizes differ from brute force")


def _faults(rec, lib, inputs):
    B = lib.errors.Budget
    ok, c = rec.call("fault", "covering_number", lib.csp.covering_number,
                     inputs["fault_a"], 2, budget=B(FAULT_A_BUDGET))
    if ok:
        rec.check(c == 1, "single-constraint covering number")
    ok, mis = rec.call("fault", "max_independent_set",
                       lib.csp.max_independent_set, inputs["fault_b"],
                       budget=B(BUDGET))
    if ok:
        rec.check(mis[0] == FAULT_B_VARS - 1, "single-constraint MIS")


def run_round(rec, lib, inputs):
    expected = inputs["expected"]
    with rec.case("atlas"):
        _atlas_sweep(rec, lib, inputs["atlas"], expected)
    for name in ("gadgets", "random"):
        kind = "mid" if name == "gadgets" else "heavy"
        for i, inst in enumerate(inputs[name]):
            key = (name, i)
            if key not in expected:
                expected[key] = _reference(inst)
            with rec.case("solve"):
                _solve(rec, lib, kind, inst, expected[key])
    with rec.case("faults"):
        _faults(rec, lib, inputs)


def named_metrics(rec):
    return [
        ("atlas_sweep_s", statistics.median(r["light"] for r in rec.rounds),
         "s"),
        ("cover_solve_s", statistics.median(rec.samples["solve"]), "s"),
    ]
