"""spectral-analysis: in-process calls into boolanalysis and correlated.

A round runs, one call at a time:

  heavy  `invariance_gap` on three T2 block spaces (the criterion-9
         family, 37,376 atoms each) and on two product spaces;
  mid    four decomposition cases, each `efron_stein`, `all_influences`,
         `commute_check` and `correlation_rho` on a seeded rational table
         over five correlated bit blocks: two with uniform marginals (a
         binary-uniform domain), two with random ones (a non-uniform
         product domain); each case also bounds ρ of a T2 block space;
  light  `decode_t1`, `decode_t2` and `decode_t3` on planted dictator
         tables of four seeded unique games.
"""

import itertools
import math
import random
import statistics
from fractions import Fraction

import checks

NAME = "spectral-analysis"
PROBES = ("compute",)
IMPORTS = "import cspcover"
BUDGET = 10**9
HALF = Fraction(1, 2)
P0 = {(0, 0): HALF, (1, 1): HALF}
P1 = {(0, 1): HALF, (1, 0): HALF}
EPSILONS = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))
VALUES = (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1)
BLOCKS_PER_CASE = 5
DECODE_SOURCES = 4


def _bit_space(masses):
    total = sum(masses)
    return {((x,), (y,)): Fraction(w, total)
            for (x, y), w in zip(itertools.product((0, 1), repeat=2), masses)}


def _block_space(lib, eps):
    source = lib.labelcover.LabelCoverInstance(
        1, 1, 1, 1, [lib.labelcover.Edge(0, 0, (0,))], unique=True)
    params = lib.reductions.T2Params(lib.predicate.lin(4), P0, P1, eps, source)
    return lib.reductions.t2_block_space(params)


def _gap_cases(lib, rng):
    B = lib.boolanalysis
    cases = []
    for eps in EPSILONS:
        dom = B.ProductDomain((4,) * 2, ((Fraction(1, 4),) * 4,) * 2)
        f, g = (B.TabulatedFunction(
            dom, [rng.choice(VALUES) for _ in range(dom.size)])
            for _ in range(2))
        cases.append((_block_space(lib, eps), f, g, False))
    for _ in range(2):
        p = Fraction(rng.randrange(1, 4), 4)
        q = Fraction(rng.randrange(1, 4), 4)
        pm, qm = (p, 1 - p), (q, 1 - q)
        pairs = list(itertools.product((0, 1), repeat=2))
        space = lib.correlated.product_space(
            {t: pm[t[0]] * pm[t[1]] for t in pairs},
            {t: qm[t[0]] * qm[t[1]] for t in pairs})
        f = B.TabulatedFunction(B.ProductDomain((2,) * 2, (pm,) * 2),
                                [rng.choice(VALUES) for _ in range(4)])
        g = B.TabulatedFunction(B.ProductDomain((2,) * 2, (qm,) * 2),
                                [rng.choice(VALUES) for _ in range(4)])
        cases.append((space, f, g, True))
    return cases


def _decomposition_cases(lib, rng):
    cases = []
    for i, uniform in enumerate((True, True, False, False)):
        masses = []
        for _ in range(BLOCKS_PER_CASE):
            if uniform:
                a, b = rng.randrange(1, 7), rng.randrange(1, 7)
                masses.append((a, b, b, a))
            else:
                masses.append(tuple(rng.randrange(1, 7) for _ in range(4)))
        blocks = [lib.correlated.CorrelatedSpace(_bit_space(m))
                  for m in masses]
        dom = lib.correlated.blocks_right_domain(blocks)
        values = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                  for _ in range(dom.size)]
        eps = EPSILONS[i % len(EPSILONS)]
        cases.append({
            "blocks": blocks,
            "masses": masses,
            "g": lib.boolanalysis.TabulatedFunction(dom, values),
            "values": values,
            "sizes": dom.sizes,
            "measures": dom.measures,
            "eps": eps,
            "t2_space": _block_space(lib, eps),
        })
    return cases


def _decode_cases(lib, rng):
    B = lib.boolanalysis
    cases = []
    for _ in range(DECODE_SOURCES):
        source = lib.labelcover.synthesize(
            "unique-consistent", nu=2, nv=3, nlabels_u=3, nlabels_v=3,
            seed=rng.getrandbits(32))
        edges = [(e.u, e.v, e.proj) for e in source.edges]
        planted = checks.satisfying_labeling(2, 3, 3, 3, edges)
        dom = B.ProductDomain.binary_uniform(6)
        tables = {
            v: B.TabulatedFunction(
                dom, [(p >> planted[1][v]) & 1 for p in range(dom.size)])
            for v in range(3)
        }
        cases.append({
            "source": source, "edges": edges, "planted": planted,
            "tables": tables, "seed": rng.getrandbits(32),
        })
    return cases


def setup(lib, seed, workdir):
    rng = random.Random(seed)
    return {
        "gap": _gap_cases(lib, rng),
        "decomposition": _decomposition_cases(lib, rng),
        "decode": _decode_cases(lib, rng),
    }


def _gap(rec, lib, case):
    space, f, g, product = case
    ok, res = rec.call("heavy", "invariance_gap",
                       lib.correlated.invariance_gap, space, 2, f, g,
                       budget=lib.errors.Budget(BUDGET))
    if ok:
        rec.check(res.gap <= res.bound, "invariance gap above its bound")
        rec.check(not product or res.gap == 0, "gap on a product space")


def _decomposition(rec, lib, case):
    B, C = lib.boolanalysis, lib.correlated
    g, blocks = case["g"], case["blocks"]
    sizes, measures, values = case["sizes"], case["measures"], case["values"]
    ok, dec = rec.call("mid", "efron_stein", B.efron_stein, g)
    if ok:
        total = [sum(comp.values[i] for comp in dec.components.values())
                 for i in range(len(values))]
        rec.check(total == values, "components do not sum to f")
        energy = sum(checks.expectation([v * v for v in comp.values],
                                        sizes, measures)
                     for comp in dec.components.values())
        rec.check(energy == checks.expectation([v * v for v in values],
                                               sizes, measures),
                  "component norms do not sum to E[f^2]")
    ok, infl = rec.call("mid", "all_influences", B.all_influences, g)
    if ok:
        want = [checks.variance_influence(values, sizes, measures, i)
                for i in range(len(sizes))]
        rec.check(list(infl) == want, "influence differs from variance form")
    ok, res = rec.call("mid", "commute_check", C.commute_check, blocks, g)
    if ok:
        rec.check(res.ok and res.worst_deviation < 1e-9, "commute_check")
    for space, masses in zip(blocks, case["masses"]):
        ok, rho = rec.call("mid", "correlation_rho", C.correlation_rho, space)
        if ok:
            rec.check(abs(rho - checks.bit_space_rho(masses)) < 1e-9,
                      "rho of a bit block")
    ok, rho = rec.call("mid", "correlation_rho", C.correlation_rho,
                       case["t2_space"])
    if ok:
        rec.check(rho <= math.sqrt(1 - float(case["eps"])) + 1e-9,
                  "block rho above sqrt(1-eps)")


def _decode(rec, lib, case):
    R = lib.reductions
    source, tables, seed = case["source"], case["tables"], case["seed"]
    planted = lib.labelcover.Labeling(*case["planted"])
    runs = (
        ("decode_t1", R.decode_t1, (tables, source, Fraction(1, 4), 2, seed)),
        ("decode_t2", R.decode_t2, (tables, source, Fraction(1, 8), seed)),
        ("decode_t3", R.decode_t3, (tables, source, seed)),
    )
    for label, fn, args in runs:
        ok, res = rec.call("light", label, fn, *args)
        if not ok:
            continue
        lab = res.labeling
        rec.check(res.value == checks.labeling_value(
            case["edges"], lab.left, lab.right), label + ": value recount")
        if label != "decode_t2":
            rec.check(lab == planted and res.value == 1,
                      label + ": planted labeling")


def run_round(rec, lib, inputs):
    for case in inputs["gap"]:
        with rec.case("gap"):
            _gap(rec, lib, case)
    for case in inputs["decomposition"]:
        with rec.case("decomposition"):
            _decomposition(rec, lib, case)
    for case in inputs["decode"]:
        with rec.case("decode"):
            _decode(rec, lib, case)


def named_metrics(rec):
    median = statistics.median
    return [
        ("invariance_gap_s", median(rec.samples["invariance_gap"]), "s"),
        ("decomposition_s", median(rec.samples["decomposition"]), "s"),
        ("decode_s", median(rec.samples["decode_t1"] + rec.samples["decode_t2"]
                            + rec.samples["decode_t3"]), "s"),
    ]
