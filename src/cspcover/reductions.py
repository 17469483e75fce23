"""Three long-code test reductions from projection games to covering CSPs:
exact weighted-instance generators, completeness-witness constructors, the
parity rejection arithmetization, and the randomized decoding procedures.

All generators enumerate the full test support with exact rational weights
and refuse (budget error) past a support cap; the sample_* variants draw a
seeded multiset instead and are not exact. Tables are stored over {0,1} (or
[q]); conversions to the +/-1 convention happen inside the operations that
need them.
"""

import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction

from .boolanalysis import (
    ProductDomain,
    TabulatedFunction,
    all_degree_d_influences,
    compose_projection,
    fourier,
    pi_tilde,
)
from .correlated import CorrelatedSpace
from .csp import Assignment, CoverSet, CspInstance, covered_fractions
from .errors import BudgetExceededError, PreconditionError, as_budget
from .labelcover import Labeling, satisfied_fraction
from .predicate import lin, nae, translate_orbit

DEFAULT_SUPPORT_CAP = 4_000_000


# ---------------------------------------------------------------------------
# Parameter bundles


class T1Params:
    """First test: predicate P between the translate closure of a and NAE,
    over a unique (bijective-projection) source."""

    __slots__ = ("predicate", "a", "source", "strict")

    def __init__(self, predicate, a, source):
        q, k = predicate.q, predicate.k
        a = tuple(int(x) for x in a)
        if k < 2:
            raise PreconditionError("need arity at least 2")
        naepred = nae(q, k)
        if a not in naepred:
            raise PreconditionError("a must be a nonconstant tuple in [q]^k")
        for t in translate_orbit(q, k, a):
            if t not in predicate:
                raise PreconditionError(
                    "predicate must contain every translate of a"
                )
        if not predicate.issubset(naepred):
            raise PreconditionError("predicate must avoid constant tuples")
        if not source.unique:
            raise PreconditionError("source must have bijective projections")
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "strict", len(predicate) < len(naepred))

    def __setattr__(self, name, value):
        raise AttributeError("T1Params is immutable")


def _check_distribution(dist, k):
    out = {}
    for key, w in dict(dist).items():
        key = tuple(int(b) for b in key)
        if len(key) != k or any(b not in (0, 1) for b in key):
            raise PreconditionError("distribution keys must be k-bit tuples")
        w = Fraction(w)
        if w < 0:
            raise PreconditionError("distribution weights must be nonnegative")
        if w:
            out[key] = out.get(key, Fraction(0)) + w
    if sum(out.values()) != 1:
        raise PreconditionError("distribution must sum to 1 exactly")
    return out


class T2Params:
    """Second test: a 2k-ary parity-style predicate with a matched pair of
    column distributions and per-block noise, over a d-to-1 source."""

    __slots__ = ("predicate", "p0", "p1", "eps", "source", "k", "d")

    def __init__(self, predicate, p0, p1, eps, source):
        if predicate.q != 2 or predicate.k % 2 != 0:
            raise PreconditionError("predicate must be binary with even arity")
        k = predicate.k // 2
        if not predicate.issubset(lin(2 * k)):
            raise PreconditionError("predicate must contain odd-parity tuples only")
        p0 = _check_distribution(p0, k)
        p1 = _check_distribution(p1, k)
        for dist, par in ((p0, 0), (p1, 1)):
            for key in dist:
                if sum(key) % 2 != par:
                    raise PreconditionError(
                        "support parity must be %d throughout" % par
                    )
            for c in range(k):
                mass = sum(w for key, w in dist.items() if key[c] == 0)
                if mass != Fraction(1, 2):
                    raise PreconditionError(
                        "single-coordinate marginals must be uniform"
                    )
        for a in p0:
            for b in p1:
                if a + b not in predicate or b + a not in predicate:
                    raise PreconditionError(
                        "both concatenation orders must satisfy the predicate"
                    )
        eps = Fraction(eps)
        if not Fraction(0) < eps <= Fraction(1, 2):
            raise PreconditionError("noise rate must lie in (0, 1/2]")
        L, R = source.nlabels_u, source.nlabels_v
        if R % L != 0:
            raise PreconditionError("right label count must be a multiple of the left")
        d = R // L
        for e in source.edges:
            counts = [0] * L
            for j in range(R):
                counts[e.proj[j]] += 1
            if any(c != d for c in counts):
                raise PreconditionError(
                    "every projection fiber must have size exactly %d" % d
                )
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("T2Params is immutable")


class T3Params:
    """Third test: plain noise rate over any projection-game source."""

    __slots__ = ("eps", "source")

    def __init__(self, eps, source):
        eps = Fraction(eps)
        if not Fraction(0) < eps < Fraction(1):
            raise PreconditionError("noise rate must lie in (0, 1)")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "source", source)

    def __setattr__(self, name, value):
        raise AttributeError("T3Params is immutable")


# ---------------------------------------------------------------------------
# Shared helpers


def _table_domain(q, width):
    return ProductDomain((q,) * width)


def _grid_variables(g, q, width):
    """Variable labels (v, point) for all right vertices over [q]^width."""
    dom = _table_domain(q, width)
    variables = []
    for v in range(g.nv):
        for p in range(dom.size):
            variables.append((v, dom.point(p)))
    index = {lab: i for i, lab in enumerate(variables)}
    return dom, variables, index


def _incident_or_error(g, u):
    eids = g.edges_at_u(u)
    if not eids:
        raise PreconditionError("left vertex %d has no incident edges" % u)
    return eids


def _to_pm_values(f):
    """{0,1} (or already +/-1) table values -> +/-1 convention."""
    vals = set(f.values)
    if vals <= {Fraction(0), Fraction(1)}:
        return TabulatedFunction(f.domain, (1 - 2 * v for v in f.values))
    if vals <= {Fraction(-1), Fraction(1)}:
        return f
    raise PreconditionError("table values must be bits or signs")


def _check_cap(count, support_cap):
    cap = DEFAULT_SUPPORT_CAP if support_cap is None else int(support_cap)
    if count > cap:
        raise BudgetExceededError(
            "test support has %d atoms, above the cap of %d; "
            "use the sampling mode instead" % (count, cap)
        )


# ---------------------------------------------------------------------------
# Test 1


def t1_column_support(q, k, a):
    """All column pairs (y, y') with y or y' a translate of a; sorted."""
    orbit = set(translate_orbit(q, k, a))
    tuples = list(itertools.product(range(q), repeat=k))
    return tuple(
        sorted(
            (y, yp)
            for y in tuples
            for yp in tuples
            if y in orbit or yp in orbit
        )
    )


def t1_connect_atoms(q, k, a):
    """The same support viewed coordinatewise: k-tuples of value pairs."""
    return tuple(
        tuple(zip(y, yp)) for (y, yp) in t1_column_support(q, k, a)
    )


def _t1_atom_count(params):
    g = params.source
    sl = len(t1_column_support(params.predicate.q, params.predicate.k, params.a))
    count = 0
    for u in range(g.nu):
        deg = len(g.edges_at_u(u))
        count += deg ** params.predicate.k * sl ** g.nlabels_u
    return count


def generate_t1(params, budget=None, support_cap=None):
    """Exact weighted instance of the first test over the source game.

    One constraint per (left vertex, neighbor sequence, column-pair matrix);
    weights are exact probabilities summing to 1; literals are all zero.
    """
    budget = as_budget(budget)
    g = params.source
    pred = params.predicate
    q, k = pred.q, pred.k
    L = g.nlabels_u
    R = g.nlabels_v
    _check_cap(_t1_atom_count(params), support_cap)
    S = t1_column_support(q, k, params.a)
    sl = len(S)
    dom, variables, var_index = _grid_variables(g, q, 2 * R)
    query = _t1_query(g, S, var_index)
    zeros = (0,) * k
    constraints = []
    for u in range(g.nu):
        eids = _incident_or_error(g, u)
        wu = (
            Fraction(1, g.nu)
            * Fraction(1, len(eids)) ** k
            * Fraction(1, sl) ** L
        )
        for combo in itertools.product(eids, repeat=k):
            for spick in itertools.product(range(sl), repeat=L):
                budget.spend()
                constraints.append((query(combo, spick), zeros, wu))
    return CspInstance(pred, variables, constraints)


def _t1_query(g, S, var_index):
    """The map from a neighbor sequence and one column pair of S per left
    label to the queried variables."""

    def query(combo, spick):
        vars_ = []
        for j, e in enumerate(combo):
            x = tuple(S[s][0][j] for s in spick) + tuple(S[s][1][j] for s in spick)
            edge = g.edges[e]
            vars_.append(var_index[(edge.v, compose_projection(x, edge.proj))])
        return tuple(vars_)

    return query


def _check_labelings_cover(g, labelings):
    for lab in labelings:
        if len(lab.left) != g.nu or len(lab.right) != g.nv:
            raise PreconditionError("labeling does not match the source")
    for u in range(g.nu):
        ok = False
        for lab in labelings:
            if all(
                g.edges[i].proj[lab.right[g.edges[i].v]] == lab.left[g.edges[i].u]
                for i in g.edges_at_u(u)
            ):
                ok = True
                break
        if not ok:
            raise PreconditionError(
                "labelings do not cover left vertex %d" % u
            )


def t1_completeness_witness(params, labelings, inst=None):
    """Two assignments per covering labeling: first-half and second-half
    half-dictators. Their union covers every generated constraint exactly."""
    return CoverSet(completeness_witness(params, labelings, inst, generate_t1)[0])


def _half_dictators(inst, R, labeling):
    """The assignments x -> x[label(v)] and x -> x[R + label(v)]."""
    right = labeling.right
    return (
        Assignment([x[right[v]] for v, x in inst.variables]),
        Assignment([x[R + right[v]] for v, x in inst.variables]),
    )


# ---------------------------------------------------------------------------
# Test 2


def _half_products(dist, d, scale):
    """Integer product weights, over scale^d, of d independent columns from
    dist, in column-tuple order."""
    ints = {c: w.numerator * (scale // w.denominator) for c, w in dist.items()}
    return [
        (cols, math.prod(ints[c] for c in cols))
        for cols in itertools.product(sorted(dist), repeat=d)
    ]


def _t2_block_numerators(params):
    """The block table over integers: sorted (key, numerator) pairs and their
    common denominator."""
    k, d, eps = params.k, params.d, params.eps
    scale = math.lcm(
        *(w.denominator for p in (params.p0, params.p1) for w in p.values())
    )
    e, E = eps.numerator, eps.denominator
    unif = 4 ** (k * d)
    unif_cols = list(itertools.product(itertools.product((0, 1), repeat=k), repeat=d))
    # Every term over 2 * E * scale^(4d) * unif, with eps = e / E: a term
    # keeping both halves has numerator (E - 2e) * unif times its four column
    # products, a term refreshing one half e * scale^(2d) times its two.
    stay = (E - 2 * e) * unif
    refresh = e * scale ** (2 * d)
    table = {}

    def add(key, w):
        if w:
            table[key] = table.get(key, 0) + w

    for px, py in ((params.p0, params.p1), (params.p1, params.p0)):
        hx = _half_products(px, d, scale)
        hy = _half_products(py, d, scale)
        for xu, wxu in hx:
            for xp, wxp in hx:
                for yu, wyu in hy:
                    for yp, wyp in hy:
                        add((xu + xp, yu + yp), stay * wxu * wxp * wyu * wyp)
        for xu, wxu in hx:
            for yu, wyu in hy:
                base = refresh * wxu * wyu
                for xr in unif_cols:
                    for yr in unif_cols:
                        add((xu + xr, yu + yr), base)
        for xp, wxp in hx:
            for yp, wyp in hy:
                base = refresh * wxp * wyp
                for xr in unif_cols:
                    for yr in unif_cols:
                        add((xr + xp, yr + yp), base)
    return sorted(table.items()), 2 * E * scale ** (4 * d) * unif


def t2_block_table(params):
    """Joint distribution of one block: 2d X-columns and 2d Y-columns.

    Keys are (xcols, ycols) with each side a tuple of 2d column tuples (the
    first d on the plain fiber, the last d on the shifted copy); values are
    exact probabilities summing to 1.
    """
    pairs, den = _t2_block_numerators(params)
    return {key: Fraction(n, den) for key, n in pairs}


def _cols_to_rows(cols, k):
    return tuple(tuple(col[j] for col in cols) for j in range(k))


def t2_block_space(params):
    """The block distribution as a correlated space of row tuples: left atoms
    are the k X-rows, right atoms the k Y-rows (each row 2d bits)."""
    k = params.k
    mu = {}
    for (xcols, ycols), w in t2_block_table(params).items():
        key = (_cols_to_rows(xcols, k), _cols_to_rows(ycols, k))
        mu[key] = mu.get(key, Fraction(0)) + w
    return CorrelatedSpace(mu)


def t2_block_last_row_space(params):
    """The same block split for the correlation bound: everything except the
    last Y-row on the left, the last Y-row alone on the right."""
    k = params.k
    mu = {}
    for (xcols, ycols), w in t2_block_table(params).items():
        xrows = _cols_to_rows(xcols, k)
        yrows = _cols_to_rows(ycols, k)
        key = (xrows + yrows[:-1], (yrows[-1],))
        mu[key] = mu.get(key, Fraction(0)) + w
    return CorrelatedSpace(mu)


def _edge_fibers(g, eid):
    R = g.nlabels_v
    L = g.nlabels_u
    proj = g.edges[eid].proj
    fibers = [[] for _ in range(L)]
    for j in range(R):
        fibers[proj[j]].append(j)
    return fibers


def _t2_atom_count(params, block_size):
    g = params.source
    count = 0
    for u in range(g.nu):
        deg = len(g.edges_at_u(u))
        count += deg * deg * block_size ** g.nlabels_u
    return count


def _t2_queries(params):
    """The block table as (key, numerator) pairs with their common
    denominator, and the map from an edge pair and one block pick per left
    label to the 2k queried variables."""
    g, k = params.source, params.k
    R = g.nlabels_v
    block, den = _t2_block_numerators(params)
    memo = {}

    def rows(e, i, cols):
        """The point-index contribution of 2d columns laid on fiber i of
        edge e (positions fiber + (R + fiber)) to each of the k rows."""
        key = (e, i, cols)
        if key not in memo:
            fiber = _edge_fibers(g, e)[i]
            shifts = fiber + [R + j for j in fiber]
            memo[key] = tuple(
                sum(col[j] << s for col, s in zip(cols, shifts))
                for j in range(k)
            )
        return memo[key]

    def query(ev, ew, picks):
        vars_ = [g.edges[ev].v << 2 * R] * k + [g.edges[ew].v << 2 * R] * k
        for i, b in enumerate(picks):
            xcols, ycols = block[b][0]
            for j, o in enumerate(rows(ev, i, xcols) + rows(ew, i, ycols)):
                vars_[j] += o
        return tuple(vars_)

    return block, den, query


def generate_t2(params, budget=None, support_cap=None):
    """Exact weighted instance of the second test over the d-to-1 source.

    One 2k-ary constraint per (left vertex, edge pair, block assignment);
    the first k queried variables belong to the first endpoint, the last k
    to the second. Literals are all zero; weights sum to 1.
    """
    budget = as_budget(budget)
    g = params.source
    L = g.nlabels_u
    block, scale, query = _t2_queries(params)
    _check_cap(_t2_atom_count(params, len(block)), support_cap)
    _, variables, _ = _grid_variables(g, 2, 2 * g.nlabels_v)
    zeros = (0,) * (2 * params.k)
    constraints = []
    for u in range(g.nu):
        eids = _incident_or_error(g, u)
        den = g.nu * len(eids) ** 2 * scale ** L
        for ev in eids:
            for ew in eids:
                for picks in itertools.product(range(len(block)), repeat=L):
                    budget.spend()
                    w = Fraction(math.prod(block[b][1] for b in picks), den)
                    constraints.append((query(ev, ew, picks), zeros, w))
    return CspInstance(params.predicate, variables, constraints)


def t2_completeness_witness(params, labeling, inst=None):
    """The two half-dictator assignments of a satisfying labeling.

    Each covers at least a 1-eps weight fraction (exactly computed) and
    together they cover everything; both facts are asserted.
    """
    return tuple(completeness_witness(params, [labeling], inst, generate_t2)[0])


# ---------------------------------------------------------------------------
# Rejection arithmetization


class RejectionIdentityResult:
    __slots__ = ("t", "lhs", "rhs", "deviation", "correlations",
                 "threshold", "witnesses")

    def __init__(self, t, lhs, rhs, correlations):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "deviation", lhs - rhs)
        object.__setattr__(self, "correlations", dict(correlations))
        threshold = Fraction(-1, 2 ** t - 1)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(
            self,
            "witnesses",
            tuple(
                sorted(s for s, c in correlations.items() if c <= threshold)
            ),
        )

    def __setattr__(self, name, value):
        raise AttributeError("RejectionIdentityResult is immutable")

    def __repr__(self):
        return "RejectionIdentityResult(t=%d, deviation=%s)" % (
            self.t, self.deviation,
        )


def rejection_identity_check(assignments, inst, budget=None):
    """Both sides of the parity rejection expansion, exactly.

    The left side is the weight of constraints on which every one of the t
    assignments has even total parity (rejection under the odd-parity
    reading); the right side is 1/2^t plus 1/2^t times the sum over nonempty
    index sets S of the signed correlation of the S-products. Also reports,
    per S, whether the correlation reaches the -1/(2^t - 1) threshold.
    """
    budget = as_budget(budget)
    t = len(assignments)
    if not 1 <= t <= 3:
        raise PreconditionError("between 1 and 3 assignments required")
    rows = []
    for a in assignments:
        a = a if isinstance(a, Assignment) else Assignment(a)
        if len(a.values) != inst.nvars:
            raise PreconditionError("assignment does not match the instance")
        if any(v not in (0, 1) for v in a.values):
            raise PreconditionError("assignments must be binary")
        rows.append(a.values)
    # by_parity[m]: weight of the constraints on which assignment i has odd
    # parity exactly for the bits i set in m.
    by_parity = [0] * (1 << t)
    for c, w in zip(inst.constraints, inst.numerators):
        budget.spend()
        m = 0
        for i, row in enumerate(rows):
            m |= (sum(map(row.__getitem__, c.vars)) & 1) << i
        by_parity[m] += w
    total = sum(inst.numerators)
    correlations = {}
    for r in range(1, t + 1):
        for s in itertools.combinations(range(t), r):
            mask = sum(1 << i for i in s)
            correlations[s] = Fraction(sum(
                -w if (m & mask).bit_count() % 2 else w
                for m, w in enumerate(by_parity)
            ), total)
    lhs = Fraction(by_parity[0], total)
    rhs = Fraction(1, 2 ** t) * (1 + sum(correlations.values()))
    return RejectionIdentityResult(t, lhs, rhs, correlations)


# ---------------------------------------------------------------------------
# Decoders


def _mask_bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _sample_mask(rng, masses):
    """Walk the (mask, mass) list; anything left over selects the fallback."""
    r = rng.random()
    acc = 0.0
    for mask, mass in masses:
        acc += mass
        if r < acc:
            return mask
    return None


def _fourier_masses(f, rate):
    """(mask, rate^|mask| * coefficient^2) pairs for sign-converted f."""
    fh = fourier(_to_pm_values(f))
    out = []
    for mask, coeff in enumerate(fh.coefficients):
        if coeff:
            out.append(
                (mask, float(Fraction(rate) ** bin(mask).count("1") * coeff * coeff))
            )
    return out, fh


class T1DecodeResult:
    __slots__ = ("labeling", "value", "lab_sizes_left", "lab_sizes_right",
                 "size_bound", "sizes_ok")

    def __init__(self, labeling, value, lab_sizes_left, lab_sizes_right,
                 size_bound):
        object.__setattr__(self, "labeling", labeling)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "lab_sizes_left", tuple(lab_sizes_left))
        object.__setattr__(self, "lab_sizes_right", tuple(lab_sizes_right))
        object.__setattr__(self, "size_bound", size_bound)
        ok = all(
            s <= size_bound
            for s in tuple(lab_sizes_left) + tuple(lab_sizes_right)
        )
        object.__setattr__(self, "sizes_ok", ok)

    def __setattr__(self, name, value):
        raise AttributeError("T1DecodeResult is immutable")


def decode_t1(tables, source, tau, d, seed):
    """Influence decoding for the first test.

    Right labels come uniformly from the set of paired blocks (i, L+i) with
    degree-d influence at least tau/2; left vertices average their
    neighbors' composed tables and use threshold tau. Empty sets fall back
    to label 0. Also reports the 2d/tau cap on the set sizes.
    """
    tau = Fraction(tau)
    if tau <= 0:
        raise PreconditionError("threshold must be positive")
    d = int(d)
    if d < 1:
        raise PreconditionError("degree must be at least 1")
    if not source.unique:
        raise PreconditionError("source must have bijective projections")
    rng = random.Random(seed)
    L = source.nlabels_u
    R = source.nlabels_v
    blocks = [(i, L + i) for i in range(L)]
    labs_right = []
    for v in range(source.nv):
        f = tables[v]
        infl = all_degree_d_influences(f, d, blocks)
        labs_right.append([i for i in range(L) if infl[i] >= tau / 2])
    labs_left = []
    for u in range(source.nu):
        eids = _incident_or_error(source, u)
        dom = tables[source.edges[eids[0]].v].domain
        acc = [Fraction(0)] * dom.size
        share = Fraction(1, len(eids))
        for e in eids:
            edge = source.edges[e]
            fw = tables[edge.v]
            for p in range(dom.size):
                composed = compose_projection(dom.point(p), edge.proj)
                acc[p] += share * fw.values[fw.domain.index(composed)]
        fu = TabulatedFunction(dom, acc)
        infl = all_degree_d_influences(fu, d, blocks)
        labs_left.append([i for i in range(L) if infl[i] >= tau])
    left = []
    for u in range(source.nu):
        cands = labs_left[u]
        left.append(cands[rng.randrange(len(cands))] if cands else 0)
    right = []
    for v in range(source.nv):
        cands = labs_right[v]
        right.append(cands[rng.randrange(len(cands))] if cands else 0)
    labeling = Labeling(left, right)
    value = satisfied_fraction(source, labeling)
    bound = Fraction(2 * d) / tau
    return T1DecodeResult(
        labeling,
        value,
        [len(c) for c in labs_left],
        [len(c) for c in labs_right],
        bound,
    )


class T2DecodeResult:
    __slots__ = ("labeling", "value", "expected_value_bound", "gamma")

    def __init__(self, labeling, value, expected_value_bound, gamma):
        object.__setattr__(self, "labeling", labeling)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "expected_value_bound", expected_value_bound)
        object.__setattr__(self, "gamma", gamma)

    def __setattr__(self, name, value):
        raise AttributeError("T2DecodeResult is immutable")


def decode_t2(tables, source, gamma, seed):
    """Attenuated-spectral-sample decoding for the second test.

    Every right vertex samples an index set with probability proportional to
    (1-gamma)^|set| times its squared coefficient, picks a uniform member,
    and folds indices past R back down; left vertices sample through a
    random incident edge and project the picked index. All remaining
    probability falls back to label 0. Reports the gamma^2-scaled
    expectation bound alongside the achieved value.
    """
    gamma = Fraction(gamma)
    if not Fraction(0) < gamma < 1:
        raise PreconditionError("gamma must lie in (0, 1)")
    rng = random.Random(seed)
    R = source.nlabels_v
    L = source.nlabels_u
    rate = 1 - gamma
    masses = {}
    spectra = {}
    for v in range(source.nv):
        masses[v], spectra[v] = _fourier_masses(tables[v], rate)
    right = []
    for v in range(source.nv):
        mask = _sample_mask(rng, masses[v])
        if not mask:
            right.append(0)
            continue
        bits = _mask_bits(mask)
        j = bits[rng.randrange(len(bits))]
        right.append(j if j < R else j - R)
    left = []
    for u in range(source.nu):
        eids = _incident_or_error(source, u)
        e = source.edges[eids[rng.randrange(len(eids))]]
        mask = _sample_mask(rng, masses[e.v])
        if not mask:
            left.append(0)
            continue
        bits = _mask_bits(mask)
        j = bits[rng.randrange(len(bits))]
        left.append(e.proj[j if j < R else j - R])
    labeling = Labeling(left, right)
    value = satisfied_fraction(source, labeling)
    # Expectation bound: per (u, edge pair), sum over left labels of the
    # products of attenuated spectral weights that project onto that label.
    rate2 = rate * rate

    def edge_profile(eid):
        proj = source.edges[eid].proj
        fh = spectra[source.edges[eid].v]
        prof = [Fraction(0)] * L
        for mask, coeff in enumerate(fh.coefficients):
            if not coeff or not mask:
                continue
            w = rate2 ** bin(mask).count("1") * coeff * coeff
            for i in pi_tilde(_mask_bits(mask), proj):
                prof[i] += w
        return prof

    profiles = {eid: edge_profile(eid) for eid in range(len(source.edges))}
    expect = Fraction(0)
    for u in range(source.nu):
        eids = source.edges_at_u(u)
        share = Fraction(1, source.nu) * Fraction(1, len(eids)) ** 2
        for ev in eids:
            for ew in eids:
                tau_uvw = sum(
                    (profiles[ev][i] * profiles[ew][i] for i in range(L)),
                    Fraction(0),
                )
                expect += share * tau_uvw
    bound = gamma * gamma * expect
    return T2DecodeResult(labeling, value, bound, gamma)


class T3DecodeResult:
    __slots__ = ("labeling", "value")

    def __init__(self, labeling, value):
        object.__setattr__(self, "labeling", labeling)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("T3DecodeResult is immutable")


def decode_t3(tables, source, seed):
    """Plain spectral-sample decoding for the third test.

    Left vertices pick a random neighbor, sample an index set by squared
    coefficient, and take a uniform label from its folded projection; right
    vertices sample their own set and fold a uniform member. Empty sets fall
    back to label 0.
    """
    rng = random.Random(seed)
    R = source.nlabels_v
    masses = {}
    for v in range(source.nv):
        masses[v], _ = _fourier_masses(tables[v], 1)
    left = []
    for u in range(source.nu):
        eids = _incident_or_error(source, u)
        e = source.edges[eids[rng.randrange(len(eids))]]
        mask = _sample_mask(rng, masses[e.v])
        if not mask:
            left.append(0)
            continue
        image = sorted(pi_tilde(_mask_bits(mask), e.proj))
        left.append(image[rng.randrange(len(image))])
    right = []
    for v in range(source.nv):
        mask = _sample_mask(rng, masses[v])
        if not mask:
            right.append(0)
            continue
        bits = _mask_bits(mask)
        j = bits[rng.randrange(len(bits))]
        right.append(j if j < R else j - R)
    labeling = Labeling(left, right)
    return T3DecodeResult(labeling, satisfied_fraction(source, labeling))


# ---------------------------------------------------------------------------
# Test 3


def _flips(base, support):
    """base with each subset of the support positions flipped, one tuple per
    subset; all distinct."""
    out = []
    for zbits in itertools.product((0, 1), repeat=len(support)):
        flipped = list(base)
        for j, b in zip(support, zbits):
            flipped[j] ^= b
        out.append(tuple(flipped))
    return out


def t3_delta_table(g, ev, ew, eps, budget=None):
    """Joint distribution of the two argument offsets for an edge pair.

    The second and fourth query points differ from the first and third by
    these offsets; enumerating them directly keeps the support small because
    the masked randomness only matters where the noise mask is set.
    """
    budget = as_budget(budget)
    L = g.nlabels_u
    R = g.nlabels_v
    pv = g.edges[ev].proj
    pw = g.edges[ew].proj
    eps = Fraction(eps)
    case_weights = (1 - 2 * eps, eps, eps)
    out = {}
    for cases in itertools.product(range(3), repeat=L):
        wc = Fraction(1)
        for c in cases:
            wc *= case_weights[c]
        if not wc:
            continue
        eta = [0] * (2 * L)
        etap = [0] * (2 * L)
        for i, c in enumerate(cases):
            if c == 1:
                eta[i] = 1
                etap[i] = 1
            elif c == 2:
                eta[L + i] = 1
                etap[L + i] = 1
        mask_v = compose_projection(tuple(eta), pv)
        mask_w = compose_projection(tuple(etap), pw)
        sup_v = [j for j in range(2 * R) if mask_v[j]]
        sup_w = [j for j in range(2 * R) if mask_w[j]]
        w = wc * Fraction(1, 2 ** (2 * L + len(sup_v) + len(sup_w)))
        for y in itertools.product((0, 1), repeat=2 * L):
            budget.spend()
            deltas_w = _flips(compose_projection(y, pw), sup_w)
            for dv in _flips(compose_projection(y, pv), sup_v):
                for dw in deltas_w:
                    out[(dv, dw)] = out.get((dv, dw), Fraction(0)) + w
    return dict(sorted(out.items()))


def generate_t3(params, budget=None, support_cap=None):
    """Exact weighted four-query parity instance of the third test.

    Query points one and three are uniform; two and four add the correlated
    offsets; the literal vector is exactly (0, 0, 0, 1) on every constraint.
    """
    budget = as_budget(budget)
    g = params.source
    R = g.nlabels_v
    deltas = {}
    for u in range(g.nu):
        eids = _incident_or_error(g, u)
        for ev in eids:
            for ew in eids:
                if (ev, ew) not in deltas:
                    deltas[(ev, ew)] = t3_delta_table(
                        g, ev, ew, params.eps, budget
                    )
    npoints = 2 ** (2 * R)
    count = 0
    for u in range(g.nu):
        eids = g.edges_at_u(u)
        for ev in eids:
            for ew in eids:
                count += npoints * npoints * len(deltas[(ev, ew)])
    _check_cap(count, support_cap)
    dom, variables, _ = _grid_variables(g, 2, 2 * R)
    literals = (0, 0, 0, 1)
    unif2 = Fraction(1, npoints * npoints)
    constraints = []
    for u in range(g.nu):
        eids = _incident_or_error(g, u)
        wu = Fraction(1, g.nu) * Fraction(1, len(eids)) ** 2
        for ev in eids:
            for ew in eids:
                for (dv, dw), wdel in deltas[(ev, ew)].items():
                    w = wu * wdel * unif2
                    mv, mw = dom.index(dv), dom.index(dw)
                    for x in range(npoints):
                        for xp in range(npoints):
                            budget.spend()
                            constraints.append(
                                (_t3_query(g, ev, ew, mv, mw, x, xp), literals, w)
                            )
    return CspInstance(lin(4), variables, constraints)


def _t3_query(g, ev, ew, mv, mw, x, xp):
    """The four queried variables: points x and x + offset mv at the right
    endpoint of ev, xp and xp + mw at that of ew. Points and offsets are
    indices into [2]^2R, so adding an offset is XOR of indices."""
    bv = g.edges[ev].v << 2 * g.nlabels_v
    bw = g.edges[ew].v << 2 * g.nlabels_v
    return (bv + x, bv + (x ^ mv), bw + xp, bw + (xp ^ mw))


def t3_completeness_witness(params, labeling, inst=None):
    """Half-dictator pair for the third test; same contract as the second."""
    return tuple(completeness_witness(params, [labeling], inst, generate_t3)[0])


def completeness_witness(params, labelings, inst=None, generate=None):
    """The half-dictator witness of the test of `params`: (assignments, the
    covered fraction of each, that of their union), from one coverage pass.

    The labelings are checked before anything is generated: for t1 they must
    together cover every left vertex; for t2 and t3 there must be exactly one,
    satisfying every edge. Then, when `inst` is None, `generate(params)` builds
    the instance. Asserts that the union covers the instance and, for t2 and
    t3, that each assignment covers at least 1 - eps.
    """
    g = params.source
    labelings = [
        lab if isinstance(lab, Labeling) else Labeling(*lab) for lab in labelings
    ]
    t1 = isinstance(params, T1Params)
    if t1:
        _check_labelings_cover(g, labelings)
    elif len(labelings) != 1:
        raise PreconditionError("expected exactly one labeling")
    elif satisfied_fraction(g, labelings[0]) != 1:
        raise PreconditionError("labeling does not satisfy every edge")
    if inst is None:
        inst = generate(params)
    R = g.nlabels_v
    assignments = [a for lab in labelings for a in _half_dictators(inst, R, lab)]
    fractions, union = covered_fractions(assignments, inst)
    if not t1:
        if fractions[0] < 1 - params.eps:
            raise ArithmeticError("first witness covers less than 1-eps")
        if fractions[1] < 1 - params.eps:
            raise ArithmeticError("second witness covers less than 1-eps")
    if union != 1:
        raise ArithmeticError(
            "witness failed to cover the generated instance" if t1
            else "witness pair failed to cover the instance"
        )
    return assignments, fractions, union


# ---------------------------------------------------------------------------
# Dictator table builders (shared by tests and the CLI)


def t1_dictator_tables(params, labeling):
    """Per-right-vertex tables x -> x[label(v)] over [q]^{2R}."""
    g = params.source
    labeling = (
        labeling if isinstance(labeling, Labeling) else Labeling(*labeling)
    )
    q = params.predicate.q
    R = g.nlabels_v
    dom = _table_domain(q, 2 * R)
    out = {}
    for v in range(g.nv):
        ell = labeling.right[v]
        out[v] = TabulatedFunction(
            dom, (dom.point(p)[ell] for p in range(dom.size))
        )
    return out


def binary_dictator_tables(source, labeling, shifted=False):
    """Per-right-vertex bit tables x -> x[label(v)] (or x[R + label(v)])."""
    labeling = (
        labeling if isinstance(labeling, Labeling) else Labeling(*labeling)
    )
    R = source.nlabels_v
    dom = ProductDomain.binary_uniform(2 * R)
    off = R if shifted else 0
    out = {}
    for v in range(source.nv):
        ell = labeling.right[v] + off
        out[v] = TabulatedFunction(
            dom, (dom.point(p)[ell] for p in range(dom.size))
        )
    return out


# ---------------------------------------------------------------------------
# Seeded sampling modes (non-exact)


def sample_t1(params, n, seed):
    """Multiset instance of n sampled tests, each of weight 1/n. Not exact."""
    n = int(n)
    if n < 1:
        raise PreconditionError("need at least one sample")
    rng = random.Random(seed)
    g = params.source
    q, k = params.predicate.q, params.predicate.k
    L = g.nlabels_u
    R = g.nlabels_v
    S = t1_column_support(q, k, params.a)
    dom, variables, var_index = _grid_variables(g, q, 2 * R)
    query = _t1_query(g, S, var_index)
    zeros = (0,) * k
    w = Fraction(1, n)
    constraints = []
    for _ in range(n):
        u = rng.randrange(g.nu)
        eids = _incident_or_error(g, u)
        combo = [eids[rng.randrange(len(eids))] for _ in range(k)]
        spick = [rng.randrange(len(S)) for _ in range(L)]
        constraints.append((query(combo, spick), zeros, w))
    return CspInstance(params.predicate, variables, constraints)


def _cumulative(items):
    """Keys and float running sums of (key, weight) pairs, in order."""
    keys, weights = zip(*items)
    return keys, list(itertools.accumulate(float(w) for w in weights))


def _weighted_choice(rng, table):
    """The first key whose running sum exceeds a uniform draw, or the last
    key when rounding leaves the draw above every sum."""
    keys, sums = table
    return keys[min(bisect_right(sums, rng.random()), len(keys) - 1)]


def sample_t2(params, n, seed):
    """Multiset instance of n sampled tests for the second test. Not exact."""
    n = int(n)
    if n < 1:
        raise PreconditionError("need at least one sample")
    rng = random.Random(seed)
    g = params.source
    block, scale, query = _t2_queries(params)
    table = _cumulative([(b, m / scale) for b, (_, m) in enumerate(block)])
    _, variables, _ = _grid_variables(g, 2, 2 * g.nlabels_v)
    zeros = (0,) * (2 * params.k)
    w = Fraction(1, n)
    constraints = []
    for _ in range(n):
        u = rng.randrange(g.nu)
        eids = _incident_or_error(g, u)
        ev = eids[rng.randrange(len(eids))]
        ew = eids[rng.randrange(len(eids))]
        picks = [_weighted_choice(rng, table) for _ in range(g.nlabels_u)]
        constraints.append((query(ev, ew, picks), zeros, w))
    return CspInstance(params.predicate, variables, constraints)


def sample_t3(params, n, seed):
    """Multiset instance of n sampled tests for the third test. Not exact."""
    n = int(n)
    if n < 1:
        raise PreconditionError("need at least one sample")
    rng = random.Random(seed)
    g = params.source
    R = g.nlabels_v
    dom, variables, _ = _grid_variables(g, 2, 2 * R)
    literals = (0, 0, 0, 1)
    w = Fraction(1, n)
    deltas = {}
    constraints = []
    for _ in range(n):
        u = rng.randrange(g.nu)
        eids = _incident_or_error(g, u)
        ev = eids[rng.randrange(len(eids))]
        ew = eids[rng.randrange(len(eids))]
        if (ev, ew) not in deltas:
            deltas[(ev, ew)] = _cumulative(sorted(
                t3_delta_table(g, ev, ew, params.eps).items()
            ))
        mv, mw = map(dom.index, _weighted_choice(rng, deltas[(ev, ew)]))
        x, xp = (
            dom.index(tuple(rng.randrange(2) for _ in range(2 * R)))
            for _ in range(2)
        )
        constraints.append((_t3_query(g, ev, ew, mv, mw, x, xp), literals, w))
    return CspInstance(lin(4), variables, constraints)
