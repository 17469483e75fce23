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
from .csp import Assignment, CoverSet, CspInstance, covered_fraction
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
            projs = [g.edges[e].proj for e in combo]
            targets = [g.edges[e].v for e in combo]
            for spick in itertools.product(range(sl), repeat=L):
                budget.spend()
                vars_ = []
                for j in range(k):
                    xj = [0] * (2 * L)
                    for i, si in enumerate(spick):
                        y, yp = S[si]
                        xj[i] = y[j]
                        xj[L + i] = yp[j]
                    composed = compose_projection(tuple(xj), projs[j])
                    vars_.append(var_index[(targets[j], composed)])
                constraints.append((tuple(vars_), zeros, wu))
    return CspInstance(pred, variables, constraints)


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
    g = params.source
    labelings = [
        lab if isinstance(lab, Labeling) else Labeling(*lab) for lab in labelings
    ]
    _check_labelings_cover(g, labelings)
    if inst is None:
        inst = generate_t1(params)
    R = g.nlabels_v
    assignments = []
    for lab in labelings:
        f_vals = []
        g_vals = []
        for (v, x) in inst.variables:
            f_vals.append(x[lab.right[v]])
            g_vals.append(x[R + lab.right[v]])
        assignments.append(Assignment(f_vals))
        assignments.append(Assignment(g_vals))
    cover = CoverSet(assignments)
    if covered_fraction(cover, inst) != 1:
        raise ArithmeticError("witness failed to cover the generated instance")
    return cover


# ---------------------------------------------------------------------------
# Test 2


def _half_products(dist, d):
    """Product weights of d independent columns from dist, by column tuple."""
    out = {}
    for cols in itertools.product(sorted(dist), repeat=d):
        w = Fraction(1)
        for c in cols:
            w *= dist[c]
        out[cols] = w
    return out


def t2_block_table(params):
    """Joint distribution of one block: 2d X-columns and 2d Y-columns.

    Keys are (xcols, ycols) with each side a tuple of 2d column tuples (the
    first d on the plain fiber, the last d on the shifted copy); values are
    exact probabilities summing to 1.
    """
    k, d, eps = params.k, params.d, params.eps
    half = Fraction(1, 2)
    stay = 1 - 2 * eps
    unif_cols = list(itertools.product(itertools.product((0, 1), repeat=k), repeat=d))
    kdu = Fraction(1, 2 ** (k * d))
    table = {}

    def add(key, w):
        if w:
            table[key] = table.get(key, Fraction(0)) + w

    for c1 in (0, 1):
        px = params.p0 if c1 == 0 else params.p1
        py = params.p1 if c1 == 0 else params.p0
        hx = sorted(_half_products(px, d).items())
        hy = sorted(_half_products(py, d).items())
        for xu, wxu in hx:
            for xp, wxp in hx:
                for yu, wyu in hy:
                    for yp, wyp in hy:
                        add((xu + xp, yu + yp), half * stay * wxu * wxp * wyu * wyp)
        for xu, wxu in hx:
            for yu, wyu in hy:
                base = half * eps * wxu * wyu * kdu * kdu
                for xr in unif_cols:
                    for yr in unif_cols:
                        add((xu + xr, yu + yr), base)
        for xp, wxp in hx:
            for yp, wyp in hy:
                base = half * eps * wxp * wyp * kdu * kdu
                for xr in unif_cols:
                    for yr in unif_cols:
                        add((xr + xp, yr + yp), base)
    return dict(sorted(table.items()))


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


def generate_t2(params, budget=None, support_cap=None):
    """Exact weighted instance of the second test over the d-to-1 source.

    One 2k-ary constraint per (left vertex, edge pair, block assignment);
    the first k queried variables belong to the first endpoint, the last k
    to the second. Literals are all zero; weights sum to 1.
    """
    budget = as_budget(budget)
    g = params.source
    k = params.k
    d = params.d
    L = g.nlabels_u
    R = g.nlabels_v
    block = list(t2_block_table(params).items())
    _check_cap(_t2_atom_count(params, len(block)), support_cap)
    dom, variables, var_index = _grid_variables(g, 2, 2 * R)
    zeros = (0,) * (2 * k)
    constraints = []
    for u in range(g.nu):
        eids = _incident_or_error(g, u)
        wu = Fraction(1, g.nu) * Fraction(1, len(eids)) ** 2
        for ev in eids:
            fv = _edge_fibers(g, ev)
            tv = g.edges[ev].v
            for ew in eids:
                fw = _edge_fibers(g, ew)
                tw = g.edges[ew].v
                for picks in itertools.product(range(len(block)), repeat=L):
                    budget.spend()
                    w = wu
                    xcol = [None] * (2 * R)
                    ycol = [None] * (2 * R)
                    for i in range(L):
                        (xc, yc), bw = block[picks[i]]
                        w *= bw
                        for t, j in enumerate(fv[i]):
                            xcol[j] = xc[t]
                            xcol[R + j] = xc[d + t]
                        for t, j in enumerate(fw[i]):
                            ycol[j] = yc[t]
                            ycol[R + j] = yc[d + t]
                    vars_ = []
                    for j in range(k):
                        row = tuple(xcol[c][j] for c in range(2 * R))
                        vars_.append(var_index[(tv, row)])
                    for j in range(k):
                        row = tuple(ycol[c][j] for c in range(2 * R))
                        vars_.append(var_index[(tw, row)])
                    constraints.append((tuple(vars_), zeros, w))
    return CspInstance(params.predicate, variables, constraints)


def _check_labeling_satisfies(g, labeling):
    labeling = (
        labeling if isinstance(labeling, Labeling) else Labeling(*labeling)
    )
    if satisfied_fraction(g, labeling) != 1:
        raise PreconditionError("labeling does not satisfy every edge")
    return labeling


def t2_completeness_witness(params, labeling, inst=None):
    """The two half-dictator assignments of a satisfying labeling.

    Each covers at least a 1-eps weight fraction (exactly computed) and
    together they cover everything; both facts are asserted.
    """
    g = params.source
    labeling = _check_labeling_satisfies(g, labeling)
    if inst is None:
        inst = generate_t2(params)
    R = g.nlabels_v
    f_vals = []
    g_vals = []
    for (v, x) in inst.variables:
        f_vals.append(x[labeling.right[v]])
        g_vals.append(x[R + labeling.right[v]])
    f = Assignment(f_vals)
    h = Assignment(g_vals)
    one = Fraction(1)
    need = 1 - params.eps
    if covered_fraction(CoverSet([f]), inst) < need:
        raise ArithmeticError("first witness covers less than 1-eps")
    if covered_fraction(CoverSet([h]), inst) < need:
        raise ArithmeticError("second witness covers less than 1-eps")
    if covered_fraction(CoverSet([f, h]), inst) != one:
        raise ArithmeticError("witness pair failed to cover the instance")
    return f, h


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
    total = inst.total_weight()
    lhs = Fraction(0)
    sums = {
        s: Fraction(0)
        for r in range(1, t + 1)
        for s in itertools.combinations(range(t), r)
    }
    for c in inst.constraints:
        budget.spend()
        if c.weight == 0:
            continue
        signs = []
        for i in range(t):
            parity = 0
            for v in c.vars:
                parity ^= rows[i][v]
            signs.append(1 if parity == 0 else -1)
        if all(s == 1 for s in signs):
            lhs += c.weight
        for s in sums:
            prod = 1
            for i in s:
                prod *= signs[i]
            sums[s] += c.weight * prod
    lhs /= total
    correlations = {s: v / total for s, v in sums.items()}
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
        for y in itertools.product((0, 1), repeat=2 * L):
            budget.spend()
            wy = wc * Fraction(1, 2 ** (2 * L))
            base_v = compose_projection(y, pv)
            base_w = compose_projection(y, pw)
            deltas_v = {}
            for zbits in itertools.product((0, 1), repeat=len(sup_v)):
                dv = list(base_v)
                for j, b in zip(sup_v, zbits):
                    dv[j] ^= b
                key = tuple(dv)
                share = Fraction(1, 2 ** len(sup_v))
                deltas_v[key] = deltas_v.get(key, Fraction(0)) + share
            deltas_w = {}
            for zbits in itertools.product((0, 1), repeat=len(sup_w)):
                dw = list(base_w)
                for j, b in zip(sup_w, zbits):
                    dw[j] ^= b
                key = tuple(dw)
                share = Fraction(1, 2 ** len(sup_w))
                deltas_w[key] = deltas_w.get(key, Fraction(0)) + share
            for dv, wv in deltas_v.items():
                for dw, ww in deltas_w.items():
                    key = (dv, dw)
                    out[key] = out.get(key, Fraction(0)) + wy * wv * ww
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
    dom, variables, var_index = _grid_variables(g, 2, 2 * R)
    pred = lin(4)
    literals = (0, 0, 0, 1)
    unif2 = Fraction(1, npoints * npoints)
    constraints = {}
    points = [dom.point(p) for p in range(dom.size)]
    for u in range(g.nu):
        eids = _incident_or_error(g, u)
        wu = Fraction(1, g.nu) * Fraction(1, len(eids)) ** 2
        for ev in eids:
            tv = g.edges[ev].v
            for ew in eids:
                tw = g.edges[ew].v
                for (dv, dw), wdel in deltas[(ev, ew)].items():
                    w = wu * wdel * unif2
                    for x in points:
                        x2 = tuple(a ^ b for a, b in zip(x, dv))
                        i1 = var_index[(tv, x)]
                        i2 = var_index[(tv, x2)]
                        for xp in points:
                            budget.spend()
                            x4 = tuple(a ^ b for a, b in zip(xp, dw))
                            key = (
                                (i1, i2, var_index[(tw, xp)], var_index[(tw, x4)]),
                                literals,
                            )
                            constraints[key] = constraints.get(key, Fraction(0)) + w
    return CspInstance(
        pred,
        variables,
        ((vars_, lits, w) for (vars_, lits), w in constraints.items()),
    )


def t3_completeness_witness(params, labeling, inst=None):
    """Half-dictator pair for the third test; same contract as the second."""
    g = params.source
    labeling = _check_labeling_satisfies(g, labeling)
    if inst is None:
        inst = generate_t3(params)
    R = g.nlabels_v
    f_vals = []
    g_vals = []
    for (v, x) in inst.variables:
        f_vals.append(x[labeling.right[v]])
        g_vals.append(x[R + labeling.right[v]])
    f = Assignment(f_vals)
    h = Assignment(g_vals)
    need = 1 - params.eps
    if covered_fraction(CoverSet([f]), inst) < need:
        raise ArithmeticError("first witness covers less than 1-eps")
    if covered_fraction(CoverSet([h]), inst) < need:
        raise ArithmeticError("second witness covers less than 1-eps")
    if covered_fraction(CoverSet([f, h]), inst) != 1:
        raise ArithmeticError("witness pair failed to cover the instance")
    return f, h


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
    zeros = (0,) * k
    w = Fraction(1, n)
    constraints = []
    for _ in range(n):
        u = rng.randrange(g.nu)
        eids = _incident_or_error(g, u)
        combo = [eids[rng.randrange(len(eids))] for _ in range(k)]
        spick = [rng.randrange(len(S)) for _ in range(L)]
        vars_ = []
        for j in range(k):
            xj = [0] * (2 * L)
            for i, si in enumerate(spick):
                y, yp = S[si]
                xj[i] = y[j]
                xj[L + i] = yp[j]
            e = g.edges[combo[j]]
            vars_.append(var_index[(e.v, compose_projection(tuple(xj), e.proj))])
        constraints.append((tuple(vars_), zeros, w))
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
    k, d = params.k, params.d
    L = g.nlabels_u
    R = g.nlabels_v
    block = _cumulative(t2_block_table(params).items())
    dom, variables, var_index = _grid_variables(g, 2, 2 * R)
    zeros = (0,) * (2 * k)
    w = Fraction(1, n)
    constraints = []
    for _ in range(n):
        u = rng.randrange(g.nu)
        eids = _incident_or_error(g, u)
        ev = eids[rng.randrange(len(eids))]
        ew = eids[rng.randrange(len(eids))]
        fv, fw = _edge_fibers(g, ev), _edge_fibers(g, ew)
        tv, tw = g.edges[ev].v, g.edges[ew].v
        xcol = [None] * (2 * R)
        ycol = [None] * (2 * R)
        for i in range(L):
            xc, yc = _weighted_choice(rng, block)
            for t, j in enumerate(fv[i]):
                xcol[j] = xc[t]
                xcol[R + j] = xc[d + t]
            for t, j in enumerate(fw[i]):
                ycol[j] = yc[t]
                ycol[R + j] = yc[d + t]
        vars_ = []
        for j in range(k):
            vars_.append(var_index[(tv, tuple(xcol[c][j] for c in range(2 * R)))])
        for j in range(k):
            vars_.append(var_index[(tw, tuple(ycol[c][j] for c in range(2 * R)))])
        constraints.append((tuple(vars_), zeros, w))
    return CspInstance(params.predicate, variables, constraints)


def sample_t3(params, n, seed):
    """Multiset instance of n sampled tests for the third test. Not exact."""
    n = int(n)
    if n < 1:
        raise PreconditionError("need at least one sample")
    rng = random.Random(seed)
    g = params.source
    R = g.nlabels_v
    dom, variables, var_index = _grid_variables(g, 2, 2 * R)
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
        dv, dw = _weighted_choice(rng, deltas[(ev, ew)])
        x = tuple(rng.randrange(2) for _ in range(2 * R))
        xp = tuple(rng.randrange(2) for _ in range(2 * R))
        x2 = tuple(a ^ b for a, b in zip(x, dv))
        x4 = tuple(a ^ b for a, b in zip(xp, dw))
        tv, tw = g.edges[ev].v, g.edges[ew].v
        constraints.append((
            (
                var_index[(tv, x)],
                var_index[(tv, x2)],
                var_index[(tw, xp)],
                var_index[(tw, x4)],
            ),
            literals,
            w,
        ))
    return CspInstance(lin(4), variables, constraints)
