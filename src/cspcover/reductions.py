"""Three long-code test reductions from projection games to covering CSPs:
exact weighted-instance generators, completeness-witness constructors, the
parity rejection arithmetization, and the randomized decoding procedures.

Each test is defined once, as a `_Test`: how many edges it draws at a left
vertex, its independent weighted picks for those edges, and the map from a
draw to the queried variables. `_generate` enumerates the full support of a
test with exact rational weights and refuses (budget error) past a support
cap; `_sample` draws a seeded multiset from the same definition instead and
is not exact. Tables are stored over {0,1} (or [q]); conversions to the +/-1
convention happen inside the operations that need them.
"""

import collections
import functools
import itertools
import math
import operator
import random
from bisect import bisect_right
from fractions import Fraction

from . import _lazy
from .csp import (
    Assignment,
    CoverSet,
    CspInstance,
    _bit_indices,
    covered_fractions,
)
from .errors import (
    BudgetExceededError,
    Frozen,
    GuaranteeError,
    PreconditionError,
    as_budget,
    check_table_size,
)
from .labelcover import (
    Labeling,
    _check_labeling,
    edge_satisfied,
    satisfied_fraction,
)
from .predicate import lin, nae, translate_orbit

# Executed on first use: only the t2 block spaces need `correlated`, and only
# the first and third tests, the decoders and the dictator tables need
# `boolanalysis`, so a t2 instance is built without either.
boolanalysis = _lazy("boolanalysis")
correlated = _lazy("correlated")

DEFAULT_SUPPORT_CAP = 4_000_000


# ---------------------------------------------------------------------------
# Parameter bundles


class T1Params(Frozen):
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
        self._fill(predicate=predicate, a=a, source=source,
                   strict=len(predicate) < len(naepred))


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


class T2Params(Frozen):
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
        self._fill(predicate=predicate, p0=p0, p1=p1, eps=eps, source=source,
                   k=k, d=d)


class T3Params(Frozen):
    """Third test: plain noise rate over any projection-game source."""

    __slots__ = ("eps", "source")

    def __init__(self, eps, source):
        eps = Fraction(eps)
        if not Fraction(0) < eps < Fraction(1):
            raise PreconditionError("noise rate must lie in (0, 1)")
        self._fill(eps=eps, source=source)


# ---------------------------------------------------------------------------
# Shared helpers


def _grid_variables(g, q, width):
    """Variable labels (v, point) for all right vertices over [q]^width; the
    label of point p at vertex v has index v * q^width + p."""
    check_table_size(q**width)
    points = [x[::-1] for x in itertools.product(range(q), repeat=width)]
    return [(v, x) for v in range(g.nv) for x in points]


def _incident_or_error(g, u):
    eids = g.edges_at_u(u)
    if not eids:
        raise PreconditionError("left vertex %d has no incident edges" % u)
    return eids


def _as_labeling(lab):
    return lab if isinstance(lab, Labeling) else Labeling(*lab)


# ---------------------------------------------------------------------------
# One definition per test


# One independent pick of a test: its items with integer weights over `den`,
# and the seeded draw of one item.
_Pick = collections.namedtuple("_Pick", "items numerators den draw")


def _uniform(n, draw=None):
    """The indices of range(n), each of weight 1/n, drawn by `draw` or else
    by randrange(n)."""
    return _Pick(range(n), (1,) * n, n, draw or (lambda rng: rng.randrange(n)))


def _weighted(pairs, den):
    """(item, numerator) pairs over den, in order. A draw takes the first
    item whose float running sum exceeds a uniform float, or the last item
    when rounding leaves the draw above every sum."""
    items, numerators = zip(*pairs)
    sums = list(itertools.accumulate(m / den for m in numerators))
    last = len(items) - 1
    return _Pick(items, numerators, den, lambda rng: items[
        min(bisect_right(sums, rng.random()), last)
    ])


# One long-code test, the single definition behind its generator and its
# sampler. A draw takes a uniform left vertex, `draws` independent uniform
# incident edges, and one item of each of its picks: the pick
# `edge_pick(edges, budget)` of those edges first, when the test has one,
# then each of `picks`. Its weight is the product of those probabilities. It
# queries the variables `query(edges, items)` of the grid over [q]^2R, with q
# the predicate's alphabet, under the literal vector `literals`.
_Test = collections.namedtuple(
    "_Test", "source draws edge_pick picks query predicate literals"
)


def _generate(test, budget, support_cap):
    """The exact instance of a test: every draw in order, one budget unit
    each, after the left vertices and the support size are checked."""
    budget = as_budget(budget)
    g = test.source
    at_u = [_incident_or_error(g, u) for u in range(g.nu)]
    size = math.prod(len(p.items) for p in test.picks)
    edge_picks = {}
    count = 0
    for eids in at_u:
        if test.edge_pick is None:
            count += len(eids) ** test.draws * size
            continue
        for edges in itertools.product(eids, repeat=test.draws):
            if edges not in edge_picks:
                edge_picks[edges] = (test.edge_pick(edges, budget),)
            count += len(edge_picks[edges][0].items) * size
    cap = DEFAULT_SUPPORT_CAP if support_cap is None else int(support_cap)
    if count > cap:
        raise BudgetExceededError(
            "test support has %d atoms, above the cap of %d; "
            "use the sampling mode instead" % (count, cap)
        )
    variables = _grid_variables(g, test.predicate.q, 2 * g.nlabels_v)
    query, literals = test.query, test.literals

    def atoms():
        for eids in at_u:
            share = g.nu * len(eids) ** test.draws
            for edges in itertools.product(eids, repeat=test.draws):
                ps = edge_picks.get(edges, ()) + test.picks
                den = share * math.prod(p.den for p in ps)
                weights = {}
                numerators = itertools.product(*(p.numerators for p in ps))
                for items, m in zip(
                    itertools.product(*(p.items for p in ps)),
                    map(math.prod, numerators),
                ):
                    budget.spend()
                    if m not in weights:
                        weights[m] = Fraction(m, den)
                    yield query(edges, items), literals, weights[m]

    return CspInstance(test.predicate, variables, atoms())


def _sample(test, n, seed):
    """Multiset instance of n seeded draws of a test, each of weight 1/n.
    Not exact. Every left vertex is checked before the first draw."""
    n = int(n)
    if n < 1:
        raise PreconditionError("need at least one sample")
    g = test.source
    at_u = [_incident_or_error(g, u) for u in range(g.nu)]
    variables = _grid_variables(g, test.predicate.q, 2 * g.nlabels_v)
    rng = random.Random(seed)
    edge_picks = {}
    w = Fraction(1, n)

    def atoms():
        for _ in range(n):
            eids = at_u[rng.randrange(g.nu)]
            edges = tuple(
                eids[rng.randrange(len(eids))] for _ in range(test.draws)
            )
            if test.edge_pick is not None and edges not in edge_picks:
                edge_picks[edges] = (test.edge_pick(edges, None),)
            ps = edge_picks.get(edges, ()) + test.picks
            items = tuple(p.draw(rng) for p in ps)
            yield test.query(edges, items), test.literals, w

    return CspInstance(test.predicate, variables, atoms())


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


def _t1(params):
    """The first test: k edges at the left vertex and one column pair of S
    per left label; edge j queries the point read off row j of the columns."""
    g, pred = params.source, params.predicate
    q, R = pred.q, g.nlabels_v
    S = t1_column_support(q, pred.k, params.a)
    picks = (_uniform(len(S)),) * g.nlabels_u
    # Point indices over [q]^2R, coordinate 0 lowest, as `_grid_variables`.
    npoints, places = q ** (2 * R), [q ** i for i in range(2 * R)]

    def query(combo, spick):
        vars_ = []
        for j, e in enumerate(combo):
            x = tuple(S[s][0][j] for s in spick) + tuple(S[s][1][j] for s in spick)
            edge = g.edges[e]
            point = boolanalysis.compose_projection(x, edge.proj)
            vars_.append(edge.v * npoints + sum(map(operator.mul, point, places)))
        return tuple(vars_)

    return _Test(g, pred.k, None, picks, query, pred, (0,) * pred.k)


def generate_t1(params, budget=None, support_cap=None):
    """Exact weighted instance of the first test over the source game.

    One constraint per (left vertex, neighbor sequence, column-pair matrix);
    weights are exact probabilities summing to 1; literals are all zero.
    """
    return _generate(_t1(params), budget, support_cap)


def sample_t1(params, n, seed):
    """Multiset instance of n sampled tests, each of weight 1/n. Not exact."""
    return _sample(_t1(params), n, seed)


def _check_labelings_cover(g, labelings):
    for lab in labelings:
        _check_labeling(g, lab)
    for u in range(g.nu):
        if not any(all(edge_satisfied(g, lab, i) for i in g.edges_at_u(u))
                   for lab in labelings):
            raise PreconditionError(
                "labelings do not cover left vertex %d" % u
            )


def t1_completeness_witness(params, labelings, inst=None):
    """Two assignments per covering labeling: first-half and second-half
    half-dictators. Their union covers every generated constraint exactly."""
    return CoverSet(completeness_witness(params, labelings, inst)[0])


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
    common denominator. Refused above the full-table cap, counted before
    anything is built: each of the two orders of (p0, p1) has
    (|p0| |p1|)^(2d) terms keeping both halves and 2 (|p0| |p1|)^d 4^(kd)
    refreshing one."""
    k, d, eps = params.k, params.d, params.eps
    pairs = len(params.p0) * len(params.p1)
    check_table_size(2 * pairs ** (2 * d) + 4 * pairs ** d * 4 ** (k * d))
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
        for (xu, wxu), (xp, wxp), (yu, wyu), (yp, wyp) in itertools.product(
            hx, hx, hy, hy
        ):
            add((xu + xp, yu + yp), stay * wxu * wxp * wyu * wyp)
        # One half kept, the other refreshed uniformly: the plain half kept
        # first, then the shifted half (the order keeps the final sort fast).
        for plain in (True, False):
            for (xh, wxh), (yh, wyh) in itertools.product(hx, hy):
                base = refresh * wxh * wyh
                for xr, yr in itertools.product(unif_cols, unif_cols):
                    add((xh + xr, yh + yr) if plain else (xr + xh, yr + yh), base)
    return sorted(table.items()), 2 * E * scale ** (4 * d) * unif


def t2_block_table(params):
    """Joint distribution of one block: 2d X-columns and 2d Y-columns.

    Keys are (xcols, ycols) with each side a tuple of 2d column tuples (the
    first d on the plain fiber, the last d on the shifted copy); values are
    exact probabilities summing to 1.
    """
    pairs, den = _t2_block_numerators(params)
    return {key: Fraction(n, den) for key, n in pairs}


def _t2_row_space(params, split):
    """The block distribution over row tuples (each row 2d bits), with the k
    X-rows and k Y-rows divided between the two sides by `split`."""
    k = params.k
    mu = {}
    for (xcols, ycols), w in t2_block_table(params).items():
        xrows = tuple(tuple(col[j] for col in xcols) for j in range(k))
        yrows = tuple(tuple(col[j] for col in ycols) for j in range(k))
        key = split(xrows, yrows)
        mu[key] = mu.get(key, Fraction(0)) + w
    return correlated.CorrelatedSpace(mu)


def t2_block_space(params):
    """The block distribution as a correlated space of row tuples: left atoms
    are the k X-rows, right atoms the k Y-rows (each row 2d bits)."""
    return _t2_row_space(params, lambda xrows, yrows: (xrows, yrows))


def t2_block_last_row_space(params):
    """The same block split for the correlation bound: everything except the
    last Y-row on the left, the last Y-row alone on the right."""
    return _t2_row_space(
        params, lambda xrows, yrows: (xrows + yrows[:-1], (yrows[-1],))
    )


def _t2(params):
    """The second test: an edge pair at the left vertex and one block of the
    integer block table per left label; the first k queried variables belong
    to the first edge's right endpoint, the last k to the second's."""
    g, k = params.source, params.k
    R = g.nlabels_v
    picks = (_weighted(*_t2_block_numerators(params)),) * g.nlabels_u

    @functools.cache
    def rows(e, i, cols):
        """The point-index contribution of 2d columns laid on fiber i of
        edge e (positions fiber + (R + fiber)) to each of the k rows."""
        fiber = [j for j in range(R) if g.edges[e].proj[j] == i]
        shifts = fiber + [R + j for j in fiber]
        return tuple(
            sum(col[j] << s for col, s in zip(cols, shifts)) for j in range(k)
        )

    def query(edges, blocks):
        ev, ew = edges
        vars_ = [g.edges[ev].v << 2 * R] * k + [g.edges[ew].v << 2 * R] * k
        for i, (xcols, ycols) in enumerate(blocks):
            for j, o in enumerate(rows(ev, i, xcols) + rows(ew, i, ycols)):
                vars_[j] += o
        return tuple(vars_)

    return _Test(g, 2, None, picks, query, params.predicate, (0,) * (2 * k))


def generate_t2(params, budget=None, support_cap=None):
    """Exact weighted instance of the second test over the d-to-1 source.

    One 2k-ary constraint per (left vertex, edge pair, block assignment);
    the first k queried variables belong to the first endpoint, the last k
    to the second. Literals are all zero; weights sum to 1.
    """
    return _generate(_t2(params), budget, support_cap)


def sample_t2(params, n, seed):
    """Multiset instance of n sampled tests for the second test. Not exact."""
    return _sample(_t2(params), n, seed)


def t2_completeness_witness(params, labeling, inst=None):
    """The two half-dictator assignments of a satisfying labeling.

    Each covers at least a 1-eps weight fraction (exactly computed) and
    together they cover everything; both facts are asserted.
    """
    return tuple(completeness_witness(params, [labeling], inst)[0])


# ---------------------------------------------------------------------------
# Rejection arithmetization


class RejectionIdentityResult(Frozen):
    __slots__ = ("t", "lhs", "rhs", "deviation", "correlations", "threshold",
                 "witnesses")

    def __init__(self, t, lhs, rhs, correlations):
        threshold = Fraction(-1, 2 ** t - 1)
        correlations = dict(correlations)
        self._fill(
            t=t, lhs=lhs, rhs=rhs, deviation=lhs - rhs,
            correlations=correlations, threshold=threshold,
            witnesses=tuple(sorted(
                s for s, c in correlations.items() if c <= threshold
            )),
        )

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
    for vars_, w in zip(inst.scopes, inst.numerators):
        budget.spend()
        m = 0
        for i, row in enumerate(rows):
            m |= (sum(map(row.__getitem__, vars_)) & 1) << i
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


def _sample_mask(rng, masses):
    """The first mask whose float running mass exceeds a uniform float, or
    None (the fallback) when the draw is above the total mass."""
    masks, sums = masses
    i = bisect_right(sums, rng.random())
    return masks[i] if i < len(masks) else None


def _spectral_pick(rng, masses, R):
    """A mask drawn by `_sample_mask`, then a uniform member of it folded
    below R; None when the draw gives the empty mask or the fallback."""
    mask = _sample_mask(rng, masses)
    if not mask:
        return None
    bits = _bit_indices(mask)
    j = bits[rng.randrange(len(bits))]
    return j if j < R else j - R


def _fourier_masses(tables, nv, R, rate):
    """Per right vertex, its masks beside the float running sums of their
    masses rate^|mask| * coefficient^2, and the nonzero Fourier coefficients
    of its table in the +/-1 convention as a sparse {mask: Fraction} map,
    both read off one integer transform."""
    masses, spectra = {}, {}
    for v in range(nv):
        f = tables[v]
        nums, den = f.numerators, f.denominator
        sign = {0: 1, den: -1} if set(nums) <= {0, den} else {-den: -1, den: 1}
        if not set(nums) <= sign.keys():
            raise PreconditionError("table values must be bits or signs")
        if not f.domain.is_binary_uniform():
            raise PreconditionError("fourier requires a binary uniform domain")
        if f.domain.n != 2 * R:
            raise PreconditionError(
                "table has %d coordinates, not 2R = %d" % (f.domain.n, 2 * R))
        coeffs = spectra[v] = {
            m: Fraction(c, len(nums))
            for m, c in enumerate(boolanalysis.wht(map(sign.get, nums))) if c
        }
        masses[v] = list(coeffs), list(itertools.accumulate(
            float(rate ** m.bit_count() * c * c) for m, c in coeffs.items()
        ))
    return masses, spectra


def _index_map(dom, proj, fdom):
    """The index in fdom of compose_projection(dom.point(p), proj) for every
    index p of dom, built one coordinate at a time: each coordinate adds its
    value times the fdom strides of the positions that read it."""
    reads = [*proj, *(dom.n // 2 + i for i in proj)]
    if any(dom.sizes[c] > s for c, s in zip(reads, fdom.sizes)):
        raise PreconditionError("point coordinate out of range")
    out = [0]
    for c, s in enumerate(dom.sizes):
        stride = sum(fdom.stride(pos) for pos, r in enumerate(reads) if r == c)
        out = [i + x * stride for x in range(s) for i in out]
    return out


class T1DecodeResult(Frozen):
    __slots__ = ("labeling", "value", "lab_sizes_left", "lab_sizes_right",
                 "size_bound", "sizes_ok")

    def __init__(self, labeling, value, lab_sizes_left, lab_sizes_right,
                 size_bound):
        left, right = tuple(lab_sizes_left), tuple(lab_sizes_right)
        self._fill(
            labeling=labeling, value=value, lab_sizes_left=left,
            lab_sizes_right=right, size_bound=size_bound,
            sizes_ok=all(s <= size_bound for s in left + right),
        )


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
    blocks = [(i, L + i) for i in range(L)]

    def labels(f, threshold):
        infl = boolanalysis.all_degree_d_influences(f, d, blocks)
        return [i for i in range(L) if infl[i] >= threshold]

    labs_right = [labels(tables[v], tau / 2) for v in range(source.nv)]
    labs_left = []
    for u in range(source.nu):
        eids = _incident_or_error(source, u)
        dom = tables[source.edges[eids[0]].v].domain
        edges = [source.edges[e] for e in eids]
        den = math.lcm(*(tables[e.v].denominator for e in edges))
        acc = [0] * dom.size
        for e in edges:
            f = tables[e.v]
            idx = _index_map(dom, e.proj, f.domain)
            share, nums = den // f.denominator, f.numerators
            acc = [a + share * nums[i] for a, i in zip(acc, idx)]
        labs_left.append(labels(boolanalysis.TabulatedFunction._trusted(
            dom, tuple(acc), den * len(eids), None), tau))
    left, right = (
        [c[rng.randrange(len(c))] if c else 0 for c in labs]
        for labs in (labs_left, labs_right)
    )
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


class T2DecodeResult(Frozen):
    __slots__ = ("labeling", "value", "expected_value_bound", "gamma")

    def __init__(self, labeling, value, expected_value_bound, gamma):
        self._fill(labeling=labeling, value=value,
                   expected_value_bound=expected_value_bound, gamma=gamma)


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
    masses, spectra = _fourier_masses(tables, source.nv, R, rate)
    right = [_spectral_pick(rng, masses[v], R) or 0 for v in range(source.nv)]
    left = []
    for u in range(source.nu):
        eids = _incident_or_error(source, u)
        e = source.edges[eids[rng.randrange(len(eids))]]
        j = _spectral_pick(rng, masses[e.v], R)
        left.append(0 if j is None else e.proj[j])
    labeling = Labeling(left, right)
    value = satisfied_fraction(source, labeling)
    # Expectation bound: per (u, edge pair), sum over left labels of the
    # products of attenuated spectral weights that project onto that label.
    # Summed over the pairs at u, that is the squared norm of the summed
    # profile of u's edges.
    rate2 = rate * rate

    def edge_profile(eid):
        proj = source.edges[eid].proj
        prof = [Fraction(0)] * L
        for mask, coeff in spectra[source.edges[eid].v].items():
            if mask:
                w = rate2 ** mask.bit_count() * coeff * coeff
                for i in boolanalysis.pi_tilde(_bit_indices(mask), proj):
                    prof[i] += w
        return prof

    profiles = [edge_profile(eid) for eid in range(len(source.edges))]
    expect = Fraction(0)
    for u in range(source.nu):
        eids = source.edges_at_u(u)
        total = [sum(col) for col in zip(*(profiles[e] for e in eids))]
        expect += Fraction(1, source.nu * len(eids) ** 2) * sum(
            x * x for x in total)
    bound = gamma * gamma * expect
    return T2DecodeResult(labeling, value, bound, gamma)


class T3DecodeResult(Frozen):
    __slots__ = ("labeling", "value")

    def __init__(self, labeling, value):
        self._fill(labeling=labeling, value=value)


def decode_t3(tables, source, seed):
    """Plain spectral-sample decoding for the third test.

    Left vertices pick a random neighbor, sample an index set by squared
    coefficient, and take a uniform label from its folded projection; right
    vertices sample their own set and fold a uniform member. Empty sets fall
    back to label 0.
    """
    rng = random.Random(seed)
    R = source.nlabels_v
    masses, _ = _fourier_masses(tables, source.nv, R, 1)
    left = []
    for u in range(source.nu):
        eids = _incident_or_error(source, u)
        e = source.edges[eids[rng.randrange(len(eids))]]
        mask = _sample_mask(rng, masses[e.v])
        if not mask:
            left.append(0)
            continue
        image = sorted(boolanalysis.pi_tilde(_bit_indices(mask), e.proj))
        left.append(image[rng.randrange(len(image))])
    right = [_spectral_pick(rng, masses[v], R) or 0 for v in range(source.nv)]
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
    compose = boolanalysis.compose_projection
    L = g.nlabels_u
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
        # The noise mask of both edges: label i is refreshed in the plain
        # half (case 1), in the shifted half (case 2), or kept (case 0).
        eta = [0] * (2 * L)
        for i, c in enumerate(cases):
            if c:
                eta[(c - 1) * L + i] = 1
        sup_v, sup_w = (
            [j for j, b in enumerate(compose(tuple(eta), p)) if b]
            for p in (pv, pw)
        )
        w = wc * Fraction(1, 2 ** (2 * L + len(sup_v) + len(sup_w)))
        for y in itertools.product((0, 1), repeat=2 * L):
            budget.spend()
            deltas_w = _flips(compose(y, pw), sup_w)
            for dv in _flips(compose(y, pv), sup_v):
                for dw in deltas_w:
                    out[(dv, dw)] = out.get((dv, dw), Fraction(0)) + w
    return dict(sorted(out.items()))


def _t3(params):
    """The third test: an edge pair at the left vertex, one offset pair of
    `t3_delta_table` and two uniform points x, x'; it queries x and x plus
    the first offset at the first edge's right endpoint, x' and x' plus the
    second at the second's. Points and offsets are indices into [2]^2R, so
    adding an offset is XOR of indices."""
    g = params.source
    R = g.nlabels_v
    dom = boolanalysis.ProductDomain((2,) * (2 * R))
    point = _uniform(dom.size, lambda rng: dom.index(
        tuple(rng.randrange(2) for _ in range(2 * R))
    ))

    def offsets(edges, budget):
        table = t3_delta_table(g, *edges, params.eps, budget)
        ints, den = boolanalysis._scaled(table.values())
        return _weighted([
            ((dom.index(dv), dom.index(dw)), w)
            for (dv, dw), w in zip(table, ints)
        ], den)

    base = [e.v << 2 * R for e in g.edges]

    def query(edges, items):
        (mv, mw), x, xp = items
        bv, bw = base[edges[0]], base[edges[1]]
        return (bv + x, bv + (x ^ mv), bw + xp, bw + (xp ^ mw))

    return _Test(g, 2, offsets, (point, point), query, lin(4), (0, 0, 0, 1))


def generate_t3(params, budget=None, support_cap=None):
    """Exact weighted four-query parity instance of the third test.

    Query points one and three are uniform; two and four add the correlated
    offsets; the literal vector is exactly (0, 0, 0, 1) on every constraint.
    """
    return _generate(_t3(params), budget, support_cap)


def sample_t3(params, n, seed):
    """Multiset instance of n sampled tests for the third test. Not exact."""
    return _sample(_t3(params), n, seed)


def t3_completeness_witness(params, labeling, inst=None):
    """Half-dictator pair for the third test; same contract as the second."""
    return tuple(completeness_witness(params, [labeling], inst)[0])


_GENERATE = {
    T1Params: generate_t1, T2Params: generate_t2, T3Params: generate_t3,
}


def completeness_witness(params, labelings, inst=None, generate=None):
    """The half-dictator witness of the test of `params`: (assignments, the
    covered fraction of each, that of their union), from one coverage pass.

    The labelings are checked before anything is generated: for t1 they must
    together cover every left vertex; for t2 and t3 there must be exactly one,
    satisfying every edge. Then, when `inst` is None, `generate(params)` builds
    the instance; `generate` defaults to the generator of the params' test.
    Asserts that the union covers the instance and, for t2 and t3, that each
    assignment covers at least 1 - eps.
    """
    g = params.source
    labelings = [_as_labeling(lab) for lab in labelings]
    t1 = isinstance(params, T1Params)
    if t1:
        _check_labelings_cover(g, labelings)
    elif len(labelings) != 1:
        raise PreconditionError("expected exactly one labeling")
    elif satisfied_fraction(g, labelings[0]) != 1:
        raise PreconditionError("labeling does not satisfy every edge")
    if inst is None:
        inst = (generate or _GENERATE[type(params)])(params)
    # The half-dictators x -> x[label(v)] and x -> x[R + label(v)].
    assignments = [
        Assignment([x[off + lab.right[v]] for v, x in inst.variables])
        for lab in labelings for off in (0, g.nlabels_v)
    ]
    fractions, union = covered_fractions(assignments, inst)
    if not t1:
        for which, fraction in zip(("first", "second"), fractions):
            if fraction < 1 - params.eps:
                raise GuaranteeError("%s witness covers less than 1-eps" % which)
    if union != 1:
        raise GuaranteeError(
            "witness failed to cover the generated instance" if t1
            else "witness pair failed to cover the instance"
        )
    return assignments, fractions, union


# ---------------------------------------------------------------------------
# Dictator table builders (shared by tests and the CLI)


def _dictator_tables(source, labeling, q, offset):
    """Per-right-vertex tables x -> x[offset + label(v)] over [q]^{2R}."""
    right = _as_labeling(labeling).right
    dom = boolanalysis.ProductDomain((q,) * (2 * source.nlabels_v))
    return {
        v: boolanalysis.TabulatedFunction._trusted(dom, tuple(
            dom.point(p)[offset + right[v]] for p in range(dom.size)
        ), 1, None)
        for v in range(source.nv)
    }


def t1_dictator_tables(params, labeling):
    """Per-right-vertex tables x -> x[label(v)] over [q]^{2R}."""
    return _dictator_tables(params.source, labeling, params.predicate.q, 0)


def binary_dictator_tables(source, labeling, shifted=False):
    """Per-right-vertex bit tables x -> x[label(v)] (or x[R + label(v)])."""
    return _dictator_tables(
        source, labeling, 2, source.nlabels_v if shifted else 0
    )
