"""Three long-code test reductions from projection games to covering CSPs:
exact weighted-instance generators, samplers and completeness-witness
constructors.

Each test is defined once, as a `_Test`: how many edges it draws at a left
vertex, its independent weighted picks for those edges, and the map from a
draw to the queried variables. `_generate` enumerates the full support of a
test with exact rational weights and refuses (budget error) past a support
cap; `_sample` draws a seeded multiset from the same definition instead and
is not exact. Tables are stored over {0,1} (or [q]). The decoders and the
dictator tables live in `decoding`, the parity rejection identity in `csp`.
"""

import collections
import functools
import itertools
import math
import operator
import random
from bisect import bisect_right
from fractions import Fraction

from . import _forward, _lazy
from .csp import (
    Assignment,
    CoverSet,
    CspInstance,
    _Columns,
    covered_fractions,
)
from .csp import RejectionIdentityResult, rejection_identity_check  # noqa: F401
from .errors import (
    BudgetExceededError,
    Frozen,
    GuaranteeError,
    PreconditionError,
    _scaled,
    as_budget,
    as_int,
    as_rational,
    as_word,
    check_table_size,
)
from .labelcover import (
    Labeling,
    _check_labeling,
    edge_satisfied,
    satisfied_fraction,
)
from .predicate import lin, nae, translate_orbit

# Executed on first use: only the t2 block spaces need `correlated`.
correlated = _lazy("correlated")

__getattr__ = _forward(globals(), dict.fromkeys("""T1DecodeResult
    T2DecodeResult T3DecodeResult binary_dictator_tables decode_t1 decode_t2
    decode_t3 t1_dictator_tables""".split(), "decoding"))

DEFAULT_SUPPORT_CAP = 4_000_000


# ---------------------------------------------------------------------------
# Parameter bundles


class T1Params(Frozen):
    """First test: predicate P between the translate closure of a and NAE,
    over a unique (bijective-projection) source."""

    __slots__ = ("predicate", "a", "source", "strict")

    def __init__(self, predicate, a, source):
        q, k = predicate.q, predicate.k
        a = tuple(as_int(x, "a") for x in a)
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
        key = as_word(key, k, 2, "distribution key")
        w = as_rational(w, "distribution weight")
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
        eps = as_rational(eps, "noise rate")
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
        eps = as_rational(eps, "noise rate")
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


def _lift_places(proj, L, places):
    """Per coordinate of a length-2L string, the sum of `places` over the
    positions of its lift through proj that read it: position j reads
    coordinate proj[j] and position R + j reads L + proj[j], R = len(proj).
    The lifted point's index is the dot product of the string with it."""
    R = len(proj)
    out = [0] * (2 * L)
    for j, i in enumerate(proj):
        out[i] += places[j]
        out[L + i] += places[R + j]
    return out


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


def _weighted(items, numerators, den):
    """Items with integer numerators over den, in order. A draw takes the
    first item whose float running sum exceeds a uniform float, or the last
    item when rounding leaves the draw above every sum; the sums are built
    on the first draw."""
    sums = []
    last = len(items) - 1

    def draw(rng):
        if not sums:
            sums.extend(itertools.accumulate(m / den for m in numerators))
        return items[min(bisect_right(sums, rng.random()), last)]

    return _Pick(items, numerators, den, draw)


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
    cap = (DEFAULT_SUPPORT_CAP if support_cap is None
           else as_int(support_cap, "support cap"))
    if cap < 1:
        raise PreconditionError("support cap must be positive")
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
    if count > cap:
        raise BudgetExceededError(
            "test support has %d atoms, above the cap of %d; "
            "use the sampling mode instead" % (count, cap)
        )
    variables = _grid_variables(g, test.predicate.q, 2 * g.nlabels_v)
    # The draws of each edge tuple share a denominator; all draws are put
    # over the lcm of those.
    runs = []
    for eids in at_u:
        share = g.nu * len(eids) ** test.draws
        for edges in itertools.product(eids, repeat=test.draws):
            ps = edge_picks.get(edges, ()) + test.picks
            runs.append((edges, ps, share * math.prod(p.den for p in ps)))
    den = math.lcm(*(run[2] for run in runs))
    scopes, numerators = [], []
    for edges, ps, run_den in runs:
        budget.spend_each(math.prod(len(p.items) for p in ps))
        scopes += map(functools.partial(test.query, edges),
                      itertools.product(*(p.items for p in ps)))
        numerators += map((den // run_den).__mul__, map(
            math.prod, itertools.product(*(p.numerators for p in ps))))
    return CspInstance(test.predicate, variables, _Columns(
        scopes, [test.literals] * len(scopes), numerators, den))


def _sample(test, n, seed):
    """Multiset instance of n seeded draws of a test, each of weight 1/n.
    Not exact. Every left vertex is checked before the first draw."""
    n = as_int(n, "n")
    if n < 1:
        raise PreconditionError("need at least one sample")
    g = test.source
    at_u = [_incident_or_error(g, u) for u in range(g.nu)]
    variables = _grid_variables(g, test.predicate.q, 2 * g.nlabels_v)
    rng = random.Random(seed)
    edge_picks = {}
    scopes = []
    for _ in range(n):
        eids = at_u[rng.randrange(g.nu)]
        edges = tuple(
            eids[rng.randrange(len(eids))] for _ in range(test.draws)
        )
        if test.edge_pick is not None and edges not in edge_picks:
            edge_picks[edges] = (test.edge_pick(edges, None),)
        ps = edge_picks.get(edges, ()) + test.picks
        scopes.append(test.query(edges, tuple(p.draw(rng) for p in ps)))
    return CspInstance(test.predicate, variables, _Columns(
        scopes, [test.literals] * n, [1] * n, n))


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
    q, L, R = pred.q, g.nlabels_u, g.nlabels_v
    S = t1_column_support(q, pred.k, params.a)
    picks = (_uniform(len(S)),) * L
    # Point indices over [q]^2R, coordinate 0 lowest, as `_grid_variables`.
    places = [q ** i for i in range(2 * R)]
    lifts = [(e.v * q ** (2 * R), _lift_places(e.proj, L, places))
             for e in g.edges]

    def query(combo, spick):
        cols = [S[s][0] for s in spick] + [S[s][1] for s in spick]
        return tuple(
            base + sum(col[j] * m for col, m in zip(cols, lift))
            for j, (base, lift) in enumerate(lifts[e] for e in combo))

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


def _half_products(dist, d, ints):
    """Integer product weights, over scale^d, of d independent columns from
    dist, read from `ints` over scale, in column-tuple order, each tuple of d
    columns packed into one int of their bits, first bit most significant."""
    return [
        (int("".join(str(b) for col in cols for b in col), 2),
         math.prod(map(ints.get, cols)))
        for cols in itertools.product(sorted(dist), repeat=d)
    ]


def _t2_block_numerators(params):
    """The block table over integers: its keys in increasing order, their
    numerators and the common denominator. A key packs the bits of the 2d
    X-columns, then of the 2d Y-columns (the first d of each on the plain
    fiber, the last d on the shifted copy), first bit most significant, so
    int order is the order of the nested column tuples. Refused above the
    full-table cap, counted before anything is built: each of the two
    orders of (p0, p1) has (|p0| |p1|)^(2d) terms keeping both halves and
    2 (|p0| |p1|)^d 4^(kd) refreshing one."""
    k, d, eps = params.k, params.d, params.eps
    pairs = len(params.p0) * len(params.p1)
    check_table_size(2 * pairs ** (2 * d) + 4 * pairs ** d * 4 ** (k * d))
    nums, scale = _scaled([*params.p0.values(), *params.p1.values()])
    ints = dict(zip([*params.p0, *params.p1], nums))  # disjoint by parity
    e, E = eps.numerator, eps.denominator
    w = k * d  # the bits of d columns
    # Every term over 2 * E * scale^(4d) * 4^w, with eps = e / E: a term
    # keeping both halves has numerator (E - 2e) * 4^w times its four column
    # products, a term refreshing one half e * scale^(2d) times its two.
    stay = (E - 2 * e) << 2 * w
    refresh = e * scale ** (2 * d)
    # The uniform X and Y columns of a refreshed half, laid on the shifted
    # halves (bits 2w and 0) or on the plain halves (bits 3w and w).
    free = range(1 << w)
    shifted = [xr << 2 * w | yr for xr in free for yr in free]
    plain = [r << w for r in shifted]
    h0 = _half_products(params.p0, d, ints)
    h1 = _half_products(params.p1, d, ints)
    table = {}
    get = table.get
    for hx, hy in ((h0, h1), (h1, h0)):
        for (xu, wxu), (xp, wxp), (yu, wyu), (yp, wyp) in itertools.product(
            hx, hx, hy, hy
        ):
            key = xu << 3 * w | xp << 2 * w | yu << w | yp
            table[key] = get(key, 0) + stay * wxu * wxp * wyu * wyp
        # One half kept, the other refreshed uniformly. These terms reach
        # every key above, so none is left at 0 when eps = 1/2 zeroes `stay`.
        for (xh, wxh), (yh, wyh) in itertools.product(hx, hy):
            base = refresh * wxh * wyh
            for key in map((xh << 3 * w | yh << w).__add__, shifted):
                table[key] = get(key, 0) + base
            for key in map((xh << 2 * w | yh).__add__, plain):
                table[key] = get(key, 0) + base
    keys = sorted(table)
    den = 2 * E * scale ** (4 * d) << 2 * w
    return keys, list(map(table.__getitem__, keys)), den


def _t2_columns(params):
    """The map from one side of a key to its 2d column tuples of k bits."""
    k, n = params.k, 2 * params.k * params.d

    def columns(side):
        bits = tuple(side >> b & 1 for b in range(n - 1, -1, -1))
        return tuple(bits[c:c + k] for c in range(0, n, k))

    return columns


def _t2_view(params, read):
    """The block table as exact probabilities keyed by (read(X columns),
    read(Y columns)), each side read once; `read` must tell sides apart."""
    keys, numerators, den = _t2_block_numerators(params)
    half = 2 * params.k * params.d
    low = (1 << half) - 1
    columns = _t2_columns(params)
    side = functools.cache(lambda bits: read(columns(bits)))
    return {(side(key >> half), side(key & low)): Fraction(m, den)
            for key, m in zip(keys, numerators)}


def t2_block_table(params):
    """Joint distribution of one block: 2d X-columns and 2d Y-columns.

    Keys are (xcols, ycols) with each side a tuple of 2d column tuples (the
    first d on the plain fiber, the last d on the shifted copy); values are
    exact probabilities summing to 1.
    """
    return _t2_view(params, lambda cols: cols)


def _t2_row_space(params, split):
    """The block distribution over row tuples (each row 2d bits), with the k
    X-rows and k Y-rows divided between the two sides by `split`."""
    table = _t2_view(params, lambda cols: tuple(zip(*cols)))
    return correlated.CorrelatedSpace(
        {split(*key): w for key, w in table.items()})


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
    columns = _t2_columns(params)
    half = 2 * k * params.d
    low = (1 << half) - 1

    @functools.cache
    def rows(e, i, side):
        """The point-index contribution of one side of a block, its 2d
        columns laid on fiber i of edge e (positions fiber + (R + fiber)), to
        each of the k rows; fiber 0 adds the grid base of e's endpoint."""
        fiber = [j for j in range(R) if g.edges[e].proj[j] == i]
        shifts = fiber + [R + j for j in fiber]
        base = g.edges[e].v << 2 * R if i == 0 else 0
        return tuple(base + sum(col[j] << s for col, s in zip(
            columns(side), shifts)) for j in range(k))

    def query(edges, blocks):
        ev, ew = edges
        key = blocks[0]
        vars_ = rows(ev, 0, key >> half) + rows(ew, 0, key & low)
        for i in range(1, len(blocks)):
            key = blocks[i]
            vars_ = tuple(map(operator.add, vars_, rows(ev, i, key >> half)
                              + rows(ew, i, key & low)))
        return vars_

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
# Test 3


def _t3_offsets(g, ev, ew, eps, budget):
    """The offset pairs of the edge pair (ev, ew) as index pairs into [2]^2R,
    coordinate j at bit j, with integer weights over one denominator:
    (sorted (index pair, numerator) items, denominator). One budget unit per
    noise case of nonzero weight and left string y."""
    budget = as_budget(budget)
    L, R = g.nlabels_u, g.nlabels_v
    bits = [1 << j for j in range(2 * R)]
    lifts = [_lift_places(g.edges[e].proj, L, bits) for e in (ev, ew)]
    lifted = [[sum(itertools.compress(lift, y)) for lift in lifts]
              for y in itertools.product((0, 1), repeat=2 * L)]
    e, E = eps.numerator, eps.denominator
    out = {}
    for cases in itertools.product(range(3), repeat=L):
        wc = math.prod((E - 2 * e, e, e)[c] for c in cases)
        if not wc:
            continue
        # The noise mask of both edges: label i is refreshed in the plain
        # half (case 1), in the shifted half (case 2), or kept (case 0). Each
        # offset flips every subset of the mask's lift through its edge.
        eta = [c == 1 for c in cases] + [c == 2 for c in cases]
        sups = [sum(itertools.compress(lift, eta)) for lift in lifts]
        w = wc << 4 * R - sum(m.bit_count() for m in sups)
        flips = [[m for m in range(s + 1) if m & s == m] for s in sups]
        for y in lifted:
            budget.spend()
            for key in itertools.product(
                    *([b ^ m for m in f] for b, f in zip(y, flips))):
                out[key] = out.get(key, 0) + w
    text = "{:0%db}" % (2 * R)  # sorted as bit tuples, coordinate 0 first
    return sorted(out.items(), key=lambda item: [
        text.format(m)[::-1] for m in item[0]]), E ** L << 2 * L + 4 * R


def t3_delta_table(g, ev, ew, eps, budget=None):
    """Joint distribution of the two argument offsets for an edge pair.

    The second and fourth query points differ from the first and third by
    these offsets; enumerating them directly keeps the support small because
    the masked randomness only matters where the noise mask is set.
    """
    items, den = _t3_offsets(g, ev, ew, as_rational(eps, "noise rate"), budget)
    bits = range(2 * g.nlabels_v)
    return {tuple(tuple(m >> j & 1 for j in bits) for m in pair):
            Fraction(w, den) for pair, w in items}


def _t3(params):
    """The third test: an edge pair at the left vertex, one offset pair of
    `_t3_offsets` and two uniform points x, x'; it queries x and x plus the
    first offset at the first edge's right endpoint, x' and x' plus the
    second at the second's. Points and offsets are indices into [2]^2R, so
    adding an offset is XOR of indices."""
    g = params.source
    R = g.nlabels_v
    check_table_size(1 << 2 * R)
    point = _uniform(1 << 2 * R, lambda rng: sum(
        rng.randrange(2) << j for j in range(2 * R)))

    def offsets(edges, budget):
        items, den = _t3_offsets(g, *edges, params.eps, budget)
        return _weighted(*zip(*items), den)

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
