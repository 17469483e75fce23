"""Independent reference implementations used to lock in expected values.

Everything here recomputes results from first principles with the dumbest
correct algorithm available so that library outputs are checked against a
second, structurally different derivation.
"""

import itertools
from fractions import Fraction

from cspcover.csp import Assignment, Constraint
from cspcover.errors import PreconditionError, as_budget
from cspcover.labelcover import Labeling
from cspcover.predicate import add_tuples, is_shift_closed


def brute_chromatic_number(nvertices, edges):
    """Smallest t admitting a proper coloring, by backtracking."""
    if nvertices == 0:
        return 0
    adj = [[] for _ in range(nvertices)]
    for u, v in edges:
        if u == v:
            raise ValueError("self loops have no proper coloring")
        adj[u].append(v)
        adj[v].append(u)

    def colorable(t):
        colors = [-1] * nvertices

        def place(v):
            if v == nvertices:
                return True
            used = {colors[w] for w in adj[v] if colors[w] >= 0}
            # trying only one fresh color breaks color symmetry
            cap = min(t, max([colors[w] for w in range(v)], default=-1) + 2)
            for c in range(cap):
                if c not in used:
                    colors[v] = c
                    if place(v + 1):
                        return True
                    colors[v] = -1
            return False

        return place(0)

    for t in range(1, nvertices + 1):
        if colorable(t):
            return t
    return nvertices


def assignment_covers(values, inst):
    """Constraint indices satisfied by one value tuple, straight from the
    membership definition."""
    q = inst.predicate.q
    out = set()
    for idx, c in enumerate(inst.constraints):
        shifted = tuple(
            (values[v] + lit) % q for v, lit in zip(c.vars, c.literals)
        )
        if shifted in inst.predicate:
            out.add(idx)
    return out


def brute_covering_number(inst, max_c):
    """Minimum cover size by enumerating assignment subsets outright."""
    active = [i for i, c in enumerate(inst.constraints) if c.weight > 0]
    if not active:
        return 0
    q = inst.predicate.q
    n = inst.nvars
    coverages = []
    seen = set()
    for values in itertools.product(range(q), repeat=n):
        cov = frozenset(assignment_covers(values, inst)) & frozenset(active)
        if cov not in seen:
            seen.add(cov)
            coverages.append(cov)
    need = frozenset(active)
    for c in range(1, max_c + 1):
        for combo in itertools.combinations(coverages, c):
            merged = frozenset().union(*combo)
            if need <= merged:
                return c
    return None


def brute_max_independent_set(inst):
    """Largest variable subset containing no positive-weight constraint."""
    n = inst.nvars
    tuples = [
        frozenset(c.vars) for c in inst.constraints if c.weight > 0
    ]
    best = 0
    for mask in range(1 << n):
        chosen = {v for v in range(n) if mask >> v & 1}
        if len(chosen) <= best:
            continue
        if all(not t <= chosen for t in tuples):
            best = len(chosen)
    return best


def reference_coverage_masks(inst, budget):
    """Undominated (mask, assignment) pairs by enumerating every variable.

    The original search: a recursion over all q^n assignments (variable 0
    fixed to 0 under shift-closure), one membership test per constraint per
    leaf, and a quadratic dominance scan.
    """
    q = inst.predicate.q
    n = inst.nvars
    pred = inst.predicate
    cons = [c for c in inst.constraints if c.weight > 0]
    seen = {}
    order = []
    first_range = range(1) if (n > 0 and is_shift_closed(pred)) else range(q)
    stack_values = [0] * n

    def emit(values):
        budget.spend(len(cons))
        mask = 0
        for j, c in enumerate(cons):
            vals = tuple(values[v] for v in c.vars)
            if add_tuples(vals, c.literals, q) in pred:
                mask |= 1 << j
        if mask and mask not in seen:
            seen[mask] = Assignment(values)
            order.append(mask)

    def rec(pos):
        if pos == n:
            emit(stack_values)
            return
        rng = first_range if pos == 0 else range(q)
        for val in rng:
            stack_values[pos] = val
            rec(pos + 1)

    if n == 0:
        return [], cons
    rec(0)
    masks = sorted(order, key=lambda m: -bin(m).count("1"))
    kept = []
    for m in masks:
        if not any((m | k) == k for k in kept):
            kept.append(m)
    return [(m, seen[m]) for m in kept], cons


def reference_max_independent_set(inst, budget):
    """The original recursive maximum independent set search: (size,
    witness), spending one budget unit per node."""
    n = inst.nvars
    cons = []
    for c in inst.constraints:
        if c.weight > 0:
            s = frozenset(c.vars)
            cons.append(s)
    cons = sorted(set(cons), key=lambda s: sorted(s))
    touching = [[] for _ in range(n)]
    for j, s in enumerate(cons):
        for v in s:
            touching[v].append(j)
    need = [len(s) for s in cons]
    inside = [0] * len(cons)
    best = {"size": -1, "set": ()}
    chosen = []

    def rec(v):
        budget.spend()
        if len(chosen) + (n - v) <= best["size"]:
            return
        if v == n:
            if len(chosen) > best["size"]:
                best["size"] = len(chosen)
                best["set"] = tuple(chosen)
            return
        blocked = any(inside[j] == need[j] - 1 for j in touching[v] if need[j] >= 1)
        fully = any(need[j] == 1 for j in touching[v])
        if not blocked and not fully:
            chosen.append(v)
            for j in touching[v]:
                inside[j] += 1
            rec(v + 1)
            for j in touching[v]:
                inside[j] -= 1
            chosen.pop()
        rec(v + 1)

    rec(0)
    return best["size"], best["set"]


def reference_merge(predicate, variables, constraints):
    """The original `CspInstance` merge: every constraint validated one by
    one, with the library's messages, duplicate (vars, literals) keys merged
    by `Fraction` addition in first-occurrence order. Returns (vars,
    literals, weight) triples."""
    n = len(tuple(variables))
    k, q = predicate.k, predicate.q
    merged = {}
    for vars_, lits, w in constraints:
        vars_ = tuple(int(v) for v in vars_)
        lits = tuple(int(x) for x in lits)
        w = Fraction(w)
        problem = None
        if len(vars_) != k or len(lits) != k:
            problem = "does not match arity %d" % k
        elif any(v < 0 or v >= n for v in vars_):
            problem = "references unknown variables"
        elif any(x < 0 or x >= q for x in lits):
            problem = "has literals outside [q]"
        if problem:
            raise PreconditionError("constraint %r %s" % (
                Constraint(vars_, lits, w), problem
            ))
        if w < 0:
            raise PreconditionError("constraint weights must be nonnegative")
        merged[(vars_, lits)] = merged.get((vars_, lits), Fraction(0)) + w
    if merged and sum(merged.values()) == 0:
        raise PreconditionError("total constraint weight must be positive")
    return [(v, l, w) for (v, l), w in merged.items()]


def reference_covered_fraction(cs, inst):
    """The original covered fraction: `Fraction` weights summed constraint by
    constraint, membership tested by adding the literals to the values."""
    if not inst.constraints:
        return Fraction(1)
    q = inst.predicate.q
    total = Fraction(0)
    hit = Fraction(0)
    for c in inst.constraints:
        total += c.weight
        for a in cs:
            vals = tuple(a.values[v] for v in c.vars)
            if add_tuples(vals, c.literals, q) in inst.predicate:
                hit += c.weight
                break
    return hit / total


def reference_rejection_identity(assignments, inst, budget):
    """The original parity rejection sums over `Fraction` weights, one budget
    unit per constraint: (lhs, rhs, correlations by index set)."""
    t = len(assignments)
    rows = [a.values for a in assignments]
    total = sum((c.weight for c in inst.constraints), Fraction(0))
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
    correlations = {s: v / total for s, v in sums.items()}
    rhs = Fraction(1, 2 ** t) * (1 + sum(correlations.values()))
    return lhs / total, rhs, correlations


def count_satisfied_edges(g, left, right):
    """Edge-by-edge recount of projection consistency."""
    hits = 0
    for e in g.edges:
        if e.proj[right[e.v]] == left[e.u]:
            hits += 1
    return hits


def brute_max_satisfiable(g):
    """Exhaustive maximum over all labelings of both sides."""
    best = 0
    for left in itertools.product(range(g.nlabels_u), repeat=g.nu):
        for right in itertools.product(range(g.nlabels_v), repeat=g.nv):
            best = max(best, count_satisfied_edges(g, left, right))
    return Fraction(best, len(g.edges))


def _reference_classes_covers(g, classes, budget):
    """One labeling per class covering that class's left vertices, or None.

    A class is a set of left vertices that one labeling must serve: every
    vertex in it needs all of its incident edges satisfied.
    """
    out = []
    for cls in classes:
        found = None
        # Left labels only matter on cls; right labels must agree with every
        # class edge at their vertex. Enumerate left choices on cls.
        cls = sorted(cls)
        for choice in itertools.product(range(g.nlabels_u), repeat=len(cls)):
            budget.spend()
            want = dict(zip(cls, choice))
            right = [None] * g.nv
            ok = True
            for v in range(g.nv):
                edge_ids = [
                    i for i in g.edges_at_v(v) if g.edges[i].u in want
                ]
                if not edge_ids:
                    right[v] = 0
                    continue
                picked = None
                for r in range(g.nlabels_v):
                    budget.spend()
                    if all(g.edges[i].proj[r] == want[g.edges[i].u] for i in edge_ids):
                        picked = r
                        break
                if picked is None:
                    ok = False
                    break
                right[v] = picked
            if ok:
                left = [0] * g.nu
                for u, val in want.items():
                    left[u] = val
                found = Labeling(left, right)
                break
        if found is None:
            return None
        out.append(found)
    return out


def reference_is_c_coverable(g, c, budget=None):
    """`labelcover.is_c_coverable` as it stood before its search became
    iterative: partitions from a recursive restricted-growth generator, and
    class edge lists rebuilt for every left-label choice. Recurses once per
    active left vertex, so it is for small games only."""
    budget = as_budget(budget)
    if c < 1:
        raise PreconditionError("c must be at least 1")
    isolated = [u for u in range(g.nu) if not g.edges_at_u(u)]
    active = [u for u in range(g.nu) if g.edges_at_u(u)]
    # Partition active left vertices into at most c classes (restricted-growth
    # strings avoid symmetric repeats), then check each class independently.
    def partitions(items, maxc):
        n = len(items)
        rgs = [0] * n

        def rec(i, used):
            if i == n:
                groups = [[] for _ in range(used)]
                for j, gidx in enumerate(rgs):
                    groups[gidx].append(items[j])
                yield groups
                return
            for v in range(min(used + 1, maxc)):
                rgs[i] = v
                yield from rec(i + 1, max(used, v + 1))

        if n == 0:
            yield []
            return
        yield from rec(0, 0)

    for groups in partitions(active, c):
        labelings = _reference_classes_covers(g, groups, budget)
        if labelings is not None:
            if isolated and not labelings:
                labelings = [Labeling([0] * g.nu, [0] * g.nv)]
            while len(labelings) < c:
                labelings.append(labelings[-1] if labelings else
                                 Labeling([0] * g.nu, [0] * g.nv))
            return labelings
    return None


def direct_dft(values):
    """O(4^n) character sums E[f(x) (-1)^(x . alpha)] over uniform bits."""
    n = len(values).bit_length() - 1
    assert 1 << n == len(values)
    out = []
    for alpha in range(1 << n):
        acc = Fraction(0)
        for x in range(1 << n):
            sign = -1 if bin(x & alpha).count("1") % 2 else 1
            acc += sign * Fraction(values[x])
        out.append(acc / (1 << n))
    return out


def variance_influence(values, sizes, measures, i):
    """E over the other coordinates of the variance along coordinate i."""
    n = len(sizes)
    total = Fraction(0)
    axes = [range(s) for s in sizes]
    for point in itertools.product(*axes):
        if point[i] != 0:
            continue
        w_rest = Fraction(1)
        for j, x in enumerate(point):
            if j != i:
                w_rest *= measures[j][x]
        mean = Fraction(0)
        meansq = Fraction(0)
        for xi in range(sizes[i]):
            p = list(point)
            p[i] = xi
            idx = 0
            stride = 1
            for j, x in enumerate(p):
                idx += x * stride
                stride *= sizes[j]
            v = Fraction(values[idx])
            mean += measures[i][xi] * v
            meansq += measures[i][xi] * v * v
        total += w_rest * (meansq - mean * mean)
    return total


def rho_two_by_two(mu):
    """Correlation of a 2x2 joint table via the one mean-zero direction.

    With two atoms per side there is a single mean-zero right function up to
    scale, so the maximization defining the correlation collapses to one
    exact Rayleigh quotient; only the final square root is numeric.
    """
    import math

    atoms_l = sorted({a for a, _ in mu})
    atoms_r = sorted({b for _, b in mu})
    assert len(atoms_l) == 2 and len(atoms_r) == 2
    m1 = {a: sum(w for (x, _), w in mu.items() if x == a) for a in atoms_l}
    m2 = {b: sum(w for (_, y), w in mu.items() if y == b) for b in atoms_r}
    # g mean-zero: g(b0) = m2[b1], g(b1) = -m2[b0]
    g = {atoms_r[0]: m2[atoms_r[1]], atoms_r[1]: -m2[atoms_r[0]]}
    norm_g = sum(m2[b] * g[b] * g[b] for b in atoms_r)
    if norm_g == 0:
        return 0.0
    ug = {}
    for a in atoms_l:
        ug[a] = (
            sum(mu.get((a, b), Fraction(0)) * g[b] for b in atoms_r) / m1[a]
        )
    norm_ug = sum(m1[a] * ug[a] * ug[a] for a in atoms_l)
    return math.sqrt(float(norm_ug / norm_g))


def petersen_edges():
    """The 3-regular 10-vertex graph with outer cycle, spokes, and pentagram."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def _average_out(values, sizes, measures, coord):
    """Replace coordinate `coord` by its mean under its measure; the table
    keeps its full size."""
    s = sizes[coord]
    stride = 1
    for c in range(coord):
        stride *= sizes[c]
    out = list(values)
    for base in range(0, len(values), stride * s):
        for start in range(base, base + stride):
            mean = sum(
                (measures[coord][v] * values[start + v * stride]
                 for v in range(s)),
                Fraction(0),
            )
            for v in range(s):
                out[start + v * stride] = mean
    return out


def moebius_efron_stein(values, sizes, measures, blocks):
    """Efron-Stein components by block mask, as the Moebius (inclusion-
    exclusion) sum of the conditional expectations E[f | blocks of m'] over
    m' contained in m."""
    nb = len(blocks)
    full = (1 << nb) - 1
    cond = {full: [Fraction(v) for v in values]}
    for m in range(full - 1, -1, -1):
        missing = next(b for b in range(nb) if not (m >> b) & 1)
        vals = cond[m | (1 << missing)]
        for coord in blocks[missing]:
            vals = _average_out(vals, sizes, measures, coord)
        cond[m] = vals
    components = {}
    for m in range(full + 1):
        acc = [Fraction(0)] * len(values)
        sub = m
        while True:
            sign = -1 if bin(m ^ sub).count("1") % 2 else 1
            for i, v in enumerate(cond[sub]):
                acc[i] += sign * v
            if sub == 0:
                break
            sub = (sub - 1) & m
        components[m] = acc
    return components


def point_weight(sizes, measures, index):
    w = Fraction(1)
    for s, coord in zip(sizes, measures):
        w *= coord[index % s]
        index //= s
    return w


def moebius_influences(values, sizes, measures, blocks, d=None):
    """Influence of every block, summed over Moebius components of at most
    d blocks (every component when d is None)."""
    out = [Fraction(0)] * len(blocks)
    for m, comp in moebius_efron_stein(values, sizes, measures, blocks).items():
        members = [b for b in range(len(blocks)) if (m >> b) & 1]
        if d is not None and len(members) > d:
            continue
        nsq = sum(
            (point_weight(sizes, measures, i) * v * v
             for i, v in enumerate(comp)),
            Fraction(0),
        )
        for b in members:
            out[b] += nsq
    return out


def invariance_gap_reference(space, nblocks, f, g):
    """The coupled and product expectations of the invariance gap, term by
    term in Fraction arithmetic, with the influence quantities from Moebius
    decompositions.

    Returns (gap, tau, gamma, terms): terms is the number of column tuples
    enumerated over the three sums.
    """
    import math

    k = space.k_left
    fdom, gdom = f.domain, g.domain
    left_sym = sorted({la[r] for (la, _ra) in space.mu for r in range(k)})
    right_sym = sorted({ra[r] for (_la, ra) in space.mu for r in range(k)})
    left_index = {s: i for i, s in enumerate(left_sym)}
    right_index = {s: i for i, s in enumerate(right_sym)}
    support = [key for key, w in sorted(space.mu.items()) if w > 0]
    terms = 0

    def row_index(dom, sym_index, cols, side, row):
        return dom.index(
            tuple(sym_index[cols[c][side][row]] for c in range(nblocks))
        )

    coupled = Fraction(0)
    for cols in itertools.product(support, repeat=nblocks):
        terms += 1
        w = Fraction(1)
        for key in cols:
            w *= space.mu[key]
        term = Fraction(1)
        for row in range(k):
            term *= f.values[row_index(fdom, left_index, cols, 0, row)]
            term *= g.values[row_index(gdom, right_index, cols, 1, row)]
        coupled += w * term

    def one_side(marg, fn, dom, sym_index):
        nonlocal terms
        atoms = [(a, w) for a, w in sorted(marg.items()) if w > 0]
        total = Fraction(0)
        for cols in itertools.product(atoms, repeat=nblocks):
            terms += 1
            w = Fraction(1)
            for _a, wa in cols:
                w *= wa
            term = Fraction(1)
            for row in range(k):
                term *= fn.values[row_index(dom, sym_index, cols, 0, row)]
            total += w * term
        return total

    left_only = one_side(space.marginal_left, f, fdom, left_index)
    right_only = one_side(space.marginal_right, g, gdom, right_index)
    gap = abs(coupled - left_only * right_only)
    singletons = [(i,) for i in range(nblocks)]
    inf_f = moebius_influences(f.values, fdom.sizes, fdom.measures, singletons)
    inf_g = moebius_influences(g.values, gdom.sizes, gdom.measures, singletons)
    tau = math.sqrt(float(sum(a * b for a, b in zip(inf_f, inf_g))))
    gamma = math.sqrt(max(float(sum(inf_f)), float(sum(inf_g))))
    return gap, tau, gamma, terms


def commute_check_reference(blocks, g):
    """commute_check on Fraction tables: Ug and U applied to each component
    of g through `markov_apply_blocks`, both sides decomposed by
    `efron_stein`, and the worst deviation taken entry by entry."""
    from cspcover.boolanalysis import efron_stein
    from cspcover.correlated import CommuteResult, markov_apply_blocks

    dec_ug = efron_stein(markov_apply_blocks(blocks, g))
    worst = Fraction(0)
    for beta, comp in efron_stein(g).components.items():
        rhs = markov_apply_blocks(blocks, comp)
        for a, b in zip(dec_ug.components[beta].values, rhs.values):
            worst = max(worst, abs(a - b))
    return CommuteResult(float(worst) <= 1e-9, float(worst))


def unreduced(f, c):
    """f as the library may hold it: numerators and denominator both c times
    those the constructor gives, so not in lowest terms, and `values` not
    yet built."""
    from cspcover.boolanalysis import TabulatedFunction

    return TabulatedFunction._trusted(
        f.domain, tuple(c * x for x in f.numerators), c * f.denominator, None)


# ---------------------------------------------------------------------------
# Pointwise decoders: the Fraction-table paths `reductions` replaced


def _reference_pm_values(f):
    """{0,1} (or already +/-1) table values -> +/-1 convention."""
    from cspcover.boolanalysis import TabulatedFunction

    vals = set(f.values)
    if vals <= {Fraction(0), Fraction(1)}:
        return TabulatedFunction(f.domain, (1 - 2 * v for v in f.values))
    if vals <= {Fraction(-1), Fraction(1)}:
        return f
    raise PreconditionError("table values must be bits or signs")


def _reference_fourier_masses(tables, nv, R, rate):
    """Per right vertex, the masks with a nonzero coefficient in its full
    `fourier` table beside the float running sums of their masses, and the
    table itself; a table must have 2R coordinates."""
    from cspcover.boolanalysis import fourier

    masses, spectra = {}, {}
    for v in range(nv):
        fh = spectra[v] = fourier(_reference_pm_values(tables[v]))
        if fh.n != 2 * R:
            raise PreconditionError(
                "table has %d coordinates, not 2R = %d" % (fh.n, 2 * R))
        masks = [mask for mask, coeff in enumerate(fh.coefficients) if coeff]
        masses[v] = masks, list(itertools.accumulate(
            float(Fraction(rate) ** m.bit_count() * fh.coefficients[m] ** 2)
            for m in masks
        ))
    return masses, spectra


def reference_decode_t1(tables, source, tau, d, seed):
    """decode_t1 with each left table averaged point by point: every point
    composed through `compose_projection` and looked up by `index`, one
    Fraction multiply-add per point and edge."""
    import random

    from cspcover.boolanalysis import (
        TabulatedFunction,
        all_degree_d_influences,
        compose_projection,
    )
    from cspcover.labelcover import satisfied_fraction
    from cspcover.reductions import T1DecodeResult, _incident_or_error

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
        infl = all_degree_d_influences(f, d, blocks)
        return [i for i in range(L) if infl[i] >= threshold]

    labs_right = [labels(tables[v], tau / 2) for v in range(source.nv)]
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
        labs_left.append(labels(TabulatedFunction(dom, acc), tau))
    left, right = (
        [c[rng.randrange(len(c))] if c else 0 for c in labs]
        for labs in (labs_left, labs_right)
    )
    labeling = Labeling(left, right)
    return T1DecodeResult(
        labeling,
        satisfied_fraction(source, labeling),
        [len(c) for c in labs_left],
        [len(c) for c in labs_right],
        Fraction(2 * d) / tau,
    )


def reference_decode_t2(tables, source, gamma, seed):
    """decode_t2 on full Fraction `fourier` tables, scanning every mask."""
    import random

    from cspcover.boolanalysis import pi_tilde
    from cspcover.csp import _bit_indices
    from cspcover.labelcover import satisfied_fraction
    from cspcover.reductions import (
        T2DecodeResult,
        _incident_or_error,
        _spectral_pick,
    )

    gamma = Fraction(gamma)
    if not Fraction(0) < gamma < 1:
        raise PreconditionError("gamma must lie in (0, 1)")
    rng = random.Random(seed)
    R = source.nlabels_v
    L = source.nlabels_u
    rate = 1 - gamma
    masses, spectra = _reference_fourier_masses(tables, source.nv, R, rate)
    right = [_spectral_pick(rng, masses[v], R) or 0 for v in range(source.nv)]
    left = []
    for u in range(source.nu):
        eids = _incident_or_error(source, u)
        e = source.edges[eids[rng.randrange(len(eids))]]
        j = _spectral_pick(rng, masses[e.v], R)
        left.append(0 if j is None else e.proj[j])
    labeling = Labeling(left, right)
    value = satisfied_fraction(source, labeling)
    rate2 = rate * rate

    def edge_profile(eid):
        proj = source.edges[eid].proj
        fh = spectra[source.edges[eid].v]
        prof = [Fraction(0)] * L
        for mask, coeff in enumerate(fh.coefficients):
            if not coeff or not mask:
                continue
            w = rate2 ** mask.bit_count() * coeff * coeff
            for i in pi_tilde(_bit_indices(mask), proj):
                prof[i] += w
        return prof

    profiles = {eid: edge_profile(eid) for eid in range(len(source.edges))}
    expect = Fraction(0)
    for u in range(source.nu):
        eids = source.edges_at_u(u)
        share = Fraction(1, source.nu) * Fraction(1, len(eids)) ** 2
        for ev in eids:
            for ew in eids:
                expect += share * sum(
                    (profiles[ev][i] * profiles[ew][i] for i in range(L)),
                    Fraction(0),
                )
    return T2DecodeResult(labeling, value, gamma * gamma * expect, gamma)


def reference_decode_t3(tables, source, seed):
    """decode_t3 on full Fraction `fourier` tables."""
    import random

    from cspcover.boolanalysis import pi_tilde
    from cspcover.csp import _bit_indices
    from cspcover.labelcover import satisfied_fraction
    from cspcover.reductions import (
        T3DecodeResult,
        _incident_or_error,
        _sample_mask,
        _spectral_pick,
    )

    rng = random.Random(seed)
    R = source.nlabels_v
    masses, _ = _reference_fourier_masses(tables, source.nv, R, 1)
    left = []
    for u in range(source.nu):
        eids = _incident_or_error(source, u)
        e = source.edges[eids[rng.randrange(len(eids))]]
        mask = _sample_mask(rng, masses[e.v])
        if not mask:
            left.append(0)
            continue
        image = sorted(pi_tilde(_bit_indices(mask), e.proj))
        left.append(image[rng.randrange(len(image))])
    right = [_spectral_pick(rng, masses[v], R) or 0 for v in range(source.nv)]
    labeling = Labeling(left, right)
    return T3DecodeResult(labeling, satisfied_fraction(source, labeling))
