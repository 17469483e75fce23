"""Finite correlated probability spaces: connectedness, Markov operators,
correlation, Efron-Stein commutation, and an empirical product-test gap
checker with an explicit constant.

A CorrelatedSpace couples a left space (tuples of k_left symbols) with a
right space (tuples of k_right symbols) through an exact joint measure.
Correlation and the gap checker mix exact construction with numeric linear
algebra at stated tolerances; everything else is exact.
"""

import functools
import itertools
import math
from fractions import Fraction
from operator import add, attrgetter, mul

from .boolanalysis import (
    ProductDomain,
    TabulatedFunction,
    _scaled,
    _split,
    all_influences,
)
from .errors import (
    Frozen,
    FrozenValue,
    GuaranteeError,
    PreconditionError,
    as_budget,
)


class CorrelatedSpace(Frozen):
    """Joint measure over pairs (left atom, right atom) of fixed shapes."""

    __slots__ = ("left_atoms", "right_atoms", "mu", "marginal_left",
                 "marginal_right", "k_left", "k_right")

    def __init__(self, mu):
        table = {}
        for (la, ra), w in dict(mu).items():
            la, ra = tuple(la), tuple(ra)
            w = Fraction(w)
            if w < 0:
                raise PreconditionError("measure entries must be nonnegative")
            table[(la, ra)] = table.get((la, ra), Fraction(0)) + w
        lefts = {la for (la, _ra) in table}
        rights = {ra for (_la, ra) in table}
        if not table or all(w == 0 for w in table.values()):
            raise PreconditionError("support must be nonempty")
        if sum(table.values()) != 1:
            raise PreconditionError("joint measure must sum to 1 exactly")
        klens = {len(a) for a in lefts}
        rlens = {len(a) for a in rights}
        if len(klens) != 1 or len(rlens) != 1:
            raise PreconditionError("atoms on one side must share a shape")
        left_atoms = tuple(sorted(lefts))
        right_atoms = tuple(sorted(rights))
        ml = {a: Fraction(0) for a in left_atoms}
        mr = {a: Fraction(0) for a in right_atoms}
        for (la, ra), w in table.items():
            ml[la] += w
            mr[ra] += w
        self._fill(
            mu=table, left_atoms=left_atoms, right_atoms=right_atoms,
            marginal_left=ml, marginal_right=mr, k_left=next(iter(klens)),
            k_right=next(iter(rlens)),
        )

    def mu_value(self, la, ra):
        return self.mu.get((tuple(la), tuple(ra)), Fraction(0))

    def support(self):
        return tuple(sorted(k for k, w in self.mu.items() if w > 0))

    def min_atom(self):
        return min(w for w in self.mu.values() if w > 0)

    def drop_zero_atoms(self):
        """Restrict to atoms of positive marginal and positive joint entries;
        the space itself when every entry is positive."""
        mu = {k: w for k, w in self.mu.items() if w > 0}
        return self if len(mu) == len(self.mu) else CorrelatedSpace(mu)

    def right_marginal_domain(self):
        return _blocks_domain([self], "right")

    def single_coordinate_marginal(self, side, coord):
        """Distribution of one coordinate of one side, as a symbol -> mass map."""
        if side not in ("left", "right"):
            raise PreconditionError("side must be 'left' or 'right'")
        left, right, den, _ = _marginals(self)
        marg = (left if side == "left" else right)[coord]
        return {s: Fraction(n, den) for s, n in marg.items()}

    def pair_marginal(self, left_coord, right_coord):
        out = {}
        for (la, ra), w in self.mu.items():
            key = (la[left_coord], ra[right_coord])
            out[key] = out.get(key, Fraction(0)) + w
        return out

    def __repr__(self):
        return "CorrelatedSpace(%d x %d atoms, k=(%d,%d))" % (
            len(self.left_atoms), len(self.right_atoms),
            self.k_left, self.k_right,
        )


def product_space(mu_left, mu_right):
    """The product coupling of two atom -> mass maps."""
    mu = {}
    for la, wl in dict(mu_left).items():
        for ra, wr in dict(mu_right).items():
            w = Fraction(wl) * Fraction(wr)
            if w:
                mu[(tuple(la), tuple(ra))] = w
    return CorrelatedSpace(mu)


def is_connected(arg):
    """True iff the support is connected under change-one-coordinate moves.

    Accepts a CorrelatedSpace (its joint support, left and right coordinates
    concatenated) or an explicit iterable of equal-length tuples.
    """
    if isinstance(arg, CorrelatedSpace):
        atoms = [la + ra for (la, ra) in arg.support()]
    else:
        atoms = [tuple(a) for a in arg]
    if not atoms:
        raise PreconditionError("support must be nonempty")
    atoms = sorted(set(atoms))
    if len({len(a) for a in atoms}) != 1:
        raise PreconditionError("atoms must share a length")
    # Group by the tuple with one coordinate masked; neighbors share a group.
    groups = {}
    for a in atoms:
        for c in range(len(a)):
            groups.setdefault((c, a[:c], a[c + 1:]), []).append(a)
    seen = {atoms[0]}
    queue = [atoms[0]]
    while queue:
        a = queue.pop()
        for c in range(len(a)):
            for b in groups[(c, a[:c], a[c + 1:])]:
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
    return len(seen) == len(atoms)


def _marginals(space):
    """(left, right, den, factorizes) from one pass over the numerators:
    each side's coordinate marginals as symbol -> numerator maps over den,
    and whether every (left, right) coordinate pair factorizes."""
    nums, den = _scaled(list(space.mu.values()))
    left = [{} for _ in range(space.k_left)]
    right = [{} for _ in range(space.k_right)]
    pairs = {}
    for (la, ra), n in zip(space.mu, nums):
        for j, b in enumerate(ra):
            right[j][b] = right[j].get(b, 0) + n
        for i, a in enumerate(la):
            left[i][a] = left[i].get(a, 0) + n
            for j, b in enumerate(ra):
                pairs[i, j, a, b] = pairs.get((i, j, a, b), 0) + n
    # A pair's mass p / den factorizes iff p * den = wa * wb.
    return left, right, den, all(
        pairs.get((i, j, a, b), 0) * den == wa * wb
        for i, lm in enumerate(left) for a, wa in lm.items()
        for j, rm in enumerate(right) for b, wb in rm.items()
    )


def pairwise_product_check(space):
    """True iff every (left coordinate, right coordinate) marginal factorizes."""
    return _marginals(space)[3]


def _normalized_joint_matrix(space):
    import numpy as np

    sp = space.drop_zero_atoms()
    nl, nr = len(sp.left_atoms), len(sp.right_atoms)
    m1 = [float(sp.marginal_left[a]) for a in sp.left_atoms]
    m2 = [float(sp.marginal_right[a]) for a in sp.right_atoms]
    rows = {a: i for i, a in enumerate(sp.left_atoms)}
    cols = {a: j for j, a in enumerate(sp.right_atoms)}
    mat = np.zeros((nl, nr))
    for (la, ra), w in sp.mu.items():
        i, j = rows[la], cols[ra]
        mat[i, j] = float(w) / math.sqrt(m1[i] * m2[j])
    return sp, mat, np.array(m2)


def correlation_rho(space, tol=1e-9):
    """Correlation of the two sides: the joint matrix's second singular value.

    Normalizing by the marginals makes the top singular pair the square-root
    marginals at value 1; the next singular value is the maximum of
    |E[f(X)g(Y)]| over mean-zero unit-variance f, g. A second computation
    path (maximizing the conditional-expectation norm over mean-zero g) must
    agree to 1e-8, and the value may exceed 1 by at most tol, a nonnegative
    number. Zero-probability atoms are dropped first.
    """
    if not tol >= 0:  # NaN too
        raise PreconditionError("tolerance must be nonnegative, got %r" % tol)
    import numpy as np

    sp, mat, m2 = _normalized_joint_matrix(space)
    if len(sp.left_atoms) < 2 or len(sp.right_atoms) < 2:
        return 0.0
    svals = np.linalg.svd(mat, compute_uv=False)
    rho_svd = float(svals[1]) if len(svals) > 1 else 0.0
    # Cross-check: spectrum of M^T M on the complement of sqrt(mu_right).
    h0 = np.sqrt(m2)
    proj = np.eye(len(m2)) - np.outer(h0, h0)
    gram = proj @ (mat.T @ mat) @ proj
    eigs = np.linalg.eigvalsh(gram)
    rho_opt = math.sqrt(max(0.0, float(eigs[-1])))
    if abs(rho_svd - rho_opt) > 1e-8:
        raise GuaranteeError(
            "correlation paths disagree: %.12g vs %.12g" % (rho_svd, rho_opt)
        )
    if rho_svd > 1 + tol:
        raise GuaranteeError("correlation exceeded 1 beyond tolerance")
    return min(max(rho_svd, 0.0), 1.0)


class MarkovOperator(Frozen):
    """Conditional expectation onto the left side: (Ug)(x) = E[g(Y) | X=x].

    Defined on the positive-marginal atoms; rows of the conditional matrix
    sum to one, so the constant-1 function maps to constant 1.
    """

    __slots__ = ("space",)

    def __init__(self, space):
        self._fill(space=space.drop_zero_atoms())

    def apply(self, g):
        """Ug for g on the space's right marginal domain; exact."""
        return markov_apply_blocks([self.space], g)


def _blocks_domain(blocks, side):
    """Product domain with one coordinate per zero-free block, carrying the
    marginal of the given side."""
    atoms = [getattr(b, side + "_atoms") for b in blocks]
    margs = [getattr(b, "marginal_" + side) for b in blocks]
    return ProductDomain(
        tuple(len(a) for a in atoms),
        tuple(tuple(m[x] for x in a) for a, m in zip(atoms, margs)),
    )


def blocks_right_domain(blocks):
    """Product domain with one coordinate per block, right marginals."""
    return _blocks_domain([b.drop_zero_atoms() for b in blocks], "right")


def _block_matrix(b):
    """A zero-free block's conditional matrix P[x][y] = mu(x, y) / mu(x)
    over its sorted atoms, as integer rows over one denominator."""
    flat, den = _scaled([
        b.mu.get((la, ra), Fraction(0)) / b.marginal_left[la]
        for la in b.left_atoms for ra in b.right_atoms
    ])
    width = len(b.right_atoms)
    return [flat[i:i + width] for i in range(0, len(flat), width)], den


def _apply_blocks(matrices, vals, den=1):
    """The per-block matrices applied to an integer table, one coordinate
    at a time: (the left-side table, den times their denominators)."""
    sizes = [len(rows[0]) for rows, _d in matrices]
    for j, (rows, d) in enumerate(matrices):
        vals, sizes = _contract_coordinate(vals, sizes, j, rows)
        den *= d
    return vals, den


def _checked_blocks(blocks, g):
    """The blocks without zero atoms, with g checked to live on their right
    product domain."""
    blocks = [b.drop_zero_atoms() for b in blocks]
    if (not isinstance(g, TabulatedFunction)
            or g.domain != _blocks_domain(blocks, "right")):
        raise PreconditionError("g must live on the blocks' right product domain")
    return blocks


def markov_apply_blocks(blocks, g):
    """Apply the tensor of per-block operators to g, one coordinate at a time.

    g lives on the product of the blocks' right sides (one coordinate per
    block); the result lives on the product of the left sides.
    """
    blocks = _checked_blocks(blocks, g)
    vals, den = _apply_blocks([_block_matrix(b) for b in blocks],
                              g.numerators, g.denominator)
    return TabulatedFunction._trusted(_blocks_domain(blocks, "left"),
                                      tuple(vals), den, None)


def _contract_coordinate(vals, sizes, j, matrix):
    """Replace coordinate j by matrix-weighted sums; sizes may change."""
    old = sizes[j]
    new = len(matrix)
    stride = math.prod(sizes[:j])
    outer = math.prod(sizes[j + 1:])
    new_sizes = list(sizes)
    new_sizes[j] = new
    out = [0] * (stride * new * outer)
    in_block = stride * old
    out_block = stride * new
    for o in range(outer):
        for off in range(stride):
            base_in = o * in_block + off
            base_out = o * out_block + off
            col = vals[base_in:base_in + in_block:stride]
            for x in range(new):
                out[base_out + x * stride] = sum(map(mul, matrix[x], col))
    return out, new_sizes


class CommuteResult(FrozenValue):
    __slots__ = ("ok", "worst_deviation")
    _key = attrgetter(*__slots__)

    def __init__(self, ok, worst_deviation):
        self._fill(ok=ok, worst_deviation=worst_deviation)

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "CommuteResult(ok=%r, worst_deviation=%r)" % self._key(self)


def commute_check(blocks, g):
    """Compare the two orders of Markov application and decomposition.

    For every subset S of the blocks, the S-component of Ug must equal U
    applied to the S-component of g. Both sides are computed independently
    as integer tables over known scales and compared by cross-multiplying;
    the worst pointwise deviation is reported against 1e-9.
    """
    blocks = _checked_blocks(blocks, g)
    matrices = [_block_matrix(b) for b in blocks]
    ug, uden = _apply_blocks(matrices, g.numerators, g.denominator)
    singles = [(b,) for b in range(len(blocks))]
    left = _blocks_domain(blocks, "left")
    # _split scales each component by its domain's measure denominators.
    lscale, rscale = left.point_weights()[1], g.domain.point_weights()[1]
    lhs = dict(_split(ug, left, singles))
    worst = max(abs(a * rscale - b * lscale)
                for mask, comp in _split(g.numerators, g.domain, singles)
                for a, b in zip(lhs[mask], _apply_blocks(matrices, comp)[0]))
    worst = float(Fraction(worst, uden * lscale * rscale))
    return CommuteResult(worst <= 1e-9, worst)


class InvarianceGap(FrozenValue):
    """Gap and bound from the product-vs-coupled comparison; iterates as
    (gap, bound) for tuple unpacking."""

    __slots__ = ("gap", "bound", "tau", "gamma")
    _key = attrgetter(*__slots__)

    def __init__(self, gap, bound, tau, gamma):
        self._fill(gap=gap, bound=bound, tau=tau, gamma=gamma)

    def __repr__(self):
        return ("InvarianceGap(gap=%r, bound=%r, tau=%r, gamma=%r)"
                % self._key(self))

    def __iter__(self):
        return iter((self.gap, self.bound))


def _side_domain(marg, den, nblocks):
    """A side's sorted symbol -> index map, and the domain of nblocks words
    over those symbols under the marginal marg (numerators over den)."""
    index = {s: i for i, s in enumerate(sorted(marg))}
    measure = (tuple(Fraction(marg[s], den) for s in index),) * nblocks
    return index, ProductDomain((len(index),) * nblocks, measure)


def _expectation(measure, k, nblocks, indexes, tables):
    """E over nblocks independent columns, each an atom of `measure` (one
    row of k symbols per side), of the product over sides and rows of the
    side's table at the row's word; over integers, divided once.

    Per tuple of the columns before the last two, the next-to-last
    column's atoms are gathered into the weights of the table offsets they
    reach (a vector U_r per row, an offset per side); the last column is
    then contracted row by row, mapping each offset prefix (U_0, ..., U_r)
    that occurs and rest (X_r+1, ..., X_k-1) of an atom's symbol vectors to
    the weighted sum of the factors so far. Work stays within the
    |support|^nblocks terms, the running tables within |support|^2 entries.
    """
    atoms = [a for a, w in measure.items() if w > 0]
    weights, den = _scaled([measure[a] for a in atoms])
    den = den ** nblocks * math.prod(t.denominator ** k for t in tables)
    rows = [tuple(tuple(index[part[r]] for part, index in zip(atom, indexes))
                  for r in range(k)) for atom in atoms]
    # Per column but the last, each atom's weight and flat row offsets,
    # after a column of one zero offset that stands in when nblocks is 1.
    ns = len(tables)
    zero = (0,) * (k * ns)
    *radixes, scales = [[len(index) ** c for index in indexes]
                        for c in range(nblocks)]
    *outer, gathered = [[(1, zero)]] + [
        [(w, tuple(x * n for x_r in xs for x, n in zip(x_r, radix)))
         for w, xs in zip(weights, rows)] for radix in radixes
    ]
    symbols = {x_r for xs in rows for x_r in xs}

    @functools.cache
    def factors(us):
        return {x_r: math.prod(t.numerators[u + x * s] for t, u, x, s
                               in zip(tables, us, x_r, scales))
                for x_r in symbols}

    total = 0
    for combo in itertools.product(*outer):
        base, weight = zero, 1
        for w, offsets in combo:
            base, weight = tuple(map(add, base, offsets)), weight * w
        prefixes = {}
        for w, offsets in gathered:
            key = tuple(map(add, base, offsets))
            prefixes[key] = prefixes.get(key, 0) + w
        level = {(): dict(zip(rows, weights))}
        for r in range(k):
            heads = {}
            for vec in prefixes:
                heads.setdefault(vec[:r * ns], set()).add(vec[r * ns:][:ns])
            contracted = {}
            for out, table in level.items():
                for us in heads[out]:
                    acc = contracted[out + us] = {}
                    fac_of = factors(us)
                    for xs, v in table.items():
                        fac = fac_of[xs[0]]
                        if fac:
                            acc[xs[1:]] = acc.get(xs[1:], 0) + fac * v
            level = contracted
        total += weight * sum(v * level[vec].get((), 0)
                              for vec, v in prefixes.items())
    return Fraction(total, den)


def invariance_gap(space, nblocks, f, g, budget=None):
    """Exact gap between the coupled and the factorized product expectations.

    Columns are drawn independently from the joint measure; f is applied to
    every left row and g to every right row, each row read as a word of
    length nblocks over the side's symbol alphabet. The reported bound is
    2^(4k+1) * Gamma * tau from the sum-of-influences quantities of f and g.
    Requires factorizing pairwise marginals, equal per-side coordinate
    marginals, and f, g bounded in [-1, 1].
    """
    budget = as_budget(budget)
    nblocks = int(nblocks)
    if nblocks < 1:
        raise PreconditionError("need at least one column")
    if space.k_left != space.k_right:
        raise PreconditionError("both sides must have the same number of rows")
    k = space.k_left
    left_margs, right_margs, den, factorizes = _marginals(space)
    if not factorizes:
        raise PreconditionError("pairwise marginals do not factorize")
    left_index, fdom = _side_domain(left_margs[0], den, nblocks)
    right_index, gdom = _side_domain(right_margs[0], den, nblocks)
    for side, margs in (("left", left_margs), ("right", right_margs)):
        if any(m != margs[0] for m in margs[1:]):
            raise PreconditionError(
                "all %s coordinates must share one marginal" % side
            )
    for name, fn, dom, side in (("f", f, fdom, "left"),
                                ("g", g, gdom, "right")):
        if not isinstance(fn, TabulatedFunction) or fn.domain != dom:
            raise PreconditionError(
                "%s must be tabulated on the %s-symbol product domain"
                % (name, side)
            )
    if f.sup_norm() > 1 or g.sup_norm() > 1:
        raise PreconditionError("f and g must be bounded in [-1, 1]")
    left = {(a,): w for a, w in space.marginal_left.items()}
    right = {(a,): w for a, w in space.marginal_right.items()}
    budget.spend(sum(
        sum(1 for w in m.values() if w > 0) ** nblocks
        for m in (space.mu, left, right)
    ))
    coupled = _expectation(space.mu, k, nblocks, (left_index, right_index),
                           (f, g))
    left_only = _expectation(left, k, nblocks, (left_index,), (f,))
    right_only = _expectation(right, k, nblocks, (right_index,), (g,))
    gap = abs(coupled - left_only * right_only)
    inf_f = all_influences(f)
    inf_g = all_influences(g)
    tau = math.sqrt(float(sum(a * b for a, b in zip(inf_f, inf_g))))
    gamma = math.sqrt(max(float(sum(inf_f)), float(sum(inf_g))))
    bound = float(2 ** (4 * k + 1)) * gamma * tau
    if float(gap) > bound * (1 + 1e-12) + 1e-300:
        raise GuaranteeError(
            "gap %s exceeded its bound %g" % (float(gap), bound)
        )
    return InvarianceGap(gap, bound, tau, gamma)
