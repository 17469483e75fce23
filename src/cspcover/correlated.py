"""Finite correlated probability spaces: connectedness, Markov operators,
correlation, Efron-Stein commutation, and an empirical product-test gap
checker with an explicit constant.

A CorrelatedSpace couples a left space (tuples of k_left symbols) with a
right space (tuples of k_right symbols) through an exact joint measure.
Correlation and the gap checker mix exact construction with numeric linear
algebra at stated tolerances; everything else is exact.
"""

import itertools
import math
from fractions import Fraction
from operator import add, attrgetter, mul

from .boolanalysis import (
    ProductDomain,
    TabulatedFunction,
    _scaled,
    all_influences,
    efron_stein,
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
        """Restrict to atoms of positive marginal and positive joint entries."""
        mu = {k: w for k, w in self.mu.items() if w > 0}
        return CorrelatedSpace(mu)

    def left_marginal_domain(self):
        return _blocks_domain([self], "left")

    def right_marginal_domain(self):
        return _blocks_domain([self], "right")

    def single_coordinate_marginal(self, side, coord):
        """Distribution of one coordinate of one side, as a symbol -> mass map."""
        out = {}
        if side == "left":
            for (la, _ra), w in self.mu.items():
                out[la[coord]] = out.get(la[coord], Fraction(0)) + w
        elif side == "right":
            for (_la, ra), w in self.mu.items():
                out[ra[coord]] = out.get(ra[coord], Fraction(0)) + w
        else:
            raise PreconditionError("side must be 'left' or 'right'")
        return out

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
    index = {a: i for i, a in enumerate(atoms)}
    n = len(atoms)
    seen = [False] * n
    seen[0] = True
    queue = [atoms[0]]
    reached = 1
    # Group by the tuple with one coordinate masked; neighbors share a group.
    groups = {}
    for a in atoms:
        for c in range(len(a)):
            key = (c, a[:c], a[c + 1:])
            groups.setdefault(key, []).append(a)
    while queue:
        a = queue.pop()
        for c in range(len(a)):
            for b in groups[(c, a[:c], a[c + 1:])]:
                i = index[b]
                if not seen[i]:
                    seen[i] = True
                    reached += 1
                    queue.append(b)
    return reached == n


def pairwise_product_check(space):
    """True iff every (left coordinate, right coordinate) marginal factorizes."""
    for i in range(space.k_left):
        left = space.single_coordinate_marginal("left", i)
        for j in range(space.k_right):
            right = space.single_coordinate_marginal("right", j)
            pair = space.pair_marginal(i, j)
            for a, wa in left.items():
                for b, wb in right.items():
                    if pair.get((a, b), Fraction(0)) != wa * wb:
                        return False
    return True


def _normalized_joint_matrix(space):
    import numpy as np

    sp = space.drop_zero_atoms()
    nl, nr = len(sp.left_atoms), len(sp.right_atoms)
    m1 = [float(sp.marginal_left[a]) for a in sp.left_atoms]
    m2 = [float(sp.marginal_right[a]) for a in sp.right_atoms]
    mat = np.zeros((nl, nr))
    for (la, ra), w in sp.mu.items():
        i = sp.left_atoms.index(la)
        j = sp.right_atoms.index(ra)
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

    __slots__ = ("space", "matrix")

    def __init__(self, space):
        sp = space.drop_zero_atoms()
        self._fill(space=sp, matrix=_block_matrix(sp))

    def apply(self, g):
        """Ug for g on the space's right marginal domain; exact."""
        _checked_blocks([self.space], g)
        return TabulatedFunction(self.space.left_marginal_domain(),
                                 _apply_blocks([self.matrix], g.values))


def markov_apply(op, g):
    """Apply a Markov operator (or the operator of a space) to g; exact."""
    if isinstance(op, CorrelatedSpace):
        op = MarkovOperator(op)
    return op.apply(g)


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


def blocks_left_domain(blocks):
    return _blocks_domain([b.drop_zero_atoms() for b in blocks], "left")


def _block_matrix(b):
    """A zero-free block's conditional matrix P[x][y] = mu(x, y) / mu(x)
    over its sorted atoms, as integer rows over one denominator."""
    flat, den = _scaled([
        b.mu.get((la, ra), Fraction(0)) / b.marginal_left[la]
        for la in b.left_atoms for ra in b.right_atoms
    ])
    width = len(b.right_atoms)
    return [flat[i:i + width] for i in range(0, len(flat), width)], den


def _apply_blocks(matrices, values):
    """Apply the per-block matrices to a table over the right product
    domain, one coordinate at a time, over integers; exact."""
    vals, den = _scaled(values)
    sizes = [len(rows[0]) for rows, _d in matrices]
    for j, (rows, d) in enumerate(matrices):
        vals, sizes = _contract_coordinate(vals, sizes, j, rows)
        den *= d
    return [Fraction(v, den) for v in vals]


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
    return TabulatedFunction(
        _blocks_domain(blocks, "left"),
        _apply_blocks([_block_matrix(b) for b in blocks], g.values),
    )


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
    and exactly; the worst pointwise deviation is reported against 1e-9.
    """
    blocks = _checked_blocks(blocks, g)
    matrices = [_block_matrix(b) for b in blocks]
    ug = TabulatedFunction(
        _blocks_domain(blocks, "left"), _apply_blocks(matrices, g.values)
    )
    dec_g = efron_stein(g)
    dec_ug = efron_stein(ug)
    worst = Fraction(0)
    for beta, comp in dec_g.components.items():
        lhs = dec_ug.components[beta]
        rhs = _apply_blocks(matrices, comp.values)
        for a, b in zip(lhs.values, rhs):
            dev = abs(a - b)
            if dev > worst:
                worst = dev
    return CommuteResult(float(worst) <= 1e-9, float(worst))


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


def _side_domain(space, side, nblocks):
    """One side's sorted symbols, and the product domain of nblocks words
    over them under its coordinate 0 marginal."""
    marg = space.single_coordinate_marginal(side, 0)
    symbols = tuple(sorted(marg))
    measure = (tuple(marg[s] for s in symbols),) * nblocks
    return symbols, ProductDomain((len(symbols),) * nblocks, measure)


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
    if not pairwise_product_check(space):
        raise PreconditionError("pairwise marginals do not factorize")
    left_sym, fdom = _side_domain(space, "left", nblocks)
    right_sym, gdom = _side_domain(space, "right", nblocks)
    for side, sym, dom in (("left", left_sym, fdom), ("right", right_sym, gdom)):
        marg = dict(zip(sym, dom.measures[0]))
        if any(space.single_coordinate_marginal(side, c) != marg
               for c in range(1, k)):
            raise PreconditionError(
                "all %s coordinates must share one marginal" % side
            )
    if not isinstance(f, TabulatedFunction) or f.domain != fdom:
        raise PreconditionError(
            "f must be tabulated on the left-symbol product domain"
        )
    if not isinstance(g, TabulatedFunction) or g.domain != gdom:
        raise PreconditionError(
            "g must be tabulated on the right-symbol product domain"
        )
    if f.sup_norm() > 1 or g.sup_norm() > 1:
        raise PreconditionError("f and g must be bounded in [-1, 1]")
    left_index = {s: i for i, s in enumerate(left_sym)}
    right_index = {s: i for i, s in enumerate(right_sym)}

    def expectation(measure, indexes, tables):
        """E over nblocks independent columns, each an atom of `measure` (one
        symbol row per side), of the product over sides and rows of the
        side's table at the row's word; summed over integers, divided once."""
        atoms = [a for a, w in measure.items() if w > 0]
        weights, den = _scaled([measure[a] for a in atoms])
        den **= nblocks
        values, base = [], ()
        for ints, t_den in tables:
            base += (len(values),) * k
            values += ints
            den *= t_den ** k
        # Per column, each atom's weight and its per-row table offsets.
        *outer, last = [
            [(w, tuple(index[part[row]] * len(index) ** c
                       for part, index in zip(atom, indexes)
                       for row in range(k)))
             for w, atom in zip(weights, atoms)]
            for c in range(nblocks)
        ]
        total = 0
        for combo in itertools.product(*outer):
            start = base
            for _w, offs in combo:
                start = tuple(map(add, start, offs))
            total += math.prod(w for w, _offs in combo) * sum(
                w * math.prod(map(values.__getitem__, map(add, start, offs)))
                for w, offs in last
            )
        return Fraction(total, den)

    left = {(a,): w for a, w in space.marginal_left.items()}
    right = {(a,): w for a, w in space.marginal_right.items()}
    budget.spend(sum(
        sum(1 for w in m.values() if w > 0) ** nblocks
        for m in (space.mu, left, right)
    ))
    f_ints, g_ints = _scaled(f.values), _scaled(g.values)
    coupled = expectation(space.mu, (left_index, right_index),
                          (f_ints, g_ints))
    left_only = expectation(left, (left_index,), (f_ints,))
    right_only = expectation(right, (right_index,), (g_ints,))
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

