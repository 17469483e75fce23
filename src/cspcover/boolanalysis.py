"""Exact Fourier and Efron-Stein analysis on finite product domains.

Everything here is exact rational arithmetic: transforms, influences, the
noise operator, and the index-set operators used by the reduction layer. A
point of the product domain is encoded as a mixed-radix integer with
coordinate 0 varying fastest, so on binary domains bit i of the index is
coordinate i.
"""

import math
from fractions import Fraction
from operator import attrgetter, mul

from .errors import (
    Frozen, FrozenValue, PreconditionError, _scaled, as_index, as_int, as_rational,
    check_table_size)


class ProductDomain(FrozenValue):
    """Finite product of coordinate spaces with exact per-coordinate measures,
    each held once as `weights[c]`: integer masses over one denominator, in
    lowest terms (a uniform coordinate of s symbols is ((1,) * s, s)), so
    equality and the hash read (sizes, weights). The Fraction view
    `measures` is built on first access, and kept."""

    __slots__ = ("sizes", "weights", "_strides", "size", "_points", "_measures")
    _key = attrgetter("sizes", "weights")

    def __init__(self, sizes, measures=None):
        sizes = tuple(as_int(s, "coordinate size") for s in sizes)
        if any(s < 1 for s in sizes):
            raise PreconditionError("coordinate spaces must be nonempty")
        size = math.prod(sizes) if sizes else 1
        check_table_size(size)
        if measures is None:
            weights = tuple(((1,) * s, s) for s in sizes)
        else:
            weights = [_scaled([as_rational(m, "measure") for m in coord])
                       for coord in measures]
            if len(weights) != len(sizes):
                raise PreconditionError("one measure per coordinate required")
            for s, (ints, den) in zip(sizes, weights):
                if len(ints) != s:
                    raise PreconditionError("measure length mismatches its coordinate")
                if min(ints) < 0:
                    raise PreconditionError("measures must be nonnegative")
                if sum(ints) != den:
                    raise PreconditionError("each coordinate measure must sum to 1")
            weights = tuple((tuple(ints), den) for ints, den in weights)
        strides = []
        acc = 1
        for s in sizes:
            strides.append(acc)
            acc *= s
        self._fill(sizes=sizes, weights=weights, _strides=tuple(strides),
                   size=size, _points=None, _measures=None)

    @property
    def measures(self):
        if self._measures is None:
            self._fill(_measures=tuple(tuple(Fraction(m, den) for m in ints)
                                       for ints, den in self.weights))
        return self._measures

    @classmethod
    def binary_uniform(cls, n):
        n = as_int(n, "n")
        if n < 0:
            raise PreconditionError("n must be nonnegative")
        return cls((2,) * n)

    @property
    def n(self):
        return len(self.sizes)

    def stride(self, coord):
        return self._strides[coord]

    def point(self, index):
        out = []
        for s in self.sizes:
            out.append(index % s)
            index //= s
        return tuple(out)

    def index(self, point):
        if len(point) != len(self.sizes):
            raise PreconditionError("point has wrong dimension")
        idx = 0
        for x, s, st in zip(point, self.sizes, self._strides):
            idx += as_index(x, s, "point coordinate") * st
        return idx

    def weight(self, index):
        num = den = 1
        for s, (ints, d) in zip(self.sizes, self.weights):
            num *= ints[index % s]
            den *= d
            index //= s
        return Fraction(num, den)

    def point_weights(self):
        """Every point's weight as integers over one common denominator,
        computed once per domain: (weights in index order, denominator)."""
        if self._points is None:
            weights, den = [1], 1
            for ints, d in self.weights:
                weights = [a * b for b in ints for a in weights]
                den *= d
            self._fill(_points=(weights, den))
        return self._points

    def is_binary_uniform(self):
        return all(w == ((1, 1), 2) for w in self.weights)

    def __repr__(self):
        return "ProductDomain(sizes=%r)" % (self.sizes,)


class TabulatedFunction(FrozenValue):
    """A function given by its full value table over a ProductDomain, held
    as integer `numerators` over one `denominator` (not always in lowest
    terms); the Fraction tuple `values` is built on first access, and kept."""

    __slots__ = ("domain", "numerators", "denominator", "_values")
    _key = attrgetter("domain", "values")

    def __init__(self, domain, values):
        values = [as_rational(v, "table value") for v in values]
        if len(values) != domain.size:
            raise PreconditionError(
                "table has %d entries for a domain of %d points"
                % (len(values), domain.size)
            )
        nums, den = _scaled(values)
        self._fill(domain=domain, numerators=tuple(nums), denominator=den,
                   _values=None)

    @property
    def values(self):
        if self._values is None:
            den = self.denominator
            self._fill(_values=tuple(Fraction(m, den) for m in self.numerators))
        return self._values

    def expectation(self):
        weights, den = self.domain.point_weights()
        return Fraction(sum(map(mul, weights, self.numerators)),
                        den * self.denominator)

    def inner(self, other):
        if self.domain != other.domain:
            raise PreconditionError("functions live on different domains")
        weights, den = self.domain.point_weights()
        return Fraction(
            sum(map(mul, map(mul, weights, self.numerators), other.numerators)),
            den * self.denominator * other.denominator)

    def norm_sq(self):
        return self.inner(self)

    def sup_norm(self):
        return Fraction(max(map(abs, self.numerators)), self.denominator)

    def __repr__(self):
        return "TabulatedFunction(%r, %d values)" % (self.domain, self.domain.size)


def wht(values):
    """In-place-style unnormalized Walsh-Hadamard transform of a sequence.

    Returns W with W[m] = sum_x values[x] * (-1)^{popcount(x & m)}; applying
    it twice multiplies by len(values). Works on ints or Fractions; length
    must be a power of two.
    """
    out = list(values)
    n = len(out)
    if n & (n - 1):
        raise PreconditionError("length must be a power of two")
    h = 1
    while h < n:
        for start in range(0, n, h * 2):
            for j in range(start, start + h):
                a, b = out[j], out[j + h]
                out[j], out[j + h] = a + b, a - b
        h *= 2
    return out


class FourierTable(Frozen):
    """Walsh-Hadamard coefficients of a function on {0,1}^n uniform.

    Coefficient alpha is stored at the bitmask index with bit i set iff
    coordinate i is in alpha.
    """

    __slots__ = ("n", "coefficients")

    def __init__(self, n, coefficients):
        n = as_int(n, "n")
        if n < 0:
            raise PreconditionError("n must be nonnegative")
        coefficients = tuple(as_rational(c, "coefficient") for c in coefficients)
        if len(coefficients) != 1 << n:
            raise PreconditionError("need exactly 2^n coefficients")
        self._fill(n=n, coefficients=coefficients)

    def __repr__(self):
        return "FourierTable(n=%d)" % self.n


def _as_mask(alpha, n):
    if not hasattr(alpha, "__iter__"):
        mask = as_int(alpha, "alpha")
    else:
        mask = 0
        for i in alpha:
            mask |= 1 << as_index(i, n, "alpha index")
    if mask < 0 or mask >= 1 << n:
        raise PreconditionError("index set leaves the coordinate range")
    return mask


def character(n, alpha):
    """chi_alpha as a +/-1 table on {0,1}^n uniform."""
    dom = ProductDomain.binary_uniform(n)
    mask = _as_mask(alpha, dom.n)
    return TabulatedFunction._trusted(dom, tuple(
        -1 if (x & mask).bit_count() % 2 else 1 for x in range(dom.size)
    ), 1, None)


def _check_binary_uniform(f):
    if not f.domain.is_binary_uniform():
        raise PreconditionError("fourier requires a binary uniform domain")


def fourier(f):
    """Exact Fourier coefficients of f on a binary uniform domain."""
    _check_binary_uniform(f)
    n = f.domain.n
    scale = f.denominator << n
    return FourierTable(n, (Fraction(t, scale) for t in wht(f.numerators)))


def noise(f, gamma):
    """Attenuate coefficient alpha by (1-gamma)^|alpha|; exact.

    With 1 - gamma = a/b, the integer transform of the numerators is scaled
    at m by a^|m| * b^(n-|m|) and transformed back, over the denominator
    den * 2^n * b^n.
    """
    gamma = as_rational(gamma, "noise rate")
    if gamma < 0 or gamma > 1:
        raise PreconditionError("noise rate must lie in [0, 1]")
    _check_binary_uniform(f)
    n = f.domain.n
    a, b = (1 - gamma).as_integer_ratio()
    factors = [a ** k * b ** (n - k) for k in range(n + 1)]
    vals = wht([c * factors[m.bit_count()]
                for m, c in enumerate(wht(f.numerators))])
    return TabulatedFunction._trusted(
        f.domain, tuple(vals), (f.denominator << n) * b ** n, None)


def _normalize_blocks(domain, blocks):
    if blocks is None:
        blocks = [(i,) for i in range(domain.n)]
    blocks = tuple(tuple(sorted(as_index(c, domain.n, "block coordinate")
                                for c in b)) for b in blocks)
    seen = set()
    for b in blocks:
        if not b:
            raise PreconditionError("blocks must be nonempty")
        for c in b:
            if c in seen:
                raise PreconditionError("blocks overlap at coordinate %d" % c)
            seen.add(c)
    if len(seen) != domain.n:
        raise PreconditionError("blocks must cover every coordinate")
    return blocks


class EfronSteinDecomposition(Frozen):
    """Orthogonal components f_beta indexed by subsets of the blocks."""

    __slots__ = ("domain", "blocks", "components")

    def __init__(self, domain, blocks, components):
        self._fill(domain=domain, blocks=blocks, components=components)

    def component(self, beta):
        return self.components[frozenset(beta)]

    def __repr__(self):
        return "EfronSteinDecomposition(%d blocks)" % len(self.blocks)


def _sum_out(values, stride, weights):
    """Replace one coordinate by its weighted sum under integer weights; the
    coordinate has the given stride and len(weights) values, and the table
    keeps its full size."""
    s = len(weights)
    out = []
    for base in range(0, len(values), stride * s):
        rows = [values[base + v * stride:base + (v + 1) * stride]
                for v in range(s)]
        out += [sum(map(mul, weights, col)) for col in zip(*rows)] * s
    return out


def _split(ints, domain, blocks, cap=None):
    """(block mask, table) for every Efron-Stein component of an integer
    table, depth first; with a cap, for every component of at most cap
    blocks.

    Each partial table t is split at block b into E_b t and t - E_b t, where
    E_b averages out the block's coordinates; a branch that already holds
    cap blocks keeps only E_b t. The projections run over integers, so each
    yielded table is its component times the product of every coordinate's
    measure denominator.
    """
    stack = [(0, 0, ints)]
    while stack:
        b, mask, t = stack.pop()
        if b == len(blocks):
            yield mask, t
            continue
        mean, scale = t, 1
        for coord in blocks[b]:
            weights, d = domain.weights[coord]
            mean = _sum_out(mean, domain.stride(coord), weights)
            scale *= d
        if cap is None or mask.bit_count() < cap:
            stack.append((b + 1, mask | 1 << b,
                          [scale * x - y for x, y in zip(t, mean)]))
        stack.append((b + 1, mask, mean))


def _members(mask, nb):
    return frozenset(b for b in range(nb) if (mask >> b) & 1)


def efron_stein(f, blocks=None):
    """Decompose f into orthogonal mean-zero components, one per block set.

    Component f_beta is the product over blocks of I - E_b (b in beta) or E_b
    (b not in beta) applied to f, with E_b the conditional expectation that
    averages out block b; built by splitting block by block in
    O(2^nb * |dom|) integer operations. The per-coordinate measure structure
    makes the underlying measure a product measure by construction.
    """
    domain = f.domain
    blocks = _normalize_blocks(domain, blocks)
    scale = f.denominator * domain.point_weights()[1]
    components = {
        _members(m, len(blocks)): TabulatedFunction._trusted(
            domain, tuple(t), scale, None)
        for m, t in sorted(_split(f.numerators, domain, blocks))
    }
    return EfronSteinDecomposition(domain, blocks, components)


def _block_influence(f, block):
    """E[Var_block f] by the variance form E[E_b(f^2) - (E_b f)^2]: the
    block's coordinates summed out of f and of f^2, with no Efron-Stein
    components."""
    domain = f.domain
    mean, den = f.numerators, f.denominator
    meansq, scale = [x * x for x in mean], 1
    for coord in block:
        weights, d = domain.weights[coord]
        mean = _sum_out(mean, domain.stride(coord), weights)
        meansq = _sum_out(meansq, domain.stride(coord), weights)
        scale *= d
    # mean is scale * den * E_b f and meansq is scale * den^2 * E_b(f^2).
    var = [scale * b - a * a for a, b in zip(mean, meansq)]
    weights, wden = domain.point_weights()
    return Fraction(sum(map(mul, weights, var)), wden * (scale * den) ** 2)


def influence(f, i, blocks=None):
    """Influence of block i: the sum of squared component norms over the
    sets containing it, computed as E over the other coordinates of Var over
    block i. With the default singleton blocks this is the usual coordinate
    influence E[Var_{x_i} f]."""
    blocks = _normalize_blocks(f.domain, blocks)
    return _block_influence(f, blocks[as_index(i, len(blocks), "block index")])


influence_variance = influence


def all_influences(f, blocks=None):
    """Influence of every block, each by the variance form."""
    blocks = _normalize_blocks(f.domain, blocks)
    return [_block_influence(f, block) for block in blocks]


def all_degree_d_influences(f, d, blocks=None):
    """Degree-d influence of every block: the sum of E[f_beta^2] over the
    component sets beta that contain it and have at most d blocks, read
    from a split capped at d blocks."""
    blocks = _normalize_blocks(f.domain, blocks)
    weights, wden = f.domain.point_weights()
    scale = f.denominator * wden
    out = [0] * len(blocks)
    for m, t in _split(f.numerators, f.domain, blocks, as_int(d, "d")):
        nsq = sum(map(mul, map(mul, weights, t), t))
        for b in _members(m, len(blocks)):
            out[b] += nsq
    return [Fraction(x, wden * scale * scale) for x in out]


def degree_d_influence(f, i, d, blocks=None):
    """Like influence, restricted to component sets of size at most d."""
    out = all_degree_d_influences(f, d, blocks)
    return out[as_index(i, len(out), "block index")]


def block_image(alpha, blocks, n):
    """The set of blocks an index set touches (the block map of Eq-style
    coefficient regrouping): coordinates to containing blocks."""
    mask = _as_mask(alpha, n)
    owner = {c: b for b, blk in enumerate(blocks) for c in blk}
    out = set()
    for c in range(n):
        if (mask >> c) & 1:
            if c not in owner:
                raise PreconditionError("coordinate %d is not in any block" % c)
            out.add(owner[c])
    return frozenset(out)


def pi_tilde(alpha, pi):
    """Left labels reachable from alpha through pi, folding the two halves.

    alpha is a subset of [2R]; index j and index j+R both witness pi[j].
    """
    pi = tuple(as_int(x, "projection label") for x in pi)
    r = len(pi)
    out = set()
    for j in alpha:
        j = as_index(j, 2 * r, "alpha index")
        out.add(pi[j % r])
    return frozenset(out)


def pi_oplus(alpha, pi, nleft):
    """Parity-folded projection of alpha into [2L].

    Label i < L appears iff an odd number of first-half indices of alpha map
    to i; label L + i appears iff an odd number of second-half indices map to
    i. Satisfies the character identity against compose_projection.
    """
    nleft = as_int(nleft, "nleft")
    pi = tuple(as_index(x, nleft, "projection label") for x in pi)
    r = len(pi)
    out = set()
    for j in alpha:
        j = as_index(j, 2 * r, "alpha index")
        out ^= {pi[j % r] + (nleft if j >= r else 0)}  # toggled: parity
    return frozenset(out)


def compose_projection(y, pi):
    """Lift a length-2L string to length 2R: position j reads y[pi[j]] and
    position R + j reads y[L + pi[j]]. Generic over the symbol alphabet."""
    y = tuple(y)
    if len(y) % 2 != 0:
        raise PreconditionError("input must have even length 2L")
    half = len(y) // 2
    pi = tuple(as_index(x, half, "projection label") for x in pi)
    first = tuple(y[p] for p in pi)
    second = tuple(y[half + p] for p in pi)
    return first + second
