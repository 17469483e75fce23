"""Exact Fourier and Efron-Stein analysis on finite product domains.

Everything here is exact rational arithmetic: transforms, influences, the
noise operator, and the index-set operators used by the reduction layer. A
point of the product domain is encoded as a mixed-radix integer with
coordinate 0 varying fastest, so on binary domains bit i of the index is
coordinate i.
"""

import math
from fractions import Fraction
from operator import add, attrgetter, mul, sub

from .errors import Frozen, FrozenValue, PreconditionError, check_table_size


class ProductDomain(FrozenValue):
    """Finite product of coordinate spaces with exact per-coordinate measures."""

    __slots__ = ("sizes", "measures", "_strides", "size", "_weights")
    _key = attrgetter("sizes", "measures")

    def __init__(self, sizes, measures=None):
        sizes = tuple(int(s) for s in sizes)
        if any(s < 1 for s in sizes):
            raise PreconditionError("coordinate spaces must be nonempty")
        size = math.prod(sizes) if sizes else 1
        check_table_size(size)
        if measures is None:
            measures = tuple(
                tuple(Fraction(1, s) for _ in range(s)) for s in sizes
            )
        else:
            measures = tuple(
                tuple(Fraction(m) for m in coord) for coord in measures
            )
            if len(measures) != len(sizes):
                raise PreconditionError("one measure per coordinate required")
            for s, coord in zip(sizes, measures):
                if len(coord) != s:
                    raise PreconditionError("measure length mismatches its coordinate")
                if any(m < 0 for m in coord):
                    raise PreconditionError("measures must be nonnegative")
                if sum(coord) != 1:
                    raise PreconditionError("each coordinate measure must sum to 1")
        strides = []
        acc = 1
        for s in sizes:
            strides.append(acc)
            acc *= s
        self._fill(sizes=sizes, measures=measures, _strides=tuple(strides),
                   size=size, _weights=None)

    @classmethod
    def binary_uniform(cls, n):
        return cls((2,) * int(n))

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
            if x < 0 or x >= s:
                raise PreconditionError("point coordinate out of range")
            idx += x * st
        return idx

    def weight(self, index):
        w = Fraction(1)
        for s, coord in zip(self.sizes, self.measures):
            w *= coord[index % s]
            index //= s
        return w

    def point_weights(self):
        """Every point's weight as integers over one common denominator,
        computed once per domain: (weights in index order, denominator)."""
        if self._weights is None:
            weights, den = [1], 1
            for coord in self.measures:
                ints, d = _scaled(coord)
                weights = [a * b for b in ints for a in weights]
                den *= d
            self._fill(_weights=(weights, den))
        return self._weights

    def is_binary_uniform(self):
        return all(s == 2 for s in self.sizes) and all(
            coord == (Fraction(1, 2), Fraction(1, 2)) for coord in self.measures
        )

    def __repr__(self):
        return "ProductDomain(sizes=%r)" % (self.sizes,)


class TabulatedFunction(FrozenValue):
    """A function given by its full value table over a ProductDomain, held
    as integer `numerators` over one `denominator` (not always in lowest
    terms); the Fraction tuple `values` is built on first access, and kept."""

    __slots__ = ("domain", "numerators", "denominator", "_values")
    _key = attrgetter("domain", "values")

    def __init__(self, domain, values):
        values = [Fraction(v) for v in values]
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

    def __call__(self, point):
        return self.values[self.domain.index(point)]

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

    def variance(self):
        mean = self.expectation()
        return self.norm_sq() - mean * mean

    def sup_norm(self):
        return Fraction(max(map(abs, self.numerators)), self.denominator)

    def scale(self, c):
        c = Fraction(c)
        return TabulatedFunction(self.domain, (c * v for v in self.values))

    def _pointwise(self, op, other):
        if self.domain != other.domain:
            raise PreconditionError("functions live on different domains")
        return TabulatedFunction(self.domain, map(op, self.values, other.values))

    def add(self, other):
        return self._pointwise(add, other)

    def sub(self, other):
        return self._pointwise(sub, other)

    def mul(self, other):
        return self._pointwise(mul, other)

    def __repr__(self):
        return "TabulatedFunction(%r, %d values)" % (self.domain, self.domain.size)


def _scaled(values):
    """Fractions as integers over their least common denominator:
    (integers, denominator)."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


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
        n = int(n)
        coefficients = tuple(Fraction(c) for c in coefficients)
        if len(coefficients) != 1 << n:
            raise PreconditionError("need exactly 2^n coefficients")
        self._fill(n=n, coefficients=coefficients)

    def coefficient(self, alpha):
        return self.coefficients[_as_mask(alpha, self.n)]

    def weight_sq(self):
        return sum((c * c for c in self.coefficients), Fraction(0))

    def inverse(self):
        """The unique function with these coefficients, reproduced exactly."""
        vals = wht(self.coefficients)
        return TabulatedFunction(ProductDomain.binary_uniform(self.n), vals)

    def attenuate(self, rate):
        """Multiply coefficient alpha by rate^|alpha|."""
        rate = Fraction(rate)
        return FourierTable(
            self.n,
            (
                c * rate ** m.bit_count()
                for m, c in enumerate(self.coefficients)
            ),
        )

    def __repr__(self):
        return "FourierTable(n=%d)" % self.n


def _as_mask(alpha, n):
    if isinstance(alpha, int):
        mask = alpha
    else:
        mask = 0
        for i in alpha:
            mask |= 1 << int(i)
    if mask < 0 or mask >= 1 << n:
        raise PreconditionError("index set leaves the coordinate range")
    return mask


def character(n, alpha):
    """chi_alpha as a +/-1 table on {0,1}^n uniform."""
    mask = _as_mask(alpha, n)
    dom = ProductDomain.binary_uniform(n)
    return TabulatedFunction._trusted(dom, tuple(
        -1 if (x & mask).bit_count() % 2 else 1 for x in range(dom.size)
    ), 1, None)


def fourier(f):
    """Exact Fourier coefficients of f on a binary uniform domain."""
    if not f.domain.is_binary_uniform():
        raise PreconditionError("fourier requires a binary uniform domain")
    n = f.domain.n
    scale = f.denominator << n
    return FourierTable(n, (Fraction(t, scale) for t in wht(f.numerators)))


def noise(f, gamma):
    """Attenuate coefficient alpha by (1-gamma)^|alpha|; exact."""
    gamma = Fraction(gamma)
    if gamma < 0 or gamma > 1:
        raise PreconditionError("noise rate must lie in [0, 1]")
    table = fourier(f).attenuate(1 - gamma)
    return table.inverse()


def _normalize_blocks(domain, blocks):
    if blocks is None:
        blocks = [(i,) for i in range(domain.n)]
    blocks = tuple(tuple(sorted(int(c) for c in b)) for b in blocks)
    seen = set()
    for b in blocks:
        if not b:
            raise PreconditionError("blocks must be nonempty")
        for c in b:
            if c < 0 or c >= domain.n:
                raise PreconditionError("block coordinate out of range")
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

    def total(self):
        tables = (comp.values for comp in self.components.values())
        return TabulatedFunction(self.domain, map(sum, zip(*tables)))

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


def _split(ints, domain, blocks):
    """(block mask, table) for every Efron-Stein component of an integer
    table, depth first.

    Each partial table t is split at block b into E_b t and t - E_b t, where
    E_b averages out the block's coordinates. The projections run over
    integers, so each yielded table is its component times the product of
    every coordinate's measure denominator.
    """
    measures = [_scaled(m) for m in domain.measures]
    stack = [(0, 0, ints)]
    while stack:
        b, mask, t = stack.pop()
        if b == len(blocks):
            yield mask, t
            continue
        mean, scale = t, 1
        for coord in blocks[b]:
            weights, d = measures[coord]
            mean = _sum_out(mean, domain.stride(coord), weights)
            scale *= d
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


def _influences(f, blocks, d=None):
    """Influence of every block: the sum of E[f_beta^2] over the component
    sets beta that contain it and have at most d blocks (any size when d is
    None)."""
    blocks = _normalize_blocks(f.domain, blocks)
    weights, wden = f.domain.point_weights()
    scale = f.denominator * wden
    out = [0] * len(blocks)
    for m, t in _split(f.numerators, f.domain, blocks):
        members = _members(m, len(blocks))
        if d is None or len(members) <= d:
            nsq = sum(map(mul, map(mul, weights, t), t))
            for b in members:
                out[b] += nsq
    return [Fraction(x, wden * scale * scale) for x in out]


def _block_index(i, nblocks):
    i = int(i)
    if i < 0 or i >= nblocks:
        raise PreconditionError("block index out of range")
    return i


def influence(f, i, blocks=None):
    """Sum of squared component norms over sets containing block i.

    With the default singleton blocks this is the usual coordinate influence
    E[Var_{x_i} f].
    """
    out = _influences(f, blocks)
    return out[_block_index(i, len(out))]


def degree_d_influence(f, i, d, blocks=None):
    """Like influence, restricted to component sets of size at most d."""
    out = _influences(f, blocks, int(d))
    return out[_block_index(i, len(out))]


def influence_variance(f, i, blocks=None):
    """The variance form: E over the other coordinates of Var over block i,
    that is E[E_i(f^2) - (E_i f)^2], with no Efron-Stein components."""
    domain = f.domain
    blocks = _normalize_blocks(domain, blocks)
    i = _block_index(i, len(blocks))
    mean, den = f.numerators, f.denominator
    meansq, scale = [x * x for x in mean], 1
    for coord in blocks[i]:
        weights, d = _scaled(domain.measures[coord])
        mean = _sum_out(mean, domain.stride(coord), weights)
        meansq = _sum_out(meansq, domain.stride(coord), weights)
        scale *= d
    # mean is scale * den * E_i f and meansq is scale * den^2 * E_i(f^2).
    var = [scale * b - a * a for a, b in zip(mean, meansq)]
    weights, wden = domain.point_weights()
    return Fraction(sum(map(mul, weights, var)), wden * (scale * den) ** 2)


def all_influences(f, blocks=None):
    """Influence of every block from a single split."""
    return _influences(f, blocks)


def all_degree_d_influences(f, d, blocks=None):
    return _influences(f, blocks, int(d))


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
    pi = tuple(int(x) for x in pi)
    r = len(pi)
    out = set()
    for j in alpha:
        j = int(j)
        if j < 0 or j >= 2 * r:
            raise PreconditionError("index %d outside [2R]" % j)
        out.add(pi[j % r])
    return frozenset(out)


def pi_oplus(alpha, pi, nleft):
    """Parity-folded projection of alpha into [2L].

    Label i < L appears iff an odd number of first-half indices of alpha map
    to i; label L + i appears iff an odd number of second-half indices map to
    i. Satisfies the character identity against compose_projection.
    """
    pi = tuple(int(x) for x in pi)
    r = len(pi)
    nleft = int(nleft)
    if any(x < 0 or x >= nleft for x in pi):
        raise PreconditionError("projection leaves [L]")
    out = set()
    for j in alpha:
        j = int(j)
        if j < 0 or j >= 2 * r:
            raise PreconditionError("index %d outside [2R]" % j)
        out ^= {pi[j % r] + (nleft if j >= r else 0)}  # toggled: parity
    return frozenset(out)


def compose_projection(y, pi):
    """Lift a length-2L string to length 2R: position j reads y[pi[j]] and
    position R + j reads y[L + pi[j]]. Generic over the symbol alphabet."""
    y = tuple(y)
    if len(y) % 2 != 0:
        raise PreconditionError("input must have even length 2L")
    half = len(y) // 2
    pi = tuple(int(x) for x in pi)
    if any(x < 0 or x >= half for x in pi):
        raise PreconditionError("projection leaves [L]")
    first = tuple(y[p] for p in pi)
    second = tuple(y[half + p] for p in pi)
    return first + second
