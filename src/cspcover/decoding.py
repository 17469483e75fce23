"""The randomized decoders of the three long-code tests and the dictator
tables they decode. Tables are stored over {0,1} (or [q]); conversions to
the +/-1 convention happen inside the decoders.
"""

import math
import random
from fractions import Fraction

from . import _lazy
from .csp import _bit_indices
from .errors import (Frozen, PreconditionError, _scaled, as_int,
                     as_rational)
from .labelcover import Labeling, satisfied_fraction
from .reductions import (_as_labeling, _incident_or_error, _lift_places,
                         _weighted)

boolanalysis = _lazy("boolanalysis")


def _spectral_pick(rng, masses, R):
    """A mask drawn from `masses`, then a uniform member of it folded below
    R; None when the draw gives the empty mask or the fallback."""
    mask = masses.draw(rng)
    if not mask:
        return None
    bits = _bit_indices(mask)
    j = bits[rng.randrange(len(bits))]
    return j if j < R else j - R


def _check_tables(tables, nv):
    """Refuse tables whose vertices are not exactly 0 .. nv - 1."""
    if set(tables) != set(range(nv)):
        raise PreconditionError("tables cover %d vertices but the game has %d"
                                % (len(tables), nv))


def _fourier_masses(tables, nv, R, rate):
    """Per right vertex, a weighted draw (`reductions._weighted`) of its
    masks by their masses rate^|mask| * coefficient^2, the mass they leave
    of 1 drawing None (the fallback), and the nonzero Fourier coefficients
    of its table in the +/-1 convention as a sparse {mask: Fraction} map,
    both read off one integer transform."""
    _check_tables(tables, nv)
    masses, spectra = {}, {}
    for v in range(nv):
        f = tables[v]
        nums, den = f.numerators, f.denominator
        sign = {0: 1, den: -1} if set(nums) <= {0, den} else {-den: -1, den: 1}
        if not set(nums) <= sign.keys():
            raise PreconditionError("table values must be bits or signs")
        boolanalysis._check_binary_uniform(f)
        if f.domain.n != 2 * R:
            raise PreconditionError(
                "table has %d coordinates, not 2R = %d" % (f.domain.n, 2 * R))
        coeffs = spectra[v] = {
            m: Fraction(c, len(nums))
            for m, c in enumerate(boolanalysis.wht(map(sign.get, nums))) if c
        }
        mass, unit = _scaled(
            [rate ** m.bit_count() * c * c for m, c in coeffs.items()])
        masses[v] = _weighted([*coeffs, None], mass + [unit - sum(mass)], unit)
    return masses, spectra


def _index_map(dom, proj, fdom):
    """The index in fdom of the lift of dom.point(p) through proj for every
    index p of dom, built one coordinate at a time."""
    L, R = dom.n // 2, len(proj)
    if any(dom.sizes[i] > fdom.sizes[j] or dom.sizes[L + i] > fdom.sizes[R + j]
           for j, i in enumerate(proj)):
        raise PreconditionError("point coordinate out of range")
    out = [0]
    strides = [fdom.stride(j) for j in range(2 * R)]
    for s, place in zip(dom.sizes, _lift_places(proj, L, strides)):
        out = [i + x * place for x in range(s) for i in out]
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
    tau = as_rational(tau, "threshold")
    if tau <= 0:
        raise PreconditionError("threshold must be positive")
    d = as_int(d, "d")
    if d < 1:
        raise PreconditionError("degree must be at least 1")
    if not source.unique:
        raise PreconditionError("source must have bijective projections")
    _check_tables(tables, source.nv)
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
    gamma = as_rational(gamma, "gamma")
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
        mask = masses[e.v].draw(rng)
        if not mask:
            left.append(0)
            continue
        image = sorted(boolanalysis.pi_tilde(_bit_indices(mask), e.proj))
        left.append(image[rng.randrange(len(image))])
    right = [_spectral_pick(rng, masses[v], R) or 0 for v in range(source.nv)]
    labeling = Labeling(left, right)
    return T3DecodeResult(labeling, satisfied_fraction(source, labeling))


def _dictator_tables(source, labeling, q, offset):
    """Per-right-vertex tables x -> x[offset + label(v)] over [q]^{2R}."""
    right = _as_labeling(labeling).right
    dom = boolanalysis.ProductDomain((q,) * (2 * source.nlabels_v))
    return {
        v: boolanalysis.TabulatedFunction._trusted(dom, tuple(
            p // dom.stride(offset + right[v]) % q for p in range(dom.size)
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
