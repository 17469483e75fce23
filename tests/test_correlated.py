import itertools
import math
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cspcover import (
    Budget,
    BudgetExceededError,
    CorrelatedSpace,
    Edge,
    LabelCoverInstance,
    MarkovOperator,
    PreconditionError,
    ProductDomain,
    T2Params,
    TabulatedFunction,
    all_influences,
    blocks_right_domain,
    commute_check,
    correlation_rho,
    efron_stein,
    fourier,
    influence_variance,
    invariance_gap,
    is_connected,
    lin,
    markov_apply_blocks,
    pairwise_product_check,
    product_space,
    t1_connect_atoms,
    t2_block_space,
)
from cspcover import correlated
from cspcover.errors import GuaranteeError

import oracles


def bit_space(a, b, c, d):
    """2x2 joint table over single-bit atoms with the given masses."""
    total = a + b + c + d
    mu = {}
    for (x, y), w in zip(
        itertools.product((0, 1), repeat=2), (a, b, c, d)
    ):
        if w:
            mu[((x,), (y,))] = Fraction(w, total)
    return CorrelatedSpace(mu)


IDENTICAL_BITS = bit_space(1, 0, 0, 1)
UNIFORM_PRODUCT = bit_space(1, 1, 1, 1)


def tiny_one_to_one_source():
    return LabelCoverInstance(1, 1, 1, 1, [Edge(0, 0, (0,))], unique=True)


def t2_params(eps):
    half = Fraction(1, 2)
    return T2Params(
        lin(4),
        {(0, 0): half, (1, 1): half},
        {(0, 1): half, (1, 0): half},
        eps,
        tiny_one_to_one_source(),
    )


def random_block(rng):
    """A positive 2x2 correlated bit space with random integer masses."""
    return bit_space(*(rng.randrange(1, 7) for _ in range(4)))


def random_right_function(rng, blocks):
    dom = blocks_right_domain(blocks)
    return TabulatedFunction(
        dom,
        [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(dom.size)],
    )


class TestCorrelatedSpace:
    def test_rejects_unnormalized_measure(self):
        with pytest.raises(PreconditionError):
            CorrelatedSpace({(((0,)), ((0,))): Fraction(1, 2)})

    def test_rejects_negative_mass(self):
        with pytest.raises(PreconditionError):
            CorrelatedSpace(
                {((0,), (0,)): Fraction(3, 2), ((1,), (1,)): Fraction(-1, 2)}
            )

    def test_rejects_mixed_shapes(self):
        with pytest.raises(PreconditionError):
            CorrelatedSpace(
                {((0,), (0,)): Fraction(1, 2), ((0, 1), (0,)): Fraction(1, 2)}
            )

    def test_marginals_are_consistent(self):
        sp = bit_space(1, 2, 3, 4)
        for a in sp.left_atoms:
            assert sp.marginal_left[a] == sum(
                w for (la, _ra), w in sp.mu.items() if la == a
            )
        for a in sp.right_atoms:
            assert sp.marginal_right[a] == sum(
                w for (_la, ra), w in sp.mu.items() if ra == a
            )
        assert sum(sp.marginal_left.values()) == 1

    def test_min_atom_and_support(self):
        sp = bit_space(1, 2, 3, 4)
        assert min(sp.mu[key] for key in sp.support()) == Fraction(1, 10)
        assert len(sp.support()) == 4

    def test_accepts_pair_iterables_and_list_lookups(self):
        sp = CorrelatedSpace(
            [
                (((0,), (0,)), Fraction(3, 4)),
                (((1,), (1,)), Fraction(1, 4)),
            ]
        )
        assert sp.mu == {((0,), (0,)): Fraction(3, 4),
                         ((1,), (1,)): Fraction(1, 4)}

    def test_list_atoms_build_the_tuple_keyed_space(self):
        # A repeated pair keeps its last mass, as a dict does.
        listed = CorrelatedSpace([
            (([0], [0]), Fraction(1, 2)),
            (([1], [1]), 1),
            (([1], [1]), Fraction(1, 2)),
        ])
        keyed = CorrelatedSpace({((0,), (0,)): Fraction(1, 2),
                                 ((1,), (1,)): Fraction(1, 2)})
        assert listed.mu == keyed.mu
        assert listed.marginal_left == keyed.marginal_left
        assert listed.right_atoms == keyed.right_atoms

    @pytest.mark.parametrize(
        "mass", ["x", None, float("nan"), float("inf"), "1/0", 1j])
    def test_refuses_a_mass_that_is_not_a_rational(self, mass):
        with pytest.raises(PreconditionError, match="is not a rational"):
            CorrelatedSpace({((0,), (0,)): mass})

    def test_drop_zero_atoms(self):
        sp = CorrelatedSpace(
            {((0,), (0,)): 1, ((1,), (1,)): 0},
        )
        dropped = sp.drop_zero_atoms()
        assert dropped.left_atoms == ((0,),)

    def test_pair_marginal(self):
        sp = t2_block_space(t2_params(Fraction(1, 4)))
        pm = oracles.marginal(sp, (0,), (1,))
        assert sum(pm.values()) == 1
        # The pairwise marginals of a t2 block factorize.
        assert pairwise_product_check(sp)
        left = oracles.coordinate_marginal(sp, "left", 0)
        right = oracles.coordinate_marginal(sp, "right", 1)
        for (a, b), w in pm.items():
            assert w == left[a[0]] * right[b[0]]


class TestDropZeroAtoms:
    def test_a_space_without_zero_atoms_comes_back_itself(self):
        for sp in (IDENTICAL_BITS, bit_space(2, 0, 1, 3),
                   t2_block_space(t2_params(Fraction(1, 4)))):
            assert sp.drop_zero_atoms() is sp
            assert MarkovOperator(sp).space is sp

    def test_rho_and_commute_check_match_rebuilt_and_padded_spaces(self):
        # A rebuilt copy of each space, and the space padded with zero-mass
        # entries (a zero-marginal atom on each side), must give the very
        # same rho and commute_check results as the space itself.
        rng = random.Random(91)
        for _ in range(10):
            sp, other = random_block(rng), random_block(rng)
            rebuilt = CorrelatedSpace(dict(sp.mu))
            padded = CorrelatedSpace(
                {**sp.mu, ((2,), (0,)): 0, ((1,), (2,)): 0})
            dropped = padded.drop_zero_atoms()
            assert dropped is not padded and dropped.mu == sp.mu
            assert dropped.right_atoms == sp.right_atoms
            rho = correlation_rho(sp)
            assert correlation_rho(rebuilt) == rho == correlation_rho(padded)
            pairs = {(la[0], ra[0]): w for (la, ra), w in sp.mu.items()}
            assert abs(rho - oracles.rho_two_by_two(pairs)) <= 1e-8
            g = random_right_function(rng, [sp, other])
            res = commute_check([sp, other], g)
            assert res == commute_check([rebuilt, other], g)
            assert res == commute_check([padded, other], g)
            assert res == oracles.commute_check_reference([padded, other], g)


class TestConnectedness:
    def test_first_test_support_is_connected(self):
        atoms = t1_connect_atoms(2, 2, (0, 1))
        assert len(atoms) == 12
        assert is_connected(atoms)

    def test_opposite_corners_are_not_connected(self):
        assert not is_connected([(0, 0), (1, 1)])

    def test_full_cube_is_connected(self):
        assert is_connected(list(itertools.product((0, 1), repeat=3)))

    def test_space_argument_uses_joint_support(self):
        assert not is_connected(IDENTICAL_BITS)
        assert is_connected(UNIFORM_PRODUCT)

    def test_rejects_empty_support(self):
        with pytest.raises(PreconditionError):
            is_connected([])

    def test_rejects_length_mismatch(self):
        with pytest.raises(PreconditionError):
            is_connected([(0, 0), (1,)])


class TestPairwiseProduct:
    def test_product_measure_passes(self):
        assert pairwise_product_check(UNIFORM_PRODUCT)

    def test_identical_bits_fail(self):
        assert not pairwise_product_check(IDENTICAL_BITS)

    def test_block_distribution_factorizes(self):
        for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
            assert pairwise_product_check(t2_block_space(t2_params(eps)))


class TestCorrelationRho:
    def test_product_distribution(self):
        assert correlation_rho(UNIFORM_PRODUCT) <= 1e-9

    def test_identical_uniform_bits(self):
        assert abs(correlation_rho(IDENTICAL_BITS) - 1) <= 1e-9

    def test_block_space_bound(self):
        eps = Fraction(1, 4)
        rho = correlation_rho(t2_block_space(t2_params(eps)))
        assert rho <= math.sqrt(3 / 4) + 1e-9

    def test_zero_iff_product_denominator_eight(self):
        # Every joint 2x2 table with masses i/8: rho vanishes exactly when
        # the table factorizes (zero determinant).
        for a in range(9):
            for b in range(9 - a):
                for c in range(9 - a - b):
                    d = 8 - a - b - c
                    rho = correlation_rho(bit_space(a, b, c, d))
                    if a * d == b * c:
                        assert rho <= 1e-9
                    else:
                        assert rho > 1e-9

    def test_matches_two_by_two_oracle(self):
        rng = random.Random(55)
        for _ in range(25):
            sp = random_block(rng)
            mu = {
                (la[0], ra[0]): w for (la, ra), w in sp.mu.items()
            }
            expected = oracles.rho_two_by_two(mu)
            assert abs(correlation_rho(sp) - expected) <= 1e-8

    def test_within_unit_interval(self):
        rng = random.Random(56)
        for _ in range(20):
            rho = correlation_rho(random_block(rng))
            assert 0 <= rho <= 1

    @pytest.mark.parametrize("tol", [-1, -1e-12, float("nan")])
    def test_rejects_a_negative_or_nan_tolerance(self, tol):
        with pytest.raises(PreconditionError, match="tolerance"):
            correlation_rho(IDENTICAL_BITS, tol=tol)

    def test_a_failed_cross_check_is_a_guarantee_error(self, rho_fault):
        with pytest.raises(GuaranteeError, match="^%s$" % re.escape(rho_fault)):
            correlation_rho(IDENTICAL_BITS)


class TestMarkovOperator:
    def test_constant_one_maps_to_constant_one(self):
        sp = bit_space(2, 1, 1, 3)
        g = TabulatedFunction(blocks_right_domain([sp]), [1, 1])
        assert MarkovOperator(sp).apply(g).values == (1, 1)

    def test_product_measure_maps_to_expectation(self):
        sp = bit_space(2, 4, 1, 2)  # determinant zero: product measure
        g = TabulatedFunction(blocks_right_domain([sp]), [3, -5])
        out = MarkovOperator(sp).apply(g)
        assert all(v == g.expectation() for v in out.values)

    def test_preserves_averages(self):
        rng = random.Random(61)
        for _ in range(10):
            sp = random_block(rng)
            dom = blocks_right_domain([sp])
            g = TabulatedFunction(
                dom, [Fraction(rng.randrange(-5, 6)) for _ in range(dom.size)]
            )
            out = MarkovOperator(sp).apply(g)
            assert out.expectation() == g.expectation()

    def test_component_norm_decay(self):
        rng = random.Random(62)
        for _ in range(10):
            blocks = [random_block(rng), random_block(rng)]
            rho = max(correlation_rho(b) for b in blocks)
            g = random_right_function(rng, blocks)
            for beta, comp in efron_stein(g).components.items():
                out = markov_apply_blocks(blocks, comp)
                lhs = math.sqrt(float(out.norm_sq()))
                rhs = rho ** len(beta) * math.sqrt(float(comp.norm_sq()))
                assert lhs <= rhs + 1e-9

    def test_blocks_domain_shapes(self):
        blocks = [bit_space(1, 1, 1, 1), bit_space(1, 2, 3, 4)]
        assert blocks_right_domain(blocks).sizes == (2, 2)
        g = TabulatedFunction(blocks_right_domain(blocks), [1] * 4)
        assert markov_apply_blocks(blocks, g).domain.sizes == (2, 2)

    def test_rejects_mismatched_domain(self):
        blocks = [bit_space(1, 2, 3, 4)]
        g = TabulatedFunction(ProductDomain.binary_uniform(1), [1, -1])
        with pytest.raises(PreconditionError):
            markov_apply_blocks(blocks, g)


@st.composite
def block_tables(draw):
    """1-3 positive bit blocks, with uniform right marginals (a binary
    uniform domain) or random ones, and a rational table on their right
    product domain; also whether the marginals are uniform."""
    uniform = draw(st.booleans())
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        a, b, c, d = (draw(st.integers(1, 6)) for _ in range(4))
        blocks.append(bit_space(a, b, b, a) if uniform
                      else bit_space(a, b, c, d))
    dom = blocks_right_domain(blocks)
    values = draw(st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        min_size=dom.size, max_size=dom.size))
    return blocks, TabulatedFunction(dom, values), uniform


class TestUnreducedTables:
    """A table whose numerators and denominator share a factor, as the
    library's own producers may hold it, is the same table."""

    @given(block_tables(), st.integers(2, 9))
    def test_a_scaled_twin_gives_identical_results(self, case, c):
        blocks, f, uniform = case
        twin = oracles.unreduced(f, c)
        assert twin.denominator == c * f.denominator
        assert twin == f and hash(twin) == hash(f)
        assert twin.values == f.values
        assert twin.expectation() == f.expectation()
        assert twin.inner(f) == f.inner(twin) == f.inner(f)
        assert twin.sup_norm() == f.sup_norm()
        if uniform:
            assert fourier(twin).coefficients == fourier(f).coefficients
        assert efron_stein(twin).components == efron_stein(f).components
        assert all_influences(twin) == all_influences(f)
        for i in range(len(blocks)):
            assert influence_variance(twin, i) == influence_variance(f, i)
        assert markov_apply_blocks(blocks, twin) == \
            markov_apply_blocks(blocks, f)
        assert commute_check(blocks, twin) == commute_check(blocks, f)


class TestCommutation:
    def test_single_block(self):
        sp = bit_space(3, 1, 1, 3)
        g = TabulatedFunction(blocks_right_domain([sp]), [1, -1])
        res = commute_check([sp], g)
        assert res.ok
        assert res.worst_deviation == 0.0

    def test_product_blocks(self):
        rng = random.Random(71)
        blocks = [bit_space(1, 2, 1, 2), bit_space(2, 1, 2, 1)]
        g = random_right_function(rng, blocks)
        res = commute_check(blocks, g)
        assert res.ok and res.worst_deviation == 0.0

    def test_random_correlated_blocks(self):
        rng = random.Random(72)
        for _ in range(8):
            blocks = [random_block(rng), random_block(rng)]
            g = random_right_function(rng, blocks)
            res = commute_check(blocks, g)
            assert bool(res)
            assert res.worst_deviation == 0.0


class TestCommutationAgainstReference:
    def test_criterion_eight_cases(self):
        rng = random.Random(808)
        for _ in range(20):
            blocks = [random_block(rng), random_block(rng)]
            g = random_right_function(rng, blocks)
            assert commute_check(blocks, g) == \
                oracles.commute_check_reference(blocks, g)

    def test_blocks_with_zero_atoms(self):
        rng = random.Random(74)
        zero_joint = bit_space(2, 0, 1, 3)
        zero_marginal = CorrelatedSpace({
            ((0,), (0,)): Fraction(1, 3), ((0,), (1,)): Fraction(1, 3),
            ((1,), (1,)): Fraction(1, 3), ((2,), (0,)): 0,
        })
        for blocks in ([zero_joint], [zero_marginal, random_block(rng)],
                       [zero_joint, zero_marginal]):
            g = random_right_function(rng, blocks)
            res = commute_check(blocks, g)
            assert res == oracles.commute_check_reference(blocks, g)
            assert res.ok and res.worst_deviation == 0.0

    def test_a_broken_operator_deviates_as_in_the_reference(self,
                                                            monkeypatch):
        # Rows that do not sum to the denominator break commutation; both
        # paths read the skewed matrices and must report one deviation.
        real = correlated._block_matrix

        def skewed(b):
            rows, den = real(b)
            return [[rows[0][0] + 1] + rows[0][1:]] + rows[1:], den

        monkeypatch.setattr(correlated, "_block_matrix", skewed)
        rng = random.Random(75)
        blocks = [random_block(rng), random_block(rng)]
        g = random_right_function(rng, blocks)
        res = commute_check(blocks, g)
        assert res == oracles.commute_check_reference(blocks, g)
        assert not res.ok and res.worst_deviation > 1e-9

    def test_wrong_domain_is_refused_on_both_paths(self):
        blocks = [bit_space(1, 2, 3, 4), bit_space(4, 3, 2, 1)]
        g = TabulatedFunction(ProductDomain.binary_uniform(1), [1, -1])
        for check in (commute_check, oracles.commute_check_reference):
            with pytest.raises(PreconditionError, match="right product"):
                check(blocks, g)


class TestInvarianceGap:
    def test_product_measure_gap_is_zero(self):
        rng = random.Random(81)
        sp = product_space({(0,): Fraction(1, 2), (1,): Fraction(1, 2)},
                           {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
        dom = ProductDomain.binary_uniform(2)
        for _ in range(5):
            f = TabulatedFunction(
                dom, [Fraction(rng.randrange(-4, 5), 4) for _ in range(4)]
            )
            g = TabulatedFunction(
                dom, [Fraction(rng.randrange(-4, 5), 4) for _ in range(4)]
            )
            res = invariance_gap(sp, 2, f, g)
            assert res.gap == 0
            assert res.gap <= res.bound

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_coordinates_must_share_one_marginal(self, side):
        # Coordinate 0 is constant, coordinate 1 a fair bit; the other side's
        # coordinates agree. Refused before f and g are looked at.
        skewed = {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
        even = {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
        pair = (skewed, even) if side == "left" else (even, skewed)
        sp = product_space(*pair)
        with pytest.raises(PreconditionError,
                           match="all %s coordinates must share" % side):
            invariance_gap(sp, 1, None, None)

    def test_constant_side_gap_and_tau_vanish(self):
        sp = t2_block_space(t2_params(Fraction(1, 4)))
        nsym = len({la[0] for la in sp.left_atoms} | {la[1] for la in sp.left_atoms})
        fdom = ProductDomain((nsym,) * 2, ((Fraction(1, nsym),) * nsym,) * 2)
        f = TabulatedFunction(fdom, [1] * fdom.size)
        g = TabulatedFunction(fdom, [(-1) ** i for i in range(fdom.size)])
        res = invariance_gap(sp, 2, f, g)
        assert res.gap == 0
        assert res.tau == 0

    def test_block_space_respects_bound(self):
        rng = random.Random(83)
        sp = t2_block_space(t2_params(Fraction(1, 4)))
        fdom = ProductDomain((4,) * 2, ((Fraction(1, 4),) * 4,) * 2)
        for _ in range(3):
            f = TabulatedFunction(
                fdom, [rng.choice((-1, 1)) for _ in range(fdom.size)]
            )
            g = TabulatedFunction(
                fdom, [rng.choice((-1, 1)) for _ in range(fdom.size)]
            )
            res = invariance_gap(sp, 2, f, g)
            assert 0 <= res.gap <= res.bound

    def test_gap_bound_unpacks_as_pair(self):
        sp = product_space({(0,): Fraction(1, 2), (1,): Fraction(1, 2)},
                           {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
        dom = ProductDomain.binary_uniform(1)
        f = TabulatedFunction(dom, [1, -1])
        gap, bound = invariance_gap(sp, 1, f, f)
        assert gap == 0 and bound >= 0

    def test_rejects_non_factorizing_space(self):
        dom = ProductDomain.binary_uniform(1)
        f = TabulatedFunction(dom, [1, -1])
        with pytest.raises(PreconditionError):
            invariance_gap(IDENTICAL_BITS, 1, f, f)

    def test_rejects_unbounded_functions(self):
        sp = UNIFORM_PRODUCT
        dom = ProductDomain.binary_uniform(1)
        f = TabulatedFunction(dom, [2, 0])
        g = TabulatedFunction(dom, [1, -1])
        with pytest.raises(PreconditionError):
            invariance_gap(sp, 1, f, g)

    def test_rejects_wrong_domain(self):
        sp = UNIFORM_PRODUCT
        f = TabulatedFunction(ProductDomain.binary_uniform(2), [1, -1, 1, -1])
        with pytest.raises(PreconditionError):
            invariance_gap(sp, 1, f, f)


def pairwise_space(p, lam, zero_atom=False, swap=False):
    """Two rows per side: x1, x2 independent with P(x = 1) = p, a uniform
    bit z, and y = (x1 ^ z, x2 ^ z), mixed with weight 1 - lam with the
    product of its two marginals. Pairwise marginals factorize for every
    lam; the left side is non-uniform unless p = 1/2. zero_atom adds a
    zero-mass atom with a third symbol on both sides; swap exchanges the
    sides."""
    pm = (1 - p, p)
    coupled = {}
    for x1, x2, z in itertools.product((0, 1), repeat=3):
        key = ((x1, x2), (x1 ^ z, x2 ^ z))
        coupled[key] = coupled.get(key, 0) + pm[x1] * pm[x2] / 2
    left, right = {}, {}
    for (la, ra), w in coupled.items():
        left[la] = left.get(la, 0) + w
        right[ra] = right.get(ra, 0) + w
    mu = {}
    for la, wl in left.items():
        for ra, wr in right.items():
            w = lam * coupled.get((la, ra), 0) + (1 - lam) * wl * wr
            mu[(ra, la) if swap else (la, ra)] = w
    if zero_atom:
        mu[((2, 2), (2, 2))] = Fraction(0)
    return CorrelatedSpace(mu)


def side_domains(space, nblocks):
    out = []
    for side in ("left", "right"):
        marg = oracles.coordinate_marginal(space, side, 0)
        measure = tuple(marg[s] for s in sorted(marg))
        out.append(ProductDomain((len(measure),) * nblocks,
                                 (measure,) * nblocks))
    return out


def assert_matches_reference(space, nblocks, f, g):
    """Gap, tau, Gamma, bound and budget equal the Fraction reference."""
    budget = Budget(10**9)
    res = invariance_gap(space, nblocks, f, g, budget=budget)
    gap, tau, gamma, terms = oracles.invariance_gap_reference(
        space, nblocks, f, g
    )
    assert res.gap == gap
    assert res.tau == tau and res.gamma == gamma
    assert res.bound == float(2 ** (4 * space.k_left + 1)) * gamma * tau
    assert budget.used == terms
    return res


GAP_VALUES = (-1, Fraction(-1, 2), Fraction(-1, 3), 0, Fraction(2, 3), 1)


def wide_space(p, forms, swap=False):
    """Three rows per side over Z3, each row a linear form of (a, b, c) with
    a and b drawn from p and c uniform. Left rows read a or b alone, so they
    share the marginal p; right rows carry c, so each is uniform and
    independent of every left row, and the pairwise marginals factorize.
    A zero in p leaves zero-mass atoms."""
    left_forms, right_forms = forms
    mu = {}
    for a, b, c in itertools.product(range(3), repeat=3):
        la, ra = (tuple((x * a + y * b + z * c) % 3 for x, y, z in fs)
                  for fs in (left_forms, right_forms))
        key = (ra, la) if swap else (la, ra)
        mu[key] = mu.get(key, 0) + p[a] * p[b] / 3
    return CorrelatedSpace(mu)


A, B, C = (1, 0, 0), (0, 1, 0), (0, 0, 1)
# Row forms (left, right) by the number of atoms they give at most.
WIDE_FORMS = {
    9: ((A, A, A), ((1, 0, 1), C, (2, 0, 1))),
    27: ((A, B, A), ((1, 0, 1), (0, 1, 1), C)),
}
WIDE_MASSES = (
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
    (Fraction(1, 3),) * 3,
    (Fraction(3, 4), 0, Fraction(1, 4)),
)


class TestInvarianceGapAgainstReference:
    def test_block_space_family(self):
        rng = random.Random(909)
        sp = t2_block_space(t2_params(Fraction(1, 4)))
        fdom, gdom = side_domains(sp, 2)
        f = TabulatedFunction(fdom, [rng.choice(GAP_VALUES)
                                     for _ in range(fdom.size)])
        g = TabulatedFunction(gdom, [rng.choice(GAP_VALUES)
                                     for _ in range(gdom.size)])
        assert_matches_reference(sp, 2, f, g)

    def test_product_family(self):
        rng = random.Random(910)
        for _ in range(6):
            pm = (Fraction(rng.randrange(1, 4), 4),)
            qm = (Fraction(rng.randrange(1, 4), 4),)
            pm, qm = (1 - pm[0], pm[0]), (1 - qm[0], qm[0])
            pairs = list(itertools.product((0, 1), repeat=2))
            sp = product_space({t: pm[t[0]] * pm[t[1]] for t in pairs},
                               {t: qm[t[0]] * qm[t[1]] for t in pairs})
            fdom, gdom = side_domains(sp, 2)
            f = TabulatedFunction(fdom, [rng.choice(GAP_VALUES)
                                         for _ in range(4)])
            g = TabulatedFunction(gdom, [rng.choice(GAP_VALUES)
                                         for _ in range(4)])
            assert assert_matches_reference(sp, 2, f, g).gap == 0

    def test_random_small_spaces(self):
        rng = random.Random(911)
        for case in range(18):
            sp = pairwise_space(
                Fraction(rng.randrange(1, 4), 4),
                Fraction(rng.randrange(0, 5), 4),
                zero_atom=case % 3 == 0,
                swap=case % 2 == 1,
            )
            nblocks = 1 + case % 3
            fdom, gdom = side_domains(sp, nblocks)
            f = TabulatedFunction(fdom, [rng.choice(GAP_VALUES)
                                         for _ in range(fdom.size)])
            g = TabulatedFunction(gdom, [rng.choice(GAP_VALUES)
                                         for _ in range(gdom.size)])
            if case % 4 == 1:  # tables not in lowest terms
                f, g = oracles.unreduced(f, 6), oracles.unreduced(g, 4)
            assert_matches_reference(sp, nblocks, f, g)

    @pytest.mark.parametrize("natoms, nblocks",
                             [(9, 1), (9, 2), (9, 3), (27, 1), (27, 2)])
    def test_sparse_wide_spaces(self, natoms, nblocks):
        rng = random.Random(912 + nblocks)
        for case, p in enumerate(WIDE_MASSES):
            sp = wide_space(p, WIDE_FORMS[natoms], swap=case == 1)
            assert sp.k_left == 3 and len(sp.support()) <= natoms
            fdom, gdom = side_domains(sp, nblocks)
            f = TabulatedFunction(fdom, [rng.choice(GAP_VALUES)
                                         for _ in range(fdom.size)])
            g = TabulatedFunction(gdom, [rng.choice(GAP_VALUES)
                                         for _ in range(gdom.size)])
            assert_matches_reference(sp, nblocks, f, g)

    def test_peak_memory_follows_the_charged_terms(self):
        # About 4 bytes per charged term here; one table over all prefixes
        # of the first nblocks - 1 columns would take about 32.
        rng = random.Random(913)
        sp = wide_space(WIDE_MASSES[0], WIDE_FORMS[27])
        fdom, gdom = side_domains(sp, 3)
        f = TabulatedFunction(fdom, [rng.choice(GAP_VALUES)
                                     for _ in range(fdom.size)])
        g = TabulatedFunction(gdom, [rng.choice(GAP_VALUES)
                                     for _ in range(gdom.size)])
        budget = Budget(10**9)
        tracemalloc.start()
        try:
            invariance_gap(sp, 3, f, g, budget=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert budget.used == 27 ** 3 + 9 ** 3 + 27 ** 3
        assert peak < 16 * budget.used

    def test_budget_is_checked_before_summing(self):
        sp = pairwise_space(Fraction(1, 4), Fraction(1, 2))
        fdom, gdom = side_domains(sp, 2)
        f = TabulatedFunction(fdom, [1] * fdom.size)
        g = TabulatedFunction(gdom, [1] * gdom.size)
        with pytest.raises(BudgetExceededError):
            invariance_gap(sp, 2, f, g, budget=Budget(10))

    def test_gap_above_bound_raises(self, monkeypatch):
        sp = pairwise_space(Fraction(1, 2), Fraction(1))
        fdom, gdom = side_domains(sp, 1)
        f = TabulatedFunction(fdom, [1, -1])
        g = TabulatedFunction(gdom, [1, -1])
        assert invariance_gap(sp, 1, f, g).gap > 0
        monkeypatch.setattr(correlated, "all_influences",
                            lambda fn: [Fraction(0)] * fn.domain.n)
        with pytest.raises(GuaranteeError, match="exceeded its bound"):
            invariance_gap(sp, 1, f, g)


def test_import_leaves_numpy_unloaded():
    """numpy is imported by the correlation code on first use only: binding
    every public name, which executes every module, does not import it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from cspcover import *; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"
