import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cspcover import (
    EfronSteinDecomposition,
    FourierTable,
    PreconditionError,
    ProductDomain,
    TabulatedFunction,
    all_degree_d_influences,
    all_influences,
    block_image,
    character,
    compose_projection,
    degree_d_influence,
    efron_stein,
    fourier,
    influence,
    influence_variance,
    noise,
    pi_oplus,
    pi_tilde,
    wht,
)
from cspcover import boolanalysis
from cspcover.boolanalysis import _split

import oracles


def pm_table(n, bits):
    """The +/-1 function whose sign pattern is the binary expansion of bits."""
    dom = ProductDomain.binary_uniform(n)
    return TabulatedFunction(
        dom, [1 if (bits >> i) & 1 else -1 for i in range(dom.size)]
    )


def random_rational_table(rng, dom):
    return TabulatedFunction(
        dom,
        [Fraction(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(dom.size)],
    )


MAJORITY3 = TabulatedFunction(
    ProductDomain.binary_uniform(3),
    # index bits x0 x1 x2 little-endian; value is sign of the bit majority
    # mapped to +/-1 with bit 1 -> -1 (so this is maj under 0 -> +1).
    [1, 1, 1, -1, 1, -1, -1, -1],
)


class TestProductDomain:
    def test_index_point_round_trip(self):
        dom = ProductDomain((2, 3, 2))
        for idx in range(dom.size):
            assert dom.index(dom.point(idx)) == idx

    def test_little_endian_strides(self):
        dom = ProductDomain((2, 3, 2))
        assert dom.point(0) == (0, 0, 0)
        assert dom.point(1) == (1, 0, 0)
        assert dom.point(2) == (0, 1, 0)
        assert dom.point(6) == (0, 0, 1)

    def test_weight_is_product_of_measures(self):
        dom = ProductDomain(
            (2, 3),
            ([Fraction(1, 4), Fraction(3, 4)], [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]),
        )
        assert dom.weight(dom.index((1, 2))) == Fraction(3, 4) * Fraction(1, 6)
        assert sum(dom.weight(i) for i in range(dom.size)) == 1

    def test_measures_must_sum_to_one(self):
        with pytest.raises(PreconditionError):
            ProductDomain((2,), ([Fraction(1, 2), Fraction(1, 3)],))

    @pytest.mark.parametrize("mass", ["x", None, float("inf")])
    def test_a_measure_that_is_no_rational_is_a_precondition_error(self, mass):
        with pytest.raises(PreconditionError, match="is not a rational"):
            ProductDomain((2,), ([mass, Fraction(1, 2)],))

    def test_binary_uniform(self):
        dom = ProductDomain.binary_uniform(3)
        assert dom.sizes == (2, 2, 2)
        assert dom.is_binary_uniform()
        assert dom.weight(5) == Fraction(1, 8)

    def test_a_wide_coordinate_costs_only_its_integer_weights(self, deadline):
        # 2^20 symbols: as 2^20 Fraction measures a coordinate, two builds,
        # a comparison and the uniformity test took over 3 s.
        with deadline(1):
            dom, twin = ProductDomain((1 << 20,)), ProductDomain((1 << 20,))
            assert dom == twin
            assert not dom.is_binary_uniform()

    def test_hashing_a_wide_coordinate_builds_no_measures(self, deadline):
        # The hash reads the integer weights; through the 2^20 Fractions of
        # `measures` it took 1.6-2.0 s.
        dom = ProductDomain((1 << 20,))
        with deadline(0.1):
            assert hash(dom) == hash(ProductDomain((1 << 20,)))
        assert dom._measures is None


MASSES = st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(any)


def as_measure(masses):
    return tuple(Fraction(m, sum(masses)) for m in masses)


class TestDomainWeights:
    """A domain holds each coordinate's measure once, as integer masses over
    one denominator in lowest terms; `measures` is a view of them."""

    @given(st.lists(MASSES, max_size=3), st.data())
    def test_weights_equality_and_hash_follow_the_measures(self, masses, data):
        sizes = [len(m) for m in masses]
        measures = tuple(map(as_measure, masses))
        # A twin of the same sizes: each coordinate's masses scaled (an
        # equal measure) or drawn afresh (equal only by chance).
        twin_masses = [data.draw(st.one_of(
            st.integers(1, 4).map(lambda c, m=m: [c * x for x in m]),
            st.lists(st.integers(0, 3), min_size=len(m), max_size=len(m))
            .filter(any),
        )) for m in masses]
        dom = ProductDomain(sizes, measures)
        twin = ProductDomain(sizes, map(as_measure, twin_masses))
        copies = [copy.copy(dom), copy.deepcopy(dom),
                  pickle.loads(pickle.dumps(dom))]
        for (ints, den), measure in zip(dom.weights, measures):
            assert (list(ints), den) == boolanalysis._scaled(measure)
            assert math.gcd(den, *ints) == 1
        assert (dom == twin) == (twin.measures == measures)
        if dom == twin:
            assert hash(dom) == hash(twin)
        assert all(c._measures is None for c in copies)
        for c in copies:
            assert c == dom
            assert hash(c) == hash(dom) == hash((tuple(sizes), dom.weights))
            assert c.measures == measures
        uniform = [[Fraction(1, s)] * s for s in sizes]
        assert ProductDomain(sizes, uniform) == ProductDomain(sizes)


class TestTabulatedFunction:
    def test_rejects_wrong_table_length(self):
        with pytest.raises(PreconditionError):
            TabulatedFunction(ProductDomain.binary_uniform(2), [1, 2, 3])

    def test_expectation_and_variance(self):
        f = pm_table(2, 0b0001)
        assert f.expectation() == Fraction(-1, 2)
        assert f.norm_sq() - f.expectation() ** 2 == Fraction(3, 4)
        assert f.norm_sq() == 1

    def test_inner_product_uses_the_measure(self):
        dom = ProductDomain((2,), ([Fraction(1, 4), Fraction(3, 4)],))
        f = TabulatedFunction(dom, [1, -1])
        g = TabulatedFunction(dom, [1, 1])
        assert f.inner(g) == Fraction(1, 4) - Fraction(3, 4)


class TestFourier:
    def test_character_is_its_own_indicator(self):
        for alpha in [(), (0,), (1,), (0, 2)]:
            table = fourier(character(3, alpha))
            for m in range(8):
                expected = 1 if m == sum(1 << i for i in alpha) else 0
                assert table.coefficients[m] == expected

    def test_constant_function(self):
        dom = ProductDomain.binary_uniform(2)
        table = fourier(TabulatedFunction(dom, [1, 1, 1, 1]))
        assert table.coefficients[0] == 1
        assert all(c == 0 for c in table.coefficients[1:])

    def test_three_bit_majority(self):
        table = fourier(MAJORITY3)
        for i in range(3):
            assert table.coefficients[1 << i] == Fraction(1, 2)
        assert table.coefficients[0b111] == Fraction(-1, 2)
        assert table.coefficients[0] == 0
        for a, b in itertools.combinations(range(3), 2):
            assert table.coefficients[1 << a | 1 << b] == 0

    def test_matches_direct_sums(self):
        rng = random.Random(11)
        for n in (1, 2, 3):
            dom = ProductDomain.binary_uniform(n)
            f = random_rational_table(rng, dom)
            table = fourier(f)
            direct = oracles.direct_dft(f.values)
            assert list(table.coefficients) == direct

    def test_inverse_round_trip(self):
        rng = random.Random(12)
        f = random_rational_table(rng, ProductDomain.binary_uniform(3))
        assert wht(wht(f.values)) == [8 * v for v in f.values]
        assert wht(wht(f.numerators)) == [8 * m for m in f.numerators]

    def test_rejects_non_binary_domain(self):
        dom = ProductDomain((3,))
        with pytest.raises(PreconditionError):
            fourier(TabulatedFunction(dom, [1, 2, 3]))

    def test_rejects_biased_measure(self):
        dom = ProductDomain((2,), ([Fraction(1, 3), Fraction(2, 3)],))
        with pytest.raises(PreconditionError):
            fourier(TabulatedFunction(dom, [1, -1]))

    def test_parseval_exhaustive_n3(self):
        for bits in range(256):
            f = pm_table(3, bits)
            coeffs = fourier(f).coefficients
            assert sum(c * c for c in coeffs) == f.norm_sq() == 1

    @given(st.lists(st.fractions(), min_size=8, max_size=8))
    def test_parseval_rational(self, vals):
        f = TabulatedFunction(ProductDomain.binary_uniform(3), vals)
        assert sum(c * c for c in fourier(f).coefficients) == f.norm_sq()

    @given(
        st.lists(st.fractions(), min_size=4, max_size=4),
        st.lists(st.fractions(), min_size=4, max_size=4),
    )
    def test_plancherel(self, a, b):
        dom = ProductDomain.binary_uniform(2)
        f = TabulatedFunction(dom, a)
        g = TabulatedFunction(dom, b)
        fa, ga = fourier(f), fourier(g)
        assert f.inner(g) == sum(
            x * y for x, y in zip(fa.coefficients, ga.coefficients)
        )


class TestEfronStein:
    def test_dictator_has_one_component(self):
        dom = ProductDomain((2, 3, 2))
        f = TabulatedFunction(
            dom, [1 if dom.point(i)[1] == 2 else -1 for i in range(dom.size)]
        )
        dec = efron_stein(f)
        for beta, comp in dec.components.items():
            if beta == frozenset({1}):
                assert comp.norm_sq() > 0
            elif beta == frozenset():
                assert comp == TabulatedFunction(
                    dom, [f.expectation()] * dom.size
                )
            else:
                assert all(v == 0 for v in comp.values)

    def test_constant_concentrates_on_empty_set(self):
        dom = ProductDomain((2, 2))
        dec = efron_stein(TabulatedFunction(dom, [5, 5, 5, 5]))
        assert dec.component(()).values == (5, 5, 5, 5)
        for beta, comp in dec.components.items():
            if beta:
                assert all(v == 0 for v in comp.values)

    def test_components_sum_to_f(self):
        rng = random.Random(21)
        dom = ProductDomain((2, 3, 2))
        f = random_rational_table(rng, dom)
        assert oracles.integer_sum(efron_stein(f).components.values()) == f

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_total_adds_unreduced_components_as_integers(self, seed, c):
        # Components over differing, unreduced denominators sum to f, and
        # no component's Fraction values get built on the way.
        rng = random.Random(seed)
        dom = ProductDomain(rng.choice([(2, 3, 2), (2,) * 4, (3, 2)]))
        f = random_rational_table(rng, dom)
        dec = efron_stein(oracles.unreduced(f, c))
        twins = {beta: oracles.unreduced(comp, rng.randint(1, 5))
                 for beta, comp in dec.components.items()}
        total = oracles.integer_sum(twins.values())
        assert all(comp._values is None for comp in twins.values())
        assert total == f
        assert all(comp._values is None for comp in twins.values())

    def test_orthogonality_two_blocks(self):
        rng = random.Random(22)
        dom = ProductDomain((3, 2, 2))
        f = random_rational_table(rng, dom)
        dec = efron_stein(f, blocks=[(0,), (1, 2)])
        comps = list(dec.components.values())
        for a, b in itertools.combinations(comps, 2):
            assert a.inner(b) == 0

    def test_conditional_expectations_vanish(self):
        # E[f_beta | coordinates of beta'] == 0 whenever beta' does not
        # contain beta, checked by explicit slice sums.
        rng = random.Random(23)
        dom = ProductDomain((2, 2, 3))
        f = random_rational_table(rng, dom)
        dec = efron_stein(f)
        for beta, comp in dec.components.items():
            if not beta:
                continue
            for r in range(3):
                for fixed in itertools.combinations(range(3), r):
                    if beta <= set(fixed):
                        continue
                    for assignment in itertools.product(
                        *[range(dom.sizes[c]) for c in fixed]
                    ):
                        total = Fraction(0)
                        for idx in range(dom.size):
                            pt = dom.point(idx)
                            if all(
                                pt[c] == a for c, a in zip(fixed, assignment)
                            ):
                                total += dom.weight(idx) * comp.values[idx]
                        assert total == 0

    def test_binary_blocks_match_fourier_regrouping(self):
        rng = random.Random(24)
        dom = ProductDomain.binary_uniform(4)
        f = random_rational_table(rng, dom)
        blocks = [(0, 2), (1, 3)]
        dec = efron_stein(f, blocks=blocks)
        table = fourier(f)
        for beta in (frozenset(), {0}, {1}, {0, 1}):
            acc = [Fraction(0)] * dom.size
            for m in range(16):
                alpha = [i for i in range(4) if (m >> i) & 1]
                if block_image(alpha, blocks, 4) != frozenset(beta):
                    continue
                chi = character(4, alpha)
                c = table.coefficients[m]
                for i in range(dom.size):
                    acc[i] += c * chi.values[i]
            assert dec.component(beta) == TabulatedFunction(dom, acc)

    def test_rejects_overlapping_blocks(self):
        f = pm_table(2, 0b0110)
        with pytest.raises(PreconditionError):
            efron_stein(f, blocks=[(0,), (0, 1)])

    def test_rejects_uncovered_coordinate(self):
        f = pm_table(2, 0b0110)
        with pytest.raises(PreconditionError):
            efron_stein(f, blocks=[(0,)])


class TestInfluence:
    def test_dictator(self):
        f = character(3, (1,))
        assert influence(f, 1) == 1
        assert influence(f, 0) == 0
        assert influence(f, 2) == 0

    def test_majority_influences(self):
        assert list(all_influences(MAJORITY3)) == [
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 2),
        ]

    def test_variance_form_agrees(self):
        rng = random.Random(31)
        dom = ProductDomain((2, 3, 2))
        for _ in range(10):
            f = random_rational_table(rng, dom)
            for i in range(3):
                assert (
                    influence(f, i)
                    == influence_variance(f, i)
                    == oracles.variance_influence(
                        f.values, dom.sizes, dom.measures, i
                    )
                )

    def test_degree_d_caps_at_full_influence(self):
        rng = random.Random(32)
        f = random_rational_table(rng, ProductDomain.binary_uniform(3))
        for i in range(3):
            assert degree_d_influence(f, i, 3) == influence(f, i)
            assert degree_d_influence(f, i, 1) <= influence(f, i)

    def test_degree_d_sum_bound_spot_checks(self):
        rng = random.Random(33)
        for _ in range(40):
            f = pm_table(4, rng.randrange(1 << 16))
            for d in (1, 2, 3):
                assert sum(all_degree_d_influences(f, d)) <= d

    def test_block_influence_uses_blocks(self):
        # With coordinates 0 and 1 fused, a dictator on coordinate 1 charges
        # the fused block.
        f = character(3, (1,))
        assert influence(f, 0, blocks=[(0, 1), (2,)]) == 1
        assert influence(f, 1, blocks=[(0, 1), (2,)]) == 0

    def test_total_influence_runs_no_split(self, monkeypatch):
        """The three total-influence names read the variance form alone; the
        values were recorded while they still summed component norms."""
        dom = ProductDomain((2, 3, 2), (
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
            (Fraction(3, 5), Fraction(2, 5)),
        ))
        f = TabulatedFunction(dom, [Fraction(v) for v in (
            "1 -1/2 0 2/3 -1 1/4 3 -2 1/5 0 -3/4 1").split()])
        single = [Fraction(150871, 108000), Fraction(12727, 12000),
                  Fraction(68819, 180000)]
        cases = ((None, single),
                 ([(0, 2), (1,)], [Fraction(21589, 15000), single[1]]),
                 ([(1,), (2,), (0,)], [single[1], single[2], single[0]]))

        def refuse(*args, **kwargs):
            raise AssertionError("total influence ran the Efron-Stein split")

        monkeypatch.setattr(boolanalysis, "_split", refuse)
        for blocks, want in cases:
            assert all_influences(f, blocks) == want
            for i, w in enumerate(want):
                assert influence(f, i, blocks) == w
                assert influence_variance(f, i, blocks) == w


class TestNoise:
    def test_gamma_zero_is_identity(self):
        rng = random.Random(41)
        f = random_rational_table(rng, ProductDomain.binary_uniform(3))
        assert noise(f, 0) == f

    def test_gamma_one_is_expectation(self):
        rng = random.Random(42)
        f = random_rational_table(rng, ProductDomain.binary_uniform(3))
        g = noise(f, 1)
        assert all(v == f.expectation() for v in g.values)

    def test_attenuates_each_level(self):
        f = MAJORITY3
        g = noise(f, Fraction(1, 4))
        tf, tg = fourier(f), fourier(g)
        for m in range(8):
            assert tg.coefficients[m] == tf.coefficients[m] * Fraction(
                3, 4
            ) ** bin(m).count("1")

    def test_composition_law(self):
        rng = random.Random(43)
        f = random_rational_table(rng, ProductDomain.binary_uniform(3))
        g1 = Fraction(1, 3)
        g2 = Fraction(1, 5)
        combined = 1 - (1 - g1) * (1 - g2)
        assert noise(noise(f, g1), g2) == noise(f, combined)

    def test_rejects_gamma_outside_unit_interval(self):
        f = pm_table(2, 0b0110)
        with pytest.raises(PreconditionError):
            noise(f, 2)
        with pytest.raises(PreconditionError):
            noise(f, Fraction(-1, 2))

    def test_rejects_non_binary_domain_after_the_rate(self):
        f = TabulatedFunction(ProductDomain((3,)), [1, 2, 3])
        with pytest.raises(PreconditionError,
                           match=r"^noise rate must lie in \[0, 1\]$"):
            noise(f, 2)
        with pytest.raises(PreconditionError,
                           match="^fourier requires a binary uniform domain$"):
            noise(f, Fraction(1, 2))

    @given(st.integers(0, 4).flatmap(lambda n: st.lists(
               st.fractions(max_denominator=12), min_size=1 << n,
               max_size=1 << n)),
           st.sampled_from((0, 1, Fraction(1, 3), Fraction(2, 7),
                            Fraction(1, 2))),
           st.integers(1, 3))
    def test_matches_direct_sums(self, vals, gamma, c):
        f = TabulatedFunction(
            ProductDomain.binary_uniform(len(vals).bit_length() - 1), vals)
        want = oracles.reference_noise(vals, gamma)
        assert list(noise(f, gamma).values) == want
        assert list(noise(oracles.unreduced(f, c), gamma).values) == want

    def test_total_influence_bound_after_noise(self):
        rng = random.Random(44)
        for gamma in (Fraction(1, 4), Fraction(1, 2)):
            for _ in range(60):
                f = pm_table(4, rng.randrange(1 << 16))
                g = noise(f, gamma)
                assert sum(all_influences(g)) <= 1 / gamma


class TestProjectionSets:
    PI = (0, 1, 0, 1)  # R=4 onto L=2

    def test_pi_tilde_examples(self):
        assert pi_tilde((), self.PI) == frozenset()
        assert pi_tilde((2,), self.PI) == {0}
        assert pi_tilde((6,), self.PI) == {0}
        assert pi_tilde((2, 6), self.PI) == {0}
        assert pi_tilde((0, 1, 5), self.PI) == {0, 1}

    def test_pi_tilde_range_check(self):
        with pytest.raises(PreconditionError):
            pi_tilde((8,), self.PI)

    def test_pi_oplus_even_multiplicity_cancels(self):
        assert pi_oplus((0, 2), self.PI, 2) == frozenset()
        assert pi_oplus((1, 3), self.PI, 2) == frozenset()

    def test_pi_oplus_single_index(self):
        assert pi_oplus((2,), self.PI, 2) == {0}
        assert pi_oplus((5,), self.PI, 2) == {2 + 1}

    def test_pi_oplus_halves_do_not_cancel_each_other(self):
        assert pi_oplus((0, 4), self.PI, 2) == {0, 2}

    def test_character_identity_exhaustive(self):
        # chi_alpha(y o pi) == chi_{pi_oplus(alpha)}(y) for every alpha over
        # [2R] and every y over {0,1}^{2L}, at R=4, L=2.
        for mask in range(1 << 8):
            alpha = [j for j in range(8) if (mask >> j) & 1]
            folded = pi_oplus(alpha, self.PI, 2)
            for ybits in range(16):
                y = tuple((ybits >> i) & 1 for i in range(4))
                z = compose_projection(y, self.PI)
                lhs = (-1) ** sum(z[j] for j in alpha)
                rhs = (-1) ** sum(y[i] for i in folded)
                assert lhs == rhs

    def test_compose_identity(self):
        y = (3, 1, 4, 1)
        assert compose_projection(y, (0, 1)) == y

    def test_compose_constant(self):
        y = (7, 8, 9, 5, 6, 4)  # L = 3
        out = compose_projection(y, (0, 0, 0, 0))
        assert out == (7, 7, 7, 7, 5, 5, 5, 5)

    def test_compose_rejects_odd_length(self):
        with pytest.raises(PreconditionError):
            compose_projection((1, 2, 3), (0,))

    def test_compose_rejects_out_of_range_projection(self):
        with pytest.raises(PreconditionError):
            compose_projection((1, 2), (4,))


class TestFourierTableType:
    def test_requires_power_of_two_length(self):
        with pytest.raises(PreconditionError):
            FourierTable(2, [1, 2, 3])

    def test_immutability(self):
        t = fourier(MAJORITY3)
        with pytest.raises(AttributeError):
            t.n = 5
        d = efron_stein(MAJORITY3)
        assert isinstance(d, EfronSteinDecomposition)
        with pytest.raises(AttributeError):
            d.blocks = ()


@st.composite
def grouped_tables(draw):
    """A rational table on a random product domain (sizes 1-3, nonnegative
    integer masses, some zero) with a random grouping into blocks; its
    numerators and denominator may share a factor."""
    n = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, 3)) for _ in range(n)]
    measures = []
    for s in sizes:
        masses = draw(st.lists(st.integers(0, 3), min_size=s, max_size=s)
                      .filter(any))
        measures.append(tuple(Fraction(m, sum(masses)) for m in masses))
    size = 1
    for s in sizes:
        size *= s
    values = draw(st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        min_size=size, max_size=size,
    ))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    blocks = [tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    f = TabulatedFunction(ProductDomain(sizes, measures), values)
    return oracles.unreduced(f, draw(st.integers(1, 3))), blocks


class TestSplitAgainstMoebius:
    """The block-by-block split equals the Moebius construction exactly."""

    @given(grouped_tables())
    def test_components_match(self, case):
        f, blocks = case
        dom = f.domain
        ref = oracles.moebius_efron_stein(
            f.values, dom.sizes, dom.measures, [sorted(b) for b in blocks]
        )
        dec = efron_stein(f, blocks=blocks)
        assert len(dec.components) == len(ref)
        for m, comp in ref.items():
            beta = [b for b in range(len(blocks)) if (m >> b) & 1]
            assert list(dec.component(beta).values) == comp

    @given(grouped_tables())
    def test_influence_wrappers_match(self, case):
        f, blocks = case
        dom = f.domain
        sorted_blocks = [sorted(b) for b in blocks]

        def ref(d=None):
            return oracles.moebius_influences(
                f.values, dom.sizes, dom.measures, sorted_blocks, d
            )

        assert all_influences(f, blocks=blocks) == ref()
        for i, want in enumerate(ref()):
            assert influence(f, i, blocks=blocks) == want
            assert influence_variance(f, i, blocks=blocks) == want
        for d in range(len(blocks) + 1):
            assert all_degree_d_influences(f, d, blocks=blocks) == ref(d)
            for i, want in enumerate(ref(d)):
                assert degree_d_influence(f, i, d, blocks=blocks) == want

    @given(grouped_tables())
    def test_point_weights_match_measures(self, case):
        f, _blocks = case
        dom = f.domain
        weights = [oracles.point_weight(dom.sizes, dom.measures, i)
                   for i in range(dom.size)]
        ints, den = dom.point_weights()
        assert [Fraction(w, den) for w in ints] == weights
        assert f.expectation() == sum(
            (w * v for w, v in zip(weights, f.values)), Fraction(0)
        )
        assert f.norm_sq() == sum(
            (w * v * v for w, v in zip(weights, f.values)), Fraction(0)
        )

    def test_rejects_block_index_out_of_range(self):
        for call in (lambda: influence(MAJORITY3, 3),
                     lambda: degree_d_influence(MAJORITY3, -1, 2),
                     lambda: influence_variance(MAJORITY3, 3)):
            with pytest.raises(PreconditionError):
                call()


class TestCappedSplit:
    """A split capped at d blocks yields exactly the components of at most
    d blocks, each equal to the uncapped split's."""

    def test_yields_the_components_of_at_most_cap_blocks(self):
        rng = random.Random(16)
        for nb in range(7):
            sizes = [rng.choice((1, 2, 2, 3)) for _ in range(nb)]
            measures = []
            for size in sizes:
                masses = [rng.randrange(4) for _ in range(size)]
                masses[rng.randrange(size)] += 1
                measures.append([Fraction(m, sum(masses)) for m in masses])
            f = random_rational_table(rng, ProductDomain(sizes, measures))
            blocks = [(c,) for c in range(nb)]
            full = dict(_split(f.numerators, f.domain, blocks))
            assert len(full) == 1 << nb
            for d in range(nb + 2):
                capped = list(_split(f.numerators, f.domain, blocks, cap=d))
                masks = [m for m, _t in capped]
                assert len(masks) == len(set(masks)) == sum(
                    math.comb(nb, j) for j in range(min(d, nb) + 1))
                assert set(masks) == {m for m in full if m.bit_count() <= d}
                for m, t in capped:
                    assert t == full[m], (nb, d, m)

    @given(grouped_tables(), st.integers(0, 4))
    def test_influences_are_the_component_norms(self, case, d):
        """Both influence kernels against the uncapped decomposition."""
        f, blocks = case
        comps = efron_stein(f, blocks=blocks).components

        def norms(cap):
            return [sum((c.norm_sq() for beta, c in comps.items()
                         if b in beta and len(beta) <= cap), Fraction(0))
                    for b in range(len(blocks))]

        assert all_influences(f, blocks) == norms(len(blocks))
        assert all_degree_d_influences(f, d, blocks) == norms(d)

    @given(grouped_tables(), st.integers(0, 4))
    def test_grouped_blocks(self, case, d):
        f, blocks = case
        blocks = [tuple(sorted(b)) for b in blocks]
        full = dict(_split(f.numerators, f.domain, blocks))
        capped = dict(_split(f.numerators, f.domain, blocks, cap=d))
        assert capped == {m: t for m, t in full.items() if m.bit_count() <= d}
