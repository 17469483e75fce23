import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cspcover import (
    Assignment,
    Budget,
    BudgetExceededError,
    CoverSet,
    Edge,
    LabelCoverInstance,
    Labeling,
    PreconditionError,
    T1Params,
    T2Params,
    T3Params,
    correlation_rho,
    covered_fraction,
    decode_t2,
    generate_t1,
    generate_t2,
    generate_t3,
    lin,
    nae,
    pairwise_product_check,
    rejection_identity_check,
    sample_t2,
    t2_block_last_row_space,
    t2_block_space,
    t2_block_table,
    t2_completeness_witness,
    binary_dictator_tables,
    completeness_witness,
    textio,
)
from cspcover import CspInstance, errors, reductions

HALF = Fraction(1, 2)
P0 = {(0, 0): HALF, (1, 1): HALF}
P1 = {(0, 1): HALF, (1, 0): HALF}


def one_label_source(nu=1, nv=1, complete=False):
    if complete:
        edges = [Edge(u, v, (0,)) for u in range(nu) for v in range(nv)]
    else:
        edges = [Edge(0, v, (0,)) for v in range(nv)]
    return LabelCoverInstance(nu, nv, 1, 1, edges, unique=True)


def two_label_source():
    return LabelCoverInstance(1, 1, 2, 2, [Edge(0, 0, (0, 1))], unique=True)


def params(eps=Fraction(1, 4), source=None):
    return T2Params(lin(4), P0, P1, eps, source or one_label_source())


class TestParams:
    def test_canonical_setup(self):
        p = params()
        assert p.k == 2 and p.d == 1
        assert p.eps == Fraction(1, 4)

    def test_rejects_parity_violation(self):
        bad = {(0, 0): HALF, (0, 1): HALF}
        with pytest.raises(PreconditionError):
            T2Params(lin(4), bad, P1, Fraction(1, 4), one_label_source())

    def test_rejects_biased_marginals(self):
        bad = {(0, 0): Fraction(3, 4), (1, 1): Fraction(1, 4)}
        with pytest.raises(PreconditionError):
            T2Params(lin(4), bad, P1, Fraction(1, 4), one_label_source())

    def test_rejects_concatenation_outside_predicate(self):
        thin = lin(4).members[:4]
        from cspcover import Predicate

        pred = Predicate(2, 4, thin)
        with pytest.raises(PreconditionError):
            T2Params(pred, P0, P1, Fraction(1, 4), one_label_source())

    def test_rejects_eps_out_of_range(self):
        for eps in (0, Fraction(3, 4), 1):
            with pytest.raises(PreconditionError):
                T2Params(lin(4), P0, P1, eps, one_label_source())

    def test_rejects_odd_arity_predicate(self):
        with pytest.raises(PreconditionError):
            T2Params(lin(3), P0, P1, Fraction(1, 4), one_label_source())

    def test_rejects_uneven_fibers(self):
        g = LabelCoverInstance(
            1, 1, 2, 2, [Edge(0, 0, (0, 0))]
        )
        with pytest.raises(PreconditionError):
            T2Params(lin(4), P0, P1, Fraction(1, 4), g)

    def test_rejects_non_multiple_label_counts(self):
        g = LabelCoverInstance(1, 1, 2, 3, [Edge(0, 0, (0, 1, 0))])
        with pytest.raises(PreconditionError):
            T2Params(lin(4), P0, P1, Fraction(1, 4), g)


class TestBlockTable:
    def test_weights_sum_to_one(self):
        table = t2_block_table(params())
        assert sum(table.values()) == 1

    def test_every_x_row_is_uniform(self):
        # Each queried point of the first function reads one row of the X
        # block; its two bits (plain and shifted column) must be uniform.
        sp = t2_block_space(params(Fraction(1, 8)))
        for coord in range(sp.k_left):
            marg = oracles.coordinate_marginal(sp, "left", coord)
            assert len(marg) == 4
            assert all(w == Fraction(1, 4) for w in marg.values())

    def test_every_y_row_is_uniform(self):
        sp = t2_block_space(params(Fraction(1, 4)))
        for coord in range(sp.k_right):
            marg = oracles.coordinate_marginal(sp, "right", coord)
            assert len(marg) == 4
            assert all(w == Fraction(1, 4) for w in marg.values())

    def test_hand_computed_entry(self):
        # X columns ((0,0),(0,0)), Y columns ((0,1),(0,1)): reachable only
        # with the X side playing the even-parity role.  The aligned case
        # contributes (1-2e)/32; each single-sided resample adds e/128.
        eps = Fraction(1, 4)
        table = t2_block_table(params(eps))
        key = ((((0, 0), (0, 0))), (((0, 1), (0, 1))))
        assert table[key] == (1 - 2 * eps) / 32 + eps / 64

    def test_parity_blocked_entry_is_absent(self):
        table = t2_block_table(params())
        assert (((0, 0), (0, 0)), ((0, 0), (0, 0))) not in table

    def test_mixture_recount(self):
        # Rebuild the distribution from its definition: an aligned draw with
        # both halves from the matched pair, or one uniformly resampled half.
        eps = Fraction(1, 8)
        table = t2_block_table(params(eps))
        expected = {}

        def add(key, w):
            if w:
                expected[key] = expected.get(key, Fraction(0)) + w

        cols = [(a, b) for a in (0, 1) for b in (0, 1)]
        for c1, px, py in ((0, P0, P1), (1, P1, P0)):
            for xu in px:
                for xp in px:
                    for yu in py:
                        for yp in py:
                            base = (
                                HALF
                                * px[xu]
                                * px[xp]
                                * py[yu]
                                * py[yp]
                            )
                            add(
                                ((xu, xp), (yu, yp)),
                                (1 - 2 * eps) * base,
                            )
            for xu in px:
                for yu in py:
                    for xr in cols:
                        for yr in cols:
                            add(
                                ((xu, xr), (yu, yr)),
                                HALF
                                * eps
                                * px[xu]
                                * py[yu]
                                * Fraction(1, 16),
                            )
            for xp in px:
                for yp in py:
                    for xr in cols:
                        for yr in cols:
                            add(
                                ((xr, xp), (yr, yp)),
                                HALF
                                * eps
                                * px[xp]
                                * py[yp]
                                * Fraction(1, 16),
                            )
        assert table == expected


class TestBlockSpaces:
    def test_pairwise_product(self):
        for eps in (Fraction(1, 8), Fraction(1, 2)):
            assert pairwise_product_check(t2_block_space(params(eps)))

    def test_block_correlation_bound(self):
        for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
            rho = correlation_rho(t2_block_space(params(eps)))
            assert rho <= math.sqrt(1 - float(eps)) + 1e-9

    def test_last_row_split_bound(self):
        for eps in (Fraction(1, 8), Fraction(1, 4)):
            rho = correlation_rho(t2_block_last_row_space(params(eps)))
            assert rho <= math.sqrt(1 - float(eps)) + 1e-9

    def test_block_space_shapes(self):
        sp = t2_block_space(params())
        assert sp.k_left == 2 and sp.k_right == 2
        sp2 = t2_block_last_row_space(params())
        assert sp2.k_left == 3 and sp2.k_right == 1


class TestGenerate:
    def test_single_edge_shape(self):
        inst = generate_t2(params())
        assert inst.nvars == 4
        assert inst.total_weight() == 1
        for c in inst.constraints:
            assert len(c.vars) == 4
            assert c.literals == (0, 0, 0, 0)
            for v in c.vars:
                assert 0 <= v < 4

    def test_first_half_queries_first_endpoint(self):
        g = one_label_source(nu=1, nv=2)
        inst = generate_t2(params(source=g))
        assert inst.nvars == 8
        for c in inst.constraints:
            first = {inst.variables[v][0] for v in c.vars[:2]}
            second = {inst.variables[v][0] for v in c.vars[2:]}
            assert len(first) == 1 and len(second) == 1

    def test_budget_and_cap(self):
        with pytest.raises(BudgetExceededError):
            generate_t2(params(), budget=2)
        with pytest.raises(BudgetExceededError):
            generate_t2(params(), support_cap=2)


class TestCompletenessWitness:
    def test_single_edge_fractions(self):
        eps = Fraction(1, 4)
        p = params(eps)
        inst = generate_t2(p)
        f, g = t2_completeness_witness(p, Labeling((0,), (0,)), inst)
        cf = covered_fraction(CoverSet([f]), inst)
        cg = covered_fraction(CoverSet([g]), inst)
        assert cf == cg == 1 - eps / 2
        assert cf >= 1 - eps
        assert covered_fraction(CoverSet([f, g]), inst) == 1

    def test_degenerate_noise(self):
        eps = Fraction(1, 2)
        p = params(eps)
        inst = generate_t2(p)
        f, g = t2_completeness_witness(p, Labeling((0,), (0,)), inst)
        assert covered_fraction(CoverSet([f]), inst) >= Fraction(1, 2)
        assert covered_fraction(CoverSet([f, g]), inst) == 1

    def test_multi_vertex_source(self):
        g = one_label_source(nu=2, nv=2, complete=True)
        p = params(Fraction(1, 4), g)
        inst = generate_t2(p)
        f, h = t2_completeness_witness(p, Labeling((0, 0), (0, 0)), inst)
        assert covered_fraction(CoverSet([f, h]), inst) == 1

    def test_rejects_unsatisfying_labeling(self):
        p = params(source=two_label_source())
        with pytest.raises(PreconditionError):
            t2_completeness_witness(p, Labeling((0,), (1,)))

    def test_generates_with_fractions_from_one_pass(self):
        p = params()
        assignments, fractions, union = completeness_witness(
            p, [Labeling((0,), (0,))], generate=generate_t2
        )
        inst = generate_t2(p)
        assert tuple(assignments) == t2_completeness_witness(
            p, Labeling((0,), (0,)), inst
        )
        assert fractions == [covered_fraction(CoverSet([a]), inst)
                             for a in assignments]
        assert union == 1

    @pytest.mark.parametrize("make, generate", [
        (lambda: T1Params(nae(2, 2), (0, 1), one_label_source()), generate_t1),
        (params, generate_t2),
        (lambda: T3Params(Fraction(1, 4), one_label_source()), generate_t3),
    ], ids=["t1", "t2", "t3"])
    def test_defaults_to_the_generator_of_its_params(self, make, generate):
        p, lab = make(), Labeling((0,), (0,))
        assignments, fractions, union = completeness_witness(p, [lab])
        inst = generate(p)
        assert assignments == completeness_witness(p, [lab], inst)[0]
        assert fractions == [covered_fraction(CoverSet([a]), inst)
                             for a in assignments]
        assert union == 1

    def test_checks_labelings_before_generating(self):
        # Under a budget far below the generator's cost, malformed labelings
        # still raise PreconditionError, not BudgetExceededError.
        p = params(source=two_label_source())

        def generate(p):
            return generate_t2(p, budget=Budget(1))

        ok, bad = Labeling((0,), (0,)), Labeling((0,), (1,))
        for labelings, message in (([ok, ok], "exactly one"),
                                   ([bad], "does not satisfy"), ([], "exactly one")):
            with pytest.raises(PreconditionError, match=message):
                completeness_witness(p, labelings, generate=generate)
        with pytest.raises(BudgetExceededError):
            completeness_witness(p, [ok], generate=generate)


class TestRejectionIdentity:
    def test_single_assignment_identity(self):
        p = params()
        inst = generate_t2(p)
        rng = random.Random(1)
        a = Assignment([rng.randrange(2) for _ in range(inst.nvars)])
        res = rejection_identity_check([a], inst)
        assert res.deviation == 0
        assert res.threshold == -1

    def test_random_pairs_and_triples(self):
        p = params()
        inst = generate_t2(p)
        rng = random.Random(2)
        for t in (2, 3):
            assignments = [
                Assignment([rng.randrange(2) for _ in range(inst.nvars)])
                for _ in range(t)
            ]
            res = rejection_identity_check(assignments, inst)
            assert res.deviation == 0
            assert res.threshold == Fraction(-1, 2 ** t - 1)
            assert set(res.correlations) == {
                s
                for r in range(1, t + 1)
                for s in __import__("itertools").combinations(range(t), r)
            }

    def test_cover_pair_reaches_threshold(self):
        p = params()
        inst = generate_t2(p)
        f, g = t2_completeness_witness(p, Labeling((0,), (0,)), inst)
        res = rejection_identity_check([f, g], inst)
        assert res.lhs == 0
        assert res.deviation == 0
        assert res.witnesses  # some S with correlation <= -1/3
        assert any(res.correlations[s] <= Fraction(-1, 3) for s in res.witnesses)

    def test_rejects_bad_inputs(self):
        p = params()
        inst = generate_t2(p)
        good = Assignment([0] * inst.nvars)
        with pytest.raises(PreconditionError):
            rejection_identity_check([], inst)
        with pytest.raises(PreconditionError):
            rejection_identity_check([good] * 4, inst)
        with pytest.raises(PreconditionError):
            rejection_identity_check([Assignment([0, 1])], inst)
        with pytest.raises(PreconditionError):
            rejection_identity_check(
                [Assignment([2] * inst.nvars)], inst
            )

    def test_budget_exceeded(self):
        p = params()
        inst = generate_t2(p)
        a = Assignment([0] * inst.nvars)
        with pytest.raises(BudgetExceededError):
            rejection_identity_check([a], inst, budget=2)


class TestDecode:
    def test_dictators_recover_satisfying_labeling(self):
        g = one_label_source()
        tables = binary_dictator_tables(g, Labeling((0,), (0,)))
        res = decode_t2(tables, g, Fraction(1, 8), seed=4)
        assert res.value == 1
        assert res.gamma == Fraction(1, 8)

    def test_dictator_expectation_bound(self):
        g = one_label_source()
        tables = binary_dictator_tables(g, Labeling((0,), (0,)))
        res = decode_t2(tables, g, Fraction(1, 8), seed=4)
        assert res.expected_value_bound == Fraction(2401, 262144)

    def test_constant_tables_fall_back(self):
        from cspcover import ProductDomain, TabulatedFunction

        g = one_label_source()
        dom = ProductDomain.binary_uniform(2)
        tables = {0: TabulatedFunction(dom, [0] * 4)}
        res = decode_t2(tables, g, Fraction(1, 8), seed=0)
        assert res.labeling == Labeling((0,), (0,))
        assert res.expected_value_bound == 0

    def test_seed_determinism(self):
        g = two_label_source()
        rng = random.Random(9)
        from cspcover import ProductDomain, TabulatedFunction

        dom = ProductDomain.binary_uniform(4)
        tables = {
            0: TabulatedFunction(dom, [rng.randrange(2) for _ in range(16)])
        }
        r1 = decode_t2(tables, g, Fraction(1, 4), seed=77)
        r2 = decode_t2(tables, g, Fraction(1, 4), seed=77)
        assert r1.labeling == r2.labeling

    def test_sign_tables_decode_as_their_bits(self):
        from cspcover import ProductDomain, TabulatedFunction

        g = two_label_source()
        rng = random.Random(9)
        dom = ProductDomain.binary_uniform(4)
        for bits in (binary_dictator_tables(g, Labeling((1,), (1,))), {
            0: TabulatedFunction(dom, [0, 1] + [rng.randrange(2)
                                                for _ in range(14)])
        }):
            signs = {v: TabulatedFunction(f.domain, (1 - 2 * x
                                                     for x in f.values))
                     for v, f in bits.items()}
            for seed in range(4):
                a = decode_t2(bits, g, Fraction(1, 4), seed=seed)
                b = decode_t2(signs, g, Fraction(1, 4), seed=seed)
                assert (a.labeling, a.value, a.expected_value_bound) == (
                    b.labeling, b.value, b.expected_value_bound)

    def test_rejects_bad_gamma(self):
        g = one_label_source()
        tables = binary_dictator_tables(g, Labeling((0,), (0,)))
        for gamma in (0, 1, 2):
            with pytest.raises(PreconditionError):
                decode_t2(tables, g, gamma, seed=0)


class TestSampling:
    def test_shape_and_determinism(self):
        p = params()
        a = sample_t2(p, 25, seed=3)
        b = sample_t2(p, 25, seed=3)
        assert a.constraints == b.constraints
        assert a.total_weight() == 1
        # duplicates merge, so each weight is a positive multiple of 1/25
        assert all(
            c.weight > 0 and (c.weight * 25).denominator == 1
            for c in a.constraints
        )

    def test_rejects_nonpositive_count(self):
        with pytest.raises(PreconditionError):
            sample_t2(params(), 0, seed=1)


class TestTableCap:
    """R = 13 puts 2^26 points on each right vertex's grid, above the full
    table cap, so both modes refuse before building a variable list."""

    def params(self):
        edges = [Edge(0, 0, tuple(range(13)))]
        return params(source=LabelCoverInstance(1, 1, 13, 13, edges, unique=True))

    def test_generate_refuses(self):
        with pytest.raises(PreconditionError, match="full tables are capped"):
            generate_t2(self.params(), support_cap=10**40)

    def test_sample_refuses(self):
        with pytest.raises(PreconditionError, match="full tables are capped"):
            sample_t2(self.params(), 1, seed=1)


def fiber_source(d):
    """One edge whose single left label has a fiber of all d right labels."""
    return LabelCoverInstance(
        1, 1, 1, d, [Edge(0, 0, (0,) * d)], unique=d == 1
    )


class TestBlockTableCap:
    """The block table has 2 (|P0| |P1|)^(2d) + 4 (|P0| |P1|)^d 4^(kd) terms;
    above the full-table cap it is refused before anything is built."""

    BUILDERS = (generate_t2, lambda p: sample_t2(p, 1, seed=0),
                t2_block_table, t2_block_space, t2_block_last_row_space)

    @pytest.mark.parametrize("build", BUILDERS)
    def test_fiber_size_four_is_refused_at_once(self, build):
        p = params(source=fiber_source(4))
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="full tables are capped"):
            build(p)
        assert time.perf_counter() - start < 1

    def test_count_is_the_number_of_terms(self, monkeypatch):
        # d = 2: 2 * 4^4 + 4 * 4^2 * 4^4 = 16,896 terms, right at the cap.
        p = params(source=fiber_source(2))
        monkeypatch.setattr(errors, "MAX_TABLE", 16_896)
        table = t2_block_table(p)
        assert sum(table.values()) == 1
        monkeypatch.setattr(errors, "MAX_TABLE", 16_895)
        with pytest.raises(PreconditionError, match="16896 points"):
            t2_block_table(p)

    def test_fiber_size_three_stays_under_the_cap(self, monkeypatch):
        sizes = []

        def stop(size):
            sizes.append(size)
            raise RuntimeError("stop before building")

        monkeypatch.setattr(reductions, "check_table_size", stop)
        with pytest.raises(RuntimeError, match="stop before building"):
            t2_block_table(params(source=fiber_source(3)))
        assert sizes == [2 * 4**6 + 4 * 4**3 * 4**6]
        assert sizes[0] <= errors.MAX_TABLE


# (k, d, L): every shape of valid parameters whose tables stay small. No
# k = 1 parameters exist: an even-parity one-bit distribution sits on (0,),
# so its marginal is not uniform.
SHAPES = [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (4, 1, 1)]
# Complementary pairs of 4-bit columns, by parity: half the mass on each
# column of a pair leaves every single-coordinate marginal uniform.
PAIRS4 = {
    0: [((0, 0, 0, 0), (1, 1, 1, 1)), ((0, 0, 1, 1), (1, 1, 0, 0)),
        ((0, 1, 0, 1), (1, 0, 1, 0)), ((0, 1, 1, 0), (1, 0, 0, 1))],
    1: [((0, 0, 0, 1), (1, 1, 1, 0)), ((0, 0, 1, 0), (1, 1, 0, 1)),
        ((0, 1, 0, 0), (1, 0, 1, 1)), ((1, 0, 0, 0), (0, 1, 1, 1))],
}


@st.composite
def column_distributions(draw, k, parity):
    if k < 4:  # the marginals force the uniform distribution on the parity
        keys = [c for c in itertools.product((0, 1), repeat=k)
                if sum(c) % 2 == parity]
        return {c: Fraction(1, len(keys)) for c in keys}
    pairs = draw(st.lists(st.sampled_from(PAIRS4[parity]), min_size=1,
                          max_size=2, unique=True))
    a = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]))
    masses = [a, 1 - a] if len(pairs) == 2 else [Fraction(1)]
    return {c: m / 2 for pair, m in zip(pairs, masses) for c in pair}


@st.composite
def t2_params(draw):
    """Valid parameters over small d-to-1 games: with the 192-block table
    of k = 2, d = 1 and one left label, every left vertex has one or two
    edges; with a larger table, one left vertex has one edge."""
    k, d, L = draw(st.sampled_from(SHAPES))
    small = (k, d, L) == (2, 1, 1)
    nu = draw(st.integers(1, 2)) if small else 1
    nv = draw(st.integers(1, 2))
    fibers = [i for i in range(L) for _ in range(d)]
    edges = [Edge(u, draw(st.integers(0, nv - 1)), draw(st.permutations(fibers)))
             for u in range(nu)
             for _ in range(draw(st.integers(1, 2)) if small else 1)]
    source = LabelCoverInstance(nu, nv, L, L * d, edges)
    eps = draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 3),
                                Fraction(1, 2)]))
    return T2Params(lin(2 * k), draw(column_distributions(k, 0)),
                    draw(column_distributions(k, 1)), eps, source)


class TestPackedBlockTable:
    """The packed table and everything drawn from it against the tuple-key
    oracle."""

    @settings(max_examples=20)
    @given(t2_params())
    def test_keys_numerators_and_order_are_the_oracles(self, p):
        keys, numerators, den = reductions._t2_block_numerators(p)
        assert keys == sorted(keys)
        table = t2_block_table(p)
        assert (list(zip(table, numerators)), den) == (
            oracles.reference_t2_block_numerators(p))
        assert list(table.values()) == [Fraction(m, den) for m in numerators]

    @settings(max_examples=12)
    @given(t2_params(), st.one_of(st.none(), st.integers(1, 40_000)))
    def test_generated_text_and_budget_are_the_oracles(self, p, limit):
        atoms = list(oracles.reference_t2_atoms(p))
        budget = Budget(limit)
        if limit is not None and len(atoms) > limit:
            with pytest.raises(BudgetExceededError):
                generate_t2(p, budget=budget)
            assert budget.used == limit + 1
            return
        inst = generate_t2(p, budget=budget)
        assert budget.used == len(atoms)
        want = CspInstance(p.predicate, inst.variables, atoms)
        assert textio.format_instance(inst) == textio.format_instance(want)

    @settings(max_examples=20)
    @given(t2_params(), st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_sampled_text_is_the_oracles(self, p, n, seed):
        inst = sample_t2(p, n, seed)
        want = CspInstance(p.predicate, inst.variables,
                           oracles.reference_t2_atoms(p, n, seed))
        assert textio.format_instance(inst) == textio.format_instance(want)
