import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from cspcover import (
    Assignment,
    BudgetExceededError,
    CoverSet,
    Edge,
    LabelCoverInstance,
    Labeling,
    PreconditionError,
    Predicate,
    ProductDomain,
    T1Params,
    TabulatedFunction,
    compose_projection,
    covered_fraction,
    decode_t1,
    generate_t1,
    is_c_coverable,
    nae,
    sample_t1,
    synthesize,
    t1_column_support,
    t1_completeness_witness,
    t1_dictator_tables,
)
from cspcover.reductions import _lift_places


def identity_source(nlabels, nv=1):
    """One left vertex joined to nv right vertices by identity bijections."""
    edges = [Edge(0, v, tuple(range(nlabels))) for v in range(nv)]
    return LabelCoverInstance(1, nv, nlabels, nlabels, edges, unique=True)


def params_single_edge(nlabels=1):
    return T1Params(nae(2, 2), (0, 1), identity_source(nlabels))


class TestParams:
    def test_accepts_the_canonical_setup(self):
        p = params_single_edge()
        assert p.a == (0, 1)
        assert not p.strict  # NAE(2,2) equals the orbit closure of 01

    def test_strict_flag_for_proper_subsets(self):
        p = T1Params(nae(3, 2), (0, 1), identity_source(1))
        assert not p.strict
        orbit_only = Predicate(3, 2, {(0, 1), (1, 2), (2, 0)})
        q = T1Params(orbit_only, (0, 1), identity_source(1))
        assert q.strict

    def test_rejects_constant_a(self):
        with pytest.raises(PreconditionError):
            T1Params(nae(2, 2), (1, 1), identity_source(1))

    def test_rejects_predicate_missing_a_translate(self):
        pred = Predicate(3, 2, {(0, 1), (1, 2)})
        with pytest.raises(PreconditionError):
            T1Params(pred, (0, 1), identity_source(1))

    def test_rejects_predicate_with_constant_tuple(self):
        pred = Predicate(2, 2, {(0, 0), (0, 1), (1, 0)})
        with pytest.raises(PreconditionError):
            T1Params(pred, (0, 1), identity_source(1))

    def test_rejects_non_unique_source(self):
        g = LabelCoverInstance(1, 1, 1, 2, [Edge(0, 0, (0, 0))])
        with pytest.raises(PreconditionError):
            T1Params(nae(2, 2), (0, 1), g)


class TestColumnSupport:
    def test_size_twelve_of_sixteen(self):
        S = t1_column_support(2, 2, (0, 1))
        assert len(S) == 12

    def test_membership_rule(self):
        orbit = {(0, 1), (1, 0)}
        S = set(t1_column_support(2, 2, (0, 1)))
        for y in ((0, 0), (0, 1), (1, 0), (1, 1)):
            for yp in ((0, 0), (0, 1), (1, 0), (1, 1)):
                assert ((y, yp) in S) == (y in orbit or yp in orbit)

    def test_ternary_orbit(self):
        S = t1_column_support(3, 2, (0, 1))
        orbit = {(0, 1), (1, 2), (2, 0)}
        assert all(y in orbit or yp in orbit for (y, yp) in S)
        assert len(S) == 9 * 9 - 6 * 6


class TestGenerate:
    def test_single_edge_support_and_weights(self):
        inst = generate_t1(params_single_edge())
        assert inst.nvars == 4
        assert len(inst.constraints) == 12
        assert inst.total_weight() == 1
        S = set(t1_column_support(2, 2, (0, 1)))
        seen = set()
        for c in inst.constraints:
            assert c.weight == Fraction(1, 12)
            assert c.literals == (0, 0)
            p1 = inst.variables[c.vars[0]][1]
            p2 = inst.variables[c.vars[1]][1]
            pair = ((p1[0], p2[0]), (p1[1], p2[1]))
            assert pair in S
            seen.add(pair)
        assert seen == S

    def test_two_label_columns_stay_in_support(self):
        p = T1Params(nae(2, 2), (0, 1), identity_source(2))
        inst = generate_t1(p)
        assert inst.nvars == 16
        assert len(inst.constraints) == 144
        assert inst.total_weight() == 1
        S = set(t1_column_support(2, 2, (0, 1)))
        for c in inst.constraints:
            pts = [inst.variables[v][1] for v in c.vars]
            for i in range(2):
                pair = (
                    tuple(pt[i] for pt in pts),
                    tuple(pt[2 + i] for pt in pts),
                )
                assert pair in S

    def test_all_variables_exist(self):
        g = synthesize(
            "unique-consistent", nu=2, nv=2, nlabels_u=2, nlabels_v=2, seed=3
        )
        inst = generate_t1(T1Params(nae(2, 2), (0, 1), g))
        assert inst.total_weight() == 1
        for c in inst.constraints:
            for v in c.vars:
                assert 0 <= v < inst.nvars

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            generate_t1(params_single_edge(), budget=3)

    def test_support_cap(self):
        with pytest.raises(BudgetExceededError):
            generate_t1(params_single_edge(), support_cap=3)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_nonpositive_support_cap_is_a_precondition(self, cap):
        with pytest.raises(PreconditionError,
                           match="support cap must be positive"):
            generate_t1(params_single_edge(), support_cap=cap)


class TestCompletenessWitness:
    def test_single_labeling_gives_two_covering_assignments(self):
        p = params_single_edge()
        inst = generate_t1(p)
        cover = t1_completeness_witness(p, [Labeling((0,), (0,))], inst)
        assert len(cover.assignments) == 2
        assert covered_fraction(cover, inst) == 1

    def test_first_half_dictator_alone_falls_short(self):
        p = params_single_edge()
        inst = generate_t1(p)
        cover = t1_completeness_witness(p, [Labeling((0,), (0,))], inst)
        f, g = cover.assignments
        assert covered_fraction(CoverSet([f]), inst) == Fraction(2, 3)
        assert covered_fraction(CoverSet([g]), inst) == Fraction(2, 3)

    def test_two_labelings_give_four_assignments(self):
        g = synthesize(
            "unique-2-cover", nu=2, nv=4, nlabels_u=2, nlabels_v=2, seed=8
        )
        labs = is_c_coverable(g, 2)
        assert labs is not None
        p = T1Params(nae(2, 2), (0, 1), g)
        inst = generate_t1(p)
        cover = t1_completeness_witness(p, labs, inst)
        assert len(cover.assignments) == 4
        assert covered_fraction(cover, inst) == 1

    def test_rejects_non_covering_labelings(self):
        g = LabelCoverInstance(
            1,
            1,
            2,
            2,
            [Edge(0, 0, (0, 1)), Edge(0, 0, (1, 0))],
            unique=True,
        )
        p = T1Params(nae(2, 2), (0, 1), g)
        with pytest.raises(PreconditionError):
            t1_completeness_witness(p, [Labeling((0,), (0,))])

    def test_rejects_mismatched_labeling_shape(self):
        p = params_single_edge()
        with pytest.raises(PreconditionError):
            t1_completeness_witness(p, [Labeling((0, 0), (0,))])

    @pytest.mark.parametrize("left, right, side", [
        ((0,), (5,), "right"), ((0,), (-1,), "right"), ((5,), (0,), "left"),
    ], ids=["right5", "right-1", "left5"])
    def test_rejects_labels_outside_their_range(self, left, right, side):
        # One edge with L = R = 1: a right label of 5 used to index past the
        # projection, -1 to read it from the end, and a left label of 5 to
        # pass for a labeling that does not cover.
        p = params_single_edge()
        with pytest.raises(PreconditionError, match=side + " labels outside"):
            t1_completeness_witness(p, [Labeling(left, right)])


class TestSampling:
    def test_sampled_instance_shape(self):
        p = params_single_edge()
        inst = sample_t1(p, 20, seed=5)
        assert len(inst.constraints) <= 20
        assert inst.total_weight() == 1
        S = set(t1_column_support(2, 2, (0, 1)))
        for c in inst.constraints:
            p1 = inst.variables[c.vars[0]][1]
            p2 = inst.variables[c.vars[1]][1]
            assert ((p1[0], p2[0]), (p1[1], p2[1])) in S

    def test_seed_determinism(self):
        p = params_single_edge()
        a = sample_t1(p, 15, seed=9)
        b = sample_t1(p, 15, seed=9)
        assert a.constraints == b.constraints

    def test_rejects_nonpositive_count(self):
        with pytest.raises(PreconditionError):
            sample_t1(params_single_edge(), 0, seed=1)


class TestTableCap:
    """R = 13 puts 2^26 points on each right vertex's grid, above the full
    table cap, so both modes refuse before building a variable list."""

    def params(self):
        return T1Params(nae(2, 2), (0, 1), identity_source(13))

    def test_generate_refuses(self):
        with pytest.raises(PreconditionError, match="full tables are capped"):
            generate_t1(self.params(), support_cap=10**40)

    def test_sample_refuses(self):
        with pytest.raises(PreconditionError, match="full tables are capped"):
            sample_t1(self.params(), 1, seed=1)


class TestDecode:
    def test_dictators_recover_the_labeling(self):
        g = identity_source(2, nv=2)
        lab = Labeling((1,), (1, 1))
        p = T1Params(nae(2, 2), (0, 1), g)
        tables = t1_dictator_tables(p, lab)
        res = decode_t1(tables, g, Fraction(1, 4), 2, seed=0)
        assert res.value == 1
        assert res.labeling == lab
        assert res.lab_sizes_left == (1,)
        assert res.lab_sizes_right == (1, 1)
        assert res.sizes_ok

    def test_constant_tables_fall_back_to_label_zero(self):
        g = identity_source(2)
        dom = ProductDomain((2,) * 4)
        tables = {0: TabulatedFunction(dom, [0] * dom.size)}
        res = decode_t1(tables, g, Fraction(1, 4), 2, seed=3)
        assert res.lab_sizes_left == (0,)
        assert res.lab_sizes_right == (0,)
        assert res.labeling == Labeling((0,), (0,))

    def test_size_bound_on_random_tables(self):
        rng = random.Random(77)
        g = identity_source(2)
        dom = ProductDomain((2,) * 4)
        for _ in range(10):
            tables = {
                0: TabulatedFunction(
                    dom, [rng.randrange(2) for _ in range(dom.size)]
                )
            }
            res = decode_t1(tables, g, Fraction(1, 8), 1, seed=1)
            assert res.size_bound == 16
            assert res.sizes_ok

    def test_seed_determinism(self):
        rng = random.Random(78)
        g = identity_source(2, nv=2)
        dom = ProductDomain((2,) * 4)
        tables = {
            v: TabulatedFunction(
                dom, [rng.randrange(2) for _ in range(dom.size)]
            )
            for v in range(2)
        }
        r1 = decode_t1(tables, g, Fraction(1, 2), 1, seed=11)
        r2 = decode_t1(tables, g, Fraction(1, 2), 1, seed=11)
        assert r1.labeling == r2.labeling

    def test_rejects_bad_parameters(self):
        g = identity_source(1)
        p = T1Params(nae(2, 2), (0, 1), g)
        tables = t1_dictator_tables(p, Labeling((0,), (0,)))
        with pytest.raises(PreconditionError):
            decode_t1(tables, g, 0, 1, seed=0)
        with pytest.raises(PreconditionError):
            decode_t1(tables, g, Fraction(1, 2), 0, seed=0)
        nonunique = LabelCoverInstance(1, 1, 1, 2, [Edge(0, 0, (0, 0))])
        with pytest.raises(PreconditionError):
            decode_t1(tables, nonunique, Fraction(1, 2), 1, seed=0)


@given(st.data(), st.integers(1, 3), st.integers(1, 4))
def test_lift_places_index_the_composed_point(data, L, R):
    # Any map [R] -> [L], any mixed radix: the dot product with the lift's
    # places is the index of the composed point.
    proj = data.draw(st.lists(st.integers(0, L - 1), min_size=R, max_size=R))
    dom = ProductDomain(data.draw(
        st.lists(st.integers(2, 3), min_size=2 * R, max_size=2 * R)))
    y = data.draw(st.lists(st.integers(0, 1), min_size=2 * L,
                           max_size=2 * L))
    places = [dom.stride(j) for j in range(2 * R)]
    assert dom.index(compose_projection(y, proj)) == sum(
        map(mul, y, _lift_places(proj, L, places)))


@st.composite
def unique_sources(draw):
    """Unique games with 1-2 vertices a side and L <= 2, every left vertex
    with an edge."""
    nu, nv, n = (draw(st.integers(1, 2)) for _ in range(3))
    perms = st.permutations(range(n))
    edges = [Edge(u, draw(st.integers(0, nv - 1)), draw(perms))
             for u in range(nu)]
    edges += [Edge(draw(st.integers(0, nu - 1)), draw(st.integers(0, nv - 1)),
                   draw(perms)) for _ in range(draw(st.integers(0, 1)))]
    return LabelCoverInstance(nu, nv, n, n, edges, unique=True)


@given(unique_sources(), st.sampled_from([
    (2, (0, 1)), (2, (0, 0, 1)), (3, (0, 1)), (3, (0, 2)),
]))
def test_generate_matches_composed_oracle(g, case):
    q, a = case
    p = T1Params(nae(q, len(a)), a, g)
    inst = generate_t1(p)
    weights = [Fraction(m, inst.denominator) for m in inst.numerators]
    assert list(zip(inst.scopes, weights)) == list(
        oracles.reference_t1_weights(p).items())
    assert set(inst.literals) == {(0,) * len(a)}
