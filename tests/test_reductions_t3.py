import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from cspcover import (
    Budget,
    BudgetExceededError,
    CoverSet,
    Edge,
    LabelCoverInstance,
    Labeling,
    PreconditionError,
    ProductDomain,
    T1Params,
    T3Params,
    TabulatedFunction,
    binary_dictator_tables,
    covered_fraction,
    decode_t3,
    generate_t3,
    lin,
    nae,
    sample_t3,
    t3_completeness_witness,
    t1_dictator_tables,
    t3_delta_table,
)
from cspcover.reductions import _t3_offsets


def one_label_source(nv=1):
    edges = [Edge(0, v, (0,)) for v in range(nv)]
    return LabelCoverInstance(1, nv, 1, 1, edges, unique=True)


def two_label_source():
    return LabelCoverInstance(1, 1, 2, 2, [Edge(0, 0, (0, 1))], unique=True)


class TestParams:
    def test_accepts_open_interval(self):
        for eps in (Fraction(1, 8), Fraction(1, 2), Fraction(3, 4)):
            assert T3Params(eps, one_label_source()).eps == eps

    def test_rejects_boundary_noise(self):
        for eps in (0, 1, Fraction(5, 4)):
            with pytest.raises(PreconditionError):
                T3Params(eps, one_label_source())


class TestDeltaTable:
    def test_offsets_sum_to_one(self):
        g = one_label_source()
        table = t3_delta_table(g, 0, 0, Fraction(1, 4))
        assert sum(table.values()) == 1
        for dv, dw in table:
            assert len(dv) == 2 and len(dw) == 2

    def test_matching_offsets_mass(self):
        # The two offsets agree unless a noise case hits and its masked bit
        # actually flips: equal with probability (1-2e) + 2e/2 = 1-e.
        g = one_label_source()
        for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
            table = t3_delta_table(g, 0, 0, eps)
            agree = sum(w for (dv, dw), w in table.items() if dv == dw)
            assert agree == 1 - eps

    def test_noise_cases_never_touch_both_halves(self):
        g = one_label_source()
        table = t3_delta_table(g, 0, 0, Fraction(1, 2))
        for (dv, dw), w in table.items():
            diff = tuple(a ^ b for a, b in zip(dv, dw))
            assert diff != (1, 1)

    def test_first_offset_marginal_is_uniform(self):
        g = one_label_source()
        table = t3_delta_table(g, 0, 0, Fraction(1, 4))
        marg = {}
        for (dv, _dw), w in table.items():
            marg[dv] = marg.get(dv, Fraction(0)) + w
        assert all(w == Fraction(1, 4) for w in marg.values())

    def test_budget_exceeded(self):
        g = one_label_source()
        with pytest.raises(BudgetExceededError):
            t3_delta_table(g, 0, 0, Fraction(1, 4), budget=2)


@st.composite
def dto1_games(draw):
    """d-to-1 games with L <= 2 and R = d L <= 4: 1-2 vertices a side and
    1-3 edges, each projection a random arrangement of the fibers."""
    L = draw(st.integers(1, 2))
    d = draw(st.integers(1, 4 // L))
    nu, nv = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    fibers = [i for i in range(L) for _ in range(d)]
    edges = [Edge(draw(st.integers(0, nu - 1)), draw(st.integers(0, nv - 1)),
                  draw(st.permutations(fibers)))
             for _ in range(draw(st.integers(1, 3)))]
    return LabelCoverInstance(nu, nv, L, L * d, edges)


NOISE = st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 3),
                         Fraction(1, 2)])


def table_or_error(fn, *args):
    try:
        return list(fn(*args).items())
    except BudgetExceededError as exc:
        return str(exc)


class TestDeltaTableOracle:
    """The offsets, enumerated on index masks, against the tuple oracle."""

    @given(dto1_games(), st.data(), NOISE,
           st.one_of(st.none(), st.integers(1, 100)))
    def test_table_and_budget_are_the_oracles(self, g, data, eps, limit):
        ev, ew = (data.draw(st.integers(0, len(g.edges) - 1))
                  for _ in range(2))
        got, want = Budget(limit), Budget(limit)
        table = table_or_error(t3_delta_table, g, ev, ew, eps, got)
        assert table == table_or_error(
            oracles.reference_t3_delta_table, g, ev, ew, eps, want)
        assert got.used == want.used

    @given(dto1_games(), st.data(), NOISE)
    def test_offset_indices_put_coordinate_j_at_bit_j(self, g, data, eps):
        ev, ew = (data.draw(st.integers(0, len(g.edges) - 1))
                  for _ in range(2))
        dom = ProductDomain((2,) * (2 * g.nlabels_v))
        items, den = _t3_offsets(g, ev, ew, eps, None)
        table = oracles.reference_t3_delta_table(g, ev, ew, eps)
        assert [((mv, mw), Fraction(w, den)) for (mv, mw), w in items] == [
            ((dom.index(dv), dom.index(dw)), w)
            for (dv, dw), w in table.items()
        ]


class TestGenerate:
    def test_shape_and_literals(self):
        inst = generate_t3(T3Params(Fraction(1, 4), one_label_source()))
        assert inst.nvars == 4
        assert inst.total_weight() == 1
        assert inst.predicate == lin(4)
        for c in inst.constraints:
            assert c.literals == (0, 0, 0, 1)
            assert len(c.vars) == 4
            for v in c.vars:
                assert 0 <= v < 4

    def test_parity_predicate_weakens_into_not_all_equal(self):
        inst = generate_t3(T3Params(Fraction(1, 4), one_label_source()))
        assert inst.predicate.issubset(nae(2, 4))

    def test_two_right_vertices(self):
        inst = generate_t3(T3Params(Fraction(1, 8), one_label_source(nv=2)))
        assert inst.nvars == 8
        assert inst.total_weight() == 1

    def test_budget_and_cap(self):
        p = T3Params(Fraction(1, 4), one_label_source())
        with pytest.raises(BudgetExceededError):
            generate_t3(p, budget=2)
        with pytest.raises(BudgetExceededError):
            generate_t3(p, support_cap=2)


class TestCompletenessWitness:
    def test_single_edge_fractions(self):
        eps = Fraction(1, 4)
        p = T3Params(eps, one_label_source())
        inst = generate_t3(p)
        f, g = t3_completeness_witness(p, Labeling((0,), (0,)), inst)
        cf = covered_fraction(CoverSet([f]), inst)
        cg = covered_fraction(CoverSet([g]), inst)
        assert cf == cg == 1 - eps / 2
        assert cf >= 1 - eps
        assert covered_fraction(CoverSet([f, g]), inst) == 1

    def test_eighth_noise_fraction(self):
        eps = Fraction(1, 8)
        p = T3Params(eps, one_label_source())
        inst = generate_t3(p)
        f, _g = t3_completeness_witness(p, Labeling((0,), (0,)), inst)
        assert covered_fraction(CoverSet([f]), inst) == Fraction(15, 16)

    def test_degenerate_noise_still_covers(self):
        p = T3Params(Fraction(1, 2), one_label_source())
        inst = generate_t3(p)
        f, g = t3_completeness_witness(p, Labeling((0,), (0,)), inst)
        assert covered_fraction(CoverSet([f, g]), inst) == 1

    def test_rejects_unsatisfying_labeling(self):
        p = T3Params(Fraction(1, 4), two_label_source())
        with pytest.raises(PreconditionError):
            t3_completeness_witness(p, Labeling((0,), (1,)))


class TestDecode:
    def test_dictator_tables_read_the_labelled_coordinate(self):
        # Each table is x -> x[offset + label(v)], the digit of the point
        # index at that coordinate, plain half or shifted half.
        g = LabelCoverInstance(1, 2, 2, 2, [Edge(0, 0, (0, 1)),
                                            Edge(0, 1, (1, 0))], unique=True)
        lab = Labeling((0,), (0, 1))
        p1 = T1Params(nae(3, 2), (0, 1), g)
        for tables, q, off in (
            (binary_dictator_tables(g, lab), 2, 0),
            (binary_dictator_tables(g, lab, shifted=True), 2, 2),
            (t1_dictator_tables(p1, lab), 3, 0),
        ):
            dom = ProductDomain((q,) * 4)
            for v, f in tables.items():
                assert f.domain == dom
                assert f.values == tuple(
                    dom.point(p)[off + lab.right[v]] for p in range(dom.size))

    def test_dictators_recover_the_labeling(self):
        g = two_label_source()
        lab = Labeling((1,), (1,))
        tables = binary_dictator_tables(g, lab)
        for seed in range(5):
            res = decode_t3(tables, g, seed=seed)
            assert res.value == 1
            assert res.labeling == lab

    def test_two_point_parity_samples_from_its_index_set(self):
        g = two_label_source()
        dom = ProductDomain.binary_uniform(4)
        f = TabulatedFunction(
            dom, [dom.point(p)[0] ^ dom.point(p)[3] for p in range(16)]
        )
        tables = {0: f}
        for seed in range(10):
            res = decode_t3(tables, g, seed=seed)
            assert res.labeling.right[0] in (0, 1)
            assert res.labeling.left[0] in (0, 1)

    def test_constant_tables_fall_back(self):
        g = two_label_source()
        dom = ProductDomain.binary_uniform(4)
        tables = {0: TabulatedFunction(dom, [1] * 16)}
        res = decode_t3(tables, g, seed=2)
        assert res.labeling == Labeling((0,), (0,))

    def test_sign_tables_decode_as_their_bits(self):
        g = two_label_source()
        rng = random.Random(5)
        dom = ProductDomain.binary_uniform(4)
        for bits in (binary_dictator_tables(g, Labeling((1,), (1,))), {
            0: TabulatedFunction(dom, [0, 1] + [rng.randrange(2)
                                                for _ in range(14)])
        }):
            signs = {v: TabulatedFunction(f.domain, (1 - 2 * x
                                                     for x in f.values))
                     for v, f in bits.items()}
            for seed in range(4):
                a = decode_t3(bits, g, seed=seed)
                b = decode_t3(signs, g, seed=seed)
                assert (a.labeling, a.value) == (b.labeling, b.value)

    def test_seed_determinism(self):
        g = two_label_source()
        rng = random.Random(5)
        dom = ProductDomain.binary_uniform(4)
        tables = {
            0: TabulatedFunction(dom, [rng.randrange(2) for _ in range(16)])
        }
        assert (
            decode_t3(tables, g, seed=42).labeling
            == decode_t3(tables, g, seed=42).labeling
        )


class TestSampling:
    def test_shape_and_determinism(self):
        p = T3Params(Fraction(1, 4), one_label_source())
        a = sample_t3(p, 30, seed=6)
        b = sample_t3(p, 30, seed=6)
        assert a.constraints == b.constraints
        assert a.total_weight() == 1
        for c in a.constraints:
            assert c.literals == (0, 0, 0, 1)
            assert (c.weight * 30).denominator == 1

    def test_rejects_nonpositive_count(self):
        p = T3Params(Fraction(1, 4), one_label_source())
        with pytest.raises(PreconditionError):
            sample_t3(p, 0, seed=1)
