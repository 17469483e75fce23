import itertools
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspcover import (
    Budget,
    BudgetExceededError,
    Edge,
    LabelCoverInstance,
    Labeling,
    PreconditionError,
    edge_satisfied,
    is_c_coverable,
    max_satisfiable,
    satisfied_fraction,
    smoothness_profile,
    synthesize,
)

import oracles


def contradictory_pair():
    """One left vertex, one right vertex, two edges with clashing bijections."""
    return LabelCoverInstance(
        1,
        1,
        2,
        2,
        [Edge(0, 0, (0, 1)), Edge(0, 0, (1, 0))],
        unique=True,
    )


def random_unique_game(rng, nu=2, nv=3, labels=3):
    edges = []
    for u in range(nu):
        for v in range(nv):
            perm = list(range(labels))
            rng.shuffle(perm)
            edges.append(Edge(u, v, perm))
    return LabelCoverInstance(nu, nv, labels, labels, edges, unique=True)


class TestConstruction:
    def test_rejects_projection_out_of_range(self):
        with pytest.raises(PreconditionError):
            LabelCoverInstance(1, 1, 2, 2, [Edge(0, 0, (0, 5))])

    def test_rejects_short_projection(self):
        with pytest.raises(PreconditionError):
            LabelCoverInstance(1, 1, 2, 3, [Edge(0, 0, (0, 1))])

    def test_unique_requires_bijections(self):
        with pytest.raises(PreconditionError):
            LabelCoverInstance(
                1, 1, 2, 2, [Edge(0, 0, (0, 0))], unique=True
            )

    def test_unique_requires_square_alphabets(self):
        with pytest.raises(PreconditionError):
            LabelCoverInstance(
                1, 1, 1, 2, [Edge(0, 0, (0, 0))], unique=True
            )

    def test_parallel_edges_are_kept(self):
        g = contradictory_pair()
        assert len(g.edges) == 2

    def test_rejects_bad_endpoint(self):
        with pytest.raises(PreconditionError):
            LabelCoverInstance(1, 1, 2, 2, [Edge(0, 3, (0, 1))])

    def test_adjacency_follows_the_edges(self):
        g = LabelCoverInstance(
            2_000_000, 2_000_000, 2, 2,
            [Edge(7, 5, (0, 1)), Edge(7, 9, (1, 0)), Edge(3, 5, (0, 0))],
        )
        assert g.edges_at_u(7) == (0, 1) and g.edges_at_u(3) == (2,)
        assert g.edges_at_v(5) == (0, 2) and g.edges_at_v(9) == (1,)
        assert g.edges_at_u(0) == g.edges_at_v(1_999_999) == ()


class TestSatisfiedFraction:
    def test_single_consistent_edge(self):
        g = LabelCoverInstance(1, 1, 2, 2, [Edge(0, 0, (1, 0))])
        lab = Labeling((1,), (0,))
        assert edge_satisfied(g, lab, 0)
        assert satisfied_fraction(g, lab) == 1

    def test_identity_projections_with_equal_labels(self):
        edges = [Edge(u, v, (0, 1, 2)) for u in range(2) for v in range(2)]
        g = LabelCoverInstance(2, 2, 3, 3, edges, unique=True)
        lab = Labeling((2, 2), (2, 2))
        assert satisfied_fraction(g, lab) == 1

    def test_matches_edge_by_edge_recount(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_unique_game(rng)
            left = tuple(rng.randrange(3) for _ in range(g.nu))
            right = tuple(rng.randrange(3) for _ in range(g.nv))
            expected = Fraction(
                oracles.count_satisfied_edges(g, left, right), len(g.edges)
            )
            assert satisfied_fraction(g, Labeling(left, right)) == expected

    def test_rejects_partial_labeling(self):
        g = contradictory_pair()
        with pytest.raises(PreconditionError):
            satisfied_fraction(g, Labeling((0,), ()))


class TestMaxSatisfiable:
    def test_coverable_instance_reaches_one(self):
        g = synthesize(
            "unique-consistent", nu=2, nv=3, nlabels_u=3, nlabels_v=3, seed=1
        )
        value, witness = max_satisfiable(g)
        assert value == 1
        assert satisfied_fraction(g, witness) == 1

    def test_contradictory_pair_reaches_half(self):
        value, _ = max_satisfiable(contradictory_pair())
        assert value == Fraction(1, 2)

    def test_matches_exhaustive_recount(self):
        rng = random.Random(9)
        for _ in range(5):
            g = random_unique_game(rng, nu=2, nv=2, labels=2)
            value, _ = max_satisfiable(g)
            assert value == oracles.brute_max_satisfiable(g)

    def test_budget_exhaustion(self):
        rng = random.Random(2)
        g = random_unique_game(rng, nu=3, nv=3, labels=3)
        with pytest.raises(BudgetExceededError):
            max_satisfiable(g, budget=5)

    def test_relabeling_both_sides_preserves_the_optimum(self):
        rng = random.Random(13)
        g = random_unique_game(rng, nu=2, nv=2, labels=3)
        sigma = [2, 0, 1]
        tau = [1, 2, 0]
        edges = [
            Edge(e.u, e.v, tuple(tau[e.proj[sigma[j]]] for j in range(3)))
            for e in g.edges
        ]
        h = LabelCoverInstance(2, 2, 3, 3, edges, unique=True)
        assert max_satisfiable(g)[0] == max_satisfiable(h)[0]

    def test_only_vertices_with_edges_are_walked(self, deadline):
        # One edge among 2M + 2M declared vertices: the two labelings of
        # its left vertex are walked, not 2^2M.
        g = LabelCoverInstance(2_000_000, 2_000_000, 2, 2, [Edge(0, 0, (0, 1))])
        with deadline(2):
            value, witness = max_satisfiable(g)
        assert value == 1
        assert not any(witness.left) and not any(witness.right)


# Seeded games with max_satisfiable's value, witness labeling and budget.
# Several right vertices tie between labels; each takes the least.
PINNED_MAX_SATISFIABLE = [
    (("unique-consistent", dict(nu=2, nv=3, nlabels_u=3, nlabels_v=3, seed=1)),
     1, (0, 2), (0, 1, 0), 27),
    (("unique-consistent", dict(nu=2, nv=3, nlabels_u=3, nlabels_v=3, seed=0)),
     1, (1, 1), (0, 1, 2), 27),
    (("unique-2-cover", dict(nu=2, nv=4, nlabels_u=2, nlabels_v=2, seed=8)),
     Fraction(3, 4), (0, 0), (0, 0, 0, 0), 16),
    (("dto1-random", dict(nu=2, nv=3, nlabels_u=2, nlabels_v=4, seed=42)),
     1, (0, 0), (1, 2, 1), 12),
    (("dto1-random", dict(nu=3, nv=3, nlabels_u=2, nlabels_v=4, seed=7)),
     Fraction(8, 9), (0, 1, 0), (1, 1, 1), 24),
    (("dto1-contradictory", dict(nu=2, nv=2, nlabels_u=2, nlabels_v=4, seed=5)),
     Fraction(3, 4), (0, 0), (0, 2), 8),
    (2, Fraction(7, 9), (0, 2, 2), (0, 2, 2), 81),
    (13, Fraction(8, 9), (0, 2, 1), (0, 1, 1), 81),
]


@pytest.mark.parametrize("source, value, left, right, used",
                         PINNED_MAX_SATISFIABLE)
def test_max_satisfiable_witness_and_budget_are_pinned(
        source, value, left, right, used):
    if isinstance(source, int):
        g = random_unique_game(random.Random(source), nu=3, nv=3, labels=3)
    else:
        kind, kwargs = source
        g = synthesize(kind, **kwargs)
    budget = Budget()
    assert max_satisfiable(g, budget) == (value, Labeling(left, right))
    assert budget.used == used


@pytest.mark.parametrize("c", [2.5, 2.0, "2", None, float("nan")])
def test_c_must_be_an_integer(c):
    g = synthesize(
        "unique-2-cover", nu=2, nv=4, nlabels_u=2, nlabels_v=2, seed=8
    )
    budget = Budget()
    with pytest.raises(PreconditionError,
                       match="c %s is not an integer" % re.escape(repr(c))):
        is_c_coverable(g, c, budget)
    assert budget.used == 0


class TestCoverability:
    def test_consistent_instance_is_one_coverable(self):
        g = synthesize(
            "unique-consistent", nu=2, nv=3, nlabels_u=2, nlabels_v=2, seed=4
        )
        labs = is_c_coverable(g, 1)
        assert labs is not None and len(labs) == 1
        assert satisfied_fraction(g, labs[0]) == 1

    def test_one_coverable_means_fully_satisfiable(self):
        for seed in range(5):
            g = synthesize(
                "unique-consistent",
                nu=2,
                nv=2,
                nlabels_u=2,
                nlabels_v=2,
                seed=seed,
            )
            if is_c_coverable(g, 1) is not None:
                assert max_satisfiable(g)[0] == 1

    def test_two_overlaid_consistent_instances_need_two_labelings(self):
        g = synthesize(
            "unique-2-cover", nu=2, nv=4, nlabels_u=2, nlabels_v=2, seed=8
        )
        assert is_c_coverable(g, 1) is None
        labs = is_c_coverable(g, 2)
        assert labs is not None and len(labs) == 2
        for u in range(g.nu):
            eids = g.edges_at_u(u)
            assert any(
                all(edge_satisfied(g, lab, e) for e in eids) for lab in labs
            )

    def test_contradictory_single_vertex_is_not_coverable(self):
        assert is_c_coverable(contradictory_pair(), 1) is None

    @pytest.mark.parametrize("m", [6, 9])
    def test_a_vertex_unsatisfiable_alone_ends_the_search(self, m):
        # Left vertices 0-2 each carry two clashing bijections to right
        # vertex 0, and m more have one edge each to their own right vertex.
        # Every partition used to be walked: 786,432 budget units at m = 6
        # and 50,331,648 (71 s) at m = 9. Vertex 0 alone now ends it: three
        # left labels, each trying the three right labels.
        clash = [Edge(u, 0, p) for u in range(3)
                 for p in ((0, 1, 2), (1, 2, 0))]
        own = [Edge(3 + i, 1 + i, (0, 1, 2)) for i in range(m)]
        g = LabelCoverInstance(3 + m, 1 + m, 3, 3, clash + own)
        got, want = Budget(), Budget()
        start = time.perf_counter()
        assert is_c_coverable(g, 2, got) is None
        assert time.perf_counter() - start <= 1
        assert oracles.reference_is_c_coverable(g, 2, want) is None
        assert got.used == want.used == 12

    def test_witness_labelings_cover_each_left_vertex(self):
        g = synthesize(
            "unique-consistent", nu=3, nv=3, nlabels_u=2, nlabels_v=2, seed=2
        )
        labs = is_c_coverable(g, 2)
        assert labs is not None and len(labs) == 2
        for u in range(g.nu):
            eids = g.edges_at_u(u)
            assert any(
                all(edge_satisfied(g, lab, e) for e in eids) for lab in labs
            )


@st.composite
def small_games(draw):
    nu, nv = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    nl, nr = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    edges = draw(st.lists(st.builds(
        Edge, st.integers(0, nu - 1), st.integers(0, nv - 1),
        st.lists(st.integers(0, nl - 1), min_size=nr, max_size=nr),
    ), max_size=6))
    return LabelCoverInstance(nu, nv, nl, nr, edges)


class TestCoverSearchAgainstReference:
    """The iterative search returns the labelings of the recursive reference
    and spends the same budget, down to where a small budget runs out."""

    @settings(max_examples=300, deadline=None)
    @given(small_games(), st.integers(1, 3), st.integers(1, 60))
    def test_same_labelings_and_budget(self, g, c, limit):
        for budget_limit in (None, limit):
            got, want = Budget(budget_limit), Budget(budget_limit)
            outcomes = []
            for search, budget in ((is_c_coverable, got),
                                   (oracles.reference_is_c_coverable, want)):
                try:
                    outcomes.append(search(g, c, budget))
                except BudgetExceededError:
                    outcomes.append("budget")
            assert outcomes[0] == outcomes[1]
            assert got.used == want.used

    def test_many_left_vertices_do_not_recurse(self):
        # 20,000 left vertices on one right vertex, L = R = 1: one class of
        # 20,000 vertices, far past the interpreter's recursion limit.
        n = 20_000
        edges = [Edge(u, 0, (0,)) for u in range(n)]
        g = LabelCoverInstance(n, 1, 1, 1, edges)
        labs = is_c_coverable(g, 1)
        assert labs == [Labeling([0] * n, [0])]


class TestSmoothness:
    def test_injective_projections(self):
        g = synthesize(
            "unique-consistent", nu=2, nv=2, nlabels_u=3, nlabels_v=3, seed=6
        )
        assert smoothness_profile(g, 0, [0, 1]) == Fraction(1, 2)
        assert smoothness_profile(g, 1, [0, 1, 2]) == Fraction(1, 3)

    def test_constant_projections(self):
        g = LabelCoverInstance(
            2, 1, 2, 3, [Edge(0, 0, (0, 0, 0)), Edge(1, 0, (1, 1, 1))]
        )
        assert smoothness_profile(g, 0, [0, 1, 2]) == 1

    def test_matches_direct_average(self):
        g = synthesize(
            "dto1-random", nu=3, nv=3, nlabels_u=2, nlabels_v=4, seed=7
        )
        for v in range(g.nv):
            for r in range(1, 5):
                for alpha in itertools.combinations(range(4), r):
                    eids = g.edges_at_v(v)
                    direct = sum(
                        Fraction(
                            1,
                            len({g.edges[e].proj[j] for j in alpha}),
                        )
                        for e in eids
                    ) / len(eids)
                    got = smoothness_profile(g, v, alpha)
                    assert got == direct
                    assert Fraction(1, len(alpha)) <= got <= 1

    def test_rejects_empty_alpha(self):
        g = contradictory_pair()
        with pytest.raises(PreconditionError):
            smoothness_profile(g, 0, [])

    def test_rejects_isolated_vertex(self):
        g = LabelCoverInstance(1, 2, 2, 2, [Edge(0, 0, (0, 1))])
        with pytest.raises(PreconditionError):
            smoothness_profile(g, 1, [0])


class TestSynthesize:
    def test_consistent_kind_is_satisfiable(self):
        g = synthesize(
            "unique-consistent", nu=2, nv=3, nlabels_u=3, nlabels_v=3, seed=0
        )
        assert g.unique
        assert max_satisfiable(g)[0] == 1

    def test_dto1_fibers_have_equal_size(self):
        g = synthesize(
            "dto1-random", nu=2, nv=3, nlabels_u=2, nlabels_v=4, seed=3
        )
        for e in g.edges:
            for i in range(2):
                assert sum(1 for x in e.proj if x == i) == 2

    def test_contradictory_kind_is_less_than_satisfiable(self):
        g = synthesize(
            "dto1-contradictory",
            nu=2,
            nv=2,
            nlabels_u=2,
            nlabels_v=4,
            seed=5,
        )
        assert max_satisfiable(g)[0] < 1

    def test_deterministic_given_seed(self):
        a = synthesize(
            "dto1-random", nu=2, nv=3, nlabels_u=2, nlabels_v=4, seed=42
        )
        b = synthesize(
            "dto1-random", nu=2, nv=3, nlabels_u=2, nlabels_v=4, seed=42
        )
        assert [(e.u, e.v, e.proj) for e in a.edges] == [
            (e.u, e.v, e.proj) for e in b.edges
        ]

    def test_rejects_infeasible_shapes(self):
        with pytest.raises(PreconditionError):
            synthesize(
                "dto1-random", nu=1, nv=1, nlabels_u=3, nlabels_v=4, seed=0
            )
        with pytest.raises(PreconditionError):
            synthesize(
                "unique-consistent",
                nu=1,
                nv=1,
                nlabels_u=2,
                nlabels_v=3,
                seed=0,
            )

    def test_degree_parameter_limits_neighbors(self):
        g = synthesize(
            "unique-consistent",
            nu=2,
            nv=4,
            nlabels_u=2,
            nlabels_v=2,
            degree=2,
            seed=9,
        )
        for u in range(2):
            assert len(g.edges_at_u(u)) == 2
