import functools
import inspect
import itertools
import math
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import networkx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspcover import (
    Assignment,
    Budget,
    BudgetExceededError,
    Constraint,
    CoverSet,
    CspInstance,
    Edge,
    LabelCoverInstance,
    Predicate,
    PreconditionError,
    RejectionIdentityResult,
    T1Params,
    T2Params,
    T3Params,
    apply_literal_shift,
    cnf,
    cover_to_coloring,
    covered_fraction,
    covered_fractions,
    covering_number,
    covers_constraint,
    find_cover,
    full,
    is_odd,
    lin,
    max_independent_set,
    nae,
    rejection_identity_check,
    shift,
    sub_tuples,
    synthesize,
    translate_assignment,
    trivial_odd_cover,
    weaken_predicate,
)
import cspcover.search as search_module
from cspcover.csp import _Columns
from cspcover.errors import GuaranteeError
from cspcover.search import _cover_search, _coverage_masks
from cspcover import reductions
from cspcover import textio
from cspcover.predicate import add_tuples

import oracles


def graph_instance(n, edges, weight=1):
    return CspInstance(
        nae(2, 2), range(n), [(e, (0, 0), weight) for e in edges]
    )


TRIANGLE = graph_instance(3, [(0, 1), (1, 2), (0, 2)])
K4 = graph_instance(4, list(itertools.combinations(range(4), 2)))


def random_odd_instance(rng, nvars=6):
    while True:
        k = rng.choice((2, 3))
        members = [
            t
            for t in itertools.product((0, 1), repeat=k)
            if rng.random() < 0.5
        ]
        if not members:
            continue
        p = Predicate(2, k, members)
        if is_odd(p):
            break
    cons = []
    for _ in range(rng.randrange(1, 7)):
        vars_ = tuple(rng.sample(range(nvars), k))
        lits = tuple(rng.randrange(2) for _ in range(k))
        cons.append((vars_, lits, Fraction(rng.randrange(1, 4))))
    return CspInstance(p, range(nvars), cons)


class TestInstanceConstruction:
    def test_duplicate_constraints_merge_weights(self):
        inst = CspInstance(
            nae(2, 2),
            range(2),
            [((0, 1), (0, 0), 1), ((0, 1), (0, 0), 2)],
        )
        assert len(inst.constraints) == 1
        assert inst.constraints[0].weight == 3

    def test_rejects_bad_variable_index(self):
        with pytest.raises(PreconditionError):
            CspInstance(nae(2, 2), range(2), [((0, 5), (0, 0), 1)])

    def test_rejects_bad_literal(self):
        with pytest.raises(PreconditionError):
            CspInstance(nae(2, 2), range(2), [((0, 1), (0, 2), 1)])

    def test_rejects_negative_weight(self):
        with pytest.raises(PreconditionError):
            CspInstance(nae(2, 2), range(2), [((0, 1), (0, 0), -1)])

    def test_rejects_all_zero_weights(self):
        with pytest.raises(PreconditionError):
            CspInstance(nae(2, 2), range(2), [((0, 1), (0, 0), 0)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(PreconditionError):
            CspInstance(nae(2, 2), range(3), [((0, 1, 2), (0, 0), 1)])

    def test_empty_constraint_list_allowed(self):
        inst = CspInstance(nae(2, 2), range(3), [])
        assert inst.nvars == 3 and not inst.constraints

    def test_opaque_variable_labels(self):
        inst = CspInstance(
            nae(2, 2), ["a", "b"], [((0, 1), (0, 0), 1)]
        )
        assert inst.var_index("b") == 1

    def test_range_variables_are_kept_and_indexed_on_first_use(self):
        inst = CspInstance(nae(2, 2), range(2, 5), [((0, 2), (0, 0), 1)])
        assert inst.variables == range(2, 5) and inst.nvars == 3
        assert inst._index is None
        assert inst.var_index(4) == 2 and inst.var_index(2) == 0
        with pytest.raises(KeyError):
            inst.var_index(5)
        with pytest.raises(PreconditionError, match="duplicate"):
            CspInstance(nae(2, 2), [0, 1, 0], [])


class TestCoversConstraint:
    def test_parity_one_satisfies_odd_parity(self):
        inst = CspInstance(lin(3), range(3), [((0, 1, 2), (0, 0, 0), 1)])
        assert covers_constraint(Assignment((1, 0, 0)), inst, 0)

    def test_literal_flips_parity(self):
        inst = CspInstance(lin(3), range(3), [((0, 1, 2), (1, 0, 0), 1)])
        assert not covers_constraint(Assignment((1, 0, 0)), inst, 0)

    def test_literals_shift_values_into_membership(self):
        inst = CspInstance(nae(2, 2), range(2), [((0, 1), (0, 1), 1)])
        assert covers_constraint(Assignment((0, 0)), inst, 0)

    def test_rejects_partial_assignment(self):
        with pytest.raises(PreconditionError):
            covers_constraint(Assignment((0,)), TRIANGLE, 0)

    def test_invariant_under_joint_translation(self):
        rng = random.Random(7)
        for _ in range(25):
            inst = random_odd_instance(rng, nvars=4)
            q, k = 2, inst.predicate.k
            a = Assignment(tuple(rng.randrange(q) for _ in range(4)))
            b = rng.randrange(q)
            shifted_inst = apply_literal_shift(
                inst, tuple((-b) % q for _ in range(k))
            )
            shifted_a = translate_assignment(a, b, q)
            for idx in range(len(inst.constraints)):
                assert covers_constraint(a, inst, idx) == covers_constraint(
                    shifted_a, shifted_inst, idx
                )


class TestCoveredFraction:
    def test_empty_constraints_count_as_covered(self):
        inst = CspInstance(nae(2, 2), range(2), [])
        assert covered_fraction(CoverSet([Assignment((0, 0))]), inst) == 1

    def test_empty_predicate_is_uncoverable(self):
        p = Predicate(2, 2, [])
        inst = CspInstance(p, range(2), [((0, 1), (0, 0), 1)])
        assert covered_fraction(CoverSet([Assignment((0, 1))]), inst) == 0

    def test_weights_enter_the_fraction(self):
        inst = CspInstance(
            nae(2, 2),
            range(3),
            [((0, 1), (0, 0), 3), ((1, 2), (0, 0), 1)],
        )
        # 010 satisfies both; 000 satisfies neither; 011 only the first
        assert covered_fraction(CoverSet([Assignment((0, 1, 1))]), inst) == (
            Fraction(3, 4)
        )


class TestCoveringNumber:
    def test_triangle_needs_two_assignments(self):
        assert covering_number(TRIANGLE, 4) == 2
        assert oracles.brute_covering_number(TRIANGLE, 4) == 2

    def test_k4_needs_two_assignments(self):
        assert covering_number(K4, 4) == 2
        assert oracles.brute_covering_number(K4, 4) == 2

    def test_single_odd_parity_constraint_needs_one(self):
        inst = CspInstance(lin(3), range(3), [((0, 1, 2), (0, 0, 0), 1)])
        assert covering_number(inst, 2) == 1

    def test_absent_when_cap_too_small(self):
        assert covering_number(TRIANGLE, 1) is None
        assert find_cover(TRIANGLE, 1) is None

    def test_empty_instance_needs_zero(self):
        inst = CspInstance(nae(2, 2), range(2), [])
        assert covering_number(inst, 3) == 0

    def test_budget_exhaustion_is_an_error_not_absent(self):
        with pytest.raises(BudgetExceededError):
            covering_number(TRIANGLE, 2, budget=3)

    def test_witness_from_find_cover_actually_covers(self):
        cover = find_cover(TRIANGLE, 4)
        assert len(cover.assignments) == 2
        assert covered_fraction(cover, TRIANGLE) == 1

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randrange(3, 6)
            all_edges = list(itertools.combinations(range(n), 2))
            edges = [e for e in all_edges if rng.random() < 0.6]
            if not edges:
                continue
            inst = graph_instance(n, edges)
            assert covering_number(inst, 4) == oracles.brute_covering_number(
                inst, 4
            )

    def test_zero_weight_constraints_are_ignored(self):
        inst = CspInstance(
            nae(2, 2),
            range(3),
            [((0, 1), (0, 0), 1), ((1, 2), (0, 0), 0)],
        )
        assert covering_number(inst, 2) == 1


@st.composite
def small_instances(draw):
    """Instances over q, k in {2, 3} with random literals, repeated scopes
    (and repeated variables within a scope), zero weights, and predicates
    that are shift-closed (a union of translate orbits) or arbitrary."""
    q = draw(st.sampled_from((2, 3)))
    k = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 5 if q == 2 else 4))
    tuples = list(itertools.product(range(q), repeat=k))
    pick = st.sampled_from(tuples)
    if draw(st.booleans()):
        seeds = draw(st.lists(pick, min_size=1, max_size=3))
        members = {add_tuples(t, (b,) * k, q) for t in seeds for b in range(q)}
    else:
        members = draw(st.sets(pick, min_size=1))
    scope = st.tuples(*[st.integers(0, n - 1)] * k)
    cons = draw(st.lists(
        st.tuples(scope, pick, st.sampled_from((0, 1, 2))),
        min_size=1, max_size=6,
    ))
    if draw(st.booleans()):
        cons.append((cons[0][0], draw(pick), 1))
    if all(w == 0 for _, _, w in cons):
        cons[0] = (cons[0][0], cons[0][1], 1)
    return CspInstance(Predicate(q, k, members), range(n), cons)


def touches_every_variable(inst):
    touched = {v for c in inst.constraints if c.weight > 0 for v in c.vars}
    return len(touched) == inst.nvars


# Instances whose leaves span several blocks of `_coverage_masks`: 2^13
# leaves (q = 2, shift-closed, 14 touched variables) and 3^8 = 6,561 (q = 3,
# shift-closed, 9 touched variables). Each has a scope with a repeated
# variable and nonzero literals, and no assignment satisfies every
# constraint, so several masks are kept.
PAST_ONE_BLOCK = {
    "q2": CspInstance(
        Predicate(2, 3, {(0, 0, 1), (1, 1, 0)}), range(14),
        [((i, i + 1, i + 2), (i % 3 == 0, i % 2, 0), 1) for i in range(12)]
        + [((5, 5, 13), (0, 1, 1), 1), ((0, 13, 7), (1, 0, 0), 2)]),
    "q3": CspInstance(
        Predicate(3, 2, {(0, 1), (1, 2), (2, 0)}), range(9),
        [((i, i + 1), (i % 3, 2 * i % 3), 1) for i in range(8)]
        + [((4, 4), (0, 1), 1), ((8, 0), (2, 0), 1), ((2, 6), (0, 1), 3),
           ((7, 3), (1, 0), 1)]),
}


class TestCoverageMasks:
    @given(small_instances())
    def test_matches_the_full_enumeration(self, inst):
        fast, slow = Budget(10**7), Budget(10**7)
        pairs, holders = _coverage_masks(inst, fast)
        ref_pairs, cons = oracles.reference_coverage_masks(inst, slow)
        assert pairs == [(m, a.values) for m, a in ref_pairs]
        assert holders == [
            sum(1 << i for i, (m, _) in enumerate(pairs) if m >> j & 1)
            for j in range(len(cons))
        ]
        if touches_every_variable(inst):
            assert fast.used == slow.used

    @pytest.mark.parametrize("name", sorted(PAST_ONE_BLOCK))
    def test_matches_the_full_enumeration_past_one_block(self, name):
        inst = PAST_ONE_BLOCK[name]
        fast, slow = Budget(10**6), Budget(10**6)
        pairs, holders = _coverage_masks(inst, fast)
        ref_pairs, cons = oracles.reference_coverage_masks(inst, slow)
        assert len(pairs) > 1
        assert pairs == [(m, a.values) for m, a in ref_pairs]
        assert holders == [
            sum(1 << i for i, (m, _) in enumerate(pairs) if m >> j & 1)
            for j in range(len(cons))
        ]
        assert fast.used == slow.used

    # Gadget outputs as the cover-search benchmark builds them: the t1
    # gadgets hold each scope in both orders, and 496 of the t3 gadget's 768
    # scopes repeat a variable. Every variable is touched, so the budgets
    # agree.
    @pytest.mark.parametrize("test, nv", [("t1", 2), ("t1", 3), ("t3", 2)])
    def test_matches_the_full_enumeration_on_gadgets(self, test, nv):
        source = synthesize("unique-consistent", nu=2, nv=nv, nlabels_u=1,
                            nlabels_v=1, seed=5201)
        if test == "t1":
            inst = reductions.generate_t1(T1Params(nae(2, 2), (0, 1), source))
        else:
            inst = reductions.generate_t3(T3Params(Fraction(1, 4), source))
        fast, slow = Budget(10**7), Budget(10**7)
        pairs, holders = _coverage_masks(inst, fast)
        ref_pairs, cons = oracles.reference_coverage_masks(inst, slow)
        assert pairs == [(m, a.values) for m, a in ref_pairs]
        assert holders == [
            sum(1 << i for i, (m, _) in enumerate(pairs) if m >> j & 1)
            for j in range(len(cons))
        ]
        assert fast.used == slow.used

    def test_memory_of_scopes_in_every_order(self):
        # NAE(2,3) on all 1,716 ordered triples of 13 variables. The bound
        # holds when one scope's rows are built and spent at a time; it fails
        # when every scope's rows are kept at once (14.4 MB), or the rows of
        # every sorted scope (9.3 MB).
        inst = CspInstance(nae(2, 3), range(13), [
            (s, (0, 0, 0), 1) for s in itertools.permutations(range(13), 3)])
        tracemalloc.start()
        try:
            pairs, _ = _coverage_masks(inst, Budget(10**8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Every 2-coloring with variable 0 at 0 but the constant one, less
        # the 13 with a color on one variable alone, which are dominated.
        assert len(pairs) == 2**12 - 1 - 13
        assert peak <= 9 * 2**20, peak

    def test_memory_stays_bounded_across_blocks(self):
        # 9 disjoint edges on 18 variables: 2^17 leaves.
        inst = graph_instance(18, [(v, v + 1) for v in range(0, 18, 2)])
        tracemalloc.start()
        try:
            pairs, _ = _coverage_masks(inst, Budget(10**7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [m for m, _ in pairs] == [2**9 - 1]
        assert peak <= 4 * 2**20

    def test_single_constraint_among_many_variables(self):
        inst = graph_instance(18, [(0, 1)])
        assert covering_number(inst, 2, budget=Budget(10**5)) == 1
        (a,) = find_cover(inst, 2, budget=Budget(10**5)).assignments
        assert a.values == (0, 1) + (0,) * 16

    def test_untouched_leading_variable_stays_zero(self):
        inst = CspInstance(
            nae(3, 2), range(6), [((2, 4), (0, 1), 1), ((4, 5), (2, 0), 1)]
        )
        cover = find_cover(inst, 3)
        assert covered_fraction(cover, inst) == 1
        for a in cover.assignments:
            assert [a.values[v] for v in (0, 1, 3)] == [0, 0, 0]
            assert a.values[2] == 0  # first touched variable, shift-closed

    def test_astronomical_enumeration_exceeds_the_budget(self):
        # 2^15999 assignments: the cost has too many digits to print. The
        # c-fold search answers within its allowance, which is that cost.
        inst = graph_instance(16000, [(v, v + 1) for v in range(0, 16000, 2)])
        with pytest.raises(BudgetExceededError, match="at least 2"):
            find_cover(inst, 2)
        assert covering_number(inst, 2) == 1

    def test_budget_is_spent_before_enumerating(self):
        # 3 constraints on 2^2 assignments (first variable fixed) = 12.
        with pytest.raises(BudgetExceededError):
            _coverage_masks(TRIANGLE, Budget(11))
        budget = Budget(12)
        _coverage_masks(TRIANGLE, budget)
        assert budget.used == 12


@st.composite
def search_instances(draw):
    """Instances over q in {2, 3}, k in {1, 2, 3} and up to 8 variables, with
    nonzero literals, repeated variables within a scope, zero weights, and
    small predicates, shift-closed or arbitrary, so that covers of several
    assignments are common."""
    q = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    tuples = list(itertools.product(range(q), repeat=k))
    pick = st.sampled_from(tuples)
    if draw(st.booleans()):
        seeds = draw(st.lists(pick, min_size=1, max_size=2))
        members = {add_tuples(t, (b,) * k, q) for t in seeds for b in range(q)}
    else:
        members = draw(st.sets(pick, min_size=1, max_size=q))
    scope = st.tuples(*[st.integers(0, n - 1)] * k)
    cons = draw(st.lists(
        st.tuples(scope, pick, st.sampled_from((0, 1, 2))),
        min_size=2, max_size=8,
    ))
    if all(w == 0 for _, _, w in cons):
        cons[0] = (cons[0][0], cons[0][1], 1)
    return CspInstance(Predicate(q, k, members), range(n), cons)


def cover_search_outcome(search, inst, max_c, budget):
    try:
        return search(inst, max_c, budget)
    except BudgetExceededError:
        return "budget"


class TestCoverSearchAgainstReference:
    """The cover search returns the covering number, the witness value tuples
    and the budget of the search it replaced, which threads its chosen masks
    through append and pop, down to where a small budget runs out."""

    @settings(max_examples=200, deadline=None)
    @given(search_instances(), st.integers(1, 3), st.integers(1, 200))
    def test_same_cover_and_budget(self, inst, max_c, limit):
        for budget_limit in (None, limit):
            got, want = Budget(budget_limit), Budget(budget_limit)
            assert cover_search_outcome(_cover_search, inst, max_c, got) == (
                cover_search_outcome(
                    oracles.reference_cover_search, inst, max_c, want))
            assert got.used == want.used

    def test_same_cover_and_budget_on_the_atlas(self):
        # The 996 connected graphs of the atlas with at least one vertex.
        count = 0
        for G in networkx.graph_atlas_g():
            n = G.number_of_nodes()
            if n == 0 or not networkx.is_connected(G):
                continue
            inst = graph_instance(n, [tuple(sorted(e)) for e in G.edges()])
            got, want = Budget(), Budget()
            assert _cover_search(inst, 3, got) == (
                oracles.reference_cover_search(inst, 3, want))
            assert got.used == want.used
            count += 1
        assert count == 996


# One scope of 8 variables under all 256 literal vectors, predicate {0^8}:
# each assignment satisfies one constraint, so the covering number is 256.
DEEP = CspInstance(Predicate(2, 8, [(0,) * 8]), range(8), [
    (tuple(range(8)), lits, 1) for lits in itertools.product((0, 1), repeat=8)
])


@functools.cache
def deep_reference():
    """The reference search's (c, witness) and budget on DEEP, taken at the
    default recursion limit."""
    budget = Budget()
    return oracles.reference_cover_search(DEEP, 300, budget), budget.used


class TestDeepCover:
    """A cover of 256 assignments is found with the recursion limit only 150
    frames above the caller, with the reference's witness and budget.
    `covering_number` first spends the c-fold search's allowance of
    2^8 * 256 = 65,536 nodes, refuting c = 1 only, then the mask search
    from c = 2, which skips the 2 nodes of c = 1."""

    @pytest.mark.parametrize("search, used", [
        (covering_number, 65_536 + 98_688 - 2), (find_cover, 98_688),
    ], ids=["covering_number", "find_cover"])
    def test_a_deep_cover_needs_no_recursion(self, search, used):
        (c, witness), reference_used = deep_reference()
        assert (c, reference_used) == (256, 98_688)
        budget = Budget()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 150)
        try:
            got = search(DEEP, 300, budget)
        finally:
            sys.setrecursionlimit(limit)
        if search is covering_number:
            assert got == 256
        else:
            assert [a.values for a in got] == witness
        assert budget.used == used


@st.composite
def fold_instances(draw):
    """Instances over q in {2, 3, 4} and k in {1, 2, 3} with at most 64
    assignments, nonzero literals, repeated variables within a scope, zero
    weights, and predicates shift-closed or arbitrary."""
    q = draw(st.sampled_from((2, 3, 4)))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, {2: 5, 3: 3, 4: 3}[q]))
    tuples = list(itertools.product(range(q), repeat=k))
    pick = st.sampled_from(tuples)
    if draw(st.booleans()):
        seeds = draw(st.lists(pick, min_size=1, max_size=2))
        members = {add_tuples(t, (b,) * k, q) for t in seeds for b in range(q)}
    else:
        members = draw(st.sets(pick, min_size=1, max_size=q + 1))
    scope = st.tuples(*[st.integers(0, n - 1)] * k)
    cons = draw(st.lists(
        st.tuples(scope, pick, st.sampled_from((0, 1, 2))),
        min_size=1, max_size=6,
    ))
    if all(w == 0 for _, _, w in cons):
        cons[0] = (cons[0][0], cons[0][1], 1)
    return CspInstance(Predicate(q, k, members), range(n), cons)


def nu3_instance():
    """Random NAE(2,3) on 16 variables: 400 of the 560 sorted triples, drawn
    with seed 1. Its covering number is 3."""
    triples = list(itertools.combinations(range(16), 3))
    scopes = sorted(random.Random(1).sample(triples, 400))
    return CspInstance(nae(2, 3), range(16), [(s, (0, 0, 0), 1) for s in scopes])


class TestCfoldRoute:
    """`covering_number` decides c = 1, 2, ... by the c-fold search within an
    allowance of the masks' cost, and past it by the mask search; each yes
    is checked by `covered_fractions`."""

    @settings(max_examples=60, deadline=None)
    @given(fold_instances(), st.integers(1, 3))
    def test_matches_the_brute_force(self, inst, max_c):
        assert covering_number(inst, max_c) == (
            oracles.brute_covering_number(inst, max_c))

    def test_both_routes_are_taken_and_agree(self, monkeypatch):
        fallbacks = []

        def mask_search(inst, max_c, budget, start=1):
            fallbacks.append(start)
            return _cover_search(inst, max_c, budget, start)

        monkeypatch.setattr(search_module, "_cover_search", mask_search)
        rng = random.Random(27)
        routes = {True: 0, False: 0}
        for _ in range(100):
            n = rng.randint(2, 5)
            k = rng.choice((2, 3))
            tuples = list(itertools.product(range(2), repeat=k))
            pred = Predicate(2, k, rng.sample(tuples, rng.randint(1, 3)))
            inst = CspInstance(pred, range(n), [
                (tuple(rng.randrange(n) for _ in range(k)),
                 rng.choice(tuples), 1 - (i and rng.randrange(2)))
                for i in range(rng.randint(2, 7))])
            del fallbacks[:]
            got = covering_number(inst, 3)
            routes[bool(fallbacks)] += 1
            assert got == _cover_search(inst, 3, Budget())[0]
            assert got == oracles.brute_covering_number(inst, 3)
        assert min(routes.values()) >= 10, routes

    @given(search_instances(), st.integers(1, 3))
    def test_matches_the_size_of_the_witness(self, inst, max_c):
        cover = find_cover(inst, max_c)
        assert covering_number(inst, max_c) == (
            None if cover is None else len(cover))

    def test_disjoint_edges_need_one_assignment(self, deadline):
        # The masks would cost 20 * 2^39 units, past the default budget.
        inst = graph_instance(40, [(v, v + 1) for v in range(0, 40, 2)])
        with deadline(0.05):
            assert covering_number(inst, 2) == 1

    def test_a_covering_number_of_three(self, deadline):
        inst = nu3_instance()
        budget = Budget()
        with deadline(5):
            assert covering_number(inst, 4, budget) == 3
        assert budget.used == 48_843

    def test_a_yes_that_does_not_cover_is_refused(self, monkeypatch):
        monkeypatch.setattr(search_module, "covered_fractions",
                            lambda rows, inst: ([], Fraction(1, 2)))
        with pytest.raises(GuaranteeError, match="accepted a non-cover"):
            covering_number(TRIANGLE, 4)


class TestLeavesAtOnce:
    """The mask search decides the children that choose the c-th mask at
    once, with the units and the witness of taking them one at a time."""

    def test_a_refutation_heavy_cover(self, deadline):
        # Refuting c = 2 takes about 596 M nodes, nearly all of them leaves.
        budget = Budget()
        with deadline(30):
            cover = find_cover(nu3_instance(), 4, budget)
        assert [a.values for a in cover] == [
            (0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0),
            (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0),
            (0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 1, 0),
        ]
        assert budget.used == 609_665_223


class TestSearchLayerEdges:
    # Constraint 0 asks x0 != x0, which no assignment satisfies.
    UNSATISFIABLE = CspInstance(
        nae(2, 2), range(3), [((0, 0), (0, 0), 1), ((1, 2), (0, 0), 1)])

    # The masks cost 2 constraints on 2^2 assignments (first variable fixed)
    # = 8; the c-fold search refutes each c at its first node, where
    # constraint 0 is checked.
    @pytest.mark.parametrize("search, used", [
        (covering_number, 3), (find_cover, 8),
    ], ids=["covering_number", "find_cover"])
    def test_an_unsatisfiable_constraint_ends_after_the_masks(
            self, search, used):
        budget = Budget()
        assert search(self.UNSATISFIABLE, 3, budget) is None
        assert budget.used == used

    @pytest.mark.parametrize("search", [covering_number, find_cover])
    @pytest.mark.parametrize("max_c", [2.5, 2.0, "2", None, float("nan")])
    def test_max_c_must_be_an_integer(self, search, max_c):
        budget = Budget()
        with pytest.raises(PreconditionError,
                           match="max_c %s is not an integer"
                           % re.escape(repr(max_c))):
            search(TRIANGLE, max_c, budget)
        assert budget.used == 0

    def test_coloring_needs_a_predicate_inside_nae(self):
        inst = CspInstance(cnf(2), range(2), [((0, 1), (0, 0), 1)])
        cover = CoverSet([Assignment((0, 1))])
        with pytest.raises(PreconditionError, match="not contained in NAE"):
            cover_to_coloring(cover, inst)

    def test_coloring_needs_zero_literals(self):
        inst = CspInstance(nae(2, 2), range(2), [((0, 1), (0, 1), 1)])
        cover = CoverSet([Assignment((0, 0))])
        with pytest.raises(PreconditionError, match="nonzero literals"):
            cover_to_coloring(cover, inst)


# Weights with mixed denominators, given as ints, Fractions and strings.
WEIGHTS = (0, 1, 2, Fraction(1, 2), Fraction(2, 3), Fraction(5, 12),
           Fraction(3, 7), "1/6", "3/4")


@st.composite
def weighted_instances(draw):
    """(predicate, nvars, constraint triples) over q in {2, 3}, k in {2, 3}:
    random literals, repeated keys, zero weights, mixed denominators."""
    q = draw(st.sampled_from((2, 3)))
    k = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 5))
    tuples = list(itertools.product(range(q), repeat=k))
    members = draw(st.sets(st.sampled_from(tuples)))
    keys = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, n - 1)] * k),
                  st.sampled_from(tuples)),
        min_size=1, max_size=6,
    ))
    keys += draw(st.lists(st.sampled_from(keys), max_size=4))
    cons = [(v, l, draw(st.sampled_from(WEIGHTS))) for v, l in keys]
    if all(Fraction(w) == 0 for _, _, w in cons):
        cons[0] = (cons[0][0], cons[0][1], 1)
    return Predicate(q, k, members), n, cons


def binary_assignments(n):
    return st.lists(
        st.tuples(*[st.integers(0, 1)] * n).map(Assignment),
        min_size=1, max_size=3,
    )


class TestIntegerWeights:
    """The integer numerators against the original `Fraction` code."""

    @given(weighted_instances())
    def test_merge_matches_the_fraction_merge(self, case):
        pred, n, cons = case
        inst = CspInstance(pred, range(n), cons)
        assert [
            (c.vars, c.literals, c.weight) for c in inst.constraints
        ] == oracles.reference_merge(pred, range(n), cons)
        again = CspInstance(pred, range(n), [Constraint(*c) for c in cons])
        assert again.constraints == inst.constraints
        assert inst.denominator == math.lcm(
            *(Fraction(w).denominator for _, _, w in cons)
        )
        assert [Fraction(m, inst.denominator) for m in inst.numerators] == [
            c.weight for c in inst.constraints
        ]
        assert inst.total_weight() == sum(Fraction(w) for _, _, w in cons)

    @given(weighted_instances(), st.data())
    def test_covered_fractions_match_the_fraction_sums(self, case, data):
        pred, n, cons = case
        inst = CspInstance(pred, range(n), cons)
        assignments = data.draw(st.lists(
            st.tuples(*[st.integers(0, pred.q - 1)] * n).map(Assignment),
            min_size=1, max_size=3,
        ))
        each, union = covered_fractions(assignments, inst)
        assert each == [
            oracles.reference_covered_fraction([a], inst) for a in assignments
        ]
        assert union == oracles.reference_covered_fraction(assignments, inst)
        assert covered_fraction(CoverSet(assignments), inst) == union

    @given(weighted_instances(), st.data())
    def test_rejection_identity_matches_the_fraction_sums(self, case, data):
        pred, n, cons = case
        inst = CspInstance(pred, range(n), cons)
        assignments = data.draw(binary_assignments(n))
        fast, slow = Budget(10**6), Budget(10**6)
        res = rejection_identity_check(assignments, inst, budget=fast)
        lhs, rhs, correlations = oracles.reference_rejection_identity(
            assignments, inst, slow
        )
        ref = RejectionIdentityResult(len(assignments), lhs, rhs, correlations)
        for field in RejectionIdentityResult.__slots__:
            assert getattr(res, field) == getattr(ref, field), field
        assert fast.used == slow.used == len(inst.constraints)

    def test_every_constraint_is_validated(self):
        # Literal vectors and weights are checked once per distinct value;
        # a bad one later in the list is still caught.
        ok = ((0, 1), (0, 0), 1)
        for bad in [((0, 1), (0, 2), 1), ((0, 3), (0, 0), 1),
                    ((0, 1), (0, 0), -1), ((0, 1, 1), (0, 0), 1)]:
            with pytest.raises(PreconditionError):
                CspInstance(nae(2, 2), range(2), [ok, bad])

    def test_constraints_equal_only_constraints(self):
        c = Constraint((0, 1), (0, 0), Fraction(1, 2))
        assert c == Constraint([0, 1], "00", "1/2")
        assert c != ((0, 1), (0, 0), Fraction(1, 2))

    def test_empty_instance(self):
        inst = CspInstance(nae(2, 2), range(2), [])
        assert (inst.denominator, inst.numerators) == (1, ())
        assert inst.total_weight() == 0
        assert covered_fractions([Assignment((0, 0))], inst) == (
            [Fraction(1)], Fraction(1)
        )


# Per atom: how it is spoiled, if at all.
FAULTS = ("ok",) * 6 + ("arity", "variable", "literal", "negative")


@st.composite
def raw_atoms(draw):
    """(predicate, nvars, triples, zero_total): atoms that are mostly valid,
    some with a wrong arity, an unknown variable, a literal outside [q] or a
    negative weight, and now and then all of weight zero."""
    q = draw(st.sampled_from((2, 3)))
    k = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 4))
    zero_total = draw(st.booleans()) and draw(st.booleans())
    triples = []
    for _ in range(draw(st.integers(0, 8))):
        fault = draw(st.sampled_from(FAULTS))
        arity = k + draw(st.sampled_from((-1, 1))) if fault == "arity" else k
        vars_ = draw(st.lists(st.integers(0, n - 1), min_size=arity,
                              max_size=arity))
        lits = draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k))
        if fault == "variable":
            vars_[draw(st.integers(0, k - 1))] = draw(st.sampled_from((-1, n)))
        if fault == "literal":
            lits[draw(st.integers(0, k - 1))] = q
        if zero_total:
            w = 0
        elif fault == "negative":
            w = draw(st.sampled_from((-1, Fraction(-1, 3), "-1/2")))
        else:
            w = draw(st.sampled_from(WEIGHTS))
        triples.append((tuple(vars_), tuple(lits), w))
    return Predicate(q, k, [(0,) * k]), n, triples


class TestColumnarInstance:
    """The one-pass columnar build against the original per-atom merge."""

    @given(raw_atoms(), st.booleans(), st.booleans(), st.booleans(),
           st.booleans())
    def test_matches_the_reference_merge(
        self, case, lazy, objects, fresh_weights, list_literals
    ):
        pred, n, triples = case
        try:
            expected = oracles.reference_merge(pred, range(n), triples)
        except PreconditionError as exc:
            expected = str(exc)
        atoms = []
        for vars_, lits, w in triples:
            if fresh_weights and isinstance(w, Fraction):
                w = Fraction(w.numerator, w.denominator)
            if list_literals:
                lits = list(lits)
            atoms.append(Constraint(vars_, lits, w) if objects
                         else (vars_, lits, w))
        given_atoms = (a for a in atoms) if lazy else atoms
        if isinstance(expected, str):
            with pytest.raises(PreconditionError) as info:
                CspInstance(pred, range(n), given_atoms)
            assert str(info.value) == expected
            return
        inst = CspInstance(pred, range(n), given_atoms)
        weights = [Fraction(m, inst.denominator) for m in inst.numerators]
        assert list(zip(inst.scopes, inst.literals, weights)) == expected
        assert [
            (c.vars, c.literals, c.weight) for c in inst.constraints
        ] == expected
        for column in (inst.scopes, inst.literals):
            assert all(type(x) is int for t in column for x in t)
        # Equal literal vectors share one tuple.
        assert len(set(map(id, inst.literals))) == len(set(inst.literals))

    def test_constraints_are_built_once_from_the_columns(self):
        inst = CspInstance(nae(2, 2), range(3), [
            ((0, 1), (0, 0), 1), ((1, 2), (0, 1), Fraction(1, 2)),
        ])
        cons = inst.constraints
        assert inst.constraints is cons
        for c, vars_, lits in zip(cons, inst.scopes, inst.literals):
            assert c.vars is vars_ and c.literals is lits
        assert cons == (Constraint((0, 1), (0, 0), 1),
                        Constraint((1, 2), (0, 1), Fraction(1, 2)))

    def test_a_budget_error_from_the_atoms_propagates(self):
        error = BudgetExceededError("enumeration budget exceeded")

        def atoms():
            yield (0, 1), (0, 0), 1
            yield (1, 2), (0, 0), 1
            raise error

        with pytest.raises(BudgetExceededError) as info:
            CspInstance(nae(2, 2), range(3), atoms())
        assert info.value is error

    def test_atoms_are_read_once(self):
        reads = []

        def atoms():
            for j in range(3):
                reads.append(j)
                yield (j, j + 1), (0, 0), 1

        inst = CspInstance(nae(2, 2), range(4), atoms())
        assert reads == [0, 1, 2] and inst.scopes == ((0, 1), (1, 2), (2, 3))

    def test_equal_list_literals_share_one_tuple(self):
        inst = CspInstance(nae(2, 2), range(3), [
            ((0, 1), [0, 0], 1), ((1, 2), [0, 0], 1), ((0, 2), (0, 0), 1),
        ])
        assert inst.literals[0] is inst.literals[1] is inst.literals[2]

    def test_an_atom_read_before_a_fault_is_reported_first(self):
        # The atoms are checked once all are read; an atom that fails a
        # check is still reported before a later one that cannot be read.
        error = BudgetExceededError("enumeration budget exceeded")

        def atoms():
            yield (0, 1), (0, 0), 1
            yield (0, 5), (0, 0), 1
            raise error

        for bad in (atoms(), [((0, 1), (0, 0), 1), ((0, 5), (0, 0), 1),
                              ((0, 1), (0, 0), "zz")],
                    [((0, 5), (0, 0), 1), ((0, 1), (None, 0), 1)]):
            with pytest.raises(PreconditionError,
                               match="references unknown variables"):
                CspInstance(nae(2, 2), range(2), bad)

    @pytest.mark.parametrize("weight", [None, "zz", "1/0", object()])
    @pytest.mark.parametrize("vars_", [(0, 1), (0, 5)])
    def test_a_weight_that_is_no_rational_is_a_precondition_error(
        self, weight, vars_
    ):
        # Also when the atom fails a structural check first: its message
        # shows the weight.
        with pytest.raises(PreconditionError,
                           match=r"^constraint weight .* is not a rational$"):
            CspInstance(nae(2, 2), range(2), [((0, 1), (0, 0), 1),
                                               (vars_, (0, 0), weight)])
        with pytest.raises(PreconditionError):
            Constraint(vars_, (0, 0), weight)

    @pytest.mark.parametrize("weight", [float("inf"), float("nan")])
    def test_a_float_that_is_no_rational_is_a_precondition_error(self, weight):
        # Infinity ended in a bare OverflowError.
        with pytest.raises(PreconditionError,
                           match=r"^constraint weight .* is not a rational$"):
            CspInstance(nae(2, 2), range(2), [((0, 1), (0, 0), weight)])

    def test_a_weight_in_exponent_form_is_refused_at_once(self, deadline):
        # Fraction reads it by building 10**3000000: over 1 s, and the
        # instance was then accepted.
        with deadline(0.5):
            with pytest.raises(PreconditionError, match=(
                    r"^constraint weight '1e-3000000' is not a rational$")):
                CspInstance(nae(2, 2), range(2),
                            [((0, 1), (0, 0), "1e-3000000")])


def small_games():
    """A unique game with two vertices a side, and a one-edge 2-to-1 game."""
    unique = LabelCoverInstance(2, 2, 1, 1, [Edge(u, v, (0,)) for u in range(2)
                                              for v in range(2)], unique=True)
    dto1 = LabelCoverInstance(1, 1, 1, 2, [Edge(0, 0, (0, 0))])
    return unique, dto1


def built_by_the_reductions():
    """(name, instance) of every generator and sampler on small games."""
    unique, dto1 = small_games()
    half = Fraction(1, 2)
    p0, p1 = {(0, 0): half, (1, 1): half}, {(0, 1): half, (1, 0): half}
    params = {
        "t1": T1Params(nae(2, 2), (0, 1), unique),
        "t2": T2Params(lin(4), p0, p1, Fraction(1, 4), dto1),
        "t3": T3Params(Fraction(1, 3), unique),
    }
    for test, p in params.items():
        yield "generate_" + test, getattr(reductions, "generate_" + test)(p)
        yield "sample_" + test, getattr(reductions, "sample_" + test)(p, 300, 7)


@st.composite
def columns_and_triples(draw):
    """Faulty or valid atoms as columns over a random multiple of the lcm
    of their weights' denominators, with equal literal vectors sharing one
    tuple, beside the same atoms as triples."""
    pred, n, triples = draw(raw_atoms())
    pairs = draw(st.lists(st.integers(0, len(triples) - 1), max_size=3)
                 ) if triples else []
    triples += [triples[i] for i in pairs]  # repeated pairs
    weights = [Fraction(w) for _, _, w in triples]
    den = math.lcm(*(w.denominator for w in weights)) * draw(
        st.sampled_from((1, 2, 6)))
    shared = {}
    columns = _Columns(
        [tuple(v) for v, _, _ in triples],
        [shared.setdefault(tuple(l), tuple(l)) for _, l, _ in triples],
        [int(w * den) for w in weights], den)
    return pred, n, columns, triples


def instance_or_error(pred, n, constraints):
    try:
        inst = CspInstance(pred, range(n), constraints)
    except PreconditionError as exc:
        return str(exc)
    return inst.scopes, inst.literals, inst.denominator, inst.numerators


class TestColumnCore:
    """Columns handed to `CspInstance` against the triple constructor."""

    def test_generators_and_samplers_match_the_triples(self, monkeypatch):
        # The columns each generator and sampler hands over, repeated pairs
        # included, give the instance their atoms give as triples.
        given = []

        def capture(predicate, variables, columns):
            given.append(columns)
            return CspInstance(predicate, variables, columns)

        monkeypatch.setattr(reductions, "CspInstance", capture)
        for name, inst in built_by_the_reductions():
            scopes, literals, numerators, den = given.pop()
            triples = list(zip(scopes, literals,
                               (Fraction(m, den) for m in numerators)))
            again = CspInstance(inst.predicate, inst.variables, triples)
            assert (inst.scopes, inst.literals, inst.denominator,
                    inst.numerators) == (again.scopes, again.literals,
                                         again.denominator,
                                         again.numerators), name
            if name.startswith("sample_"):
                assert len(inst.numerators) < len(triples) == 300, name
            # Merged, the same weights come back from the constraints.
            assert [(c.vars, c.literals, c.weight) for c in CspInstance(
                inst.predicate, inst.variables, inst.constraints
            ).constraints] == [(c.vars, c.literals, c.weight)
                               for c in inst.constraints], name

    @given(columns_and_triples())
    def test_columns_match_the_triples(self, case):
        pred, n, columns, triples = case
        assert instance_or_error(pred, n, columns) == instance_or_error(
            pred, n, triples)

    def test_a_gcd_reduces_the_denominator(self):
        inst = CspInstance(nae(2, 2), range(3), _Columns(
            [(0, 1), (1, 2), (0, 1)], [(0, 0)] * 3, [2, 4, 6], 12))
        assert (inst.scopes, inst.denominator, inst.numerators) == (
            ((0, 1), (1, 2)), 6, (4, 2))


def no_constraint_objects(monkeypatch):
    """Make every way of building `Constraint` objects fail."""
    def fail(*args, **kwargs):
        raise AssertionError("a Constraint object was built")

    monkeypatch.setattr(CspInstance, "constraints", property(fail))
    monkeypatch.setattr(Constraint, "__init__", fail)
    monkeypatch.setattr(Constraint, "_trusted", fail)


class TestHotPathsReadColumns:
    """The text round trip, the covered fractions, the rejection identity
    and both searches never build `Constraint` objects."""

    def test_no_constraint_is_built(self, monkeypatch):
        no_constraint_objects(monkeypatch)
        pred = nae(2, 3)
        rng = random.Random(3)
        atoms = [
            (tuple(rng.sample(range(6), 3)),
             tuple(rng.randrange(2) for _ in range(3)),
             Fraction(rng.randrange(1, 4), rng.randrange(1, 4)))
            for _ in range(9)
        ]
        inst = CspInstance(pred, range(6), atoms)
        text = textio.format_instance(inst)
        again = textio.parse_instance(text, pred)
        assert textio.format_instance(again) == text
        assert (again.scopes, again.literals, again.numerators) == (
            inst.scopes, inst.literals, inst.numerators
        )
        rows = [Assignment(rng.randrange(2) for _ in range(6))
                for _ in range(3)]
        each, union = covered_fractions(rows, again)
        assert len(each) == 3 and 0 <= union <= 1
        res = rejection_identity_check(rows, again)
        assert res.lhs == res.rhs
        c = covering_number(again, 4)
        cover = find_cover(again, 4)
        assert c == len(cover) and covered_fractions(cover, again)[1] == 1
        size, witness = max_independent_set(again)
        assert size == len(witness)


class TestTrivialOddCover:
    def test_parity_instance_covered_by_translate_pair(self):
        inst = CspInstance(
            lin(3),
            range(4),
            [((0, 1, 2), (0, 0, 0), 1), ((1, 2, 3), (1, 0, 1), 2)],
        )
        cover = trivial_odd_cover(inst, Assignment((0, 0, 0, 0)))
        assert len(cover.assignments) == 2
        assert covered_fraction(cover, inst) == 1

    def test_clause_instance_covered_from_any_base(self):
        inst = CspInstance(
            cnf(3),
            range(4),
            [((0, 1, 2), (0, 1, 0), 1), ((0, 2, 3), (0, 0, 0), 1)],
        )
        cover = trivial_odd_cover(inst, Assignment((1, 0, 1, 0)))
        assert covered_fraction(cover, inst) == 1

    def test_rejects_non_odd_predicate(self):
        with pytest.raises(PreconditionError):
            trivial_odd_cover(TRIANGLE, Assignment((0, 0, 0)))

    def test_agreement_with_exact_solver_on_random_instances(self):
        rng = random.Random(3)
        for _ in range(50):
            inst = random_odd_instance(rng)
            base = Assignment(tuple(rng.randrange(2) for _ in range(6)))
            cover = trivial_odd_cover(inst, base)
            assert covered_fraction(cover, inst) == 1
            assert covering_number(inst, 2) <= 2


class TestMaxIndependentSet:
    def test_triangle(self):
        assert max_independent_set(TRIANGLE)[0] == 1

    def test_single_wide_constraint(self):
        inst = CspInstance(
            lin(4), range(4), [((0, 1, 2, 3), (0, 0, 0, 0), 1)]
        )
        assert max_independent_set(inst)[0] == 3

    def test_petersen_graph(self):
        inst = graph_instance(10, oracles.petersen_edges())
        size, witness = max_independent_set(inst)
        assert size == 4
        assert oracles.brute_max_independent_set(inst) == 4
        chosen = set(witness)
        assert len(chosen) == 4
        for c in inst.constraints:
            assert not set(c.vars) <= chosen

    def test_full_set_iff_no_positive_constraints(self):
        empty = CspInstance(nae(2, 2), range(4), [])
        assert max_independent_set(empty)[0] == 4
        zero = CspInstance(
            nae(2, 2),
            range(4),
            [((0, 1), (0, 0), 0), ((2, 3), (0, 0), 1)],
        )
        assert max_independent_set(zero)[0] == 3

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(19)
        for _ in range(20):
            inst = random_odd_instance(rng, nvars=7)
            assert (
                max_independent_set(inst)[0]
                == oracles.brute_max_independent_set(inst)
            )

    def test_budget_exhaustion(self):
        inst = graph_instance(10, oracles.petersen_edges())
        with pytest.raises(BudgetExceededError):
            max_independent_set(inst, budget=2)

    def test_many_variables_one_constraint(self):
        inst = graph_instance(1500, [(0, 1)])
        size, witness = max_independent_set(inst, budget=Budget(10**5))
        assert size == 1499
        assert witness == (0,) + tuple(range(2, 1500))

    # Beyond the recursive oracle's reach. The bound counts every remaining
    # variable as choosable, so the first leaf is optimal but proving it
    # visits this many nodes.
    @pytest.mark.parametrize("n, nodes", [(10, 188), (20, 15_540)])
    def test_node_counts_on_perfect_matchings(self, n, nodes):
        inst = graph_instance(n, [(v, v + 1) for v in range(0, n, 2)])
        budget = Budget(10**6)
        assert max_independent_set(inst, budget) == (
            n // 2, tuple(range(0, n, 2)))
        assert budget.used == nodes

    @given(small_instances())
    def test_matches_the_recursive_search(self, inst):
        fast, slow = Budget(10**7), Budget(10**7)
        assert max_independent_set(inst, fast) == (
            oracles.reference_max_independent_set(inst, slow)
        )
        assert fast.used == slow.used


class TestCoverToColoring:
    def test_triangle_two_cover_gives_proper_four_coloring(self):
        cover = find_cover(TRIANGLE, 2)
        coloring = cover_to_coloring(cover, TRIANGLE)
        assert len(set(coloring.values())) <= 4
        for c in TRIANGLE.constraints:
            u, v = c.vars
            assert coloring[u] != coloring[v]

    def test_bipartite_one_cover_gives_two_coloring(self):
        path = graph_instance(4, [(0, 1), (1, 2), (2, 3)])
        cover = find_cover(path, 1)
        coloring = cover_to_coloring(cover, path)
        assert len(set(coloring.values())) == 2

    def test_rejects_non_covering_set(self):
        with pytest.raises(PreconditionError):
            cover_to_coloring(CoverSet([Assignment((0, 0, 0))]), TRIANGLE)

    def test_log_chromatic_matches_cover_number_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randrange(3, 8)
            edges = [
                e
                for e in itertools.combinations(range(n), 2)
                if rng.random() < 0.5
            ]
            if not edges:
                continue
            inst = graph_instance(n, edges)
            nu = covering_number(inst, 3)
            chi = oracles.brute_chromatic_number(n, edges)
            bits = (chi - 1).bit_length()  # ceil(log2 chi)
            assert bits <= nu
            assert nu == bits


class TestPredicateRewrites:
    def test_weaken_preserves_graph(self):
        inst = CspInstance(
            lin(4), range(5), [((0, 1, 2, 3), (0, 1, 0, 0), 1)]
        )
        weak = weaken_predicate(inst, nae(2, 4))
        assert weak.predicate == nae(2, 4)
        assert [c.vars for c in weak.constraints] == [
            c.vars for c in inst.constraints
        ]
        assert [c.literals for c in weak.constraints] == [
            c.literals for c in inst.constraints
        ]

    def test_weaken_to_full_makes_cover_trivial(self):
        weak = weaken_predicate(TRIANGLE, full(2, 2))
        assert covering_number(weak, 2) == 1

    def test_weaken_rejects_non_superset(self):
        with pytest.raises(PreconditionError):
            weaken_predicate(TRIANGLE, Predicate(2, 2, [(0, 1)]))

    def test_weaken_never_increases_cover_number(self):
        rng = random.Random(31)
        for _ in range(15):
            inst = random_odd_instance(rng, nvars=5)
            weak = weaken_predicate(inst, full(2, inst.predicate.k))
            nu = covering_number(inst, 3)
            nu_weak = covering_number(weak, 3)
            assert nu is not None and nu_weak <= nu

    def test_literal_shift_identity_and_round_trip(self):
        h = (1, 0)
        shifted = apply_literal_shift(TRIANGLE, h)
        assert apply_literal_shift(TRIANGLE, (0, 0)).constraints == (
            TRIANGLE.constraints
        )
        back = apply_literal_shift(shifted, sub_tuples((0, 0), h, 2))
        assert back.constraints == TRIANGLE.constraints

    def test_literal_shift_with_predicate_shift_preserves_cover_number(self):
        q = 2
        base = Predicate(2, 2, [(0, 1)])
        inst = CspInstance(
            base, range(3), [((0, 1), (0, 0), 1), ((1, 2), (0, 0), 1)]
        )
        h = (1, 1)
        # shifting literals by h and the predicate the same way relabels
        # nothing essential: membership tests see identical sums
        moved = CspInstance(
            shift(base, sub_tuples((0, 0), h, q)),
            range(3),
            [(c.vars, c.literals, c.weight) for c in inst.constraints],
        )
        moved = apply_literal_shift(moved, h)
        assert covering_number(inst, 3) == covering_number(moved, 3)


class TestAssignmentContainers:
    def test_cover_set_rejects_empty(self):
        with pytest.raises(PreconditionError):
            CoverSet([])

    def test_cover_set_rejects_mismatched_lengths(self):
        with pytest.raises(PreconditionError):
            CoverSet([Assignment((0, 1)), Assignment((0, 1, 0))])

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=6))
    def test_translate_round_trip(self, values):
        a = Assignment(values)
        assert translate_assignment(translate_assignment(a, 1, 2), 1, 2) == a


def test_searches_leave_numpy_unloaded():
    """The cover and independent-set searches run without numpy."""
    script = (
        "import sys\n"
        "from cspcover import *\n"
        "inst = CspInstance(nae(2, 2), range(4), "
        "[((0, 1), (0, 0), 1), ((1, 2), (0, 0), 1), ((0, 2), (0, 0), 1)])\n"
        "assert covering_number(inst, 3) == 2\n"
        "cover = find_cover(inst, 3)\n"
        "assert covered_fraction(cover, inst) == 1\n"
        "assert max_independent_set(inst)[0] == 2\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"
