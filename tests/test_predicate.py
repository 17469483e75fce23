import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cspcover import (
    Predicate,
    PreconditionError,
    all_tuples,
    cnf,
    constant_tuple,
    find_non_odd_witness,
    full,
    is_odd,
    is_shift_closed,
    lin,
    nae,
    shift,
    sub_tuples,
    translate_closure,
    translate_orbit,
)


def all_predicates(q, k):
    universe = list(itertools.product(range(q), repeat=k))
    for r in range(1, len(universe) + 1):
        for members in itertools.combinations(universe, r):
            yield Predicate(q, k, members)


class TestConstruction:
    def test_members_are_deduplicated_and_sorted(self):
        p = Predicate(2, 2, [(1, 0), (0, 1), (1, 0)])
        assert p.members == ((0, 1), (1, 0))
        assert len(p) == 2

    def test_rejects_wrong_arity_member(self):
        with pytest.raises(PreconditionError):
            Predicate(2, 2, [(0, 1, 0)])

    def test_rejects_out_of_range_symbol(self):
        with pytest.raises(PreconditionError):
            Predicate(2, 2, [(0, 2)])

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(PreconditionError):
            Predicate(1, 2, [(0, 0)])

    def test_structural_equality(self):
        a = Predicate(2, 2, [(0, 1), (1, 0)])
        b = Predicate(2, 2, [(1, 0), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Predicate(2, 2, [(0, 1)])

    def test_membership(self):
        p = nae(2, 2)
        assert (0, 1) in p and (1, 0) in p
        assert (0, 0) not in p and (1, 1) not in p


class TestConstructors:
    def test_nae_2_2_is_the_two_mixed_pairs(self):
        assert nae(2, 2).members == ((0, 1), (1, 0))

    def test_nae_sizes(self):
        assert len(nae(2, 3)) == 6
        assert len(nae(3, 2)) == 6

    def test_nae_rejects_unary(self):
        with pytest.raises(PreconditionError):
            nae(2, 1)
        with pytest.raises(PreconditionError):
            nae(1, 2)

    def test_lin_is_odd_parity_strings(self):
        p = lin(3)
        assert all(sum(m) % 2 == 1 for m in p.members)
        assert len(p) == 4

    def test_cnf_excludes_only_all_zero(self):
        p = cnf(3)
        assert len(p) == 7 and (0, 0, 0) not in p

    def test_full_is_everything(self):
        assert len(full(3, 2)) == 9

    def test_translate_orbit(self):
        assert translate_orbit(2, 2, (0, 1)) == {(0, 1), (1, 0)}
        assert translate_orbit(3, 2, (0, 1)) == {(0, 1), (1, 2), (2, 0)}


class TestOddness:
    def test_odd_parity_triples_are_odd(self):
        assert is_odd(lin(3))

    def test_two_bit_mixed_pairs_are_not_odd(self):
        assert not is_odd(nae(2, 2))

    def test_even_arity_parity_is_not_odd(self):
        assert not is_odd(lin(4))

    def test_clause_predicates_are_odd(self):
        assert is_odd(cnf(2)) and is_odd(cnf(3))

    def test_witness_examples(self):
        assert find_non_odd_witness(Predicate(2, 2, [(0, 1)])) == (0, 0)
        assert find_non_odd_witness(lin(3)) is None
        assert find_non_odd_witness(lin(4)) == (0, 0, 0, 0)

    def test_witness_is_lexicographically_first(self):
        p = Predicate(2, 2, [(0, 0)])
        h = find_non_odd_witness(p)
        assert h == (0, 1)  # 00's orbit hits the predicate, 01's does not

    def test_witness_absent_exactly_when_odd_exhaustive(self):
        for k in (1, 2, 3):
            for p in all_predicates(2, k):
                assert (find_non_odd_witness(p) is None) == is_odd(p)

    def test_odd_predicates_orbit_hits_everywhere(self):
        for q, k in ((2, 2), (2, 3), (3, 2)):
            for p in all_predicates(q, k):
                if not is_odd(p):
                    continue
                for x in all_tuples(q, k):
                    orbit = {
                        tuple((xi + b) % q for xi in x) for b in range(q)
                    }
                    assert orbit & set(p.members)

    def test_witness_orbit_misses_the_predicate(self):
        for p in all_predicates(2, 2):
            h = find_non_odd_witness(p)
            if h is None:
                continue
            for b in range(2):
                assert tuple((x + b) % 2 for x in h) not in p


class TestShift:
    def test_identity_shift(self):
        p = Predicate(2, 2, [(0, 1)])
        assert shift(p, (0, 0)) == p

    def test_coordinatewise_subtraction(self):
        p = Predicate(2, 2, [(1, 1), (1, 0)])
        assert shift(p, (1, 0)).members == ((0, 0), (0, 1))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            shift(nae(2, 2), (0, 0, 0))

    def test_round_trip_exhaustive(self):
        for p in all_predicates(2, 2):
            for h in all_tuples(2, 2):
                neg = sub_tuples(constant_tuple(0, 2), h, 2)
                assert shift(shift(p, h), neg) == p

    @given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    def test_round_trip_ternary(self, a, b, c):
        p = Predicate(3, 2, [(a, b), (b, c), (c, a)])
        h = (a, c)
        neg = sub_tuples(constant_tuple(0, 2), h, 3)
        assert shift(shift(p, h), neg) == p


class TestTranslateClosure:
    def test_single_pair_closes_to_its_orbit(self):
        assert translate_closure(Predicate(2, 2, [(0, 1)])) == nae(2, 2)

    def test_mixed_tuples_are_closed(self):
        for q, k in ((2, 2), (2, 3), (3, 2)):
            assert translate_closure(nae(q, k)) == nae(q, k)

    def test_closure_is_increasing_and_idempotent(self):
        for p in all_predicates(2, 3):
            c = translate_closure(p)
            assert p.issubset(c)
            assert translate_closure(c) == c

    def test_closure_of_nonconstant_tuples_avoids_constants(self):
        for p in all_predicates(2, 2):
            if p.issubset(nae(2, 2)):
                assert translate_closure(p).issubset(nae(2, 2))

    @pytest.mark.parametrize("q, k", [(2, 2), (2, 3), (3, 2)])
    def test_translation_tests_are_their_definitions(self, q, k):
        """Over every predicate on [q]^k, the empty one included, the
        translation tests equal their definitions written out: P is shift
        closed when each translate of P is P; its closure is the union of
        its translates; its non-odd witness is the least tuple (tuples
        compare lexicographically) none of whose translates lies in P."""
        universe = list(itertools.product(range(q), repeat=k))
        for chosen in range(1 << len(universe)):
            members = {x for i, x in enumerate(universe) if chosen >> i & 1}
            p = Predicate(q, k, members)
            translates = [{tuple((y + b) % q for y in x) for x in members}
                          for b in range(q)]
            assert is_shift_closed(p) == all(t == members for t in translates)
            assert set(translate_closure(p).members) == set().union(*translates)
            assert find_non_odd_witness(p) == min(
                (h for h in universe
                 if all(tuple((y + b) % q for y in h) not in members
                        for b in range(q))),
                default=None)

    def test_shift_closed_detection(self):
        assert is_shift_closed(nae(2, 2))
        assert is_shift_closed(lin(4))  # translating flips parity 4 times
        assert not is_shift_closed(lin(3))  # odd arity flips parity once
        assert not is_shift_closed(Predicate(2, 2, [(0, 1)]))
