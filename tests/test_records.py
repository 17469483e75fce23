"""The immutable records: every one refuses assignment and deletion, copies
and pickles to an equal value, and keeps its hash and repr.

Value records (equal when their fields are equal) compare equal after a
round trip; identity records compare field by field, recursing into the
identity records they hold.
"""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from cspcover.boolanalysis import (
    FourierTable,
    ProductDomain,
    TabulatedFunction,
    efron_stein,
)
from cspcover.correlated import (
    CommuteResult,
    CorrelatedSpace,
    InvarianceGap,
    MarkovOperator,
)
from cspcover.csp import Assignment, Constraint, CoverSet, CspInstance
from cspcover.errors import Frozen, FrozenValue
from cspcover.labelcover import Edge, LabelCoverInstance, Labeling
from cspcover.predicate import Predicate, lin, nae
from cspcover.reductions import (
    RejectionIdentityResult,
    T1DecodeResult,
    T1Params,
    T2DecodeResult,
    T2Params,
    T3DecodeResult,
    T3Params,
)

HALF = Fraction(1, 2)


def unique_game():
    return LabelCoverInstance(1, 1, 1, 1, [(0, 0, (0,))], unique=True)


def correlated_space():
    return CorrelatedSpace({((0,), (0,)): HALF, ((1,), (1,)): HALF})


def table():
    return TabulatedFunction(ProductDomain((2, 2)), (1, -1, -1, 1))


# name -> (a factory, the repr: a string or a pattern for object's repr, and
# for value records the tuple whose hash the record's hash is, else None).
OBJECT_REPR = r"<cspcover\.\w+\.%s object at 0x[0-9a-f]+>"
RECORDS = {
    "Predicate": (lambda: nae(2, 2), "Predicate(q=2, k=2, 2 members)",
                  lambda p: (p.q, p.k, p.members)),
    "Constraint": (lambda: Constraint((0, 1), (0, 0), HALF),
                   "Constraint((0, 1), (0, 0), 1/2)",
                   lambda c: (c.vars, c.literals, c.weight)),
    "CspInstance": (
        lambda: CspInstance(nae(2, 2), range(3), [((0, 1), (0, 0), 1)]),
        "CspInstance(q=2, k=2, 3 vars, 1 constraints)", None),
    "Assignment": (lambda: Assignment((0, 1, 1)), "Assignment((0, 1, 1))",
                   lambda a: a.values),
    "CoverSet": (lambda: CoverSet([(0, 1), (1, 0)]), None, None),
    "ProductDomain": (lambda: ProductDomain((2, 3)),
                      "ProductDomain(sizes=(2, 3))",
                      lambda d: (d.sizes, d.weights)),
    "TabulatedFunction": (
        table, "TabulatedFunction(ProductDomain(sizes=(2, 2)), 4 values)",
        lambda f: (f.domain, f.values)),
    "FourierTable": (lambda: FourierTable(1, (0, 1)), "FourierTable(n=1)",
                     None),
    "EfronSteinDecomposition": (lambda: efron_stein(table()),
                                "EfronSteinDecomposition(2 blocks)", None),
    "Edge": (lambda: Edge(0, 1, (1, 0)), "Edge(u=0, v=1, proj=(1, 0))", None),
    "LabelCoverInstance": (
        unique_game, "LabelCoverInstance(1+1 vertices, 1 edges, L=1, R=1, "
        "unique)", None),
    "Labeling": (lambda: Labeling((0,), (1, 0)),
                 "Labeling(left=(0,), right=(1, 0))",
                 lambda lab: (lab.left, lab.right)),
    "CorrelatedSpace": (correlated_space,
                        "CorrelatedSpace(2 x 2 atoms, k=(1,1))", None),
    "MarkovOperator": (lambda: MarkovOperator(correlated_space()), None,
                       None),
    "CommuteResult": (lambda: CommuteResult(True, 0.0),
                      "CommuteResult(ok=True, worst_deviation=0.0)",
                      lambda r: (r.ok, r.worst_deviation)),
    "InvarianceGap": (
        lambda: InvarianceGap(HALF, 0.25, 0.125, 2.0),
        "InvarianceGap(gap=Fraction(1, 2), bound=0.25, tau=0.125, "
        "gamma=2.0)", lambda g: (g.gap, g.bound, g.tau, g.gamma)),
    "T1Params": (lambda: T1Params(nae(2, 2), (0, 1), unique_game()), None,
                 None),
    "T2Params": (
        lambda: T2Params(lin(4), {(0, 0): HALF, (1, 1): HALF},
                         {(0, 1): HALF, (1, 0): HALF}, "1/4", unique_game()),
        None, None),
    "T3Params": (lambda: T3Params("1/4", unique_game()), None, None),
    "RejectionIdentityResult": (
        lambda: RejectionIdentityResult(1, HALF, Fraction(1, 4),
                                        {(0,): Fraction(-1)}),
        "RejectionIdentityResult(t=1, deviation=1/4)", None),
    "T1DecodeResult": (
        lambda: T1DecodeResult(Labeling((0,), (0,)), Fraction(1), [1], [2],
                               Fraction(4)), None, None),
    "T2DecodeResult": (
        lambda: T2DecodeResult(Labeling((0,), (0,)), Fraction(1), HALF,
                               HALF), None, None),
    "T3DecodeResult": (
        lambda: T3DecodeResult(Labeling((0,), (0,)), Fraction(1)), None,
        None),
}


# The records above, plus inputs of the same classes in another state: a
# table the library built from integers, whose `values` are first built
# after it has been copied or pickled.
INPUTS = dict(RECORDS, **{
    "TabulatedFunction, values not built": (
        lambda: TabulatedFunction._trusted(ProductDomain((2, 2)),
                                           (2, -2, -2, 2), 2, None),
        *RECORDS["TabulatedFunction"][1:]),
})


def test_every_record_is_listed():
    def records(cls):
        for sub in cls.__subclasses__():
            if sub is not FrozenValue and sub.__module__.startswith("cspcover"):
                yield sub
            yield from records(sub)

    assert len(RECORDS) == 23
    assert {c.__name__ for c in records(Frozen)} == set(RECORDS)


def same(a, b):
    """Equal values; identity records equal field by field."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Frozen) and not isinstance(a, FrozenValue):
        return all(same(getattr(a, f), getattr(b, f))
                   for f in type(a).__slots__)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize("name", sorted(INPUTS))
class TestRecord:
    def test_fields_are_read_only(self, name):
        record = INPUTS[name][0]()
        message = "^%s is immutable$" % type(record).__name__
        for field in type(record).__slots__:
            value = getattr(record, field)
            with pytest.raises(AttributeError, match=message):
                setattr(record, field, value)
            with pytest.raises(AttributeError, match=message):
                delattr(record, field)
            assert getattr(record, field) is value
        with pytest.raises(AttributeError, match=message):
            record.extra = 1

    def test_copies_and_pickles_are_equal(self, name):
        record = INPUTS[name][0]()
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record)
            assert same(twin, record)
            if isinstance(record, FrozenValue):
                assert twin == record and hash(twin) == hash(record)
            else:
                assert twin != record
        shallow = copy.copy(record)
        for field in type(record).__slots__:
            assert getattr(shallow, field) is getattr(record, field)

    def test_hash_and_repr(self, name):
        make, text, key = INPUTS[name]
        record = make()
        if key is None:
            assert hash(record) == object.__hash__(record)
            assert record == record and record != make()
        else:
            assert hash(record) == hash(key(record))
            assert record == make() and not record != make()
            assert record != object()
        if text is None:
            assert re.fullmatch(OBJECT_REPR % name, repr(record))
        else:
            assert repr(record) == text
