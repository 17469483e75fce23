"""Predicate algebra over [q]^k.

A predicate is a subset of [q]^k. Members are stored sorted and deduplicated so
equality is structural; instances are immutable and hashable. Tuples are added
and subtracted coordinatewise mod q throughout.
"""

import itertools
from operator import attrgetter

from .errors import FrozenValue, PreconditionError


class Predicate(FrozenValue):
    """A subset of [q]^k together with its alphabet size and arity."""

    __slots__ = ("q", "k", "members", "_set")
    _key = attrgetter("q", "k", "members")

    def __init__(self, q, k, members):
        q = int(q)
        k = int(k)
        if q < 2:
            raise PreconditionError("alphabet size must be at least 2")
        if k < 1:
            raise PreconditionError("arity must be at least 1")
        canon = set()
        for m in members:
            t = tuple(int(x) for x in m)
            if len(t) != k:
                raise PreconditionError("member %r does not have length %d" % (m, k))
            if any(x < 0 or x >= q for x in t):
                raise PreconditionError("member %r has entries outside [%d]" % (m, q))
            canon.add(t)
        self._fill(q=q, k=k, members=tuple(sorted(canon)),
                   _set=frozenset(canon))

    def __contains__(self, t):
        return tuple(t) in self._set

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return "Predicate(q=%d, k=%d, %d members)" % (self.q, self.k, len(self.members))

    def issubset(self, other):
        if (self.q, self.k) != (other.q, other.k):
            raise PreconditionError("predicates live over different domains")
        return self._set <= other._set


def add_tuples(x, y, q):
    """Coordinatewise sum mod q."""
    return tuple((a + b) % q for a, b in zip(x, y))


def sub_tuples(x, y, q):
    """Coordinatewise difference mod q."""
    return tuple((a - b) % q for a, b in zip(x, y))


def constant_tuple(b, k):
    return (b,) * k


def all_tuples(q, k):
    """All of [q]^k in lexicographic order."""
    return itertools.product(range(q), repeat=k)


def is_odd(p):
    """True iff every x in [q]^k has some constant translate x + a inside p."""
    for x in all_tuples(p.q, p.k):
        if not any(add_tuples(x, constant_tuple(a, p.k), p.q) in p for a in range(p.q)):
            return False
    return True


def find_non_odd_witness(p):
    """Lexicographically smallest h whose q translates all avoid p, or None.

    Returns None exactly when p is odd.
    """
    for h in all_tuples(p.q, p.k):
        if all(add_tuples(h, constant_tuple(b, p.k), p.q) not in p for b in range(p.q)):
            return h
    return None


def shift(p, h):
    """The predicate {x - h mod q : x in p}."""
    h = tuple(int(x) for x in h)
    if len(h) != p.k or any(x < 0 or x >= p.q for x in h):
        raise PreconditionError("shift vector %r is not in [%d]^%d" % (h, p.q, p.k))
    return Predicate(p.q, p.k, (sub_tuples(x, h, p.q) for x in p.members))


def translate_closure(p):
    """The predicate {a + b-bar : a in p, b in [q]}."""
    closed = set()
    for a in p.members:
        for b in range(p.q):
            closed.add(add_tuples(a, constant_tuple(b, p.k), p.q))
    return Predicate(p.q, p.k, closed)


def translate_orbit(q, k, a):
    """The q translates {a + b-bar : b in [q]} of a single tuple."""
    a = tuple(int(x) for x in a)
    if len(a) != k or any(x < 0 or x >= q for x in a):
        raise PreconditionError("tuple %r is not in [%d]^%d" % (a, q, k))
    return frozenset(add_tuples(a, constant_tuple(b, k), q) for b in range(q))


def is_shift_closed(p):
    """True iff p is invariant under adding any constant tuple."""
    return all(
        add_tuples(m, constant_tuple(b, p.k), p.q) in p
        for m in p.members
        for b in range(p.q)
    )


def nae(q, k):
    """The not-all-equal predicate: [q]^k minus the constant tuples."""
    if q < 2 or k < 2:
        raise PreconditionError("NAE needs q >= 2 and k >= 2")
    consts = {constant_tuple(b, k) for b in range(q)}
    return Predicate(q, k, (t for t in all_tuples(q, k) if t not in consts))


def lin(k):
    """Odd-parity strings of length k over bits (3-LIN at k=3, 2k-LIN at even arity)."""
    if k < 1:
        raise PreconditionError("arity must be at least 1")
    return Predicate(2, k, (t for t in all_tuples(2, k) if sum(t) % 2 == 1))


def cnf(k):
    """The k-clause predicate: every bit string except all-zeros."""
    if k < 1:
        raise PreconditionError("arity must be at least 1")
    return Predicate(2, k, (t for t in all_tuples(2, k) if any(t)))


def full(q, k):
    """All of [q]^k."""
    return Predicate(q, k, all_tuples(q, k))
