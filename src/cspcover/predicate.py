"""Predicate algebra over [q]^k.

A predicate is a subset of [q]^k. Members are stored sorted and deduplicated so
equality is structural; instances are immutable and hashable. Tuples are added
and subtracted coordinatewise mod q throughout.
"""

import itertools
from operator import attrgetter

from .errors import FrozenValue, PreconditionError, as_int, as_word


class Predicate(FrozenValue):
    """A subset of [q]^k together with its alphabet size and arity."""

    __slots__ = ("q", "k", "members", "_set")
    _key = attrgetter("q", "k", "members")

    def __init__(self, q, k, members):
        q = as_int(q, "q")
        k = as_int(k, "k")
        if q < 2:
            raise PreconditionError("alphabet size must be at least 2")
        if k < 1:
            raise PreconditionError("arity must be at least 1")
        canon = {as_word(m, k, q, "member") for m in members}
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
    return find_non_odd_witness(p) is None


def find_non_odd_witness(p):
    """Lexicographically smallest h whose q translates all avoid p, or None.

    Returns None exactly when p is odd.
    """
    for h in all_tuples(p.q, p.k):
        if all(t not in p for t in _orbit(h, p.q)):
            return h
    return None


def shift(p, h):
    """The predicate {x - h mod q : x in p}."""
    h = as_word(h, p.k, p.q, "shift vector")
    return Predicate(p.q, p.k, (sub_tuples(x, h, p.q) for x in p.members))


def _orbit(a, q):
    """The q translates a + b-bar of a tuple over [q], for b = 0 .. q - 1."""
    return [tuple([(x + b) % q for x in a]) for b in range(q)]


def translate_closure(p):
    """The predicate {a + b-bar : a in p, b in [q]}."""
    return Predicate(p.q, p.k, (t for a in p.members for t in _orbit(a, p.q)))


def translate_orbit(q, k, a):
    """The q translates {a + b-bar : b in [q]} of a single tuple."""
    q, k = as_int(q, "q"), as_int(k, "k")
    return frozenset(_orbit(as_word(a, k, q, "tuple"), q))


def is_shift_closed(p):
    """True iff p is invariant under adding any constant tuple."""
    return all(t in p for m in p.members for t in _orbit(m, p.q))


def nae(q, k):
    """The not-all-equal predicate: [q]^k minus the constant tuples."""
    q, k = as_int(q, "q"), as_int(k, "k")
    if q < 2 or k < 2:
        raise PreconditionError("NAE needs q >= 2 and k >= 2")
    consts = {constant_tuple(b, k) for b in range(q)}
    return Predicate(q, k, (t for t in all_tuples(q, k) if t not in consts))


def lin(k):
    """Odd-parity strings of length k over bits (3-LIN at k=3, 2k-LIN at even arity)."""
    k = as_int(k, "k")
    if k < 1:
        raise PreconditionError("arity must be at least 1")
    return Predicate(2, k, (t for t in all_tuples(2, k) if sum(t) % 2 == 1))


def cnf(k):
    """The k-clause predicate: every bit string except all-zeros."""
    k = as_int(k, "k")
    if k < 1:
        raise PreconditionError("arity must be at least 1")
    return Predicate(2, k, (t for t in all_tuples(2, k) if any(t)))


def full(q, k):
    """All of [q]^k."""
    q, k = as_int(q, "q"), as_int(k, "k")
    # `Predicate` refuses k < 1; `product` would refuse k < 0 first.
    return Predicate(q, k, all_tuples(q, k) if k > 0 else ())
