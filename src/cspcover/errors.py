"""Shared error types, enumeration budgets, the immutable-record base, and
the one reader of rationals and the one scaling of them to integers, and
the readers of integer arguments, indices and digit words.

Exit-code discipline for the CLI hangs off these: GuaranteeError maps to exit
status 1, BudgetExceededError to 2, PreconditionError (and its FormatError
subclass) to 3.
"""

import math
import operator
from decimal import Decimal
from fractions import Fraction

DEFAULT_BUDGET = 10**9

# Largest product domain, in points, that is ever tabulated in full.
MAX_TABLE = 1 << 24

# Most digits plus exponent size of a Decimal that is read, as many digits
# as int() reads from a string by default.
MAX_DIGITS = 4300


class BudgetExceededError(RuntimeError):
    """An exact search ran past its configured budget (never silently truncated)."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the given inputs."""


class FormatError(PreconditionError):
    """A textual input does not parse under the documented format."""


class GuaranteeError(ArithmeticError):
    """A mathematical guarantee the library checks on its own result failed."""


def check_table_size(size):
    """Refuse a full table over a domain of `size` points above MAX_TABLE."""
    if size > MAX_TABLE:
        raise PreconditionError(
            "domain has %d points; full tables are capped at %d" % (size, MAX_TABLE)
        )


def as_rational(value, what):
    """value as a Fraction, a Fraction kept as it is; anything but a rational
    is refused, naming it as `what`. So is a string in exponent form, for
    which Fraction would build 10**exp for any exp, and a Decimal whose
    digits and exponent size add up to more than MAX_DIGITS."""
    if type(value) is Fraction:
        return value
    try:
        if isinstance(value, Decimal):
            _, digits, exp = value.as_tuple()
            ok = value.is_finite() and len(digits) + abs(exp) <= MAX_DIGITS
        else:
            ok = not (isinstance(value, str) and "e" in value.lower())
        if ok:
            return Fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise PreconditionError("%s %r is not a rational" % (what, value))


def as_int(value, what):
    """value as an int, by `operator.index`: a float, a string or None is
    refused, naming it as `what`."""
    try:
        return operator.index(value)
    except TypeError:
        raise PreconditionError("%s %r is not an integer" % (what, value)) from None


def as_index(value, size, what):
    """value as an int in [0, size), read by `as_int`; an int outside is
    refused as "<what> out of range"."""
    value = as_int(value, what)
    if not 0 <= value < size:
        raise PreconditionError("%s out of range" % what)
    return value


def as_word(values, length, base, what):
    """values as a tuple of `length` ints in [0, base), each read by
    `operator.index`; anything else is refused, naming it as `what`."""
    try:
        word = tuple(map(operator.index, values))
        if len(word) == length and all(0 <= x < base for x in word):
            return word
    except TypeError:
        pass
    raise PreconditionError("%s %r is not in [%d]^%d" % (what, values, base, length))


def _scaled(values):
    """Rationals or ints as (integers, denominator) over the lcm of their
    denominators; in lowest terms when the values are."""
    den = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values], den


class Frozen:
    """Base of the library's immutable records.

    Fields live in `__slots__` and are set by the constructor through `_fill`;
    assigning or deleting one afterwards raises AttributeError. Equality and
    hashing are by identity. `copy`, `deepcopy` and `pickle` restore the slot
    state that `object` reports through `__setstate__`.
    """

    __slots__ = ()

    def _fill(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """A record of checked values in `__slots__` order, kept as they are."""
        record = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(record, name, value)
        return record

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __setstate__(self, state):
        # (None, {slot: value}): a slotted object has no instance dict.
        self._fill(**state[1])


class FrozenValue(Frozen):
    """A Frozen record equal to any record of its class with the same `_key`,
    an `operator.attrgetter` of the fields that make its value; the hash is
    the key's hash."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))


class Budget:
    """Mutable counter of candidate evaluations with a hard cap."""

    __slots__ = ("limit", "used")

    def __init__(self, limit=DEFAULT_BUDGET):
        limit = DEFAULT_BUDGET if limit is None else as_int(limit, "budget")
        if limit <= 0:
            raise PreconditionError("budget must be positive")
        self.limit = limit
        self.used = 0

    def spend(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(
                "enumeration budget exceeded (%s > %d candidate evaluations)"
                % (_magnitude(self.used), self.limit)
            )

    def spend_each(self, n):
        """n units at once, refused as n calls of `spend()` would be: `used`
        stops one unit past the limit, or past where it stood."""
        if n > 0:
            self.spend(min(n, max(1, self.limit + 1 - self.used)))


def _magnitude(n):
    """n in decimal, or a power-of-two floor when it is too long to print; a
    bulk spend can be as large as q^nvars."""
    if n.bit_length() <= 64:
        return "%d" % n
    return "at least 2^%d" % (n.bit_length() - 1)


def as_budget(budget):
    """Coerce an int, None, or Budget into a Budget instance."""
    if isinstance(budget, Budget):
        return budget
    return Budget(budget)
