"""Shared error types and enumeration budgets.

Exit-code discipline for the CLI hangs off these: GuaranteeError maps to exit
status 1, BudgetExceededError to 2, PreconditionError (and its FormatError
subclass) to 3.
"""

DEFAULT_BUDGET = 10**9

# Largest product domain, in points, that is ever tabulated in full.
MAX_TABLE = 1 << 24


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


class Budget:
    """Mutable counter of candidate evaluations with a hard cap."""

    __slots__ = ("limit", "used")

    def __init__(self, limit=DEFAULT_BUDGET):
        if limit is None:
            limit = DEFAULT_BUDGET
        if limit <= 0:
            raise PreconditionError("budget must be positive")
        self.limit = int(limit)
        self.used = 0

    def spend(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(
                "enumeration budget exceeded (%s > %d candidate evaluations)"
                % (_magnitude(self.used), self.limit)
            )


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
