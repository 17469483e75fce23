"""Weighted P-CSP instances, cover checking, covered fractions, and the
parity rejection identity of a set of assignments.

A constraint is (variable indices, literal vector, weight). An assignment f
covers a constraint when (f(v_1), ..., f(v_k)) + literals lands in the
predicate, coordinatewise mod q. Covering semantics ignore weights (every
positive-weight constraint must be hit); fraction semantics use weights.
The exact searches live in `search`.
"""

import collections
import itertools
import math
from fractions import Fraction
from operator import attrgetter

from . import _forward
from .errors import (
    Frozen, FrozenValue, PreconditionError, _scaled, as_budget, as_index, as_int,
    as_rational, as_word)
from .predicate import add_tuples, is_odd, sub_tuples

__getattr__ = _forward(globals(), dict.fromkeys("""cover_to_coloring
    covering_number find_cover max_independent_set""".split(), "search"))


def _literal_vector(given):
    """A literal vector as an int tuple read by `as_int`, a string as digits."""
    if isinstance(given, str):
        given = [ord(c) - ord("0") if "0" <= c <= "9" else c for c in given]
    return tuple(as_int(x, "literal") for x in given)


class Constraint(FrozenValue):
    __slots__ = ("vars", "literals", "weight")
    _key = attrgetter("vars", "literals", "weight")

    def __init__(self, vars, literals, weight):
        self._fill(vars=tuple(as_int(v, "scope variable") for v in vars),
                   literals=_literal_vector(literals),
                   weight=as_rational(weight, "constraint weight"))

    def __repr__(self):
        return "Constraint(%r, %r, %s)" % (self.vars, self.literals, self.weight)


def _first_fault(scopes, literals, weights, k, q, n):
    """Raise the error of the first atom that fails a check, checking atom by
    atom: arity, variable range, literal range, then the sign of its weight
    (a rational)."""
    for vars_, lits, w in zip(scopes, literals, weights):
        if len(vars_) != k or len(lits) != k:
            problem = "does not match arity %d" % k
        elif min(vars_) < 0 or max(vars_) >= n:
            problem = "references unknown variables"
        elif min(lits) < 0 or max(lits) >= q:
            problem = "has literals outside [q]"
        elif w < 0:
            raise PreconditionError("constraint weights must be nonnegative")
        else:
            continue
        raise PreconditionError(
            "constraint %r %s" % (Constraint(vars_, lits, w), problem)
        )


# Constraint columns as `CspInstance` takes them in place of constraints:
# constraint i has the scope `scopes[i]` and the literal vector
# `literals[i]`, int tuples (equal vectors given as one tuple), and the
# weight numerators[i] / denominator.
_Columns = collections.namedtuple(
    "Columns", "scopes literals numerators denominator")


def _triple_columns(constraints, k, q, n):
    """The columns of (vars, literals, weight) triples or `Constraint`
    objects, read once: int tuple scopes and literal vectors, and integer
    numerators over the lcm of the weights' denominators. Each literal
    vector is read as given, and equal vectors share one tuple; an int
    weight is kept as it is. When reading fails, an atom read before that
    fails a check is reported instead. A weight that is not a rational is
    reported before its own atom's structural checks, since their message
    shows it."""
    vectors = {}  # int tuple -> the one tuple kept for it
    scopes, literals, weights = [], [], []
    try:
        for c in constraints:
            vars_, lits, w = (
                (c.vars, c.literals, c.weight) if isinstance(c, Constraint) else c
            )
            vars_ = tuple(as_int(v, "scope variable") for v in vars_)
            read = _literal_vector(lits)
            lits = vectors.setdefault(read, read)
            weights.append(
                w if type(w) is int else as_rational(w, "constraint weight"))
            scopes.append(vars_)
            literals.append(lits)
    except Exception:
        _first_fault(scopes, literals, weights, k, q, n)
        raise
    return (scopes, literals) + _scaled(weights)


class CspInstance(Frozen):
    """Predicate, variables, and weighted constraints with literal vectors.

    `variables` is a sequence of hashable labels, a `range` kept as is;
    constraints reference them by index. `constraints` is any iterable, a
    generator included, of `Constraint` objects or (vars, literals, weight)
    triples, read once; inside the package it may instead be `_Columns`.
    The instance is held in integer columns: constraint i has the scope
    `scopes[i]` (a tuple of variable indices), the literal vector
    `literals[i]` (equal vectors share one tuple) and the weight
    `numerators[i] / denominator`.

    One column core builds every instance. The triples are read into
    columns, with numerators over the lcm of the weights' denominators;
    `textio.parse_instance` parses its lines into columns, and the
    generators and samplers of `reductions` build theirs directly, with
    integer numerators over one denominator D. The core checks the columns
    in bulk (arity, variable and literal ranges, nonnegative weights) and
    scans them atom by atom only to name the first failing atom. It merges
    duplicate (scope, literals) pairs by summing numerators, in
    first-occurrence order, and divides D and the numerators by the gcd of
    D and all given numerators, so `denominator` is the lcm of the given
    weights' reduced denominators. The tuple `constraints` of `Constraint`
    objects is built from the columns on first access, and kept.
    """

    __slots__ = (
        "predicate", "variables", "scopes", "literals", "denominator",
        "numerators", "_index", "_constraints",
    )

    def __init__(self, predicate, variables, constraints):
        index = None  # a range repeats no label; indexed on first use
        if not isinstance(variables, range):
            variables, index = tuple(variables), {}
            for i, v in enumerate(variables):
                if v in index:
                    raise PreconditionError("duplicate variable label %r" % (v,))
                index[v] = i
        k, q, n = predicate.k, predicate.q, len(variables)
        scopes, literals, numerators, den = (
            constraints if isinstance(constraints, _Columns)
            else _triple_columns(constraints, k, q, n))
        vectors = dict(zip(map(id, literals), literals)).values()  # distinct
        used = set(itertools.chain.from_iterable(scopes))
        if not (
            all(len(v) == k and min(v) >= 0 and max(v) < q for v in vectors)
            and set(map(len, scopes)) <= {k}
            and (not used or min(used) >= 0 and max(used) < n)
            and (not numerators or min(numerators) >= 0)
        ):
            _first_fault(scopes, literals, map(
                Fraction, numerators, itertools.repeat(den)), k, q, n)
        g = math.gcd(den, *numerators)
        if len(set(scopes)) < len(scopes):  # (scope, literals) pairs may repeat
            merged = {}
            for pair, m in zip(zip(scopes, literals), numerators):
                merged[pair] = merged.get(pair, 0) + m
            scopes, literals = zip(*merged)
            numerators = merged.values()
        if g > 1:
            numerators = [m // g for m in numerators]
        numerators = tuple(numerators)
        if numerators and not any(numerators):
            raise PreconditionError("total constraint weight must be positive")
        self._fill(
            predicate=predicate, variables=variables, scopes=tuple(scopes),
            literals=tuple(literals), denominator=den // g,
            numerators=numerators, _index=index, _constraints=None,
        )

    @property
    def constraints(self):
        """The constraints as `Constraint` objects, in column order."""
        if self._constraints is None:
            self._fill(_constraints=tuple(map(
                Constraint._trusted, self.scopes, self.literals, self._weights()
            )))
        return self._constraints

    def _weights(self):
        """The weight column as Fractions, one object per distinct value."""
        shared = {m: Fraction(m, self.denominator) for m in set(self.numerators)}
        return map(shared.__getitem__, self.numerators)

    @property
    def nvars(self):
        return len(self.variables)

    def var_index(self, label):
        if self._index is None:
            self._fill(_index={v: i for i, v in enumerate(self.variables)})
        return self._index[label]

    def total_weight(self):
        return Fraction(sum(self.numerators), self.denominator)

    def __repr__(self):
        return "CspInstance(q=%d, k=%d, %d vars, %d constraints)" % (
            self.predicate.q,
            self.predicate.k,
            self.nvars,
            len(self.numerators),
        )


class Assignment(FrozenValue):
    """A total map from variable index to [q], stored as a value tuple."""

    __slots__ = ("values",)
    _key = attrgetter("values")

    def __init__(self, values):
        self._fill(values=tuple(as_int(x, "assignment value") for x in values))

    def __repr__(self):
        return "Assignment(%r)" % (self.values,)


class CoverSet(Frozen):
    """A nonempty sequence of assignments over one variable set."""

    __slots__ = ("assignments",)

    def __init__(self, assignments):
        assignments = tuple(
            a if isinstance(a, Assignment) else Assignment(a) for a in assignments
        )
        if not assignments:
            raise PreconditionError("cover set must be nonempty")
        n = len(assignments[0].values)
        if any(len(a.values) != n for a in assignments):
            raise PreconditionError("assignments span different variable sets")
        self._fill(assignments=assignments)

    def __len__(self):
        return len(self.assignments)

    def __iter__(self):
        return iter(self.assignments)


def _check_assignment(a, inst):
    if len(a.values) != inst.nvars:
        raise PreconditionError(
            "assignment has %d values for %d variables" % (len(a.values), inst.nvars)
        )
    q = inst.predicate.q
    if any(x < 0 or x >= q for x in a.values):
        raise PreconditionError("assignment values outside [%d]" % q)


def _holds_on(predicate, literals):
    """The value tuples x with x + literals in the predicate: those on which
    a constraint with these literals holds."""
    q = predicate.q
    return frozenset(sub_tuples(p, literals, q) for p in predicate.members)


def covers_constraint(a, inst, idx):
    """True iff assignment a satisfies constraint idx of inst."""
    _check_assignment(a, inst)
    idx = as_index(idx, len(inst.numerators), "constraint index")
    q = inst.predicate.q
    vals = tuple(a.values[v] for v in inst.scopes[idx])
    return add_tuples(vals, inst.literals[idx], q) in inst.predicate


def covered_fractions(assignments, inst):
    """Covered weight fraction of each assignment and of their union, in one
    pass over the constraints: (list of fractions, union fraction).

    An empty constraint list counts as fully covered. Membership is tested
    against `_holds_on` of each distinct literal vector.
    """
    assignments = list(assignments)
    for a in assignments:
        _check_assignment(a, inst)
    if not inst.numerators:
        return [Fraction(1)] * len(assignments), Fraction(1)
    rows = [a.values for a in assignments]
    accepted = {}
    hits = [0] * len(rows)
    union = 0
    for vars_, lits, w in zip(inst.scopes, inst.literals, inst.numerators):
        accept = accepted.get(lits)
        if accept is None:
            accept = accepted[lits] = _holds_on(inst.predicate, lits)
        covered = False
        for i, values in enumerate(rows):
            if tuple(map(values.__getitem__, vars_)) in accept:
                hits[i] += w
                covered = True
        if covered:
            union += w
    total = sum(inst.numerators)
    return [Fraction(h, total) for h in hits], Fraction(union, total)


def covered_fraction(cs, inst):
    """Weight fraction of constraints covered by at least one assignment in cs.

    An empty constraint list counts as fully covered.
    """
    return covered_fractions(cs, inst)[1]


class RejectionIdentityResult(Frozen):
    __slots__ = ("t", "lhs", "rhs", "deviation", "correlations", "threshold",
                 "witnesses")

    def __init__(self, t, lhs, rhs, correlations):
        threshold = Fraction(-1, 2 ** t - 1)
        correlations = dict(correlations)
        self._fill(
            t=t, lhs=lhs, rhs=rhs, deviation=lhs - rhs,
            correlations=correlations, threshold=threshold,
            witnesses=tuple(sorted(
                s for s, c in correlations.items() if c <= threshold
            )),
        )

    def __repr__(self):
        return "RejectionIdentityResult(t=%d, deviation=%s)" % (
            self.t, self.deviation,
        )


def rejection_identity_check(assignments, inst, budget=None):
    """Both sides of the parity rejection expansion, exactly.

    The left side is the weight of constraints on which every one of the t
    assignments has even total parity (rejection under the odd-parity
    reading); the right side is 1/2^t plus 1/2^t times the sum over nonempty
    index sets S of the signed correlation of the S-products. Also reports,
    per S, whether the correlation reaches the -1/(2^t - 1) threshold.
    """
    budget = as_budget(budget)
    t = len(assignments)
    if not 1 <= t <= 3:
        raise PreconditionError("between 1 and 3 assignments required")
    rows = []
    for a in assignments:
        a = a if isinstance(a, Assignment) else Assignment(a)
        if len(a.values) != inst.nvars:
            raise PreconditionError("assignment does not match the instance")
        if any(v not in (0, 1) for v in a.values):
            raise PreconditionError("assignments must be binary")
        rows.append(a.values)
    # by_parity[m]: weight of the constraints on which assignment i has odd
    # parity exactly for the bits i set in m.
    by_parity = [0] * (1 << t)
    for vars_, w in zip(inst.scopes, inst.numerators):
        budget.spend()
        m = 0
        for i, row in enumerate(rows):
            m |= (sum(map(row.__getitem__, vars_)) & 1) << i
        by_parity[m] += w
    total = sum(inst.numerators)
    correlations = {}
    for r in range(1, t + 1):
        for s in itertools.combinations(range(t), r):
            mask = sum(1 << i for i in s)
            correlations[s] = Fraction(sum(
                -w if (m & mask).bit_count() % 2 else w
                for m, w in enumerate(by_parity)
            ), total)
    lhs = Fraction(by_parity[0], total)
    rhs = Fraction(1, 2 ** t) * (1 + sum(correlations.values()))
    return RejectionIdentityResult(t, lhs, rhs, correlations)


def translate_assignment(a, b, q):
    """The assignment a + b-bar (every value shifted by b mod q)."""
    return Assignment((x + b) % q for x in a.values)


def trivial_odd_cover(inst, a):
    """The q translates of a; a valid cover whenever the predicate is odd."""
    if not is_odd(inst.predicate):
        raise PreconditionError("predicate is not odd")
    _check_assignment(a, inst)
    q = inst.predicate.q
    return CoverSet(translate_assignment(a, b, q) for b in range(q))


def _bit_indices(m):
    """Indices of the set bits of m, ascending."""
    return [j for j, bit in enumerate(bin(m)[:1:-1]) if bit == "1"]


def weaken_predicate(inst, superset):
    """Same constraints and literals, predicate replaced by a superset."""
    if not inst.predicate.issubset(superset):
        raise PreconditionError("replacement predicate is not a superset")
    return CspInstance(superset, inst.variables, _Columns(
        inst.scopes, inst.literals, inst.numerators, inst.denominator))


def apply_literal_shift(inst, h):
    """Add h to every literal vector mod q; the predicate stays untouched.

    Pairing with shift(predicate, -h) preserves covering numbers; that pairing
    is the caller's reduction step, not done here.
    """
    q = inst.predicate.q
    h = as_word(h, inst.predicate.k, q, "shift vector")
    shifted = {lits: add_tuples(lits, h, q) for lits in set(inst.literals)}
    return CspInstance(inst.predicate, inst.variables, _Columns(
        inst.scopes, list(map(shifted.__getitem__, inst.literals)),
        inst.numerators, inst.denominator))
