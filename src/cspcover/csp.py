"""Weighted P-CSP instances, cover checking, exact covering number, and the
covering/coloring translations.

A constraint is (variable indices, literal vector, weight). An assignment f
covers a constraint when (f(v_1), ..., f(v_k)) + literals lands in the
predicate, coordinatewise mod q. Covering semantics ignore weights (every
positive-weight constraint must be hit); fraction semantics use weights.
"""

import collections
import itertools
import math
from fractions import Fraction
from operator import attrgetter

from .errors import Frozen, FrozenValue, PreconditionError, as_budget, as_rational
from .predicate import add_tuples, is_odd, is_shift_closed, sub_tuples


class Constraint(FrozenValue):
    __slots__ = ("vars", "literals", "weight")
    _key = attrgetter("vars", "literals", "weight")

    def __init__(self, vars, literals, weight):
        self._fill(vars=tuple(map(int, vars)),
                   literals=tuple(map(int, literals)),
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
    numerators over the lcm of the weights' denominators. A literal vector
    is converted once per distinct value, and equal vectors share one tuple,
    whether given hashable or not; an int weight is kept as it is. When
    reading fails, an atom read before that fails a check is reported
    instead. A weight that is not a rational is reported before its own
    atom's structural checks, since their message shows it."""
    vectors = {}  # vector as given or converted -> int tuple
    scopes, literals, weights = [], [], []
    try:
        for c in constraints:
            vars_, lits, w = (
                (c.vars, c.literals, c.weight) if isinstance(c, Constraint) else c
            )
            vars_ = tuple(map(int, vars_))
            try:
                lits = vectors[lits]
            except (KeyError, TypeError):
                given = lits
                lits = tuple(map(int, given))
                lits = vectors.setdefault(lits, lits)
                try:
                    vectors[given] = lits
                except TypeError:
                    pass
            weights.append(
                w if type(w) is int else as_rational(w, "constraint weight"))
            scopes.append(vars_)
            literals.append(lits)
    except Exception:
        _first_fault(scopes, literals, weights, k, q, n)
        raise
    den = math.lcm(*{w.denominator for w in weights})
    return scopes, literals, [
        w.numerator * (den // w.denominator) for w in weights], den


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
        self._fill(values=tuple(map(int, values)))

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


def covers_constraint(a, inst, idx):
    """True iff assignment a satisfies constraint idx of inst."""
    _check_assignment(a, inst)
    if idx < 0 or idx >= len(inst.numerators):
        raise PreconditionError("constraint index %d out of range" % idx)
    q = inst.predicate.q
    vals = tuple(a.values[v] for v in inst.scopes[idx])
    return add_tuples(vals, inst.literals[idx], q) in inst.predicate


def covered_fractions(assignments, inst):
    """Covered weight fraction of each assignment and of their union, in one
    pass over the constraints: (list of fractions, union fraction).

    An empty constraint list counts as fully covered. Membership is tested
    against the predicate minus each distinct literal vector.
    """
    assignments = list(assignments)
    if not inst.numerators:
        return [Fraction(1)] * len(assignments), Fraction(1)
    for a in assignments:
        _check_assignment(a, inst)
    rows = [a.values for a in assignments]
    q = inst.predicate.q
    members = inst.predicate.members
    accepted = {}
    hits = [0] * len(rows)
    union = 0
    for vars_, lits, w in zip(inst.scopes, inst.literals, inst.numerators):
        accept = accepted.get(lits)
        if accept is None:
            accept = accepted[lits] = frozenset(
                sub_tuples(p, lits, q) for p in members
            )
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


def _coverage_masks(inst, budget):
    """Undominated (mask, value tuple) pairs over positive-weight constraints,
    and per constraint j the set of indices of the pairs whose mask holds j,
    as a bitset.

    Only variables in some positive-weight scope are enumerated, in index
    order and lexicographically, so each mask keeps its lex-least assignment:
    untouched variables are 0. When the predicate is closed under global
    translation the first touched variable is fixed to 0; translates then
    produce identical masks, so nothing is lost.

    The constraints on one variable set share a table attached to the depth
    of the set's last variable. Row i of the table, for the earlier variables'
    values read as base-q digits, packs the constraints satisfied under each
    value v of the last variable at bit offset v * len(cons), so one OR per
    table and tree node yields the masks of all of a node's children.
    """
    q = inst.predicate.q
    cons = [
        (vars_, lits)
        for vars_, lits, m in zip(inst.scopes, inst.literals, inst.numerators)
        if m
    ]
    touched = sorted({v for vars_, _ in cons for v in vars_})
    t = len(touched)
    if t == 0:
        return [], []
    radix = [q] * t
    if is_shift_closed(inst.predicate):
        radix[0] = 1
    width = len(cons)
    budget.spend(width * math.prod(radix))

    depth = {v: d for d, v in enumerate(touched)}
    members = inst.predicate.members
    tables = {}
    cells = {}
    for j, (vars_, lits) in enumerate(cons):
        scope = sorted(set(vars_))
        digit = tuple(scope.index(v) for v in vars_)
        key = (digit, lits)
        if key not in cells:
            # (row, offset) of each member minus the literals, read on the
            # scope's distinct variables; repeated variables must agree.
            cell = []
            for p in members:
                x = [None] * len(scope)
                for i, xi in zip(digit, sub_tuples(p, lits, q)):
                    if x[i] is None:
                        x[i] = xi
                    elif x[i] != xi:
                        break
                else:
                    row = 0
                    for xi in x[:-1]:
                        row = row * q + xi
                    cell.append((row, x[-1] * width))
            cells[key] = cell
        scope = tuple(scope)
        rows = tables.get(scope)
        if rows is None:
            rows = tables[scope] = [0] * q ** (len(scope) - 1)
        for row, offset in cells[key]:
            rows[row] |= 1 << (offset + j)
    attached = [[] for _ in range(t)]
    for scope, rows in tables.items():
        attached[depth[scope[-1]]].append((rows, [depth[v] for v in scope[:-1]]))
    spread = sum(1 << (v * width) for v in range(q))
    full = (1 << width) - 1
    vals = [0] * t

    def expand(d, m):
        """Masks of the children of a depth-d node with prefix mask m."""
        p = m * spread
        for rows, earlier in attached[d]:
            i = 0
            for e in earlier:
                i = i * q + vals[e]
            p |= rows[i]
        return [(p >> s) & full for s in range(0, radix[d] * width, width)]

    # Iterative depth-first walk; kids[d] holds the child masks of the
    # current node at depth d, vals[d] the value taken at depth d.
    last = t - 1
    kids = [None] * t
    kids[0] = expand(0, 0)
    first = {}
    leaf = 0
    d = 0
    while True:
        while d < last:
            m = kids[d][vals[d]]
            d += 1
            vals[d] = 0
            kids[d] = expand(d, m)
        for m in kids[last]:
            if m not in first:
                first[m] = leaf
            leaf += 1
        d = last - 1
        while d >= 0 and vals[d] + 1 == radix[d]:
            d -= 1
        if d < 0:
            break
        vals[d] += 1
    first.pop(0, None)

    # Drop masks dominated by a superset mask; lossless for minimum covers.
    # holders[j] has bit r set when kept mask r contains constraint j, so a
    # mask is dominated iff the AND of holders over its bits is nonzero.
    holders = [0] * width
    kept = []
    for m in sorted(first, key=int.bit_count, reverse=True):
        bits = _bit_indices(m)
        common = -1
        for j in bits:
            common &= holders[j]
            if not common:
                break
        if common:
            continue
        flag = 1 << len(kept)
        for j in bits:
            holders[j] |= flag
        kept.append(m)

    # Decode the kept masks' first leaves digit by digit, one column per
    # touched variable; untouched variables stay 0.
    index = [first[m] for m in kept]
    columns = [[0] * len(kept)] * inst.nvars
    for d in range(last, -1, -1):
        r = radix[d]
        columns[touched[d]] = [i % r for i in index]
        index = [i // r for i in index]
    return list(zip(kept, zip(*columns))), holders


def _cover_search(inst, max_c, budget):
    """Smallest cover of size <= max_c, or None. Exact."""
    if max_c < 1:
        raise PreconditionError("max_c must be at least 1")
    if not any(inst.numerators):
        return 0, CoverSet([Assignment([0] * inst.nvars)]) if inst.nvars else None
    pairs, holders = _coverage_masks(inst, budget)
    full_mask = (1 << len(holders)) - 1
    if not all(holders):
        return None, None
    masks = [m for m, _ in pairs]
    counts = [h.bit_count() for h in holders]
    candidates = {}

    def options(j):
        """The masks holding constraint j, in the order of `masks`."""
        if j not in candidates:
            candidates[j] = [masks[r] for r in _bit_indices(holders[j])]
        return candidates[j]

    def search(covered, chosen, remaining):
        budget.spend()
        if covered == full_mask:
            return list(chosen)
        if remaining == 0:
            return None
        # Branch on the uncovered constraint with the fewest candidate masks.
        scan = (~covered) & full_mask
        best = None
        while scan:
            b = scan & (-scan)
            j = b.bit_length() - 1
            if best is None or counts[j] < counts[best]:
                best = j
                if counts[j] <= 1:
                    break
            scan ^= b
        for m in options(best):
            chosen.append(m)
            found = search(covered | m, chosen, remaining - 1)
            chosen.pop()
            if found is not None:
                return found
        return None

    by_mask = dict(pairs)
    for c in range(1, max_c + 1):
        found = search(0, [], c)
        if found is not None:
            return c, CoverSet(by_mask[m] for m in found)
    return None, None


def covering_number(inst, max_c, budget=None):
    """Smallest c <= max_c with a covering c-set of assignments, or None.

    Exact enumeration with pruning; empty instances have covering number 0.
    Raises BudgetExceededError (distinct from returning None) past the budget.
    """
    c, _ = _cover_search(inst, max_c, as_budget(budget))
    return c


def find_cover(inst, max_c, budget=None):
    """A witness CoverSet of minimum size <= max_c, or None."""
    return _cover_search(inst, max_c, as_budget(budget))[1]


def max_independent_set(inst, budget=None):
    """Exact maximum variable subset containing no positive-weight constraint.

    Returns (size, witness tuple of variable indices); deterministic witness.
    """
    budget = as_budget(budget)
    n = inst.nvars
    cons = sorted(
        {frozenset(s) for s, m in zip(inst.scopes, inst.numerators) if m},
        key=sorted,
    )
    # Constraints touching each variable, for incremental violation counts.
    touching = [[] for _ in range(n)]
    for j, s in enumerate(cons):
        for v in s:
            touching[v].append(j)
    need = [len(s) for s in cons]
    inside = [0] * len(cons)
    best_size, best_set = -1, ()
    chosen = []
    # Explicit stack: v enters the node for variable v (include v, then
    # exclude it); ~v undoes the inclusion of v and enters the exclude branch.
    stack = [0]
    while stack:
        v = stack.pop()
        if v < 0:
            v = ~v
            for j in touching[v]:
                inside[j] -= 1
            chosen.pop()
            stack.append(v + 1)
            continue
        budget.spend()
        if len(chosen) + (n - v) <= best_size:
            continue
        if v == n:
            if len(chosen) > best_size:
                best_size, best_set = len(chosen), tuple(chosen)
            continue
        # v would complete a constraint whose other variables are all chosen.
        if any(inside[j] == need[j] - 1 for j in touching[v]):
            stack.append(v + 1)
            continue
        chosen.append(v)
        for j in touching[v]:
            inside[j] += 1
        stack.append(~v)
        stack.append(v + 1)
    return best_size, best_set


def cover_to_coloring(cs, inst):
    """Color each variable by its tuple of assigned values across the cover.

    Needs a NAE-subset predicate, all-zero literals, and a genuine cover; the
    result is a proper coloring of the constraint (hyper)graph.
    """
    from .predicate import nae

    pred = inst.predicate
    if pred.k < 2 or not pred.issubset(nae(pred.q, pred.k)):
        raise PreconditionError("predicate is not contained in NAE")
    if any(x != 0 for lits in inst.literals for x in lits):
        raise PreconditionError("instance has nonzero literals")
    for a in cs:
        _check_assignment(a, inst)
    active = [
        (idx, vars_)
        for idx, (vars_, m) in enumerate(zip(inst.scopes, inst.numerators))
        if m
    ]
    for idx, vars_ in active:
        if not any(tuple(a.values[v] for v in vars_) in pred for a in cs):
            raise PreconditionError("cover set does not cover constraint %d" % idx)
    coloring = {
        i: tuple(a.values[i] for a in cs) for i in range(inst.nvars)
    }
    for _, vars_ in active:
        colors = {coloring[v] for v in vars_}
        if len(colors) == 1 and len(set(vars_)) == len(vars_):
            raise PreconditionError("coloring left a constraint monochromatic")
    return coloring


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
    h = tuple(int(x) for x in h)
    if len(h) != inst.predicate.k or any(x < 0 or x >= q for x in h):
        raise PreconditionError("shift vector %r is not in [q]^k" % (h,))
    shifted = {lits: add_tuples(lits, h, q) for lits in set(inst.literals)}
    return CspInstance(inst.predicate, inst.variables, _Columns(
        inst.scopes, list(map(shifted.__getitem__, inst.literals)),
        inst.numerators, inst.denominator))
