"""Exact searches over CSP instances: the covering number with a witness
cover, the maximum independent set, and the cover-to-coloring translation.
"""

import math

from .csp import Assignment, CoverSet, _bit_indices, _check_assignment
from .errors import PreconditionError, as_budget
from .predicate import is_shift_closed, nae, sub_tuples


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
