"""Exact searches over CSP instances: the covering number with a witness
cover, the maximum independent set, and the cover-to-coloring translation.
"""

import math
from itertools import count, product

from .csp import CoverSet, _bit_indices, _check_assignment
from .errors import GuaranteeError, PreconditionError, as_budget, as_int
from .predicate import is_shift_closed, nae, sub_tuples


# Leaves per block of `_coverage_masks`, and rows per bit string of
# `_transpose`, whose strings so hold at most ROWS * n characters. Up to
# SMALL masks are filtered as a list, which measured faster than a bitset.
BLOCK = 1 << 12
ROWS = 1 << 9
SMALL = 64


def _transpose(rows, n):
    """Bit r of column i is bit i of rows[r], for n-bit rows; the bits of up
    to ROWS rows at a time go through one string, sliced in C."""
    fmt = "0%db" % n
    columns = [0] * n
    for start in range(0, len(rows), ROWS):
        bits = "".join([format(row, fmt)
                        for row in reversed(rows[start:start + ROWS])])
        part = [int(bits[i::n], 2) for i in range(n - 1, -1, -1)]
        columns = [c | p << start for c, p in zip(columns, part)] if start else part
    return columns


def _coverage_masks(inst, budget):
    """Undominated (mask, value tuple) pairs over positive-weight constraints,
    and per constraint j the set of indices of the pairs whose mask holds j,
    as a bitset.

    Only variables in some positive-weight scope are enumerated, in index
    order and lexicographically, so each mask keeps its lex-least assignment:
    untouched variables are 0. When the predicate is closed under global
    translation the first touched variable is fixed to 0; translates then
    produce identical masks, so nothing is lost.

    Leaves are numbered in mixed radix over the touched variables, the first
    most significant, and taken in blocks of at most BLOCK leaves. In a
    block, each constraint's satisfying leaves form one integer: the sum of
    the rows of its scope as written that satisfy it, where a row giving a
    repeated variable two values is empty; constraints on one scope tuple
    share those rows. Transposing the integers gives each leaf's mask.
    """
    q = inst.predicate.q
    cons = [
        (vars_, lits)
        for vars_, lits, m in zip(inst.scopes, inst.literals, inst.numerators)
        if m
    ]
    touched = sorted({v for vars_, _ in cons for v in vars_})
    t = len(touched)
    radix = [q] * t
    if is_shift_closed(inst.predicate):
        radix[0] = 1
    width = len(cons)
    total = math.prod(radix)
    budget.spend(width * total)

    depth = {v: d for d, v in enumerate(touched)}
    # Per literal vector, the rows (base q over scope positions, the first
    # least significant) of the members minus it; per scope, its constraints.
    cells, on = {}, {}
    for j, (vars_, lits) in enumerate(cons):
        if lits not in cells:
            cells[lits] = [
                sum(y * q**i for i, y in enumerate(sub_tuples(p, lits, q)))
                for p in inst.predicate.members]
        on.setdefault(vars_, []).append((j, lits))
    sets = [0] * width

    # Digits from `low` on vary inside a block of `size` leaves; the others
    # are fixed per block. runs[d][x] holds the leaves of a block where digit
    # d is x: runs of `period` ones, one every radix[d] runs.
    low, size = t - 1, radix[-1]
    while low and size * radix[low - 1] <= BLOCK:
        low -= 1
        size *= radix[low]
    ones = (1 << size) - 1
    runs, period = [], 1
    for r in reversed(radix[low:]):
        repunit = ones // ((1 << period * r) - 1)
        runs.insert(0, [((1 << period) - 1 << x * period) * repunit
                        for x in range(r)] + [0] * (q - r))
        period *= r
    first = {}
    down = count(total - 1, -1)
    for high in product(*(range(r - 1, -1, -1) for r in radix[:low])):
        leaves = [[ones * (x == h) for x in range(q)] for h in high] + runs
        # A repeated variable's rows for two values are empty, and the rows
        # of one scope hold disjoint leaf sets, so a sum is a union.
        for vars_, group in on.items():
            rows = leaves[depth[vars_[0]]]
            for v in vars_[1:]:
                rows = [m & b for b in leaves[depth[v]] for m in rows]
            for j, lits in group:
                sets[j] = sum(map(rows.__getitem__, cells[lits]))
        # Blocks and leaves are taken last first, so each mask keeps its
        # first leaf.
        first.update(zip(reversed(_transpose(sets, size)), down))
    first.pop(0, None)
    del leaves, runs, rows, sets  # free the last block's tables

    # Drop masks dominated by a superset mask; lossless for minimum covers.
    # Masks are taken by popcount, ties in order of first leaf. The first
    # mask left is never dominated: keep it and drop every mask it contains.
    # Few masks are dropped from a list; more, from a bitset over `order`,
    # where supersets[j] has bit r set when order[r] contains constraint j.
    order = sorted(first, key=first.__getitem__)
    order.sort(key=int.bit_count, reverse=True)
    kept = []
    if len(order) <= SMALL:
        while order:
            k = order[0]
            kept.append(k)
            order = [m for m in order if m | k != k]
    else:
        supersets = _transpose(order, width)
        full = (1 << width) - 1
        left = (1 << len(order)) - 1
        while left:
            k = order[(left & -left).bit_length() - 1]
            kept.append(k)
            outside = 0
            for j in _bit_indices(full & ~k):
                outside |= supersets[j]
            left &= outside
        del order, supersets
    # holders[j] has bit r set when kept mask r contains constraint j.
    holders = _transpose(kept, width)

    # Decode the kept masks' first leaves digit by digit, one column per
    # touched variable; untouched variables stay 0.
    index = [first[m] for m in kept]
    columns = [[0] * len(kept)] * inst.nvars
    for v, r in zip(reversed(touched), reversed(radix)):
        columns[v] = [i % r for i in index]
        index = [i // r for i in index]
    return list(zip(kept, zip(*columns))), holders


def _cover_search(inst, max_c, budget):
    """(c, the value tuples of a cover of size c) for the smallest c <= max_c,
    or (None, None). Exact. Each c is a depth-first search on an explicit
    stack of (covered constraints, chosen kept-mask indices), one budget unit
    per node; a node branches on the first uncovered constraint with the
    fewest holders, pushed last first so that they are taken in order."""
    max_c = as_int(max_c, "max_c")
    if max_c < 1:
        raise PreconditionError("max_c must be at least 1")
    if not any(inst.numerators):
        return 0, [(0,) * inst.nvars]
    pairs, holders = _coverage_masks(inst, budget)
    full_mask = (1 << len(holders)) - 1
    if not all(holders):
        return None, None
    counts = [h.bit_count() for h in holders]
    for c in range(1, max_c + 1):
        stack = [(0, ())]
        while stack:
            covered, chosen = stack.pop()
            budget.spend()
            if covered == full_mask:
                return c, [pairs[r][1] for r in chosen]
            if len(chosen) < c:
                j = min(_bit_indices(full_mask & ~covered),
                        key=counts.__getitem__)
                for r in reversed(_bit_indices(holders[j])):
                    stack.append((covered | pairs[r][0], chosen + (r,)))
    return None, None


def covering_number(inst, max_c, budget=None):
    """Smallest c <= max_c with a covering c-set of assignments, or None.

    Exact enumeration with pruning; empty instances have covering number 0.
    Raises BudgetExceededError (distinct from returning None) past the budget.
    """
    return _cover_search(inst, max_c, as_budget(budget))[0]


def find_cover(inst, max_c, budget=None):
    """A witness CoverSet of minimum size <= max_c, or None."""
    values = _cover_search(inst, max_c, as_budget(budget))[1]
    return None if values is None else CoverSet(values)


def max_independent_set(inst, budget=None):
    """Exact maximum variable subset containing no positive-weight constraint.

    Returns (size, witness tuple of variable indices); deterministic witness.
    """
    budget = as_budget(budget)
    n = inst.nvars
    # Each distinct positive-weight scope, filed under its largest variable
    # as the bitset of the others: it may not join when they are all chosen.
    filed = [[] for _ in range(n)]
    for s in {frozenset(s) for s, m in zip(inst.scopes, inst.numerators) if m}:
        filed[max(s)].append(sum(1 << v for v in sorted(s)[:-1]))
    best_size, best_set = -1, 0
    # Explicit stack of (next variable, chosen bits, their count); the
    # include child is pushed last, so it is searched first.
    stack = [(0, 0, 0)]
    while stack:
        v, chosen, size = stack.pop()
        budget.spend()
        if size + (n - v) <= best_size:
            continue
        if v == n:
            # The bound just passed: size > best_size.
            best_size, best_set = size, chosen
            continue
        stack.append((v + 1, chosen, size))
        for rest in filed[v]:
            if rest & chosen == rest:
                break
        else:
            stack.append((v + 1, chosen | 1 << v, size + 1))
    return best_size, tuple(_bit_indices(best_set))


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
            # Unreachable: a covering tuple in NAE is not constant on a scope.
            raise GuaranteeError("coloring left a constraint monochromatic")
    return coloring
