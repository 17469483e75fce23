"""Exact searches over CSP instances: the covering number with a witness
cover, the maximum independent set, and the cover-to-coloring translation.
"""

import math
from itertools import count, product

from .csp import (Assignment, CoverSet, _bit_indices, _check_assignment,
                  covered_fractions)
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


def _prepare(inst):
    """The positive-weight constraints as (scope, literals) pairs, the
    variables they touch in index order, the values each touched variable
    takes (q, but 1 for the first when the predicate is closed under global
    translation: translates cover alike) and their product times the number
    of constraints, which is what the coverage masks cost."""
    q = inst.predicate.q
    cons = [
        (vars_, lits)
        for vars_, lits, m in zip(inst.scopes, inst.literals, inst.numerators)
        if m
    ]
    touched = sorted({v for vars_, _ in cons for v in vars_})
    radix = [q] * len(touched)
    if is_shift_closed(inst.predicate):
        radix[0] = 1
    return cons, touched, radix, len(cons) * math.prod(radix)


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
    cons, touched, radix, cost = _prepare(inst)
    budget.spend(cost)
    t = len(touched)
    width = len(cons)
    total = cost // width

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


def _max_c(max_c):
    """max_c read as an integer of at least 1."""
    max_c = as_int(max_c, "max_c")
    if max_c < 1:
        raise PreconditionError("max_c must be at least 1")
    return max_c


def _fold(inst):
    """What the c-fold search reads at every c: the touched variables and
    their radix, as `_prepare` gives them; per touched variable, the
    constraints whose last variable it is, as (scope, accepted tuples,
    verdict cache); and the cost of the coverage masks. The caches serve
    every c, since keys of different c differ in length."""
    cons, touched, radix, cost = _prepare(inst)
    q = inst.predicate.q
    depth = {v: d for d, v in enumerate(touched)}
    checks = [[] for _ in touched]
    accepts = {}
    for vars_, lits in cons:
        if lits not in accepts:
            accepts[lits] = frozenset(
                sub_tuples(p, lits, q) for p in inst.predicate.members), {}
        checks[depth[max(vars_)]].append((vars_, *accepts[lits]))
    return touched, radix, checks, cost


def _coverable(inst, fold, c, budget, allowance):
    """Whether c assignments cover the positive-weight constraints: True,
    False, or None when `allowance` nodes ran out first; and the nodes spent.

    c assignments cover exactly when the c-fold instance is satisfiable: each
    variable takes a value in [q]^c, and a constraint holds when some
    coordinate satisfies it. A depth-first search sets the touched variables
    in index order, on an explicit stack of iterators over their values in
    lexicographic order (the first touched variable fixed to the zero tuple
    under shift closure), one budget unit per value taken. Each constraint
    is checked when its last variable is set, with verdicts cached per
    (values, literals). A yes is read back as c assignments and checked with
    `covered_fractions`.
    """
    touched, radix, checks, _ = fold
    last = len(touched) - 1
    values = [(0,) * c] * inst.nvars
    stack = [product(range(radix[0]), repeat=c)]
    spent = 0
    while stack:
        x = next(stack[-1], None)
        if x is None:
            stack.pop()
            continue
        if spent == allowance:
            return None, spent
        spent += 1
        budget.spend()
        d = len(stack) - 1
        values[touched[d]] = x
        for vars_, accept, cache in checks[d]:
            key = tuple(map(values.__getitem__, vars_))
            holds = cache.get(key)
            if holds is None:
                holds = cache[key] = not accept.isdisjoint(zip(*key))
            if not holds:
                break
        else:
            if d < last:
                stack.append(product(range(radix[d + 1]), repeat=c))
                continue
            rows = map(Assignment, zip(*values))
            if covered_fractions(rows, inst)[1] != 1:
                raise GuaranteeError("the c-fold search accepted a non-cover")
            return True, spent
    return False, spent


def _cover_search(inst, max_c, budget, start=1):
    """(c, the value tuples of a cover of size c) for the smallest c <= max_c
    from `start` on, or (None, None). Exact. Each c is a depth-first search
    over kept masks, one budget unit per node. A node branches on the first
    uncovered constraint with the fewest holders and takes them in order.
    The stack holds one entry per node whose children branch in turn: its
    covered constraints, its chosen mask indices as an (index, parent)
    chain, how many masks its children choose, and a cursor over its
    holders. Children that choose the c-th mask are leaves, decided at once:
    the first holder that holds every uncovered constraint covers, and the
    leaves up to it, or all of them, are charged."""
    max_c = _max_c(max_c)
    if not any(inst.numerators):
        return 0, [(0,) * inst.nvars]
    pairs, holders = _coverage_masks(inst, budget)
    full_mask = (1 << len(holders)) - 1
    if not all(holders):
        return None, None
    masks = [m for m, _ in pairs]
    counts = [h.bit_count() for h in holders]
    for c in range(start, max_c + 1):
        budget.spend()  # the root
        now, chain, size, stack = 0, None, 0, []
        while now != full_mask:
            # Expand the node just taken, which has chosen size < c masks.
            uncovered = _bit_indices(full_mask & ~now)
            j = min(uncovered, key=counts.__getitem__)
            if size + 1 < c:
                stack.append(
                    (now, chain, size + 1, iter(_bit_indices(holders[j]))))
            else:
                common = holders[j]
                for i in uncovered:
                    common &= holders[i]
                    if not common:
                        break
                if common:
                    r = (common & -common).bit_length() - 1
                    budget.spend_each((holders[j] & (2 << r) - 1).bit_count())
                    now, chain = full_mask, (r, chain)
                    continue
                budget.spend_each(counts[j])
            # Take the next child of the deepest entry that has one left.
            while stack:
                covered, parent, size, rest = stack[-1]
                r = next(rest, None)
                if r is not None:
                    break
                stack.pop()
            else:
                break  # c is refuted
            budget.spend()
            now, chain = covered | masks[r], (r, parent)
        else:
            found = []
            while chain:
                r, chain = chain
                found.append(pairs[r][1])
            return c, found[::-1]
    return None, None


def covering_number(inst, max_c, budget=None):
    """Smallest c <= max_c with a covering c-set of assignments, or None.

    Exact; empty instances have covering number 0. The c-fold search decides
    c = 1, 2, ... within an allowance of as many nodes as the coverage masks
    cost; if that runs out at some c, the mask search goes on from there.
    Raises BudgetExceededError (distinct from returning None) past the budget.
    """
    budget = as_budget(budget)
    max_c = _max_c(max_c)
    if not any(inst.numerators):
        return 0
    fold = _fold(inst)
    allowance = fold[3]
    for c in range(1, max_c + 1):
        found, spent = _coverable(inst, fold, c, budget, allowance)
        if found is None:
            return _cover_search(inst, max_c, budget, c)[0]
        if found:
            return c
        allowance -= spent
    return None


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
