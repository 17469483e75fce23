"""Reference computations the benchmark checks outputs against.

Nothing here imports cspcover: files are parsed with parsers of our own, and
every quantity is recomputed from its definition by brute force, so an
output is never checked against the code that produced it.
"""

import itertools
from fractions import Fraction


# -- files and CLI output ---------------------------------------------------


def _lines(text):
    return [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")]


def parse_kv(stdout):
    """`key = value` lines of a CLI report."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def parse_predicate(text):
    lines = _lines(text)
    q, k = (int(t) for t in lines[0].split())
    return q, k, frozenset(tuple(int(c) for c in ln) for ln in lines[1:])


def parse_instance(text):
    """((q, k, nvars, declared count), [(vars, literals, weight)])."""
    lines = _lines(text)
    q, k, nvars, ncons = (int(t) for t in lines[0].split())
    cons = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != k + 2:
            raise ValueError("constraint line with %d tokens" % len(toks))
        cons.append((
            tuple(int(t) for t in toks[:k]),
            tuple(int(c) for c in toks[k]),
            Fraction(toks[k + 1]),
        ))
    return (q, k, nvars, ncons), cons


def parse_assignments(text):
    return [tuple(int(c) for c in ln) for ln in _lines(text)]


def parse_game(text):
    """(nu, nv, L, R, unique, [(u, v, projection)])."""
    lines = _lines(text)
    nu, nv, nl, nr, unique = (int(t) for t in lines[0].split())
    edges = []
    for ln in lines[1:]:
        vals = [int(t) for t in ln.split()]
        edges.append((vals[0], vals[1], tuple(vals[2:])))
    return nu, nv, nl, nr, unique == 1, edges


def parse_labelings(text, nu):
    out = []
    for ln in _lines(text):
        vals = [int(t) for t in ln.split()]
        out.append((tuple(vals[:nu]), tuple(vals[nu:])))
    return out


# -- covering and parity ----------------------------------------------------


def satisfied(c, values, q, members):
    vars_, lits, _ = c
    shifted = tuple((values[v] + lit) % q for v, lit in zip(vars_, lits))
    return shifted in members


def covered_fraction(cons, q, members, assignments):
    """Weight share of constraints that some assignment satisfies."""
    total = sum(c[2] for c in cons)
    hit = sum(c[2] for c in cons
              if any(satisfied(c, a, q, members) for a in assignments))
    return hit / total


def even_parity_fraction(cons, assignments):
    """Weight share on which every assignment has even parity on the scope:
    the left side of the parity rejection identity."""
    total = sum(c[2] for c in cons)
    hit = sum(c[2] for c in cons
              if all(sum(a[v] for v in c[0]) % 2 == 0 for a in assignments))
    return hit / total


def odd_parity(k):
    return frozenset(t for t in itertools.product((0, 1), repeat=k)
                     if sum(t) % 2 == 1)


# -- projection games -------------------------------------------------------


def labeling_value(edges, left, right):
    """Satisfied share of the edge multiset, edge by edge."""
    hits = sum(1 for u, v, proj in edges if proj[right[v]] == left[u])
    return Fraction(hits, len(edges))


def satisfying_labeling(nu, nv, nl, nr, edges):
    """Lexicographically first labeling satisfying every edge, or None."""
    for left in itertools.product(range(nl), repeat=nu):
        for right in itertools.product(range(nr), repeat=nv):
            if labeling_value(edges, left, right) == 1:
                return left, right
    return None


# -- tables on product domains ----------------------------------------------


def points(sizes):
    """Every point, coordinate 0 varying fastest (the library's order)."""
    for idx in itertools.product(*(range(s) for s in reversed(sizes))):
        yield tuple(reversed(idx))


def weights(sizes, measures):
    out = []
    for p in points(sizes):
        w = Fraction(1)
        for x, mu in zip(p, measures):
            w *= mu[x]
        out.append(w)
    return out


def expectation(values, sizes, measures):
    return sum(w * v for w, v in zip(weights(sizes, measures), values))


def variance_influence(values, sizes, measures, i):
    """E over the other coordinates of the variance along coordinate i."""
    pts = list(points(sizes))
    index = {p: n for n, p in enumerate(pts)}
    total = Fraction(0)
    for p in pts:
        if p[i] != 0:
            continue
        w_rest = Fraction(1)
        for j, (x, mu) in enumerate(zip(p, measures)):
            if j != i:
                w_rest *= mu[x]
        line = [values[index[p[:i] + (x,) + p[i + 1:]]]
                for x in range(sizes[i])]
        mean = sum(m * v for m, v in zip(measures[i], line))
        var = sum(m * (v - mean) ** 2 for m, v in zip(measures[i], line))
        total += w_rest * var
    return total


def bit_space_rho(masses):
    """Maximal correlation of a two-by-two space from its masses at (0, 0),
    (0, 1), (1, 0), (1, 1) (any common scale):
    |det| / sqrt(product of the four marginal masses)."""
    a, b, c, d = masses
    det = a * d - b * c
    marg = (a + b) * (c + d) * (a + c) * (b + d)
    return abs(float(det)) / float(marg) ** 0.5


# -- graphs and covers ------------------------------------------------------


def chromatic_number(n, edges):
    """Smallest number of colors of a proper coloring, by backtracking."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    colors = [-1] * n

    def place(v, t):
        if v == n:
            return True
        for c in range(t):
            if all(colors[w] != c for w in adj[v]):
                colors[v] = c
                if place(v + 1, t):
                    return True
        colors[v] = -1
        return False

    t = 1
    while not place(0, t):
        t += 1
    return t


def max_independent_size(n, scopes):
    """Largest vertex set containing no whole scope, by enumeration."""
    masks = [sum(1 << v for v in set(s)) for s in scopes]
    best = 0
    for subset in range(1 << n):
        size = bin(subset).count("1")
        if size > best and all(subset & m != m for m in masks):
            best = size
    return best


def coverage_masks(n, q, cons, members):
    """Distinct sets (as bit masks) of constraints one assignment covers."""
    out = set()
    for values in itertools.product(range(q), repeat=n):
        mask = 0
        for j, c in enumerate(cons):
            if satisfied(c, values, q, members):
                mask |= 1 << j
        out.add(mask)
    return out


def maximal_masks(masks):
    """The masks no other mask strictly contains."""
    kept = []
    for m in sorted(masks, key=lambda m: -bin(m).count("1")):
        if not any(m | k == k for k in kept):
            kept.append(m)
    return kept


def covers_with(maximal, size, full):
    """Whether `size` assignments, given by their maximal coverage masks,
    can cover every constraint of `full`."""
    for combo in itertools.combinations(maximal, size):
        acc = 0
        for m in combo:
            acc |= m
        if acc == full:
            return True
    return False
