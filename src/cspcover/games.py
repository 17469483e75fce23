"""Projection-game solvers (exact maximum satisfiable fraction,
c-coverability, smoothness) and the seeded synthesis they verify.
"""

import itertools
import random
from fractions import Fraction

from .errors import PreconditionError, as_budget, as_index, as_int
from .labelcover import Edge, LabelCoverInstance, Labeling


def _right_pairs(g, us):
    """Per right vertex with edges at `us`, ascending, their (proj, u) pairs."""
    at_v = {}
    for u in us:
        for i in g.edges_at_u(u):
            at_v.setdefault(g.edges[i].v, []).append((g.edges[i].proj, u))
    return sorted(at_v.items())


def max_satisfiable(g, budget=None):
    """Exact maximum satisfied fraction with one witness labeling.

    Enumerates labelings of the left vertices with edges (nv units each; the
    rest take 0); each right vertex then takes its least best label.
    """
    budget = as_budget(budget)
    if not g.edges:
        raise PreconditionError("instance has no edges")
    active = sorted(g._adj_u)
    at_v = _right_pairs(g, active)
    best = (-1, None, None)
    for choice in itertools.product(range(g.nlabels_u), repeat=len(active)):
        budget.spend(g.nv)
        left = dict(zip(active, choice))
        right, hits = {}, 0
        for v, pairs in at_v:
            # Right labels see only their own edges: most hits, least label.
            best_hits, neg_label = max(
                (sum(proj[r] == left[u] for proj, u in pairs), -r)
                for r in range(g.nlabels_v))
            right[v] = -neg_label
            hits += best_hits
        if hits > best[0]:
            best = (hits, left, right)
    return Fraction(best[0], len(g.edges)), _labeling(g, *best[1:])


def _class_labeling(g, cls, budget):
    """Left and right labels, as {vertex: label} dicts, that satisfy every
    edge at the left vertices of `cls`, or None: the first in lexicographic
    order of their labels, each right vertex with class edges taking its
    least label consistent with them. Only vertices with class edges are
    walked."""
    at_v = _right_pairs(g, cls)
    for choice in itertools.product(range(g.nlabels_u), repeat=len(cls)):
        budget.spend()
        want = dict(zip(cls, choice))
        right = {}
        for v, pairs in at_v:
            for r in range(g.nlabels_v):
                budget.spend()
                if all(proj[r] == want[u] for proj, u in pairs):
                    right[v] = r
                    break
            else:
                break
        else:
            return want, right
    return None


def _labeling(g, left, right):
    """The labeling with the given {vertex: label} labels, 0 elsewhere."""
    return Labeling([left.get(u, 0) for u in range(g.nu)],
                    [right.get(v, 0) for v in range(g.nv)])


def is_c_coverable(g, c, budget=None):
    """c labelings such that each left vertex has one satisfying all its
    edges, or None if no such family exists. Exact. Only vertices with edges
    are searched, each first alone: when one has no labeling of its own, no
    partition has one, and the answer is None at once. The c * (nu + nv)
    labels of the answer are charged to the budget before they are built.
    """
    budget = as_budget(budget)
    c = as_int(c, "c")
    if c < 1:
        raise PreconditionError("c must be at least 1")
    active = sorted(g._adj_u)
    if any(_class_labeling(g, [u], budget) is None for u in active):
        return None
    # Partition the active left vertices into at most c classes, one
    # restricted-growth string at a time in lexicographic order (so no
    # partition comes twice under renaming), and search each class alone.
    # rgs[i] is the class of active[i].
    n = len(active)
    rgs = [0] * n
    while True:
        classes = [[] for _ in range(max(rgs, default=-1) + 1)]
        for u, k in zip(active, rgs):
            classes[k].append(u)
        found = []
        for cls in classes:
            labels = _class_labeling(g, cls, budget)
            if labels is None:
                break
            found.append(labels)
        else:
            budget.spend(c * (g.nu + g.nv))
            labelings = [_labeling(g, *labels) for labels in found]
            pad = labelings[-1] if labelings else _labeling(g, {}, {})
            return labelings + [pad] * (c - len(labelings))
        i = n - 1
        while i > 0 and (rgs[i] == c - 1 or rgs[i] > max(rgs[:i])):
            i -= 1
        if i <= 0:
            return None
        rgs[i] += 1
        rgs[i + 1:] = [0] * (n - i - 1)


def smoothness_profile(g, v, alpha):
    """Average over incident edges at right vertex v of 1/|proj(alpha)|.

    alpha is a nonempty set of right labels; proj(alpha) is its image under
    the edge projection. Exact rational result.
    """
    alpha = {as_index(x, g.nlabels_v, "alpha label") for x in alpha}
    if not alpha:
        raise PreconditionError("alpha must be nonempty")
    v = as_index(v, g.nv, "vertex")
    edge_ids = g.edges_at_v(v)
    if not edge_ids:
        raise PreconditionError("vertex %d is isolated" % v)
    total = sum(Fraction(1, len({g.edges[i].proj[x] for x in alpha}))
                for i in edge_ids)
    return total / len(edge_ids)


# Draws `synthesize` makes before giving up on a kind that is verified.
SYNTHESIS_RETRIES = 50


def synthesize(kind, *, nu, nv, nlabels_u, nlabels_v, degree=None, seed):
    """Deterministic (seeded) construction of benchmark instances.

    Kinds:
      unique-consistent    bijective projections consistent with one hidden
                           labeling; 1-coverable by construction.
      unique-2-cover       bijective projections consistent with a hidden
                           2-labeling family split across a left partition;
                           verified not 1-coverable (retries then error).
      dto1-random          nlabels_v == d * nlabels_u with all fibers of size
                           d, projections random.
      dto1-contradictory   as dto1-random, retried until no labeling
                           satisfies every edge.
    """
    rng = random.Random(seed)
    nu, nv = as_int(nu, "nu"), as_int(nv, "nv")
    L, R = as_int(nlabels_u, "nlabels_u"), as_int(nlabels_v, "nlabels_v")
    if nu < 1 or nv < 1 or L < 1 or R < 1:
        raise PreconditionError("sizes must be positive")

    def edge_endpoints():
        if degree is None:
            return [(u, v) for u in range(nu) for v in range(nv)]
        d = as_int(degree, "degree")
        if d < 1:
            raise PreconditionError("degree must be positive")
        out = []
        for u in range(nu):
            for s in range(d):
                out.append((u, (u * d + s) % nv))
        return out

    def hidden():
        return ([rng.randrange(L) for _ in range(nu)],
                [rng.randrange(R) for _ in range(nv)])

    def planted(labelings, side):
        """Bijective edges, each consistent with the hidden labeling of its
        left vertex's side."""
        edges = []
        for (u, v) in edge_endpoints():
            hl, hr = labelings[side(u)]
            proj = list(range(R))
            rng.shuffle(proj)
            # Swap to force proj[hr[v]] == hl[u].
            j = proj.index(hl[u])
            proj[j], proj[hr[v]] = proj[hr[v]], proj[j]
            edges.append(Edge(u, v, proj))
        return LabelCoverInstance(nu, nv, L, R, edges, unique=True)

    if kind in ("unique-consistent", "unique-2-cover") and L != R:
        raise PreconditionError("unique instances need L == R")

    if kind == "unique-consistent":
        return planted([hidden()], lambda u: 0)

    if kind == "unique-2-cover":
        if nu < 2:
            raise PreconditionError("need at least two left vertices")
        half = nu // 2
        for _ in range(SYNTHESIS_RETRIES):
            g = planted([hidden(), hidden()], lambda u: int(u >= half))
            if is_c_coverable(g, 1) is None and is_c_coverable(g, 2) is not None:
                return g
        raise PreconditionError(
            "could not synthesize a 2-but-not-1 coverable instance; "
            "try other sizes or seeds"
        )

    if kind in ("dto1-random", "dto1-contradictory"):
        if R % L != 0:
            raise PreconditionError("d-to-1 instances need L | R")
        d = R // L

        def random_dto1():
            slots = list(range(R))
            rng.shuffle(slots)
            proj = [0] * R
            for i in range(L):
                for s in slots[i * d:(i + 1) * d]:
                    proj[s] = i
            return proj

        attempts = SYNTHESIS_RETRIES if kind == "dto1-contradictory" else 1
        for _ in range(attempts):
            edges = [Edge(u, v, random_dto1()) for (u, v) in edge_endpoints()]
            g = LabelCoverInstance(nu, nv, L, R, edges, unique=False)
            if kind == "dto1-random":
                return g
            frac, _ = max_satisfiable(g)
            if frac < 1:
                return g
        raise PreconditionError(
            "could not synthesize a contradictory instance; "
            "try other sizes or seeds"
        )

    raise PreconditionError("unknown synthesis kind %r" % (kind,))
