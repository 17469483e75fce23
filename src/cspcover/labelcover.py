"""Bipartite projection games: the records and edge satisfaction.

An instance has left vertices U with labels in [L], right vertices V with
labels in [R], and edges carrying projections pi: [R] -> [L]. An edge (u, v)
is satisfied by a labeling when pi(label(v)) == label(u). A c-cover is a list
of c labelings such that every left vertex has at least one labeling
satisfying all of its incident edges simultaneously. The solvers and the
synthesis live in `games`.
"""

from fractions import Fraction
from operator import attrgetter

from . import _forward
from .errors import Frozen, FrozenValue, PreconditionError, as_int

__getattr__ = _forward(globals(), dict.fromkeys("""SYNTHESIS_RETRIES
    is_c_coverable max_satisfiable smoothness_profile synthesize""".split(),
    "games"))


class Edge(Frozen):
    __slots__ = ("u", "v", "proj")

    def __init__(self, u, v, proj):
        self._fill(u=as_int(u, "edge vertex u"), v=as_int(v, "edge vertex v"),
                   proj=tuple(as_int(x, "projection label") for x in proj))

    def __repr__(self):
        return "Edge(u=%d, v=%d, proj=%r)" % (self.u, self.v, self.proj)


class LabelCoverInstance(Frozen):
    """Bipartite multigraph with per-edge projections [R] -> [L]."""

    __slots__ = ("nu", "nv", "nlabels_u", "nlabels_v", "edges", "unique",
                 "_adj_u", "_adj_v")

    def __init__(self, nu, nv, nlabels_u, nlabels_v, edges, unique=False):
        nu, nv = as_int(nu, "nu"), as_int(nv, "nv")
        nlabels_u = as_int(nlabels_u, "nlabels_u")
        nlabels_v = as_int(nlabels_v, "nlabels_v")
        if nu < 1 or nv < 1:
            raise PreconditionError("both sides must be nonempty")
        if nlabels_u < 1 or nlabels_v < 1:
            raise PreconditionError("label sets must be nonempty")
        edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        for e in edges:
            if e.u < 0 or e.u >= nu or e.v < 0 or e.v >= nv:
                raise PreconditionError("edge %r references unknown vertices" % (e,))
            if len(e.proj) != nlabels_v:
                raise PreconditionError("edge %r projection has wrong length" % (e,))
            if any(x < 0 or x >= nlabels_u for x in e.proj):
                raise PreconditionError("edge %r projection leaves [L]" % (e,))
        unique = bool(unique)
        if unique:
            if nlabels_u != nlabels_v:
                raise PreconditionError("unique instances need L == R")
            for e in edges:
                if len(set(e.proj)) != nlabels_v:
                    raise PreconditionError("edge %r projection is not a bijection" % (e,))
        # Keyed by the vertices the edges touch, so the declared counts
        # size nothing.
        adj_u, adj_v = {}, {}
        for i, e in enumerate(edges):
            adj_u.setdefault(e.u, []).append(i)
            adj_v.setdefault(e.v, []).append(i)
        self._fill(
            nu=nu, nv=nv, nlabels_u=nlabels_u, nlabels_v=nlabels_v,
            edges=edges, unique=unique,
            _adj_u={u: tuple(a) for u, a in adj_u.items()},
            _adj_v={v: tuple(a) for v, a in adj_v.items()},
        )

    def edges_at_u(self, u):
        return self._adj_u.get(u, ())

    def edges_at_v(self, v):
        return self._adj_v.get(v, ())

    def __repr__(self):
        return "LabelCoverInstance(%d+%d vertices, %d edges, L=%d, R=%d%s)" % (
            self.nu, self.nv, len(self.edges), self.nlabels_u, self.nlabels_v,
            ", unique" if self.unique else "",
        )


class Labeling(FrozenValue):
    """Total label choice: one value per left vertex and per right vertex."""

    __slots__ = ("left", "right")
    _key = attrgetter("left", "right")

    def __init__(self, left, right):
        self._fill(left=tuple(as_int(x, "left label") for x in left),
                   right=tuple(as_int(x, "right label") for x in right))

    def __repr__(self):
        return "Labeling(left=%r, right=%r)" % (self.left, self.right)


def _check_labeling(g, lab):
    if len(lab.left) != g.nu or len(lab.right) != g.nv:
        raise PreconditionError("labeling does not match the vertex sets")
    if any(x < 0 or x >= g.nlabels_u for x in lab.left):
        raise PreconditionError("left labels outside [L]")
    if any(x < 0 or x >= g.nlabels_v for x in lab.right):
        raise PreconditionError("right labels outside [R]")


def edge_satisfied(g, lab, idx):
    e = g.edges[idx]
    return e.proj[lab.right[e.v]] == lab.left[e.u]


def satisfied_fraction(g, lab):
    """Fraction of edges satisfied, uniform over the edge multiset."""
    _check_labeling(g, lab)
    if not g.edges:
        raise PreconditionError("instance has no edges")
    hits = sum(1 for i in range(len(g.edges)) if edge_satisfied(g, lab, i))
    return Fraction(hits, len(g.edges))
