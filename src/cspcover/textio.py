"""Plain-text formats for predicates, instances, games, distributions,
assignments and labelings; those of spaces and tables are in `spectralio`.

Every parser raises FormatError with a line reference on malformed input;
writers emit exactly what the parsers accept, so files round-trip.
"""

import math
from fractions import Fraction

from . import _forward, _lazy
from .errors import MAX_TABLE, FormatError, PreconditionError, _scaled, as_rational

# The record types of each format come from modules that execute on first
# use, so reading a game never runs the CSP code.
csp = _lazy("csp")
labelcover = _lazy("labelcover")
_predicate = _lazy("predicate")  # parse_instance has a `predicate` argument

__getattr__ = _forward(globals(), dict.fromkeys("""format_space format_tables
    parse_space parse_tables parse_truth_table parse_values""".split(),
    "spectralio"))


def _lines(text):
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((i, line))
    return out


def _ints(line, lineno, count):
    try:
        vals = [int(t) for t in line.split()]
    except ValueError:
        raise FormatError("line %d: expected integers" % lineno)
    if len(vals) != count:
        raise FormatError(
            "line %d: expected %d integers, got %d" % (lineno, count, len(vals))
        )
    return vals


def _rational(token, lineno):
    """The rational `token`; errors cite line `lineno` unless it is None."""
    try:
        return as_rational(token, "token")
    except PreconditionError:
        where = "" if lineno is None else "line %d: " % lineno
        raise FormatError("%sbad rational %r" % (where, token)) from None


def _header(text, what, count):
    """The header's line number, its `count` integers, and the body lines."""
    lines = _lines(text)
    if not lines:
        raise FormatError("empty %s file" % what)
    lineno, header = lines[0]
    return lineno, _ints(header, lineno, count), lines[1:]


_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _digits(token, lineno, count, base):
    """A tuple of `count` digits below `base`; errors cite line `lineno`
    unless it is None."""
    where = "" if lineno is None else "line %d: " % lineno
    if len(token) != count or not (token.isascii() and token.isdigit()):
        raise FormatError(
            "%sexpected %d digits, got %r" % (where, count, token)
        )
    vals = token.encode().translate(_DIGIT_VALUES)  # one byte a digit
    if max(vals) >= base:
        raise FormatError("%sdigit outside [%d] in %r" % (where, base, token))
    return tuple(vals)


def format_rational(x):
    x = as_rational(x, "value")
    return "%d/%d" % (x.numerator, x.denominator)


def parse_digits(token, count, base):
    """A bare tuple of `count` digits below `base`, e.g. a predicate member."""
    return _digits(token, None, count, base)


# -- predicates -------------------------------------------------------------


def parse_predicate(text):
    _, (q, k), body = _header(text, "predicate", 2)
    members = [_digits(line, i, k, q) for i, line in body]
    return _predicate.Predicate(q, k, members)


def format_predicate(pred):
    out = ["%d %d" % (pred.q, pred.k)]
    for m in pred.members:
        out.append("".join(str(v) for v in m))
    return "\n".join(out) + "\n"


# -- CSP instances ----------------------------------------------------------


def parse_instance(text, predicate):
    head, (q, k, nvars, ncons), body = _header(text, "instance", 4)
    if not (0 <= nvars <= MAX_TABLE and 0 <= ncons <= MAX_TABLE):
        raise FormatError(
            "line %d: variable and constraint counts must lie in [0, %d]"
            % (head, MAX_TABLE)
        )
    if q != predicate.q or k != predicate.k:
        raise FormatError(
            "instance header (q=%d, k=%d) does not match the predicate" % (q, k)
        )
    if len(body) != ncons:
        raise FormatError(
            "expected %d constraints, found %d" % (ncons, len(body))
        )
    return csp.CspInstance(
        predicate, range(nvars), _instance_columns(body, k, q))


def _instance_columns(body, k, q):
    """The scopes, literal vectors and integer weight numerators of the
    constraint lines, and the numerators' common denominator; equal literal
    tokens share one vector, and each distinct token is parsed once."""
    vectors = {}
    weights = {}
    scopes, literals, tokens = [], [], []
    for lineno, line in body:
        toks = line.split()
        if len(toks) != k + 2:
            raise FormatError(
                "line %d: expected %d tokens, got %d" % (lineno, k + 2, len(toks))
            )
        try:
            scopes.append(tuple(map(int, toks[:k])))
        except ValueError:
            raise FormatError("line %d: bad variable indices" % lineno)
        lits, w = toks[k:]
        if lits not in vectors:
            vectors[lits] = _digits(lits, lineno, k, q)
        if w not in weights:
            weights[w] = _rational(w, lineno)
        literals.append(vectors[lits])
        tokens.append(w)
    nums, den = _scaled(list(weights.values()))
    scaled = dict(zip(weights, nums))
    return csp._Columns(
        scopes, literals, list(map(scaled.__getitem__, tokens)), den)


def format_instance(inst):
    """The `parse_instance` text of an instance; each distinct literal
    vector and weight is formatted once."""
    pred = inst.predicate
    den = inst.denominator
    vectors = {lits: "".join(map(str, lits)) for lits in set(inst.literals)}
    weights = {}
    for m in set(inst.numerators):
        g = math.gcd(m, den)
        weights[m] = "%d/%d" % (m // g, den // g)
    line = " ".join(["%d"] * pred.k) + " %s %s"
    out = ["%d %d %d %d" % (pred.q, pred.k, inst.nvars, len(inst.numerators))]
    out += [line % (vars_ + (vectors[lits], weights[m]))
            for vars_, lits, m in zip(inst.scopes, inst.literals, inst.numerators)]
    return "\n".join(out) + "\n"


# -- projection games -------------------------------------------------------


def parse_labelcover(text):
    head, (nu, nv, nl, nr, unique), body = _header(text, "game", 5)
    if unique not in (0, 1):
        raise FormatError("line %d: unique flag must be 0 or 1" % head)
    if min(nu, nv, nl, nr) < 0:
        raise FormatError("line %d: counts must be nonnegative" % head)
    edges = []
    for lineno, line in body:
        vals = _ints(line, lineno, 2 + nr)
        edges.append(labelcover.Edge(vals[0], vals[1], vals[2:]))
    return labelcover.LabelCoverInstance(
        nu, nv, nl, nr, edges, unique=bool(unique)
    )


def format_labelcover(g):
    out = [
        "%d %d %d %d %d"
        % (g.nu, g.nv, g.nlabels_u, g.nlabels_v, 1 if g.unique else 0)
    ]
    for e in g.edges:
        out.append(
            "%d %d %s" % (e.u, e.v, " ".join(str(x) for x in e.proj))
        )
    return "\n".join(out) + "\n"


# -- distributions, assignments and labelings -------------------------------


def parse_distribution(text):
    """Header `k`, then `bits num/den` support lines."""
    _, (k,), body = _header(text, "distribution", 1)
    dist = {}
    for lineno, line in body:
        toks = line.split()
        if len(toks) != 2:
            raise FormatError("line %d: expected `bits weight`" % lineno)
        key = _digits(toks[0], lineno, k, 2)
        dist[key] = dist.get(key, Fraction(0)) + _rational(toks[1], lineno)
    return dist


def parse_assignments(text, nvars, q):
    """One assignment per line as nvars digits."""
    out = []
    for lineno, line in _lines(text):
        out.append(csp.Assignment(_digits(line, lineno, nvars, q)))
    return out


def format_assignments(assignments):
    return (
        "\n".join(
            "".join(str(v) for v in a.values) for a in assignments
        )
        + "\n"
    )


def parse_labelings(text, nu, nv):
    """One labeling per line: nu left labels then nv right labels."""
    out = []
    for lineno, line in _lines(text):
        vals = _ints(line, lineno, nu + nv)
        out.append(labelcover.Labeling(vals[:nu], vals[nu:]))
    return out


def format_labelings(labelings):
    return (
        "\n".join(
            " ".join(str(x) for x in lab.left + lab.right) for lab in labelings
        )
        + "\n"
    )
