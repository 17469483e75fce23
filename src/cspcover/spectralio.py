"""The `textio` formats of correlated spaces, truth tables, value lists and
per-vertex tables, which only the spectral commands read or write.
"""

from fractions import Fraction

from . import _lazy
from .errors import FormatError, check_table_size
from .textio import _digits, _header, _lines, _rational, format_rational

boolanalysis = _lazy("boolanalysis")
correlated = _lazy("correlated")


# -- correlated spaces ------------------------------------------------------


def parse_space(text):
    _, (ql, kl, qr, kr), body = _header(text, "space", 4)
    mu = {}
    for lineno, line in body:
        toks = line.split()
        if len(toks) != 3:
            raise FormatError("line %d: expected 3 tokens" % lineno)
        la = _digits(toks[0], lineno, kl, ql)
        ra = _digits(toks[1], lineno, kr, qr)
        w = _rational(toks[2], lineno)
        mu[(la, ra)] = mu.get((la, ra), Fraction(0)) + w
    return correlated.CorrelatedSpace(mu)


def _side_encoding(atoms):
    """Digit encoding of one side's coordinate values.

    Integer values are kept as they are; structured values (for example
    whole rows of a block distribution) are replaced by their index in the
    sorted list of distinct values.  Correlation, connectedness, and
    factorization checks only see coordinate identity, so the relabeling is
    analysis-preserving.
    """
    entries = {x for a in atoms for x in a}
    if all(isinstance(x, int) for x in entries):
        return None, 1 + max(entries)
    order = sorted(entries)
    return {x: i for i, x in enumerate(order)}, len(order)


def format_space(space):
    enc_l, ql = _side_encoding(space.left_atoms)
    enc_r, qr = _side_encoding(space.right_atoms)
    if ql > 10 or qr > 10:
        raise FormatError(
            "cannot encode more than 10 distinct symbols per side"
        )

    def word(enc, atom):
        return "".join(str(x if enc is None else enc[x]) for x in atom)

    out = ["%d %d %d %d" % (ql, space.k_left, qr, space.k_right)]
    for (la, ra) in space.support():
        out.append(
            "%s %s %s"
            % (
                word(enc_l, la),
                word(enc_r, ra),
                format_rational(space.mu[(la, ra)]),
            )
        )
    return "\n".join(out) + "\n"


# -- function tables --------------------------------------------------------


def parse_truth_table(text):
    """Header `n`, then 2^n rational values in index order."""
    head, (n,), body = _header(text, "table", 1)
    if n < 0 or n > 24:
        raise FormatError("line %d: unsupported dimension %d" % (head, n))
    values = [_rational(line, lineno) for lineno, line in body]
    if len(values) != 1 << n:
        raise FormatError(
            "expected %d values, found %d" % (1 << n, len(values))
        )
    return boolanalysis.TabulatedFunction(
        boolanalysis.ProductDomain.binary_uniform(n), values
    )


def parse_values(text):
    """A bare list of rational values, one per line."""
    return [_rational(line, lineno) for lineno, line in _lines(text)]


def parse_tables(text):
    """Header `nv npoints q`, then `v digits` rows of per-vertex tables.

    Table width (number of coordinates) is recovered from npoints = q^width.
    """
    head, (nv, npoints, q), body = _header(text, "tables", 3)
    if q < 2:
        raise FormatError("line %d: alphabet size must be at least 2" % head)
    width = 0
    size = 1
    while size < npoints:
        size *= q
        width += 1
    if size != npoints:
        raise FormatError(
            "line %d: npoints must be a power of the alphabet size" % head
        )
    check_table_size(npoints)
    # Built with the first row: its uniform weights hold q ints a coordinate.
    dom = None
    tables = {}
    for lineno, line in body:
        toks = line.split()
        if len(toks) != 2:
            raise FormatError("line %d: expected `vertex digits`" % lineno)
        try:
            v = int(toks[0])
        except ValueError:
            raise FormatError("line %d: bad vertex index" % lineno)
        if not 0 <= v < nv:
            raise FormatError("line %d: vertex out of range" % lineno)
        values = _digits(toks[1], lineno, npoints, q)
        dom = dom or boolanalysis.ProductDomain((q,) * width)
        tables[v] = boolanalysis.TabulatedFunction._trusted(
            dom, values, 1, None)
    if len(tables) < nv:
        # Every row is a vertex below nv, so one below len(tables) + 1 is
        # missing; the scan is bounded by the rows read, not by nv.
        first = next(v for v in range(len(tables) + 1) if v not in tables)
        raise FormatError(
            "missing tables for %d of %d vertices, the first %d"
            % (nv - len(tables), nv, first)
        )
    return tables


def format_tables(tables, q):
    """The `parse_tables` text of the tables; every value must be a single
    digit in [q]."""
    nv = len(tables)
    npoints = next(iter(tables.values())).domain.size
    out = ["%d %d %d" % (nv, npoints, q)]
    digits = min(q, 10)  # a value is written as one character
    for v in sorted(tables):
        nums, den = tables[v].numerators, tables[v].denominator
        if any(m % den or not 0 <= m < digits * den for m in nums):
            raise FormatError("table %d has a value outside the digits [%d]"
                              % (v, digits))
        out.append("%d %s" % (v, "".join(str(m // den) for m in nums)))
    return "\n".join(out) + "\n"
