"""Every public operation reads a caller's integer through one of three
readers in `errors`: `as_int` (`operator.index`), `as_index` (an int in
[0, size)) and `as_word` (a tuple of `length` ints in [0, base)). A float,
NaN, an infinity, a string, None, a Fraction or a Decimal ends in a
PreconditionError that names the argument, at once and before any budget
unit is spent; nothing is truncated, and integer types that define
`__index__`, such as numpy's, are still read."""

import ast
import collections
import math
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy
import pytest

import cspcover
from cspcover import (
    Assignment,
    Budget,
    Constraint,
    CspInstance,
    Edge,
    FourierTable,
    LabelCoverInstance,
    Labeling,
    PreconditionError,
    Predicate,
    ProductDomain,
    T1Params,
    T2Params,
    T3Params,
    TabulatedFunction,
    all_degree_d_influences,
    all_influences,
    apply_literal_shift,
    block_image,
    character,
    cnf,
    compose_projection,
    covering_number,
    covers_constraint,
    decode_t1,
    degree_d_influence,
    errors,
    find_cover,
    full,
    generate_t1,
    influence,
    invariance_gap,
    lin,
    max_satisfiable,
    nae,
    pi_oplus,
    pi_tilde,
    product_space,
    sample_t3,
    shift,
    smoothness_profile,
    synthesize,
    t1_dictator_tables,
    translate_orbit,
)
from cspcover.search import _cover_search

import oracles

HALF = Fraction(1, 2)
P1 = {(0, 1): HALF, (1, 0): HALF}
NAE22 = nae(2, 2)
INST = CspInstance(NAE22, range(2), [((0, 1), (0, 0), 1)])
TABLE = TabulatedFunction(ProductDomain((2, 2)), (0, 1, 1, 0))
SPACE = product_space({(0,): HALF, (1,): HALF}, {(0,): HALF, (1,): HALF})


def source():
    return LabelCoverInstance(
        1, 2, 2, 2, [Edge(0, 0, (0, 1)), Edge(0, 1, (0, 1))], unique=True)


def t1_params():
    return T1Params(NAE22, (0, 1), source())


def integer(what):
    return lambda x: "%s %r is not an integer" % (what, x)


def word(what, base, length):
    """The refusal of the word (0, x)."""
    return lambda x: "%s %r is not in [%d]^%d" % (what, (0, x), base, length)


SYNTH = dict(nu=1, nv=1, nlabels_u=1, nlabels_v=1, seed=0)

# One call per site that reads a caller's integer, with the value `x` in
# that place and valid arguments elsewhere, and the refusal it must raise.
# Each call takes a budget, which the sites with one are passed.
SITES = {
    "Predicate q": (lambda x, b: Predicate(x, 2, ()), integer("q")),
    "Predicate k": (lambda x, b: Predicate(2, x, ()), integer("k")),
    "Predicate member":
        (lambda x, b: Predicate(2, 2, [(0, x)]), word("member", 2, 2)),
    "shift h": (lambda x, b: shift(NAE22, (0, x)), word("shift vector", 2, 2)),
    "translate_orbit a":
        (lambda x, b: translate_orbit(2, 2, (0, x)), word("tuple", 2, 2)),
    "translate_orbit q":
        (lambda x, b: translate_orbit(x, 2, (0, 1)), integer("q")),
    "translate_orbit k":
        (lambda x, b: translate_orbit(2, x, (0, 1)), integer("k")),
    "nae q": (lambda x, b: nae(x, 2), integer("q")),
    "nae k": (lambda x, b: nae(2, x), integer("k")),
    "lin k": (lambda x, b: lin(x), integer("k")),
    "cnf k": (lambda x, b: cnf(x), integer("k")),
    "full q": (lambda x, b: full(x, 2), integer("q")),
    "full k": (lambda x, b: full(2, x), integer("k")),
    "Constraint vars": (lambda x, b: Constraint((0, x), (0, 0), 1),
                        integer("scope variable")),
    "CspInstance scope": (lambda x, b: CspInstance(
        NAE22, range(2), [((0, x), (0, 0), 1)]), integer("scope variable")),
    "Constraint literals":
        (lambda x, b: Constraint((0, 1), (0, x), 1), integer("literal")),
    "CspInstance literals": (lambda x, b: CspInstance(
        NAE22, range(2), [((0, 1), (0, x), 1)]), integer("literal")),
    "Assignment values":
        (lambda x, b: Assignment((0, x)), integer("assignment value")),
    "apply_literal_shift h": (lambda x, b: apply_literal_shift(INST, (0, x)),
                              word("shift vector", 2, 2)),
    "covers_constraint idx":
        (lambda x, b: covers_constraint(Assignment((0, 1)), INST, x),
         integer("constraint index")),
    "Edge u": (lambda x, b: Edge(x, 0, (0,)), integer("edge vertex u")),
    "Edge v": (lambda x, b: Edge(0, x, (0,)), integer("edge vertex v")),
    "Edge proj": (lambda x, b: Edge(0, 0, (x,)), integer("projection label")),
    "LabelCoverInstance nu":
        (lambda x, b: LabelCoverInstance(x, 1, 1, 1, ()), integer("nu")),
    "LabelCoverInstance nv":
        (lambda x, b: LabelCoverInstance(1, x, 1, 1, ()), integer("nv")),
    "LabelCoverInstance nlabels_u":
        (lambda x, b: LabelCoverInstance(1, 1, x, 1, ()), integer("nlabels_u")),
    "LabelCoverInstance nlabels_v":
        (lambda x, b: LabelCoverInstance(1, 1, 1, x, ()), integer("nlabels_v")),
    "Labeling left": (lambda x, b: Labeling((x,), (0,)), integer("left label")),
    "Labeling right":
        (lambda x, b: Labeling((0,), (x,)), integer("right label")),
    "smoothness_profile alpha":
        (lambda x, b: smoothness_profile(source(), 0, [x]),
         integer("alpha label")),
    "smoothness_profile v":
        (lambda x, b: smoothness_profile(source(), x, [0]), integer("vertex")),
    "synthesize nu": (lambda x, b: synthesize(
        "unique-consistent", **dict(SYNTH, nu=x)), integer("nu")),
    "synthesize nv": (lambda x, b: synthesize(
        "unique-consistent", **dict(SYNTH, nv=x)), integer("nv")),
    "synthesize nlabels_u": (lambda x, b: synthesize(
        "unique-consistent", **dict(SYNTH, nlabels_u=x)), integer("nlabels_u")),
    "synthesize nlabels_v": (lambda x, b: synthesize(
        "unique-consistent", **dict(SYNTH, nlabels_v=x)), integer("nlabels_v")),
    "synthesize degree": (lambda x, b: synthesize(
        "dto1-random", degree=x, **SYNTH), integer("degree")),
    "ProductDomain sizes":
        (lambda x, b: ProductDomain((2, x)), integer("coordinate size")),
    "ProductDomain.index point":
        (lambda x, b: ProductDomain((2,)).index((x,)),
         integer("point coordinate")),
    "ProductDomain.binary_uniform n":
        (lambda x, b: ProductDomain.binary_uniform(x), integer("n")),
    "FourierTable n": (lambda x, b: FourierTable(x, (0, 0)), integer("n")),
    "character n": (lambda x, b: character(x, 0), integer("n")),
    "character alpha": (lambda x, b: character(2, x), integer("alpha")),
    "character alpha index":
        (lambda x, b: character(2, [x]), integer("alpha index")),
    "block_image alpha index":
        (lambda x, b: block_image([x], [(0,), (1,)], 2), integer("alpha index")),
    "all_influences blocks":
        (lambda x, b: all_influences(TABLE, [(0,), (x,)]),
         integer("block coordinate")),
    "influence i": (lambda x, b: influence(TABLE, x), integer("block index")),
    "degree_d_influence i":
        (lambda x, b: degree_d_influence(TABLE, x, 1), integer("block index")),
    "all_degree_d_influences d":
        (lambda x, b: all_degree_d_influences(TABLE, x), integer("d")),
    "pi_tilde alpha":
        (lambda x, b: pi_tilde([x], (0,)), integer("alpha index")),
    "pi_tilde pi":
        (lambda x, b: pi_tilde([0], (x,)), integer("projection label")),
    "pi_oplus alpha":
        (lambda x, b: pi_oplus([x], (0,), 1), integer("alpha index")),
    "pi_oplus pi":
        (lambda x, b: pi_oplus([0], (x,), 1), integer("projection label")),
    "pi_oplus nleft": (lambda x, b: pi_oplus([0], (0,), x), integer("nleft")),
    "compose_projection pi":
        (lambda x, b: compose_projection((0, 1), (x,)),
         integer("projection label")),
    "invariance_gap nblocks":
        (lambda x, b: invariance_gap(SPACE, x, None, None, budget=b),
         integer("nblocks")),
    "decode_t1 d": (lambda x, b: decode_t1(
        t1_dictator_tables(t1_params(), Labeling((1,), (1, 1))), source(),
        HALF, x, 0), integer("d")),
    "T1Params a":
        (lambda x, b: T1Params(NAE22, (0, x), source()), integer("a")),
    "T2Params distribution key":
        (lambda x, b: T2Params(lin(4), {(0, x): 1}, P1, HALF, source()),
         word("distribution key", 2, 2)),
    "generate_t1 support_cap":
        (lambda x, b: generate_t1(t1_params(), budget=b, support_cap=x),
         integer("support cap")),
    "sample_t3 n":
        (lambda x, b: sample_t3(T3Params(HALF, source()), x, 0), integer("n")),
    "Budget limit": (lambda x, b: Budget(x), integer("budget")),
}

VALUES = {"2.7": 2.7, "2.0": 2.0, "nan": math.nan, "inf": math.inf,
          "text": "2", "None": None, "Fraction": Fraction(2),
          "Decimal": Decimal(2)}

# None means the default at these sites; a string is a sequence of indices
# where an index set may be a mask or a collection.
MEANINGFUL = {("synthesize degree", "None"), ("generate_t1 support_cap", "None"),
              ("Budget limit", "None"), ("character alpha", "text")}


@pytest.mark.parametrize("site, value", [
    (site, value) for site in SITES for value in VALUES
    if (site, value) not in MEANINGFUL])
def test_a_value_that_is_no_integer_is_a_precondition_error(
    site, value, deadline
):
    call, message = SITES[site]
    x = VALUES[value]
    budget = Budget(10**6)
    with deadline(0.5):
        with pytest.raises(PreconditionError,
                           match="^%s$" % re.escape(message(x))):
            call(x, budget)
    assert budget.used == 0


def test_numpy_integers_are_read_as_ints():
    i = numpy.int64
    domain = ProductDomain((i(2), i(3)))
    assert domain.sizes == (2, 3)
    point = domain.index((i(1), i(2)))
    assert point == 5 and type(point) is int
    assert Predicate(i(2), i(2), [(i(0), i(1))]).members == ((0, 1),)
    assert shift(NAE22, numpy.array([1, 1])) == NAE22
    assert Budget(i(5)).limit == 5 and type(Budget(i(5)).limit) is int
    assert Edge(i(0), i(1), numpy.array([1, 0])).proj == (1, 0)
    assert influence(TABLE, i(1)) == influence(TABLE, 1)
    assert pi_tilde(numpy.array([3]), (0, 1)) == {1}
    assert covers_constraint(Assignment(numpy.array([0, 1])), INST, i(0))
    assert len(sample_t3(T3Params(HALF, source()), i(3), 0).numerators) >= 1


def test_the_readers():
    assert errors.as_index(2, 3, "i") == 2
    assert errors.as_word([1, 0], 2, 2, "w") == (1, 0)
    for value, size in ((3, 3), (-1, 3), (0, 0)):
        with pytest.raises(PreconditionError, match=r"^i out of range$"):
            errors.as_index(value, size, "i")
    with pytest.raises(PreconditionError, match=r"^i 0\.5 is not an integer$"):
        errors.as_index(0.5, 3, "i")
    for values in ((1, 0, 1), (1,), (0, 2), (0, -1), "01", 5, None):
        with pytest.raises(
            PreconditionError,
            match="^w %s is not in \\[2\\]\\^2$" % re.escape(repr(values)),
        ):
            errors.as_word(values, 2, 2, "w")


# Values that a truncating read accepts or lets escape as a bare error.
def test_nothing_is_truncated_or_escapes_as_a_bare_error(deadline):
    with deadline(0.5):
        for call in (
            lambda: ProductDomain((2,)).index((0.5,)),
            lambda: ProductDomain([2.7]),
            lambda: influence(TABLE, 0.5),
            lambda: sample_t3(T3Params(HALF, source()), 2.5, 1),
            lambda: sample_t3(T3Params(HALF, source()), math.nan, 1),
            lambda: Budget(2.5),
            lambda: Budget("5"),
            lambda: Predicate(math.nan, 2, ()),
            lambda: Predicate(2.9, 1.5, [(0,)]),
            lambda: Edge(math.inf, 0, (0,)),
            lambda: Edge(0.9, 1.2, (0,)),
            lambda: covers_constraint(Assignment((0, 1)), INST, 0.5),
        ):
            with pytest.raises(PreconditionError, match=r" is not an integer$"):
                call()


# A literal vector is read element by element through `as_int`; a string is
# read as its digits. Floats were truncated, and other values ended in a
# bare ValueError or TypeError.
@pytest.mark.parametrize("call, message", [
    (lambda: Constraint((0, 1), (0.9, 1.7), 1), "literal 0.9 is not an integer"),
    (lambda: CspInstance(NAE22, range(3), [((0, 1), (0.9, 1.2), 1)]),
     "literal 0.9 is not an integer"),
    (lambda: Constraint((0, 1), ("a", 1), 1), "literal 'a' is not an integer"),
    (lambda: Constraint((0, 1), (None, 1), 1), "literal None is not an integer"),
    (lambda: Constraint((0, 1), "0a", 1), "literal 'a' is not an integer"),
    (lambda: CspInstance(NAE22, range(3), [((0, 1), "0 ", 1)]),
     "literal ' ' is not an integer"),
    # Equal to an int vector read before, so a lookup by value took it.
    (lambda: CspInstance(NAE22, range(3), [((0, 1), (0, 1), 1),
                                           ((1, 2), (0.0, 1.0), 1)]),
     "literal 0.0 is not an integer"),
])
def test_a_literal_that_is_no_integer_is_a_precondition_error(call, message):
    with pytest.raises(PreconditionError, match="^%s$" % re.escape(message)):
        call()


def test_literal_vectors_are_read_as_given():
    assert CspInstance(NAE22, range(3), [((0, 1), "01", 1)]).literals == (
        (0, 1),)

    def atoms():
        # One list, changed between atoms, is read each time.
        lits = [0, 0]
        for j in range(2):
            lits[0] = j
            yield (j, j + 1), lits, 1

    assert CspInstance(NAE22, range(3), atoms()).literals == ((0, 0), (1, 0))

    # Equal vectors given as fresh objects share one tuple.
    first, second = CspInstance(NAE22, range(3), (
        ((v, v + 1), [0, 1], 1) for v in range(2))).literals
    assert first == (0, 1) and first is second


def test_out_of_range_indices_are_refused_by_name():
    for call, message in (
        (lambda: smoothness_profile(source(), 2, [0]), "vertex out of range"),
        (lambda: smoothness_profile(source(), 0, [2]),
         "alpha label out of range"),
        (lambda: covers_constraint(Assignment((0, 1)), INST, 1),
         "constraint index out of range"),
        (lambda: pi_tilde([2], (0,)), "alpha index out of range"),
        (lambda: pi_oplus([0], (1,), 1), "projection label out of range"),
        (lambda: compose_projection((0, 1), (1,)),
         "projection label out of range"),
        (lambda: character(2, [2]), "alpha index out of range"),
        (lambda: Predicate(2, 2, [(0, 1, 1)]),
         "member (0, 1, 1) is not in [2]^2"),
        (lambda: T2Params(lin(4), {(0, 2): 1}, P1, HALF, source()),
         "distribution key (0, 2) is not in [2]^2"),
        (lambda: apply_literal_shift(INST, (0, 2)),
         "shift vector (0, 2) is not in [2]^2"),
    ):
        with pytest.raises(PreconditionError, match="^%s$" % re.escape(message)):
            call()


# A negative number of binary coordinates is refused before any shift by it.
@pytest.mark.parametrize("call", [
    lambda: FourierTable(-1, (0,)),
    lambda: character(-1, 0),
    lambda: ProductDomain.binary_uniform(-1),
])
def test_a_negative_n_is_a_precondition_error(call, deadline):
    with deadline(0.5):
        with pytest.raises(PreconditionError, match="^n must be nonnegative$"):
            call()


# Refusals of the functions above that no other test reaches.
@pytest.mark.parametrize("call, message", [
    (lambda: ProductDomain((2, 2), [(HALF, HALF)]),
     "one measure per coordinate required"),
    (lambda: ProductDomain((2,), [(1,)]),
     "measure length mismatches its coordinate"),
    (lambda: ProductDomain((2,), [(-1, 2)]), "measures must be nonnegative"),
    (lambda: ProductDomain((2,)).index((0, 0)), "point has wrong dimension"),
    (lambda: max_satisfiable(LabelCoverInstance(1, 1, 1, 1, ())),
     "instance has no edges"),
    (lambda: smoothness_profile(
        LabelCoverInstance(1, 2, 2, 2, [Edge(0, 0, (0, 1))]), 1, [0]),
     "vertex 1 is isolated"),
    (lambda: synthesize("unique-consistent", **dict(SYNTH, nv=0)),
     "sizes must be positive"),
    (lambda: synthesize("dto1-random", degree=0, **SYNTH),
     "degree must be positive"),
    (lambda: synthesize("unique-2-cover", **SYNTH),
     "need at least two left vertices"),
    (lambda: T1Params(Predicate(2, 1, [(0,), (1,)]), (0,), source()),
     "need arity at least 2"),
    (lambda: full(2, -1), "arity must be at least 1"),
    (lambda: T2Params(lin(4), {(0, 0): -HALF, (1, 1): 3 * HALF}, P1, HALF,
                      source()), "distribution weights must be nonnegative"),
    (lambda: T2Params(lin(4), {(0, 0): HALF}, P1, HALF, source()),
     "distribution must sum to 1 exactly"),
])
def test_refusals_no_other_test_reaches(call, message):
    with pytest.raises(PreconditionError, match="^%s$" % re.escape(message)):
        call()


# An instance without positive weight is covered by the one all-zero
# assignment, and covering_number and find_cover agree on it, with or
# without variables.
@pytest.mark.parametrize("nvars", [0, 3])
def test_find_cover_without_constraints_is_the_trivial_cover(nvars):
    inst = CspInstance(NAE22, range(nvars), [])
    assert covering_number(inst, 1) == 0
    cover = find_cover(inst, 1)
    assert [a.values for a in cover] == [(0,) * nvars]
    for search in (_cover_search, oracles.reference_cover_search):
        assert search(inst, 1, Budget()) == (0, [(0,) * nvars])


# The sites that may still convert with `int`, by module and enclosing
# function, with how many conversions each holds. Text tokens are read as
# `FormatError`s with line references; the rest convert the library's own
# bit strings and bools.
INT_ALLOWED = {
    ("cli", "cmd_lc_smooth"): 1,
    ("textio", "_ints"): 1,
    ("textio", "_instance_columns"): 1,
    ("spectralio", "parse_tables"): 1,
    ("search", "_transpose"): 1,
    ("reductions", "_half_products"): 1,
    ("games", "synthesize"): 1,
}


def _int_conversions(tree):
    """(enclosing function, line) of every `int(...)` call and every `int`
    passed to `map`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = child.name if scope is None else scope + "." + child.name
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                if child.func.id == "int" or (
                        child.func.id == "map" and child.args
                        and isinstance(child.args[0], ast.Name)
                        and child.args[0].id == "int"):
                    found.append((scope, child.lineno))
            visit(child, name)

    visit(tree, None)
    return found


def test_integers_are_converted_only_at_the_allowed_sites():
    package = Path(cspcover.__file__).parent
    counts = collections.Counter()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, line in _int_conversions(tree):
            key = (path.stem, scope)
            assert key in INT_ALLOWED, (
                "%s.py:%d converts with int(); read a caller's integer with "
                "errors.as_int, as_index or as_word" % (path.stem, line))
            counts[key] += 1
    assert counts == INT_ALLOWED
