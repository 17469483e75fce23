"""The three decoders against their pointwise Fraction-table copies in
`oracles`, on random small unique games.

`decode_t1` averages integer tables through one index map per edge, and
`decode_t2` and `decode_t3` read one integer Walsh-Hadamard transform per
table; the oracles compose every point through `compose_projection` and
build full `fourier` tables. Both must give the same labeling, value, set
sizes and bounds, and refuse the same inputs with the same exception, the
first faulty table first, also when a table is not in lowest terms.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from cspcover import (
    Edge,
    LabelCoverInstance,
    PreconditionError,
    ProductDomain,
    TabulatedFunction,
    decode_t1,
    decode_t2,
    decode_t3,
)

SEEDS = st.integers(0, 2**32 - 1)


def outcome(fn, *args):
    """The result's fields in slot order, or the exception's type and text."""
    try:
        res = fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return type(res), [getattr(res, s) for s in type(res).__slots__]


@st.composite
def unique_games(draw):
    """Up to 3 + 3 vertices and 3 labels; every left vertex has an edge."""
    nu, nv, n = (draw(st.integers(1, 3)) for _ in range(3))
    perms = st.permutations(range(n))
    edges = [Edge(u, draw(st.integers(0, nv - 1)), draw(perms))
             for u in range(nu)]
    edges += [Edge(draw(st.integers(0, nu - 1)), draw(st.integers(0, nv - 1)),
                   draw(perms)) for _ in range(draw(st.integers(0, 3)))]
    return LabelCoverInstance(nu, nv, n, n, edges, unique=True)


def rational_tables(g, q, rng):
    """Each table draws its denominators from its own pair, so neighbours
    are averaged over differing common denominators."""
    dom = ProductDomain((q,) * (2 * g.nlabels_v))
    tables = {}
    for v in range(g.nv):
        dens = rng.sample((1, 2, 3, 4, 5, 7), 2)
        tables[v] = TabulatedFunction(dom, [
            Fraction(rng.randint(-4, 4), rng.choice(dens))
            for _ in range(dom.size)
        ])
    return tables


def binary_tables(g, signs, rng):
    dom = ProductDomain.binary_uniform(2 * g.nlabels_v)
    alphabet = (-1, 1) if signs else (0, 1)
    return {v: TabulatedFunction(dom, [
        rng.choice(alphabet) for _ in range(dom.size)
    ]) for v in range(g.nv)}


def unreduced(tables, c):
    return {v: oracles.unreduced(f, c) for v, f in tables.items()}


# Tables are also decoded as the library may hold them, numerators and
# denominator scaled by a common factor; the result must not change.
SCALES = st.integers(1, 4)


@given(unique_games(), st.sampled_from([2, 3]), SEEDS, SEEDS,
       st.sampled_from([Fraction(1, 16), Fraction(1, 4), Fraction(1, 2)]),
       st.integers(1, 3), SCALES)
def test_decode_t1_matches_oracle(g, q, table_seed, seed, tau, d, c):
    tables = rational_tables(g, q, random.Random(table_seed))
    want = outcome(oracles.reference_decode_t1, tables, g, tau, d, seed)
    assert want[0] is not PreconditionError
    assert outcome(decode_t1, unreduced(tables, c), g, tau, d, seed) == want


@given(unique_games(), st.booleans(), SEEDS, SEEDS,
       st.sampled_from([Fraction(1, 8), Fraction(1, 3), Fraction(7, 8)]),
       SCALES)
def test_decode_t2_t3_match_oracle(g, signs, table_seed, seed, gamma, c):
    tables = binary_tables(g, signs, random.Random(table_seed))
    twins = unreduced(tables, c)
    assert (outcome(decode_t2, twins, g, gamma, seed)
            == outcome(oracles.reference_decode_t2, tables, g, gamma, seed))
    assert (outcome(decode_t3, twins, g, seed)
            == outcome(oracles.reference_decode_t3, tables, g, seed))


def _values(kind, size, rng):
    if kind == "twos":
        return [rng.choice((0, 1, 2)) for _ in range(size)]
    return [rng.choice((0, 1)) for _ in range(size)]


# Faults drawn per table: another width, another alphabet, a binary domain
# with a skewed measure, and values that are neither bits nor signs.
FAULTS = st.sampled_from(["none", "wider", "narrower", "ternary", "skewed",
                          "twos"])


def faulty_tables(g, faults, rng, q=2):
    n = 2 * g.nlabels_v
    out = {}
    for v, fault in enumerate(faults):
        width = n + {"wider": 1, "narrower": -1}.get(fault, 0)
        if fault == "ternary":
            dom = ProductDomain((3 - (q == 3),) + (3,) * (width - 1))
        elif fault == "skewed":
            dom = ProductDomain((2,) * width,
                                ((Fraction(1, 3), Fraction(2, 3)),) * width)
        else:
            dom = ProductDomain((q,) * width)
        out[v] = TabulatedFunction(dom, _values(fault, dom.size, rng))
    return out


@given(unique_games(), st.data(), SEEDS, SEEDS, SCALES)
def test_refusals_match_oracle(g, data, table_seed, seed, c):
    faults = data.draw(st.lists(FAULTS, min_size=g.nv, max_size=g.nv))
    rng = random.Random(table_seed)
    for q in (2, 3):
        tables = faulty_tables(g, faults, rng, q)
        got = outcome(decode_t1, unreduced(tables, c), g, Fraction(1, 4), 2,
                      seed)
        assert got == outcome(oracles.reference_decode_t1, tables, g,
                              Fraction(1, 4), 2, seed)
    tables = faulty_tables(g, faults, rng)
    twins = unreduced(tables, c)
    assert (outcome(decode_t2, twins, g, Fraction(1, 4), seed)
            == outcome(oracles.reference_decode_t2, tables, g, Fraction(1, 4),
                       seed))
    assert (outcome(decode_t3, twins, g, seed)
            == outcome(oracles.reference_decode_t3, tables, g, seed))


def two_edge_game():
    edges = [Edge(0, 0, (1, 0)), Edge(0, 1, (0, 1))]
    return LabelCoverInstance(1, 2, 2, 2, edges, unique=True)


@pytest.mark.parametrize("faults, decoders, message", [
    (("wider", "none"), "1", "blocks must cover every coordinate"),
    (("narrower", "none"), "1", "block coordinate out of range"),
    (("ternary", "none"), "1", "point coordinate out of range"),
    (("none", "ternary"), "23", "fourier requires a binary uniform domain"),
    (("none", "skewed"), "23", "fourier requires a binary uniform domain"),
    (("twos", "none"), "23", "table values must be bits or signs"),
    (("skewed", "twos"), "23", "fourier requires a binary uniform domain"),
    (("twos", "skewed"), "23", "table values must be bits or signs"),
    (("none", "wider"), "23", "table has 5 coordinates, not 2R = 4"),
    (("narrower", "none"), "23", "table has 3 coordinates, not 2R = 4"),
])
def test_refusals_are_the_oracles(faults, decoders, message):
    g = two_edge_game()
    tables = faulty_tables(g, faults, random.Random(5))
    runs = {
        "1": ((decode_t1, oracles.reference_decode_t1), (Fraction(1, 4), 2)),
        "2": ((decode_t2, oracles.reference_decode_t2), (Fraction(1, 4),)),
        "3": ((decode_t3, oracles.reference_decode_t3), ()),
    }
    for key in decoders:
        (fn, ref), extra = runs[key]
        want = outcome(ref, tables, g, *extra, 9)
        assert want == (PreconditionError, message)
        assert outcome(fn, tables, g, *extra, 9) == want
