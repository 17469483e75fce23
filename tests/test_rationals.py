"""Every public operation reads a caller's rational through one reader,
`errors.as_rational`: a value that is no rational, or a string in exponent
form, ends in a PreconditionError at once, never in a bare ValueError or
OverflowError, nor in building 10**exp."""

from decimal import Decimal
from fractions import Fraction

import pytest

from cspcover import (
    Edge,
    FourierTable,
    LabelCoverInstance,
    Labeling,
    PreconditionError,
    ProductDomain,
    T1Params,
    T2Params,
    T3Params,
    TabulatedFunction,
    binary_dictator_tables,
    character,
    decode_t1,
    decode_t2,
    errors,
    lin,
    nae,
    noise,
    product_space,
    t1_dictator_tables,
    t3_delta_table,
)

HALF = Fraction(1, 2)
P0 = {(0, 0): HALF, (1, 1): HALF}
P1 = {(0, 1): HALF, (1, 0): HALF}


def source():
    return LabelCoverInstance(
        1, 2, 2, 2, [Edge(0, 0, (0, 1)), Edge(0, 1, (0, 1))], unique=True)


PLANTED = Labeling((1,), (1, 1))

# One call per site that reads a caller's rational, with the value `x` in
# that place and valid arguments elsewhere.
SITES = {
    "TabulatedFunction values":
        lambda x: TabulatedFunction(ProductDomain((2,)), (x, 0)),
    "FourierTable coefficients": lambda x: FourierTable(1, (x, 0)),
    "noise gamma": lambda x: noise(character(1, 1), x),
    "product_space masses":
        lambda x: product_space({(0,): x, (1,): HALF}, {(1,): 1}),
    "decode_t1 tau": lambda x: decode_t1(t1_dictator_tables(
        T1Params(nae(2, 2), (0, 1), source()), PLANTED), source(), x, 2, 0),
    "decode_t2 gamma": lambda x: decode_t2(
        binary_dictator_tables(source(), PLANTED), source(), x, 0),
    "T2Params distribution weights": lambda x: T2Params(
        lin(4), {(0, 0): x, (1, 1): HALF}, P1, HALF, source()),
    "T2Params eps": lambda x: T2Params(lin(4), P0, P1, x, source()),
    "T3Params eps": lambda x: T3Params(x, source()),
    "t3_delta_table eps": lambda x: t3_delta_table(source(), 0, 1, x),
}

BAD = {"nan": float("nan"), "inf": float("inf"), "text": "x",
       "exponent": "1e-3000000", "decimal exponent": Decimal("1e-3000000"),
       "decimal nan": Decimal("NaN")}


@pytest.mark.parametrize("value", BAD)
@pytest.mark.parametrize("site", SITES)
def test_a_value_that_is_no_rational_is_a_precondition_error(
    site, value, deadline
):
    with deadline(0.5):
        with pytest.raises(PreconditionError, match=r" is not a rational$"):
            SITES[site](BAD[value])


def test_the_reader_keeps_a_fraction_and_reads_plain_strings():
    x = Fraction(3, 7)
    assert errors.as_rational(x, "value") is x
    assert errors.as_rational(" -3/6 ", "value") == Fraction(-1, 2)
    assert errors.as_rational("0.25", "value") == Fraction(1, 4)
    assert errors.as_rational(2, "value") == 2
    with pytest.raises(PreconditionError,
                       match=r"^value '1E2' is not a rational$"):
        errors.as_rational("1E2", "value")


def test_a_decimal_is_read_exactly_up_to_max_digits(deadline):
    assert errors.MAX_DIGITS == 4300
    with deadline(0.5):
        for value, expected in [
            (Decimal("0.25"), Fraction(1, 4)),
            (Decimal("-2.50"), Fraction(-5, 2)),
            (Decimal("1E-7"), Fraction(1, 10**7)),
            (Decimal("0E-7"), 0),
            (Decimal("100").normalize(), 100),
            (Decimal("1E-4299"), Fraction(1, 10**4299)),
            (Decimal("9" * 4300), 10**4300 - 1),
        ]:
            assert errors.as_rational(value, "value") == expected
        with pytest.raises(
            PreconditionError,
            match=r"^value Decimal\('1E-3000000'\) is not a rational$",
        ):
            errors.as_rational(Decimal("1e-3000000"), "value")
        for value in (Decimal("1E-4300"), Decimal("1E+4300"),
                      Decimal("1" * 4301), Decimal("1" * 10**5)):
            with pytest.raises(PreconditionError, match=r" is not a rational$"):
                errors.as_rational(value, "value")
        for text in ("NaN", "sNaN", "Infinity", "-Infinity"):
            with pytest.raises(PreconditionError, match=r" is not a rational$"):
                errors.as_rational(Decimal(text), "value")


def test_scaled_puts_rationals_over_the_lcm_of_their_denominators():
    assert errors._scaled([HALF, Fraction(1, 3), 2, HALF]) == (
        [3, 2, 12, 3], 6)
    assert errors._scaled([]) == ([], 1)
