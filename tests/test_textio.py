import random
import time
from fractions import Fraction

import pytest

from cspcover import (
    Assignment,
    CspInstance,
    Edge,
    FormatError,
    LabelCoverInstance,
    Labeling,
    PreconditionError,
    ProductDomain,
    TabulatedFunction,
    errors,
    nae,
    product_space,
    synthesize,
    t2_block_space,
    textio,
)

import oracles
from test_reductions_t2 import params as t2_params


class TestHelpers:
    def test_format_rational(self):
        assert textio.format_rational(Fraction(3, 4)) == "3/4"
        assert textio.format_rational(Fraction(5)) == "5/1"
        assert textio.format_rational(0) == "0/1"

    def test_parse_digits(self):
        assert textio.parse_digits("0120", 4, 3) == (0, 1, 2, 0)
        with pytest.raises(FormatError):
            textio.parse_digits("012", 4, 3)
        with pytest.raises(FormatError):
            textio.parse_digits("0130", 4, 3)

    @pytest.mark.parametrize("token", ["0\u00b2", "0\u0661"])
    def test_parse_digits_takes_ascii_digits_only(self, token):
        # A superscript two passes str.isdigit, an Arabic-Indic one also
        # passes int(); neither is a digit of the format.
        with pytest.raises(FormatError, match="expected 2 digits"):
            textio.parse_digits(token, 2, 3)
        with pytest.raises(FormatError, match="line 2: expected 2 digits"):
            textio.parse_predicate("3 2\n%s\n" % token)

    @pytest.mark.parametrize("parse, text, message", [
        (textio.parse_labelcover, "1 1 1 1 2\n", "unique flag"),
        (textio.parse_truth_table, "30\n", "unsupported dimension"),
        (textio.parse_tables, "1 5 2\n0 01100\n", "npoints must be a power"),
    ], ids=["labelcover", "truth_table", "tables"])
    def test_header_errors_cite_the_header_line(self, parse, text, message):
        with pytest.raises(FormatError, match="line 2: " + message):
            parse("# header next\n" + text)

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# a predicate\n\n2 2\n# members\n01\n\n10\n"
        pred = textio.parse_predicate(text)
        assert pred.members == ((0, 1), (1, 0))


class TestPredicateFormat:
    def test_round_trip(self):
        pred = nae(3, 2)
        again = textio.parse_predicate(textio.format_predicate(pred))
        assert again == pred

    def test_rejects_empty(self):
        with pytest.raises(FormatError):
            textio.parse_predicate("# nothing here\n")

    def test_rejects_bad_digits(self):
        with pytest.raises(FormatError):
            textio.parse_predicate("2 2\n02\n")

    def test_rejects_bad_header(self):
        with pytest.raises(FormatError):
            textio.parse_predicate("two true\n01\n")


class TestInstanceFormat:
    def make(self):
        pred = nae(2, 2)
        return CspInstance(
            pred,
            range(3),
            [
                ((0, 1), (0, 0), Fraction(1, 2)),
                ((1, 2), (0, 1), Fraction(1, 4)),
                ((2, 0), (1, 1), Fraction(1, 4)),
            ],
        )

    def test_round_trip(self):
        inst = self.make()
        text = textio.format_instance(inst)
        again = textio.parse_instance(text, inst.predicate)
        assert again.nvars == inst.nvars
        assert again.constraints == inst.constraints

    def test_rejects_predicate_mismatch(self):
        text = textio.format_instance(self.make())
        with pytest.raises(FormatError):
            textio.parse_instance(text, nae(3, 2))

    def test_rejects_wrong_count(self):
        text = "2 2 3 2\n0 1 00 1/2\n"
        with pytest.raises(FormatError):
            textio.parse_instance(text, nae(2, 2))

    def test_header_counts_are_checked_before_anything_is_built(self):
        cap = errors.MAX_TABLE
        for counts in ("-3 0", "%d 0" % (cap + 1), "3 -1", "3 %d" % (cap + 1)):
            with pytest.raises(FormatError, match="^line 2: variable and "
                               "constraint counts must lie in \\[0, %d\\]$"
                               % cap):
                textio.parse_instance("# header\n2 2 %s\n" % counts, nae(2, 2))
        assert textio.parse_instance("2 2 0 0\n", nae(2, 2)).nvars == 0

    def test_rejects_bad_tokens(self):
        with pytest.raises(FormatError):
            textio.parse_instance("2 2 3 1\nx 1 00 1/2\n", nae(2, 2))
        with pytest.raises(FormatError):
            textio.parse_instance("2 2 3 1\n0 1 00 half\n", nae(2, 2))
        with pytest.raises(FormatError):
            textio.parse_instance("2 2 3 1\n0 1 00\n", nae(2, 2))

    def test_a_malformed_line_is_reported_before_a_failed_check(self):
        # Line 2 parses but names variable 7 of 3; line 3 does not parse.
        text = "2 2 3 2\n0 7 00 1/2\n0 1 0 1/2\n"
        with pytest.raises(FormatError, match="line 3: expected 2 digits"):
            textio.parse_instance(text, nae(2, 2))
        with pytest.raises(PreconditionError, match="unknown variables"):
            textio.parse_instance("2 2 3 2\n0 7 00 1/2\n0 1 00 1/2\n", nae(2, 2))

    def test_weights_in_other_spellings(self):
        text = "2 2 3 4\n0 1 00 1/4\n1 2 01 0.25\n2 0 11 +1/4\n0 2 00 1_0/40\n"
        inst = textio.parse_instance(text, nae(2, 2))
        assert [c.weight for c in inst.constraints] == [Fraction(1, 4)] * 4
        with pytest.raises(FormatError, match="line 2: bad rational"):
            textio.parse_instance("2 2 3 1\n0 1 00 1/0\n", nae(2, 2))

    def test_writes_reduced_weights_from_the_numerators(self):
        inst = CspInstance(nae(2, 2), range(3), [
            ((0, 1), (0, 0), Fraction(1, 6)), ((1, 2), (0, 0), Fraction(1, 3)),
            ((0, 1), (0, 0), Fraction(1, 6)), ((0, 2), (0, 0), 0),
        ])
        assert inst.denominator == 6 and inst.numerators == (2, 2, 0)
        assert textio.format_instance(inst).splitlines()[1:] == [
            "0 1 00 1/3", "1 2 00 1/3", "0 2 00 0/1",
        ]


class TestLabelCoverFormat:
    def test_round_trip(self):
        g = synthesize(
            "dto1-random", nu=2, nv=3, nlabels_u=2, nlabels_v=4, seed=3
        )
        again = textio.parse_labelcover(textio.format_labelcover(g))
        assert again.nu == g.nu and again.nv == g.nv
        assert again.nlabels_u == g.nlabels_u
        assert again.nlabels_v == g.nlabels_v
        assert again.unique == g.unique
        assert [(e.u, e.v, e.proj) for e in again.edges] == [
            (e.u, e.v, e.proj) for e in g.edges
        ]

    def test_unique_flag_round_trip(self):
        g = LabelCoverInstance(
            1, 1, 2, 2, [Edge(0, 0, (1, 0))], unique=True
        )
        assert textio.parse_labelcover(textio.format_labelcover(g)).unique

    def test_rejects_bad_flag(self):
        with pytest.raises(FormatError):
            textio.parse_labelcover("1 1 2 2 7\n0 0 0 1\n")

    def test_rejects_short_edge_line(self):
        with pytest.raises(FormatError):
            textio.parse_labelcover("1 1 2 2 1\n0 0 0\n")

    def test_rejects_negative_label_count(self):
        # With R = -1 an edge line holds one integer, too few for u and v.
        with pytest.raises(FormatError, match="line 1: counts must be"):
            textio.parse_labelcover("0 0 0 -1 0\n0\n")


class TestSpaceFormat:
    def test_block_space_relabels_rows_to_symbols(self):
        # Rows are structured values; the text format stores their index in
        # the sorted row list, which leaves every space-level analysis
        # unchanged.
        from cspcover import correlation_rho, pairwise_product_check

        sp = t2_block_space(t2_params(Fraction(1, 4)))
        again = textio.parse_space(textio.format_space(sp))
        assert again.k_left == sp.k_left and again.k_right == sp.k_right
        assert sorted(again.mu.values()) == sorted(sp.mu.values())
        assert pairwise_product_check(again) == pairwise_product_check(sp)
        assert abs(correlation_rho(again) - correlation_rho(sp)) <= 1e-9

    def test_product_round_trip(self):
        sp = product_space(
            {(0,): Fraction(1, 2), (1,): Fraction(1, 2)},
            {(0,): Fraction(1, 3), (1,): Fraction(2, 3)},
        )
        again = textio.parse_space(textio.format_space(sp))
        assert again.mu == sp.mu

    def test_duplicate_lines_are_summed(self):
        text = "2 1 2 1\n0 0 1/4\n0 0 1/4\n1 1 1/2\n"
        sp = textio.parse_space(text)
        assert sp.mu[((0,), (0,))] == Fraction(1, 2)

    def test_rejects_wrong_token_count(self):
        with pytest.raises(FormatError):
            textio.parse_space("2 1 2 1\n0 0\n")


class TestFunctionFormats:
    def test_truth_table_round_trip(self):
        vals = [Fraction(i, 7) for i in range(8)]
        text = "3\n" + "\n".join(textio.format_rational(v) for v in vals) + "\n"
        f = textio.parse_truth_table(text)
        assert f.domain == ProductDomain.binary_uniform(3)
        assert list(f.values) == vals

    def test_truth_table_rejects_wrong_length(self):
        with pytest.raises(FormatError):
            textio.parse_truth_table("2\n1\n0\n1\n")

    def test_truth_table_rejects_huge_dimension(self):
        with pytest.raises(FormatError):
            textio.parse_truth_table("25\n")

    def test_values(self):
        assert textio.parse_values("1/2\n-3\n0/1\n") == [
            Fraction(1, 2),
            Fraction(-3),
            Fraction(0),
        ]

    def test_distribution(self):
        dist = textio.parse_distribution("2\n00 1/2\n11 1/4\n11 1/4\n")
        assert dist == {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}

    def test_distribution_rejects_bad_line(self):
        with pytest.raises(FormatError):
            textio.parse_distribution("2\n00\n")


class TestAssignmentFormats:
    def test_round_trip(self):
        assignments = [Assignment((0, 1, 1)), Assignment((1, 0, 0))]
        text = textio.format_assignments(assignments)
        again = textio.parse_assignments(text, 3, 2)
        assert again == assignments

    def test_rejects_wrong_width(self):
        with pytest.raises(FormatError):
            textio.parse_assignments("01\n", 3, 2)

    def test_labelings_round_trip(self):
        labs = [Labeling((0, 1), (2, 0, 1)), Labeling((1, 1), (0, 0, 0))]
        text = textio.format_labelings(labs)
        again = textio.parse_labelings(text, 2, 3)
        assert again == labs

    def test_labelings_reject_short_line(self):
        with pytest.raises(FormatError):
            textio.parse_labelings("0 1 2\n", 2, 3)


class TestTablesFormat:
    def test_round_trip(self):
        rng = random.Random(8)
        dom = ProductDomain((2,) * 4)
        tables = {
            v: TabulatedFunction(
                dom, [rng.randrange(2) for _ in range(dom.size)]
            )
            for v in range(3)
        }
        text = textio.format_tables(tables, 2)
        again = textio.parse_tables(text)
        assert set(again) == {0, 1, 2}
        for v in range(3):
            assert again[v] == tables[v]

    def test_rejects_missing_vertex(self):
        with pytest.raises(FormatError):
            textio.parse_tables("2 4 2\n0 0110\n")

    def test_missing_vertices_are_counted_and_the_first_named(self):
        with pytest.raises(FormatError) as err:
            textio.parse_tables("4 4 2\n3 0110\n0 0110\n")
        assert str(err.value) == \
            "missing tables for 2 of 4 vertices, the first 1"

    @pytest.mark.parametrize("token", ["1e3", "2E-1", "0.5e2"])
    def test_rejects_exponent_notation(self, token):
        with pytest.raises(FormatError, match="line 2: bad rational"):
            textio.parse_values("1/2\n%s\n" % token)

    def test_rejects_non_power_point_count(self):
        with pytest.raises(FormatError):
            textio.parse_tables("1 5 2\n0 01100\n")

    def test_rejects_vertex_out_of_range(self):
        with pytest.raises(FormatError):
            textio.parse_tables("1 4 2\n3 0110\n")

    def test_ternary_tables(self):
        dom = ProductDomain((3,))
        tables = {0: TabulatedFunction(dom, [0, 2, 1])}
        again = textio.parse_tables(textio.format_tables(tables, 3))
        assert again[0] == tables[0]

    @pytest.mark.parametrize("values, q", [
        ([Fraction(1, 2), Fraction(3, 2)], 2),  # was written as `01`
        ([0, 2], 2),
        ([3, 1, 0], 3),
        ([-1, 0], 2),
    ])
    def test_refuses_values_that_are_not_digits(self, values, q):
        dom = ProductDomain((len(values),))
        tables = {0: TabulatedFunction(dom, [0] * len(values)),
                  1: TabulatedFunction(dom, values)}
        with pytest.raises(FormatError) as err:
            textio.format_tables(tables, q)
        assert str(err.value) == \
            "table 1 has a value outside the digits [%d]" % q

    def test_a_wide_alphabet_header_costs_nothing_without_rows(self):
        # One coordinate over 2^24 symbols: the domain's uniform weights
        # would hold 2^24 ints, so they wait for the first row.
        start = time.perf_counter()
        with pytest.raises(FormatError, match="missing tables for 1 of 1"):
            textio.parse_tables("1 16777216 16777216\n")
        assert time.perf_counter() - start < 1

    def test_a_wide_alphabet_row_is_read_as_its_digits(self, deadline):
        # One row over a 2^22-symbol coordinate took over 11 s when the
        # domain held Fraction measures and each digit became a Fraction.
        text = "1 %d %d\n0 %s\n" % (1 << 22, 1 << 22, "7" * (1 << 22))
        with deadline(2):
            table = textio.parse_tables(text)[0]
        assert table.denominator == 1
        assert table.numerators == (7,) * (1 << 22)

    def test_refuses_a_value_of_two_characters(self):
        # Over q = 11 the value 10 was written as `10`, and the file did not
        # parse back.
        dom = ProductDomain((11,))
        with pytest.raises(FormatError) as err:
            textio.format_tables({0: TabulatedFunction(dom, range(11))}, 11)
        assert str(err.value) == "table 0 has a value outside the digits [10]"

    def test_single_digits_over_eleven_symbols_round_trip(self):
        dom = ProductDomain((11,))
        f = TabulatedFunction(dom, list(range(10)) + [9])
        text = textio.format_tables({0: f}, 11)
        assert text == "1 11 11\n0 01234567899\n"
        assert textio.parse_tables(text)[0] == f

    def test_unreduced_digits_round_trip(self):
        dom = ProductDomain((3, 3))
        f = TabulatedFunction(dom, [x % 3 for x in range(9)])
        text = textio.format_tables({0: oracles.unreduced(f, 4)}, 3)
        assert text == "1 9 3\n0 012012012\n"
        assert textio.parse_tables(text)[0] == f
