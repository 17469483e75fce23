"""Hypothesis fuzzing of every `textio.parse_*` function.

Each example is a header line of integers, drawn from [-3, 50] plus
sentinels up to, at and above the full-table cap, followed by lines of
random tokens. The
only exception a parser may raise is `PreconditionError` (its `FormatError`
included), and each example must finish within a second, whatever sizes the
header declares: an alarm turns a parser that runs longer into a failure
instead of a hang.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspcover import PreconditionError, lin, nae, textio
from cspcover.errors import MAX_TABLE

# Header integers: small ones, large ones up to and at the full-table cap
# (accepted, so they must cost nothing until used), and two above it.
COUNTS = st.one_of(
    st.integers(-3, 50),
    st.sampled_from([10**4, MAX_TABLE - 1, MAX_TABLE, MAX_TABLE + 1, 10**12]),
)

TOKENS = st.one_of(
    st.integers(-3, 50).map(str),
    st.sampled_from([
        "0", "1", "01", "10", "0110", "1/2", "-1/3", "2/1", "1/0", "0/0",
        "x", "-", "/", "0.5", "1e9", "1e999999999", "9" * 5000,
    ]),
    st.text(alphabet="0123456789-/.e x", max_size=8),
)
LINES = st.lists(
    st.one_of(TOKENS, st.lists(TOKENS, max_size=7).map(" ".join)),
    max_size=8,
)

PREDICATES = [nae(2, 2), nae(3, 3), lin(4)]

# name -> (header integers, extra integer arguments after the text)
PARSERS = {
    "parse_predicate": (2, 0),
    "parse_instance": (4, 0),
    "parse_labelcover": (5, 0),
    "parse_space": (4, 0),
    "parse_truth_table": (1, 0),
    "parse_values": (0, 0),
    "parse_distribution": (1, 0),
    "parse_assignments": (0, 2),
    "parse_labelings": (0, 2),
    "parse_tables": (3, 0),
    "parse_digits": (0, 2),
}


def test_every_parser_is_fuzzed():
    assert sorted(PARSERS) == sorted(
        name for name in dir(textio) if name.startswith("parse_")
    )


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=100)
@given(data=st.data())
def test_parser_raises_only_precondition_errors_quickly(name, data, deadline):
    nheader, nargs = PARSERS[name]
    pred = data.draw(st.sampled_from(PREDICATES))
    header = data.draw(st.lists(COUNTS, min_size=nheader, max_size=nheader))
    if name == "parse_instance" and data.draw(st.booleans()):
        header[:2] = [pred.q, pred.k]
    if name == "parse_labelcover" and data.draw(st.booleans()):
        header[4] %= 2  # a valid unique flag
    if name == "parse_tables" and data.draw(st.booleans()):
        header[1] = header[2] ** data.draw(st.integers(0, 2))
    lines = data.draw(LINES)
    args = data.draw(st.lists(COUNTS, min_size=nargs, max_size=nargs))
    if name == "parse_instance":
        args = [pred]
    if name == "parse_digits":
        texts = [data.draw(TOKENS)]
    elif nheader:
        # The header alone, then with the body: declared sizes must not
        # cost time when nothing else is read.
        head = " ".join(map(str, header))
        texts = [head, "\n".join([head] + lines)]
    else:
        texts = ["\n".join(lines)]
    for text in texts:
        with deadline(1):
            try:
                getattr(textio, name)(text, *args)
            except PreconditionError:
                pass
