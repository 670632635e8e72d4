"""Leading-zero integers read as ``yaml.SafeLoader`` reads them.

YAML 1.1 reads ``010`` and ``0012`` as octal (8 and 10), ``-07`` and ``+00``
as -7 and 0, and ``08`` as a string, while ``int()`` reads every one of them
as a decimal.  ``scenario._DECIMAL`` keeps such texts away from ``int()``.
The grammar below puts leading-zero integers, beside plain decimals, into
one-line number lists, block sequence items and mapping values, so that a
document holds several of them; each document must load as ``SafeLoader``
loads it.  A ``_DECIMAL`` that allows leading zeros must be caught within a
few examples, so that the catching test does not flake.
"""

import re
from unittest import mock

from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st
from test_loader_differential import agrees

from convexop import scenario

LEADING_ZERO = st.tuples(
    st.sampled_from(["", "-", "+"]),
    st.text("0", min_size=1, max_size=3),
    st.text("0123456789", max_size=3),
).map("".join)
PLAIN = st.from_regex(r"-?(0|[1-9][0-9]{0,3})(\.[0-9]{1,3})?", fullmatch=True)
TOKENS = st.one_of(LEADING_ZERO, LEADING_ZERO, PLAIN)


@st.composite
def documents(draw) -> str:
    """A number list, a block sequence and a mapping, each of 1-4 tokens."""
    listed, items, values = (draw(st.lists(TOKENS, min_size=1, max_size=4)) for _ in range(3))
    lines = ["values: [" + ", ".join(listed) + "]", "block:"]
    lines += [f"  - {token}" for token in items]
    lines += ["mapping:"] + [f"  k{j}: {token}" for j, token in enumerate(values)]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(documents())
def test_leading_zero_integers_read_like_safe_loader(text):
    assert agrees(text)


def test_listed_leading_zero_integers_read_like_safe_loader():
    for text in ["values: [010, -07, +00, 0012]\n", "block:\n  - 010\n  - 08\n",
                 "mapping:\n  a: 0012\n  b: -07\n  c: +00\n  d: 09\n"]:
        assert agrees(text), text


def test_leading_zero_property_catches_a_fast_path_that_allows_leading_zeros():
    # the mutant reads "010" as 10 and "0012" as 12 where SafeLoader reads 8 and 10
    mutant = re.compile(r"[-+]?[0-9]+(?:\.[0-9]*(?:[eE][-+][0-9]+)?)?")
    with mock.patch.object(scenario, "_DECIMAL", mutant):
        text = find(documents(), lambda text: not agrees(text),
                    settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))
    assert agrees(text), text
