"""``render_json`` writes a list of exact floats in one join.

A list whose items are all finite Python floats is formatted in one
``%``-format call, with the text ``_format_real`` gives each item: 17
significant digits and ``-0.0`` written as ``0``.  A list holding a NaN, an
inf, an int, a bool, None or a numpy scalar takes the per-scalar path, and a
NaN or an inf still raises.  These pin the parent's text; the classical final
state's values are now Python floats from ``coords.tolist()``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexop.scenario import _format_real, render_json

MAX = 1.7976931348623157e308


@pytest.mark.parametrize("value, text", [
    ([-0.0], "[0]"),
    ([0.0, -0.0, 1.0], "[0, 0, 1]"),
    ([1.5, -0.0], "[1.5, 0]"),
    ([5e-324, -5e-324], "[4.9406564584124654e-324, -4.9406564584124654e-324]"),
    ([MAX, -MAX], "[1.7976931348623157e+308, -1.7976931348623157e+308]"),
    ([0.1, 1e16, -2.5e-7], "[0.10000000000000001, 10000000000000000, -2.4999999999999999e-07]"),
    ([1, 2.5, True, None, np.float64(-0.0)], "[1, 2.5, true, null, 0]"),
    ([np.float64(0.1), 0.1], "[0.10000000000000001, 0.10000000000000001]"),
    ([False, 0.0, np.int64(3)], "[false, 0, 3]"),
    ({"values": [-0.0, 0.25]}, '{\n  "values": [0, 0.25]\n}'),
])
def test_float_lists_render_to_fixed_text(value, text):
    assert render_json(value) == text + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("others", [[], [1.0], [1.0, -0.0], [1, None]])
def test_a_non_finite_float_in_a_list_still_raises(bad, others):
    for value in ([bad, *others], [*others, bad], [np.float64(bad), *others]):
        with pytest.raises(ValueError, match="^reports only carry finite reals$"):
            render_json(value)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
def test_one_join_matches_the_per_scalar_text(values):
    assert render_json(values) == "[" + ", ".join(map(_format_real, values)) + "]\n"
