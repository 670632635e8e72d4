"""``render_json`` against a naive reference renderer.

The reference below renders scalar by scalar, with no fast path and no memo,
in the canonical layout: a mapping, or a list of anything else, over several
lines, two spaces deeper per level, and a list of scalars, or of lists of
scalars, on one line.  Values are drawn nested from dicts, lists and tuples,
with keys that hash alike (``1``, ``1.0``, ``True``, ``"1"``), numpy scalars,
``-0.0`` and empty containers, and one object held at several places of a
list and at two indents.  A non-finite real anywhere raises ``ValueError``
on both sides.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from convexop.scenario import render_json


def is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str, np.integer))


def scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("not finite")
        return format(float(value) if value != 0.0 else 0.0, ".17g")
    return json.dumps(value)


def reference(value, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        lines = [f"{pad}  {json.dumps(str(k))}: {reference(v, indent + 2)}" for k, v in value.items()]
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(is_scalar(v) for v in value):
            return "[" + ", ".join(scalar(v) for v in value) + "]"
        if all(isinstance(v, (list, tuple)) and all(is_scalar(e) for e in v) for v in value):
            return "[" + ", ".join("[" + ", ".join(scalar(e) for e in v) + "]" for v in value) + "]"
        lines = [f"{pad}  {reference(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(lines) + "\n" + pad + "]"
    return scalar(value)


def outcome(render, value):
    try:
        return render(value)
    except ValueError:
        return ValueError


FINITE = st.floats(allow_nan=False, allow_infinity=False)
KEYS = st.sampled_from([1, 1.0, True, "1", 0, -0.0, False]) | st.text(max_size=4) | st.integers()


def values(floats):
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), st.integers(-(2**63), 2**63 - 1).map(np.int64),
        floats, floats.map(np.float64), st.just(-0.0), st.text(max_size=6),
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.lists(floats, max_size=5)  # the one-format path of plain reals
        | st.dictionaries(KEYS, inner, max_size=4),
        max_leaves=30,
    )


@st.composite
def shared_documents(draw, floats):
    """A value whose lists hold one object at several places, at two indents."""
    shared = draw(st.dictionaries(KEYS, values(floats), max_size=3) | values(floats))
    rows = draw(st.lists(values(floats), max_size=4))
    for _ in range(draw(st.integers(1, 4))):
        rows.insert(draw(st.integers(0, len(rows))), shared)
    return {"rows": rows, "deeper": {"rows": [rows[::-1], shared, shared]}, "last": shared}


DOCUMENTS = st.one_of(
    values(FINITE),
    shared_documents(FINITE),
    values(FINITE | st.sampled_from([math.inf, -math.inf, math.nan])),
    shared_documents(FINITE | st.sampled_from([math.inf, -math.inf, math.nan])),
)


@settings(max_examples=200, deadline=None)
@given(DOCUMENTS)
def test_render_json_matches_the_reference_renderer(value):
    want = outcome(reference, value)
    assert outcome(render_json, value) == (want if want is ValueError else want + "\n")
