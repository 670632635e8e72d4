"""The scenario loader reads numbers exactly as ``yaml.SafeLoader`` does.

``scenario._Loader`` resolves and constructs plain decimal literals itself.
Hypothesis writes documents from a grammar of number-like scalars (signs,
leading zeros, "_", hex, binary, sexagesimal, .inf and .nan, exponents with
and without a dot or a sign, Unicode digits, 5,000-digit integers, explicit
``!!int``, ``!!float`` and ``!!str`` tags) and places them in block and flow
sequences, mapping values and keys, under anchors and aliases.  Each
document must load to the same data through ``_load_yaml`` with either
loader, or fail with the same exception and text.
"""

import re
from unittest import mock

import pytest
import yaml
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from convexop import scenario

SIGN = st.sampled_from(["", "-", "+"])
DIGITS = st.text("0123456789", min_size=1, max_size=5)

#: Number-like texts the decimal pattern must leave to PyYAML, or read alike.
ODD = [
    "0", "00", "07", "08", "010", "-010", "0.5", "00.5", "1_000", "1__0", "_1", "1_",
    "0x1F", "-0x1f", "0b101", "+0b1_0", "0o17", "1:30", "-1:30", "190:20:30.15", "1:30.5",
    ".inf", "-.Inf", "+.INF", ".NaN", ".nan", ".5", "-.5e+3", "1.", "+1.e+5", "1.5e3",
    "1.0e+3", "1.0E-3", "-0.0", "-0", "+0", "0.", "1e+5", "1.0e", "1.0e+", "1.2.3",
    "--1", "+-1", "12abc", "٣", "-٣", "1٣", "١.٥", "１",
    "1_000.5", "true", "null", "~",
]


@st.composite
def decimals(draw) -> str:
    """Sign, digits, optional dot and fraction, optional exponent, each part
    sometimes off the plain decimal pattern."""
    whole = draw(st.one_of(DIGITS, st.sampled_from(["0", "00", "01", "1_0"])))
    fraction = draw(st.one_of(st.just(""), st.text("0123456789_", max_size=3).map(".".__add__)))
    exponent = draw(st.one_of(
        st.just(""),
        st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), DIGITS).map("".join),
    ))
    return draw(SIGN) + whole + fraction + exponent


HUGE = st.tuples(SIGN, st.sampled_from(["1" * 5000, "9" * 5000, "1" * 5000 + ".5"])).map(
    "".join
)
TAG = st.sampled_from(["", "", "", "!!int ", "!!float ", "!!str "])
SCALARS = st.tuples(TAG, st.one_of(decimals(), st.sampled_from(ODD), HUGE)).map("".join)


@st.composite
def documents(draw) -> str:
    """A few scalars in every placement; the first one is anchored, and
    aliased in sequences, as a mapping value and as a key."""
    first, *rest = draw(st.lists(SCALARS, min_size=1, max_size=4))
    flow = ", ".join([f"&a {first}", *rest, "*a"])
    if draw(st.booleans()):
        return f"seq: [{flow}]\n"
    lines = [f"seq: [{flow}]", f"nested: [[{flow}], {{x: *a}}]", "block:"]
    lines += [f"  - {s}" for s in [*rest, "*a"]]
    lines += ["values:", "  alias: *a"] + [f"  v{k}: {s}" for k, s in enumerate(rest)]
    # one key a mapping: 1 and 1.0 are one key, which _Loader rejects
    lines += ["keys:", "  - ? *a", "    : 0"]
    for s in rest:
        lines += [f"  - ? {s}", "    : 0"]
    return "\n".join(lines) + "\n"


def same(a, b) -> bool:
    """Equal data of the same types; floats compared by ``repr``."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return repr(a) == repr(b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            same(ka, kb) and same(va, vb)
            for (ka, va), (kb, vb) in zip(a.items(), b.items())
        )
    return a == b


def outcome(text: str, loader):
    """``("data", value)`` from ``_load_yaml`` with ``loader``, or
    ``("error", text)`` of the exception it raised."""
    with mock.patch.object(scenario, "_Loader", loader):
        try:
            return "data", scenario._load_yaml(text)
        except Exception as exc:  # compared, whatever it is
            return "error", f"{type(exc).__name__}: {exc}"


def agrees(text: str) -> bool:
    (kind, got), (ref_kind, ref) = outcome(text, scenario._Loader), outcome(text, yaml.SafeLoader)
    return kind == ref_kind and (got == ref if kind == "error" else same(got, ref))


@settings(max_examples=300, deadline=None)
@given(documents())
def test_loader_reads_numbers_like_safe_loader(text):
    assert agrees(text), text


@pytest.mark.parametrize("text", [f"[{s}]" for s in ODD] + [
    "[010, 0o17, 08, 1.5e3, 1.0e+3, +1.e+5, -0.0, -0]",
    "[!!int 1.5, 2]", "[!!float 2, !!float -0, !!int +5, !!str 3]",
    "[!!int [1]]", "- !!int\n- 1\n", "[" + "1" * 5000 + "]", "[-" + "1" * 5000 + "]",
])
def test_loader_reads_listed_texts_like_safe_loader(text):
    assert agrees(text)


def test_property_catches_a_fast_path_that_allows_leading_zeros():
    # "010" is octal 8 in YAML 1.1 and "09" a string, but int() reads 10 and 9
    mutant = re.compile(r"[-+]?[0-9]+(?:\.[0-9]*(?:[eE][-+][0-9]+)?)?")
    with mock.patch.object(scenario, "_DECIMAL", mutant):
        text = find(documents(), lambda text: not agrees(text),
                    settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))
    assert agrees(text), text
