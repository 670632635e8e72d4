"""The scenario loader reads numbers exactly as ``yaml.SafeLoader`` does.

``scenario._read_lines``, the line reader, reads plain decimal literals
itself, and on libyaml's path (``convexop._libyaml``) SafeLoader's
constructors read them.  Hypothesis writes documents from a grammar of
number-like scalars (signs, leading zeros, "_", hex, binary, sexagesimal,
.inf and .nan, exponents with and without a dot or a sign, Unicode digits,
5,000-digit integers, explicit ``!!int``, ``!!float`` and ``!!str`` tags)
and places them in block and flow sequences, mapping values and keys, under
anchors and aliases.  Each document must load to the same data through
``_load_yaml`` as through ``yaml.load(text, Loader=yaml.SafeLoader)`` with
the same error mapping, or fail with the same exception and text.  No
reference runs the line reader.

The second half puts one-line number lists, which the line reader reads with
``json.loads``, where reading them apart from their text would change what it
means; the reference is the text as libyaml reads it whole.
"""

import pathlib
import re
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from convexop import _libyaml, scenario

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


def composed_nodes(text: str, load=scenario._load_yaml):
    """``load(text)`` and how many documents libyaml composed for it."""
    calls = []
    compose = _libyaml._Loader.get_single_node

    def counted(self):
        calls.append(1)
        return compose(self)

    with mock.patch.object(_libyaml._Loader, "get_single_node", counted):
        data = load(text)
    return data, len(calls)


def safe_load(text: str):
    """The reference: ``yaml.SafeLoader`` reading the text whole, its errors
    mapped as ``_load_yaml`` maps them."""
    with _libyaml.syntax_errors():
        return yaml.load(text, Loader=yaml.SafeLoader)


def outcome(text: str, load=scenario._load_yaml):
    """``("data", value)`` from ``load``, or ``("error", text)`` of the
    exception it raised."""
    try:
        return "data", load(text)
    except Exception as exc:  # compared, whatever it is
        return "error", f"{type(exc).__name__}: {exc}"


def agrees(text: str) -> bool:
    (kind, got), (ref_kind, ref) = outcome(text), outcome(text, safe_load)
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


# ---------------------------------------------------------------------------
# one-line number lists, read apart from the rest of the document
# ---------------------------------------------------------------------------
#
# ``_load_yaml`` reads a one-line flow sequence of plain decimal numbers with
# ``json.loads`` in the line reader, or leaves the text to libyaml whole.
# The lists below are put where a list read apart from its text would change
# what the text means.  The data must be what ``yaml.SafeLoader`` reads from
# the text as it stands.  An error must be the one, text and mark, that
# ``_libyaml.load`` (a ``CSafeLoader`` that also refuses a repeated key and
# deep nesting) raises on the text as it stands: libyaml words its parser
# errors otherwise than pure PyYAML ("did not find expected key" for
# "expected <block end>").

#: Tokens just outside the numbers YAML 1.1 and JSON read alike.
OFF_GRAMMAR = ["1.", "+1", "1.0e5", "-0", "1.0e+999", "1" * 5000, "1e5", "1.5E5", "1e+5",
               "01", ".5", "1_0", "0x1F", "-", "+", "--1", "1.2.3", "1,,2", "1.5e+3e+3",
               ".nan", "1.0e", "x"]
IN_GRAMMAR = st.from_regex(r"-?(0|[1-9][0-9]{0,5})(\.[0-9]{1,4}([eE][-+][0-9]{1,3})?)?",
                           fullmatch=True)
TOKENS = st.one_of(IN_GRAMMAR, IN_GRAMMAR, IN_GRAMMAR, st.sampled_from(OFF_GRAMMAR))


def number_lists(depth: int):
    """Flow sequences nested up to ``depth`` deep, spaced and sometimes
    closed by a trailing comma."""
    item = TOKENS if depth == 1 else st.one_of(TOKENS, number_lists(depth - 1))
    return st.tuples(
        st.lists(item, min_size=1, max_size=4),
        st.sampled_from([", ", ",", " , ", ",  "]),
        st.sampled_from(["", "", ","]),
        st.sampled_from(["", "", " "]),
    ).map(lambda t: "[" + t[3] + t[1].join(t[0]) + t[2] + t[3] + "]")


LIST = number_lists(4)
LONG_KEY = "[" + ", ".join(["1.5"] * 300) + "]"

#: Where a list goes, as a line or lines of a block mapping under key ``{k}``.
PLACEMENTS = [
    "{k}: {s}",
    "? {s}\n: {k}",
    "{k}: '{s}'",
    '{k}: "{s}"',
    "{k}: a{s}",
    "{k}: x {s}",
    "{k}: |\n  {s}\n  {s}",
    "{k}: 1  # {s}",
    "# {s}\n{k}: 1",
    "{k}: ünï {s}",
    "ünï{k}: {s}",
    "{k}: &a{k} {s}\n{k}x: *a{k}",
    "{k}: !!seq {s}",
    "{k}: !!str {s}",
    "{k}: !!omap {s}",
    "{s}: {k}",
    "{k}: {{a: {s}, b: [{s}, x]}}",
    "{k}: [{s}: 1]",
    "{k}:\n  - {s}\n  - {s}",
    "{k}:\n  <<: {s}",
    "{k}: {s}x",
    "{k}: {s}#x",
    "{k}: " + LONG_KEY + ": 1",
    LONG_KEY + ": {k}",
]


@st.composite
def list_documents(draw) -> str:
    """A block mapping of a few placements, its lines broken by LF or CRLF,
    sometimes after a byte order mark, which libyaml leaves out of its marks."""
    lines = []
    for k, placement in enumerate(draw(st.lists(st.sampled_from(PLACEMENTS),
                                                min_size=1, max_size=4))):
        lines.append(placement.format(k=f"k{k}", s=draw(LIST)))
    line_break = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(st.sampled_from(["", "", "\ufeff"])) + line_break.join(lines) + line_break


def _alike(a, b) -> bool:
    kind, got = a
    return kind == b[0] and (got == b[1] if kind == "error" else same(got, b[1]))


def reads_lists_like_safe_loader(text: str) -> bool:
    # the references read the text as it stands: no number list read apart
    got, whole, safe = outcome(text), outcome(text, _libyaml.load), outcome(text, safe_load)
    return _alike(got, whole) and (got[0] == "error" or _alike(got, safe))


@settings(max_examples=400, deadline=None)
@given(list_documents())
def test_number_lists_read_like_safe_loader(text):
    assert reads_lists_like_safe_loader(text), text


def test_a_number_list_pattern_that_never_matches_leaves_the_text_to_libyaml():
    # no list read apart: a list the pattern does not take is libyaml's, and
    # so is the rest of its text
    with mock.patch.object(scenario, "_NUMBER_LIST", re.compile("(?!)")):
        data, composed = composed_nodes("k: [1, 2]\n")
    assert (data, composed) == ({"k": [1, 2]}, 1)


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("span", ["[1, -2.5, 0]", "[[0.5, -0.5], 1.0e-05]",
                                  "[[[1.5, 2], [3, 4]]]", "[1, 2,]"])
def test_each_placement_reads_like_safe_loader(placement, span):
    text = placement.format(k="k", s=span) + "\n"
    for line_break in ("\n", "\r\n"):
        assert reads_lists_like_safe_loader(text.replace("\n", line_break)), text


@pytest.mark.parametrize("token", OFF_GRAMMAR)
def test_tokens_off_the_grammar_read_like_safe_loader(token):
    for text in (f"k: [{token}]\n", f"k: [1.5, [{token}, 2], 3]\n", f"k: [[[0, {token}]]]\n"):
        assert reads_lists_like_safe_loader(text), text


QUANTUM_ZX = (pathlib.Path(__file__).parent.parent / "scenarios" / "quantum_zx.yaml").read_text(
    encoding="utf-8")


@pytest.mark.parametrize("text", [
    "\ufeffa: [1, 2]\n", "\ufeffa: [1, 2\n", "\ufeffa: 1\na: 2\n", "\ufeff[[0.5, 1], 2]\n",
    "\ufeff# [1, 2]\na: [1.5, -2]\r\n", "\ufeffa: '[1, 2]'\nb: [3]\n", "\ufeff" + QUANTUM_ZX,
])
def test_texts_after_a_byte_order_mark_read_like_safe_loader(text):
    assert reads_lists_like_safe_loader(text), text


def test_errors_after_a_byte_order_mark_keep_their_text_and_marks():
    with pytest.raises(scenario.ScenarioSyntaxError, match=r"line 2, column 1"):
        scenario._load_yaml("\ufeffa: [1, 2\n")
    with pytest.raises(scenario.ScenarioSyntaxError, match="found duplicate key 'a'"):
        scenario._load_yaml("\ufeffa: 1\na: 2\n")


@pytest.mark.parametrize("text", ["a: [1, 2]\n", "\ufeffa: [1, 2]\n",
                                  QUANTUM_ZX, "\ufeff" + QUANTUM_ZX])
def test_a_text_with_number_lists_is_loaded_once(text):
    # read by lines (none composed), or by libyaml (one)
    data, composed = composed_nodes(text)
    assert composed <= 1
    assert same(data, yaml.load(text, Loader=yaml.SafeLoader))
