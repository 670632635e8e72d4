"""When ``_libyaml._check_nesting`` walks a text, and what it finds.

The walk (``yaml.parse``, one Python step per event) runs before libyaml
composes any text, whatever its size, and on a text the line reader has read
only when the reader's own bound (its deepest stack plus a flow mapping and
4 list levels, its line count, brackets and commas) could pass
``MAX_NESTING`` or ``MAX_NESTING_WORK``.  It walks the text as written, at
most once per load, and stops without raising at a YAML error, which
libyaml's compose then reports (``tests/test_first_error.py``).  libyaml
composes a text once, inside the one ``yaml.load``, so the tests count
composes (``_libyaml._Loader.get_single_node`` calls).

The pool test fails at the parent on qudit_measure documents, whose 4-deep
Kraus lists sent them to libyaml.  The others pin what the parent already
did: the same errors and marks after one walk, and no second compose.
"""

import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from test_loader_differential import composed_nodes

from convexop import _libyaml, scenario
from convexop.scenario import MAX_NESTING, ScenarioSyntaxError, _load_yaml, parse_scenario_text

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "bench"))
import docs  # noqa: E402  (the bench's document generators)
from worker import MIXES  # noqa: E402

DEEP_EXTRA = ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\nsteps: []\nextra: "
              + "[" * 5001 + "1" + "]" * 5001)


def counted(text: str, load=_load_yaml):
    """``(data or error text, yaml.parse calls, documents composed)`` of one load."""
    def read(text):
        try:
            return load(text)
        except ScenarioSyntaxError as exc:
            return str(exc)

    with mock.patch.object(_libyaml.yaml, "parse", wraps=yaml.parse) as parse:
        data, composed = composed_nodes(text, read)
    return data, parse.call_count, composed


def parent_verdict(text: str):
    """The error text of the parent's pre-pass, the walk, on ``text``, or None."""
    try:
        _libyaml._check_nesting(text)
    except ScenarioSyntaxError as exc:
        return str(exc)
    return None


def test_a_deep_value_beside_a_number_list_keeps_the_parent_error_and_mark():
    # a walk of the text without its number lists would miss 3 levels and pass
    error, walks, _ = counted(DEEP_EXTRA, parse_scenario_text)
    assert error == "collections nested deeper than 5000 levels (line 4, column 5007)"
    assert walks == 1


@pytest.mark.parametrize("workload", ["qudit_measure", "evolve_chain", "classical_cells"])
def test_pool_documents_are_not_walked(workload):
    for doc in docs.make_pool(workload, 0, MIXES[workload]):
        data, walks, composed = counted(doc.text)
        assert (walks, composed) == (0, 0)
        assert data == yaml.load(doc.text, Loader=yaml.SafeLoader)


def test_the_20000_step_document_is_not_walked():
    doc = docs.evolve_chain_doc(np.random.default_rng(0), 16, steps=20000, every=20001)
    assert doc.text.count("\n") > MAX_NESTING  # the parent's count could not rule it out
    data, walks, composed = counted(doc.text)
    assert (walks, composed) == (0, 0)
    assert len(data["steps"]) == 20000


def test_the_30000_point_document_is_not_walked():
    # 3.4 MB of number lists: a bound that counted characters could not rule
    # the walk out, and one that counts commas and brackets does
    doc = docs.classical_cells_doc(np.random.default_rng(0), 30000)
    assert len(doc.text) > 3_000_000
    data, walks, composed = counted(doc.text)
    assert (walks, composed) == (0, 0)
    assert len(data["model"]["mu"]) == data["model"]["n"] == 30000


DEEP_TEXTS = [
    DEEP_EXTRA,
    "[" * (MAX_NESTING + 1) + "]" * (MAX_NESTING + 1),
    "a: " + "{b: " * MAX_NESTING + "1" + "}" * MAX_NESTING + "\n",
    "- " * (MAX_NESTING + 10) + "x\n",
    "".join(" " * i + f"k{i}:\r" for i in range(MAX_NESTING + 10)),
    "v: [" + ", ".join(["[" * 3000 + "0" + "]" * 3000] * 10) + "]\n",  # nesting work
]


@pytest.mark.parametrize("text", DEEP_TEXTS, ids=range(len(DEEP_TEXTS)))
def test_a_text_the_parent_refused_is_refused_alike_after_one_walk(text):
    error, walks, _ = counted(text)
    assert error == parent_verdict(text) is not None
    assert walks == 1


# 2,000 levels, under MAX_NESTING, but 30,000 scalars at that depth: the
# nesting work is 64,034,002, and a count of levels alone let it through
WIDE_AND_DEEP = "a: " + "[" * 2000 + ", ".join(["0"] * 30000) + "]" * 2000 + "\n"
WIDE_AND_DEEP_ERROR = ("collections too deep in all: nesting work passes 50,000,000 "
                       "(line 1, column 73962)")


def test_nesting_work_is_checked_below_the_depth_limit():
    error, walks, composed = counted(WIDE_AND_DEEP)
    assert error == WIDE_AND_DEEP_ERROR
    assert (walks, composed) == (1, 0)


def test_nesting_work_past_the_limit_exits_2_through_the_cli(tmp_path):
    path = tmp_path / "wide_and_deep.yaml"
    path.write_text(WIDE_AND_DEEP, encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "convexop", "run", str(path)],
                            capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {WIDE_AND_DEEP_ERROR}\n"


def test_a_block_document_past_the_bound_is_walked_after_it_is_read():
    # one mapping per line, each a column deeper: the line reader reads it
    text = "".join(" " * i + "a:\n" for i in range(MAX_NESTING + 1)) + " " * (MAX_NESTING + 1) + "a: 1\n"
    with mock.patch.object(_libyaml, "_check_nesting", wraps=_libyaml._check_nesting) as check, \
            mock.patch.object(_libyaml._Loader, "get_single_node") as compose:
        error, walks, _ = counted(text)
    assert error == parent_verdict(text) == (
        f"collections nested deeper than {MAX_NESTING} levels "
        f"(line {MAX_NESTING + 1}, column {MAX_NESTING + 1})")
    assert (walks, check.call_count, compose.call_count) == (1, 1, 0)


def test_a_text_loaded_twice_is_walked_once():
    # a list on a continuation line sends the text to libyaml, which composes
    # it once, as it stands, after one walk
    text = "a: x\n  [1]\n" + "# c\n" * MAX_NESTING
    data, walks, composed = counted(text)
    assert data == yaml.load(text, Loader=yaml.SafeLoader) == {"a": "x [1]"}
    assert (walks, composed) == (1, 1)


@pytest.mark.parametrize("text", ["a: x#[1]\n", 'a: "[1]"\n', "a: '[1, 2]'\n",
                                  "a: [1]\nb: '[2, 3]'\nc: x [4]\n", "a: &x [1, 2]\nb: *x\n"])
def test_a_number_list_inside_a_scalar_costs_one_load(text):
    # composed once after one walk, or read by lines ('a: "[1]"') with neither
    data, walks, composed = counted(text)
    assert data == yaml.load(text, Loader=yaml.SafeLoader)
    assert walks == composed <= 1


# The bound, at small limits: a line-read text is walked when its bound could
# pass a limit, and then refused exactly where the parent's walk refused it.

@st.composite
def block_documents(draw):
    lines, column = [], 0
    for _ in range(draw(st.integers(1, 30))):
        form = draw(st.sampled_from(["key", "item", "value", "values"]))
        if form == "key":
            lines.append(" " * column + "a:")
            column += draw(st.integers(1, 2))
        elif form == "item":
            lines.append(" " * column + "- b:")
            column += 2 + draw(st.integers(1, 2))
        else:
            key = draw(st.sampled_from(["c", "d"]))
            value = "[[1, 2], [3]]" if form == "values" else "1"
            lines.append(" " * column + f"{key}: {value}")
            break
    else:
        lines.append(" " * column + "z: 0")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(block_documents(), st.integers(2, 20), st.integers(20, 400))
def test_a_line_read_text_is_refused_as_the_parent_refused_it(text, levels, work):
    with mock.patch.object(scenario, "MAX_NESTING", levels), \
            mock.patch.object(scenario, "MAX_NESTING_WORK", work):
        expected = parent_verdict(text)
        error, walks, _ = counted(text)
    if expected is None:
        assert error == yaml.load(text, Loader=yaml.SafeLoader)
        assert walks <= 1
    else:
        assert (error, walks) == (expected, 1)
