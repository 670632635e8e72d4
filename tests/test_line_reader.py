"""``scenario._Loader`` reads plain block documents line by line.

A block document of mappings, sequences, comments, plain or double-quoted
keys, words the resolver tags str, plain decimals and one-line number lists
up to 4 deep is read without libyaml composing a node; any other text goes
to libyaml whole, with its number lists blanked where they start a value.
Hypothesis writes block documents with the turns the reader must notice
(nesting, compact items, sequences at their key's column, comments, blank
lines, trailing spaces, quoted keys, YAML 1.1 words and numbers, repeated
keys, bad indentation, tags and aliases), and each must load as
``yaml.SafeLoader`` loads it, or fail with the error the loader raises when
libyaml reads the text.  Two mutant readers must be caught.

The Kraus step and the qudit documents are read by lines since the reader
reads its own number lists; a 4-deep list went to libyaml before.  The
single load, the repeated key beside a nested merge and the complex-row
property pin what the line reader did from the start.
"""

import pathlib
import re
import sys
from unittest import mock

import pytest
import yaml
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st
from test_loader_differential import _alike, composed_nodes, outcome, same

from convexop import scenario
from convexop.scenario import _load_yaml

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "bench"))
import docs  # noqa: E402  (the bench's document generators)
from worker import MIXES  # noqa: E402

SCENARIOS = sorted((pathlib.Path(__file__).parent.parent / "scenarios").glob("*.yaml"))

#: Scalars of the reader's grammar, and YAML 1.1 words and numbers that
#: are not str or not plain decimals (or two words), which go to libyaml.
PLAIN = ["a", "x-y", "in", "cells18", "y", "1e5", "0", "7", "-3", "+2", "1.5", "-0.0",
         "2.0e-05", "1.0e+400", '"q"', '""', '"0"', '"a b: #c"', "[]", "[1, 2.5]",
         "[[0.5, -1], 2]"]
WORDS = ["yes", "On", "null", "~", "010", "1_0", ".5", "[010]", "a b"]
VALUES = st.sampled_from(PLAIN * 5 + WORDS)
KEYS = st.sampled_from(["k", "m", "name", "-a", '"k"', '"0"', "y", "d"] * 5 + ["yes", "1", "On"])
#: Text off the grammar, put in the middle of a document now and then.
ODD = ["!!str 3", "&x 1", "*x", "!!int 4", "{a: 1}", "'s'", "1  # c", "? q"]


def trees():
    return st.recursive(
        VALUES,
        lambda inner: st.one_of(
            # keys mostly unique by their text; '"k"' and 'k' are one key still
            st.lists(st.tuples(KEYS, inner), min_size=1, max_size=3, unique_by=lambda p: p[0]),
            st.lists(st.tuples(KEYS, inner), min_size=1, max_size=3),
        ).map(lambda pairs: ("map", pairs))
        | st.lists(inner, min_size=1, max_size=3).map(lambda items: ("seq", items)),
        max_leaves=8,
    )


@st.composite
def block_documents(draw) -> str:
    """A mapping or sequence of scalars, mappings and sequences laid out as
    block lines, with comments, blank lines, trailing spaces, now and then
    an odd token or a line indented one column off."""
    step = draw(st.sampled_from([2, 4]))

    def block(node, column):
        kind, body = node
        lines = []
        if kind == "map":
            for key, value in body:
                if isinstance(value, str):
                    lines.append((column, f"{key}: {value}"))
                    continue
                lines.append((column, f"{key}:"))
                at_key = value[0] == "seq" and draw(st.booleans())
                lines += block(value, column if at_key else column + step)
            return lines
        for item in body:
            if isinstance(item, str):
                lines.append((column, f"- {item}"))
            elif draw(st.integers(0, 3)):  # a compact item
                (_, first), *rest = block(item, column + 2)
                lines += [(column, "- " + first), *rest]
            else:
                lines += [(column, "-"), *block(item, column + step)]
        return lines

    tree = draw(trees().filter(lambda t: not isinstance(t, str)))
    lines = block(tree, 0)
    if draw(st.integers(0, 5)) == 0:
        k = draw(st.integers(0, len(lines) - 1))
        column, text = lines[k]
        lines[k] = (column, re.sub(r"(?<=: |- )\S.*$", draw(st.sampled_from(ODD)), text, count=1))
    if draw(st.integers(0, 5)) == 0:
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = (max(0, lines[k][0] + draw(st.sampled_from([-1, 1]))), lines[k][1])
    out = []
    for column, text in lines:
        out.append(draw(st.sampled_from(["", "", "", "", "\n", "\n", "# note\n", "  # [1, 2]\n"])))
        out.append(" " * column + text + draw(st.sampled_from(["", "", "  "])) + "\n")
    return "".join(out)


def reads_like_safe_loader(text: str) -> bool:
    """The data of ``yaml.SafeLoader``, or the error the loader raises
    when libyaml reads the text."""
    got = outcome(text, scenario._Loader)
    with mock.patch.object(scenario._Loader, "_read_lines", side_effect=scenario._NotPlain):
        today = outcome(text, scenario._Loader)
    safe = outcome(text, yaml.SafeLoader)
    return _alike(got, today) and (got[0] == "error" or _alike(got, safe))


@settings(max_examples=400, deadline=None)
@given(block_documents())
def test_block_documents_read_like_safe_loader(text):
    assert reads_like_safe_loader(text), text


@pytest.mark.parametrize("text", [
    "steps:\n- a: 1\n  b: 2\n- c\nz: 1\n",
    "- a:\n  - x\n  b: 1\n",
    "- a:\n - x\n",
    "  a: 1\n  b: 2\n",
    "a: 1\n  b: 2\n",
    "-   k: 1\n    j: 2\n",
    "a: 1\na: 2\n",
    'k: 1\n"k": 2\n',
    "a:\n",
    "a:\nb: 1\n",
    "# only a comment\n\n",
    "a: yes\nb: y\nc: On\nd: null\ne: ~\n",
    "a: 010\nb: 1_0\nc: 1e5\nd: .5\n",
    "a: 1\n---\nb: 2\n",
    "a: 1\n\tb: 2\n",
    "a: 1\r\nb: 2\r\n",
    "a: ünï\n",
    "a" * 1024 + ": 1\n",
    "a" * 1025 + ": 1\n",
    '"' + "a" * 1022 + '": 1\n',
    '"' + "a" * 1023 + '": 1\n',
    "# [1, 2]\na: []\n",
    "a: []\nb: [1, 2]\nc: []\n",
    "a: [1, 2]x\n",
    'a: "[1, 2]"\nb: [3]\n',
])
def test_listed_texts_read_like_safe_loader(text):
    assert reads_like_safe_loader(text), text


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("workload", ["qudit_measure", "evolve_chain", "classical_cells"])
def test_bench_documents_are_read_without_a_node(workload, seed):
    for doc in docs.make_pool(workload, seed, MIXES[workload]):
        data, composed = composed_nodes(doc.text)
        assert composed == 0
        assert same(data, yaml.load(doc.text, Loader=yaml.SafeLoader))


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
def test_scenario_files_are_read_without_a_node(path):
    text = path.read_text(encoding="utf-8")
    data, composed = composed_nodes(text)
    assert composed == 0
    assert same(data, yaml.load(text, Loader=yaml.SafeLoader))


def test_a_kraus_step_is_read_by_lines_with_the_same_data():
    doc = docs.make_pool("qudit_measure", 0, {4: 1})[0]
    assert re.search(r"kraus:\n.*\[\[\[\[", doc.text)  # a 4-deep list
    data, composed = composed_nodes(doc.text)
    assert composed == 0
    assert same(data, yaml.load(doc.text, Loader=yaml.SafeLoader))


def test_a_text_read_by_lines_is_loaded_once():
    text = SCENARIOS[0].read_text(encoding="utf-8")
    with mock.patch.object(scenario.yaml, "load", wraps=yaml.load) as load:
        _load_yaml(text)
    assert load.call_count == 1


def catches(mutant) -> str:
    """A generated document that reads otherwise under ``mutant``."""
    with mutant:
        return find(block_documents(), lambda text: not reads_like_safe_loader(text),
                    settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))


def test_property_catches_a_reader_that_takes_every_word_for_a_string():
    read = scenario._Loader._read_lines

    def every_word_a_string(self, text):
        self.resolve = lambda kind, value, implicit: "tag:yaml.org,2002:str"
        try:
            return read(self, text)
        finally:
            del self.resolve  # libyaml's walk resolves as before

    text = catches(mock.patch.object(scenario._Loader, "_read_lines", every_word_a_string))
    assert reads_like_safe_loader(text), text


def test_property_catches_a_reader_that_takes_a_dash_without_a_space_for_an_item():
    # "-a: 1" is the key "-a", not an item
    loose = re.compile(scenario._LINE.pattern.replace("(- +)", "(- *)"), re.M)
    assert loose.pattern != scenario._LINE.pattern
    text = catches(mock.patch.object(scenario, "_LINE", loose))
    assert reads_like_safe_loader(text), text


# ---------------------------------------------------------------------------
# merge keys and "=" keys on libyaml's walk
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    # b's node is flattened in place, for m, before b's own pass reads it
    "c: &c {x: 0}\na: {b: &b {<<: *c, x: 1}}\nm: {<<: *b}\n",
    "c: &c {x: 0}\na: {p: {b: &b {<<: *c, x: 1}}}\nm: {<<: [*b, {y: 2}]}\n",
    "{=: 1}\n",
    "a:\n  =: 1\n  b: [1, 2]\n",
    "m: {<<: {=: 0}, =: 1}\n",
])
def test_merge_and_value_keys_load_as_safe_loader_loads_them(text):
    got, ref = _load_yaml(text), yaml.load(text, Loader=yaml.SafeLoader)
    assert same(got, ref)


def test_a_repeated_key_beside_a_nested_merge_is_still_rejected():
    text = "c: &c {x: 0}\na: {b: &b {<<: *c, x: 1, x: 2}}\nm: {<<: *b}\n"
    with pytest.raises(scenario.ScenarioSyntaxError, match=r"found duplicate key 'x' \(line 2,"):
        _load_yaml(text)


# ---------------------------------------------------------------------------
# complex matrix rows, passed in C-level passes
# ---------------------------------------------------------------------------

ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(), st.booleans(),
    st.sampled_from([2**1100, None, "1", [], [1], [1, 2, 3], [1, True], [[1, 2], 3]]),
    st.lists(st.one_of(st.floats(), st.integers(-5, 5)), min_size=2, max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTRIES, max_size=6))
def test_a_complex_row_passes_at_once_only_where_every_entry_passes(row):
    def passes(entry):
        try:
            scenario._complex(entry, "x")
        except scenario.ScenarioSchemaError:
            return False
        return True

    every = all(map(passes, row))
    assert scenario._complex.accepts_all(row) == every, row
