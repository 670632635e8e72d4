"""``scenario._read_lines`` reads plain block documents line by line.

A block document of mappings and sequences is read without libyaml composing
a node: comments on their own line or after a space, plain or quoted keys,
words the resolver tags str, plain decimals, quoted strings without escapes
or "''", one-line number lists up to 4 deep, one-line flow mappings of these
(not of other mappings), anchors and aliases, with LF or CRLF line ends.  Any
other text goes to libyaml whole, once.  Hypothesis writes block documents with the
turns the reader must notice (nesting, compact items, sequences at their
key's column, anchored collections, aliases, flow mappings, comments, blank
lines, trailing spaces, quoted keys, CRLF, YAML 1.1 words and numbers,
repeated keys, bad indentation and tags), and each must load as
``yaml.SafeLoader`` loads it, one object wherever it has one, or fail with
the error ``_libyaml.load`` raises when libyaml reads the text whole.  Drawn
from the reader's grammar alone, each must also compose no node; texts just
off it reach libyaml once, with its data or its error and marks.  Two mutant
readers must be caught.  The words that the reader keeps as strings are
those ``yaml.SafeLoader``'s resolver tags str.

The Kraus step and the qudit documents are read by lines since the reader
reads its own number lists; a 4-deep list went to libyaml before.  The
single load, the repeated key beside a nested merge and the complex-row
property pin what the line reader did from the start.  A text that leaves the
line reader reads each number list once: libyaml builds the lists it composes
itself, and ``json.loads`` reads no list again.
"""

import gc
import itertools
import json
import pathlib
import re
import sys
from unittest import mock

import pytest
import yaml
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st
from test_loader_differential import _alike, composed_nodes, outcome, safe_load, same

from convexop import _libyaml, scenario
from convexop.errors import ScenarioSyntaxError
from convexop.scenario import _load_yaml

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "bench"))
import docs  # noqa: E402  (the bench's document generators)
from worker import MIXES  # noqa: E402

SCENARIOS = sorted((pathlib.Path(__file__).parent.parent / "scenarios").glob("*.yaml"))

#: Scalars of the reader's grammar; then words that go to libyaml: YAML 1.1
#: words and numbers that are not str or not plain decimals, two words, a
#: quoted "''", and str words that start with a sign, a dot or a digit.
PLAIN = ["a", "x-y", "in", "cells18", "y", "_1", "0", "7", "-3", "+2", "1.5", "-0.0",
         "2.0e-05", "1.0e+400", '"q"', '""', '"0"', '"a b: #c"', "[]", "[1, 2.5]",
         "[[0.5, -1], 2]", "'s'", "''", "'a \"b\": #c'", "'[1]'", "'{k: *a0}'"]
WORDS = ["yes", "On", "null", "~", "010", "1_0", ".5", "[010]", "a b", "'it''s'", "1e5", "-x"]
VALUES = st.sampled_from(PLAIN * 5 + WORDS)
KEYS = st.sampled_from(["k", "m", "name", "-a", '"k"', '"0"', "y", "d", "'q'", "2"] * 5
                       + ["yes", "1", "On"])
#: Keys of the grammar, each read to a key of its own.
PLAIN_KEYS = st.sampled_from(["k", "m", "name", "a-", '"n"', '"0"', "y", "'q'", "2", "1.5"])
#: Text off the grammar, put in the middle of a document now and then.
ODD = ["!!str 3", "&x 1", "*x", "!!int 4", "{a: 1,}", "'s''t'", "b#c", "1# c", "? q",
       "&x *x", "{a:1}"]


def first_of_each(pairs, key) -> list:
    """The pairs whose key text comes first by ``key``; kept by a map and not
    by a unique list, whose retries would print the strategy's long repr."""
    firsts = {}
    for pair in pairs:
        firsts.setdefault(key(pair[0]), pair)
    return list(firsts.values())


def unquoted(key: str) -> str:
    return key.strip("\"'")


def trees(values=VALUES, keys=KEYS, flow_depth: int = 5):
    """Block mappings and sequences of scalars and one-line flow mappings."""
    flows = values
    for depth in range(flow_depth):
        flows = st.lists(st.tuples(keys, st.one_of(values, values, flows) if depth else values),
                         max_size=3).map(lambda pairs: ("flow", first_of_each(pairs, unquoted)))

    def mappings(inner):
        pairs = st.lists(st.tuples(keys, inner), min_size=1, max_size=3)
        if keys is not KEYS:
            return pairs.map(lambda p: ("map", first_of_each(p, unquoted)))
        # keys mostly unique by their text; '"k"' and 'k' are one key still
        return st.tuples(pairs, st.booleans()).map(
            lambda t: ("map", first_of_each(t[0], str) if t[1] else t[0]))

    return st.recursive(
        st.one_of(values, values, values, flows),
        lambda inner: mappings(inner)
        | st.lists(inner, min_size=1, max_size=3).map(lambda items: ("seq", items)),
        max_leaves=8,
    )


ODD_TREES, PLAIN_TREES = trees(), trees(st.sampled_from(PLAIN), PLAIN_KEYS, 1)


def _is_block(node) -> bool:
    return not isinstance(node, str) and node[0] != "flow"


@st.composite
def block_documents(draw, odd: bool = True) -> str:
    """A mapping or sequence of scalars, flow mappings, mappings and
    sequences laid out as block lines, with anchors and aliases, comments,
    blank lines, trailing spaces and CRLF line ends; where ``odd``, also
    YAML 1.1 words, repeated keys, nested flow mappings, compact nested
    sequences, lone "\\r" breaks, and now and then an odd token or a line
    indented one column off."""
    step = draw(st.sampled_from([2, 4]))
    names = []  # the anchors of the nodes written so far
    count = itertools.count()

    def anchor() -> str:
        return f"a{next(count)}" if draw(st.integers(0, 3)) == 0 else ""

    def value(node) -> str:
        """A scalar or flow mapping on one line, now and then anchored, or an alias."""
        if names and draw(st.integers(0, 4)) == 0:
            return "*" + draw(st.sampled_from(names))
        name = anchor()
        text = node if isinstance(node, str) else (
            "{" + ", ".join(f"{key}: {value(item)}" for key, item in node[1]) + "}")
        if name:  # named after its contents: no node holds an alias of itself
            names.append(name)
        return f"&{name} {text}" if name else text

    def block(node, column):
        kind, body = node
        lines = []
        for key, item in body if kind == "map" else ((None, item) for item in body):
            lead = "- " if key is None else f"{key}: "
            if not _is_block(item):
                lines.append((column, lead + value(item)))
                continue
            name = anchor()
            # "- - x" goes to libyaml: compact sequence items in odd mode only
            compact = odd or item[0] == "map"
            if key is None and not name and compact and draw(st.integers(0, 3)):
                (_, first), *rest = block(item, column + 2)  # a compact item
                lines += [(column, "- " + first), *rest]
                continue
            if name:
                head = f"{lead}&{name}"
            else:  # bare in odd mode: the reader leaves a lone "-" to libyaml
                head = lead.rstrip() if odd else lead
            at_key = key is not None and item[0] == "seq" and draw(st.booleans())
            lines += [(column, head), *block(item, column if at_key else column + step)]
            if name:
                names.append(name)
        return lines

    tree = draw(ODD_TREES if odd else PLAIN_TREES)
    while not _is_block(tree):
        tree = ("seq", [tree])
    lines = block(tree, 0)
    if odd and draw(st.integers(0, 5)) == 0:
        k = draw(st.integers(0, len(lines) - 1))
        column, text = lines[k]
        lines[k] = (column, re.sub(r"(?<=: |- )\S.*$", draw(st.sampled_from(ODD)), text, count=1))
    if odd and draw(st.integers(0, 5)) == 0:
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = (max(0, lines[k][0] + draw(st.sampled_from([-1, 1]))), lines[k][1])
    breaks = draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"]] + [["\n", "\r"]] * odd))
    ends = ["", "", "", "  ", " # c", "  # [1, 2] &x *y"]
    out = []
    for column, text in lines:
        out.append(draw(st.sampled_from(["", "", "", "", "\n", "\n", "# note\n", "  # [1, 2]\n"])))
        out.append(" " * column + text + draw(st.sampled_from(ends)) + draw(st.sampled_from(breaks)))
    return "".join(out)


def sharing(data, seen=None) -> list:
    """The number of each list and dict met in a walk of ``data``, in the
    order first met: two paths to one object give one number."""
    seen = {} if seen is None else seen
    if type(data) not in (list, dict):
        return []
    if id(data) in seen:
        return [seen[id(data)]]
    seen[id(data)] = len(seen)
    items = data.values() if type(data) is dict else data
    return [seen[id(data)], *(n for item in items for n in sharing(item, seen))]


def reads_like_safe_loader(text: str) -> bool:
    """The data of ``yaml.SafeLoader``, one object where it has one, or the
    error ``_libyaml.load`` raises when libyaml reads the text whole."""
    got, whole, safe = outcome(text), outcome(text, _libyaml.load), outcome(text, safe_load)
    return _alike(got, whole) and (
        got[0] == "error" or _alike(got, safe) and sharing(got[1]) == sharing(safe[1]))


@settings(max_examples=400, deadline=None)
@given(block_documents())
def test_block_documents_read_like_safe_loader(text):
    assert reads_like_safe_loader(text), text


@settings(max_examples=400, deadline=None)
@given(block_documents(odd=False))
def test_documents_of_the_grammar_are_read_by_lines_like_safe_loader(text):
    data, composed = composed_nodes(text)
    safe = yaml.load(text, Loader=yaml.SafeLoader)
    assert composed == 0, text
    assert same(data, safe) and sharing(data) == sharing(safe), text


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


@pytest.mark.parametrize("text", [
    "a: &x 1\nb: *x\n",
    "a: &x [1, 2]\nb: *x\nc: {d: *x}\n",
    "a: &x\n  k: [1]\nb: *x\n",
    "a: &x\n- 1\nb: *x\n",
    "- &x\n  - 1\n- *x\n- {k: *x}\n",
    "- &x {k: &y [1], m: *y}\n- *y\n- *x\n",
    "m: {}\nn: { }\no: { a: 1 }\np: {a: 1 , b: 2}\n",
    "a: 's'\n'b': ''\nc: 'x \"y\": #z'\n",
    "a: 1\r\nb:\r\n  - [1, 2]\r\n",
    "a: 1 # c\nb: # c\n  - x  # [1]\n",
    "- # c\n  k: 1\n",
])
def test_listed_texts_of_the_grammar_are_read_by_lines(text):
    data, composed = composed_nodes(text)
    assert composed == 0
    assert reads_like_safe_loader(text), text


def test_a_mapping_that_holds_its_own_alias_is_built_as_safe_loader_builds_it():
    text = "a: &x\n  b: *x\n"
    (data, composed), safe = composed_nodes(text), yaml.load(text, Loader=yaml.SafeLoader)
    assert composed == 0
    assert list(data) == list(safe) == ["a"] and list(data["a"]) == list(safe["a"]) == ["b"]
    assert data["a"]["b"] is data["a"] and safe["a"]["b"] is safe["a"]


def counted_outcome(text: str):
    """The data, or the error text, line and column, of one load, and how
    many documents libyaml composed for it."""
    def load(text):
        try:
            return _load_yaml(text)
        except ScenarioSyntaxError as exc:
            return str(exc), exc.line, exc.column

    return composed_nodes(text, load)


@pytest.mark.parametrize("text, expected", [
    ("a: &x 1\nb: &x 2\n", ("second occurrence (line 2, column 4)", 2, 4)),  # a repeated anchor
    ("a: *x\n", ("found undefined alias (line 1, column 4)", 1, 4)),
    ("a: &x 1\nb: &y *x\n", ("did not find expected key (line 2, column 7)", 2, 7)),
    ("a: &x 1\nb: {c: &y *x}\n", ("did not find expected ',' or '}' (line 2, column 11)", 2, 11)),
    ("a: {b: 1, b: 2}\n", ("found duplicate key 'b' (line 1, column 11)", 1, 11)),
    ("a: {a: 1,}\n", {"a": {"a": 1}}),
    ("a: {a:1}\n", {"a": {"a:1": None}}),
    ("a: b#c\n", {"a": "b#c"}),
    ("a: {b: {c: 1}}\n", {"a": {"b": {"c": 1}}}),  # a nested flow mapping
    ("a: {b: {c: {d: {e: {f: 1}}}}}\n", {"a": {"b": {"c": {"d": {"e": {"f": 1}}}}}}),
    ("a: 'it''s'\n", {"a": "it's"}),
    ("- \n- 1\n", [None, 1]),
])
def test_texts_off_the_grammar_reach_libyaml_once(text, expected):
    assert counted_outcome(text) == (expected, 1)
    assert reads_like_safe_loader(text)


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
    # by the line reader alone: libyaml does not load it again
    text = SCENARIOS[0].read_text(encoding="utf-8")
    with mock.patch.object(yaml, "load", wraps=yaml.load) as load:
        _load_yaml(text)
    assert load.call_count == 0


def test_a_text_off_the_grammar_is_loaded_once_by_libyaml():
    with mock.patch.object(yaml, "load", wraps=yaml.load) as load:
        assert _load_yaml("a: !!str 1\nb: [1, 2]\n") == {"a": "1", "b": [1, 2]}
    assert load.call_count == 1


def test_a_text_read_by_lines_leaves_no_cycle_for_the_collector():
    # a cycle of the reader's closures would keep its words, its anchors and
    # the data alive after the load
    text = "a: &x [1, 2]\nb: {c: *x, d: 'e'}\nc:\n- {f: 1}\n- g\n"
    gc.collect()
    gc.disable()
    try:
        data = _load_yaml(text)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert data["b"]["c"] is data["a"]


def test_a_text_that_leaves_the_line_reader_reads_each_list_once():
    # the line reader reads both lists before the repeated key sends the text
    # to libyaml, which composes them as it composes the rest of the text
    text = "a: [1, 2]\nb: [3]\na: 3\n"
    with mock.patch.object(scenario.json, "loads", wraps=json.loads) as loads:
        with pytest.raises(ScenarioSyntaxError) as info:
            _load_yaml(text)
    assert loads.call_count == 2
    assert (str(info.value), info.value.line, info.value.column) == (
        "found duplicate key 'a' (line 3, column 1)", 3, 1)


def catches(mutant) -> str:
    """A generated document that reads otherwise under ``mutant``."""
    with mutant:
        return find(block_documents(), lambda text: not reads_like_safe_loader(text),
                    settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))


def test_property_catches_a_reader_that_takes_every_word_for_a_string():
    # libyaml's path resolves as before
    text = catches(mock.patch.object(scenario, "_NOT_STR", re.compile("(?!)")))
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
