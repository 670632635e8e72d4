"""``scenario._load_yaml`` builds YAML data as ``yaml.SafeLoader`` builds it.

Plain block documents, every bench document and every file of
``scenarios/`` among them, are read by the line reader and reach none of
PyYAML's constructors; the two spy tests pin that.  Any other text is
composed by libyaml, and SafeLoader's constructors build every node of it:
``_libyaml._Loader`` only rejects a key repeated in one mapping, in pair
order beside the mapping's other problems.  The data must stay what
``yaml.SafeLoader`` builds, aliases, merge keys, other tags and deep nesting
included; an alias read by lines gives the anchored object itself.
"""

import datetime
import pathlib
import sys
from unittest import mock

import pytest
import yaml

from convexop import _libyaml
from convexop.scenario import MAX_NESTING, ScenarioSyntaxError, _load_yaml

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "bench"))
import docs  # noqa: E402  (the bench's document generators)

SCENARIOS = sorted((pathlib.Path(__file__).parent.parent / "scenarios").glob("*.yaml"))


@pytest.mark.parametrize("workload, size", [
    ("qudit_measure", 4), ("evolve_chain", 8), ("classical_cells", 64),
])
def test_plain_documents_reach_no_pyyaml_constructor(workload, size):
    text = docs.make_pool(workload, 0, {size: 1})[0].text
    base = yaml.constructor.BaseConstructor
    with mock.patch.object(base, "construct_object", autospec=True,
                           side_effect=base.construct_object) as spy:
        data = _load_yaml(text)
    assert spy.call_count == 0
    assert data == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
def test_scenario_files_reach_no_pyyaml_constructor(path):
    base = yaml.constructor.BaseConstructor
    with mock.patch.object(base, "construct_object", autospec=True,
                           side_effect=base.construct_object) as spy:
        _load_yaml(path.read_text(encoding="utf-8"))
    assert spy.call_count == 0


@pytest.mark.parametrize("text", [
    "a: &x [1, 2]\nb: *x\n",  # read by lines
    "a: &x [x, [1.5, 2]]\nb: *x\n",
    "a: &x\n  - x\n  - {k: 1}\nb: *x\n",
    "a: &x {k: [1, 2]}\nb: {m: *x}\n",
])
def test_an_aliased_collection_stays_one_object(text):
    data = _load_yaml(text)
    alias = data["b"] if "m" not in data["b"] else data["b"]["m"]
    assert alias is data["a"]
    assert data == yaml.load(text, Loader=yaml.SafeLoader)


def test_a_self_referencing_list_is_built_as_safe_loader_builds_it():
    data = _load_yaml("&x [1, *x]\n")
    assert data[0] == 1 and data[1] is data


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml")
def test_a_mapping_nested_to_the_limit_loads_as_libyaml_loads_it():
    # the pure-Python SafeLoader's composer recurses and cannot compose it
    levels = MAX_NESTING - 1
    text = "{a: " * levels + "0" + "}" * levels + "\n"
    got, ref = _load_yaml(text), yaml.load(text, Loader=yaml.CSafeLoader)
    for _ in range(levels):  # == on the whole would recurse too deep
        assert type(got) is type(ref) is dict and list(got) == list(ref) == ["a"]
        got, ref = got["a"], ref["a"]
    assert got == ref == 0


@pytest.mark.parametrize("text, key, line", [
    ("base: &b {x: 0}\nm:\n  <<: *b\n  y: 1\n  y: 2\n", "y", 5),
    ("base: &b {x: 0}\nm:\n  y: 1\n  <<: *b\n  y: 2\n", "y", 5),
    ("m: {x: 1, <<: {x: 0, y: 2}, x: 3}\n", "x", 1),
    ("m: {<<: [{a: 1}, {a: 2}], a: 3, a: 4}\n", "a", 1),
    ("m: {a: 1, a: 2, [1]: 3}\n", "a", 1),
])
def test_a_repeated_key_beside_merge_keys_is_rejected(text, key, line):
    with pytest.raises(ScenarioSyntaxError, match=f"found duplicate key '{key}' \\(line {line},"):
        _load_yaml(text)


@pytest.mark.parametrize("text", [
    "base: &b {kind: quantum, d: 2}\nmodel:\n  <<: *b\n  d: 3\n",
    "b1: &b1 {a: 1, b: 1}\nb2: &b2 {b: 2, c: 2}\nm:\n  z: 0\n  <<: [*b1, *b2]\n  a: 9\n",
    "m: {y: 1, <<: {x: 0, y: 2, w: [1, 2]}, v: {<<: {q: 1}, r: 2}}\n",
    "inner: &i {<<: {p: 1}, q: 2}\nm: {<<: *i, p: 3}\n",
])
def test_merge_key_order_and_overrides_match_safe_loader(text):
    got, ref = _load_yaml(text), yaml.load(text, Loader=yaml.SafeLoader)
    assert got == ref
    assert [list(v) for v in got.values()] == [list(v) for v in ref.values()]


@pytest.mark.parametrize("text", [
    "a: !!omap [{x: 1}, {y: [2.5, 3]}]\n",
    "a: !!pairs [{x: 1}, {x: 2}]\n",
    "a: !!set {x, y, 3}\n",
    "a: 2001-12-14t21:59:43.10-05:00\nb: !!timestamp 2002-12-14\n",
    "a: [yes, no, ~, null, 0x1F, 010, 1_000, .inf, !!binary aGk=]\n",
    "a: !!str 3\nb: !!float 2\nc: !!int '7'\n",
    "a: !!seq [1, x]\nb: !!map {k: v}\n",
])
def test_other_tags_are_built_as_safe_loader_builds_them(text):
    got, ref = _load_yaml(text), yaml.load(text, Loader=yaml.SafeLoader)
    assert got == ref
    for key in ref:
        assert type(got[key]) is type(ref[key])
    if "b" in ref and isinstance(ref["b"], datetime.date):
        assert got["b"] == datetime.date(2002, 12, 14)


def test_a_set_keeps_its_last_entry_as_safe_loader_does():
    # a set is PyYAML's to build; the parent checked its keys for repeats
    assert _load_yaml("a: !!set {x, x}\n") == {"a": {"x"}}


@pytest.mark.parametrize("text, problem", [
    ("{[1]: 2}\n", "found unhashable key"),
    ("a: {{b: 1}: 2}\n", "found unhashable key"),
    ("a: !!seq x\n", "expected a sequence node"),
])
def test_errors_keep_pyyaml_text(text, problem):
    with pytest.raises(ScenarioSyntaxError, match=problem):
        _load_yaml(text)
    with pytest.raises(Exception, match=problem):
        yaml.load(text, Loader=yaml.SafeLoader)


def test_an_unhashable_key_keeps_pyyaml_context_and_marks():
    text = "a: 1\nb:\n  c: 2\n  [1, 2]: 3\n"
    errors = []
    for loader in (_libyaml._Loader, yaml.SafeLoader):
        with pytest.raises(yaml.constructor.ConstructorError) as info:
            yaml.load(text, Loader=loader)
        exc = info.value
        errors.append((exc.context, exc.context_mark.line, exc.context_mark.column,
                       exc.problem, exc.problem_mark.line, exc.problem_mark.column))
    assert errors[0] == errors[1] == (
        "while constructing a mapping", 2, 2, "found unhashable key", 3, 2)


def test_an_empty_sequence_is_a_new_list_each_time():
    data = _load_yaml("a: []\nb: []\nc: [[], []]\n")
    assert data == {"a": [], "b": [], "c": [[], []]}
    assert data["a"] is not data["b"] and data["c"][0] is not data["c"][1]

