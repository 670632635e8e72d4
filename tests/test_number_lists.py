"""One-line number lists are read apart from the rest of a document.

``scenario._load_yaml`` reads each one-line flow sequence of plain decimal
numbers, nested at most 3 deep, with one ``json.loads`` and lets libyaml
compose the document with that sequence blanked.  These tests guard what
that must keep: a large document composes only its structure, deep nesting
still reaches the schema, the schema still names the first violation in a
long list, and a hostile document is refused in linear time.
"""

import json
import sys
import time
from unittest import mock

import numpy as np
import pytest
import yaml
from yaml.nodes import ScalarNode

from convexop import scenario
from convexop.cli import main
from convexop.errors import ScenarioSchemaError, ScenarioSyntaxError
from convexop.scenario import MAX_NESTING, parse_scenario_text


def numbers(values: list) -> str:
    return "[" + ", ".join(map(repr, values)) + "]"


def classical_document(n: int = 1024, rounds: int = 20) -> str:
    """A classical document shaped like the bench's: measure and value
    lists, one cycle per block and ``rounds`` half-size subsets."""
    rng = np.random.default_rng(0)
    cycles = [rng.permutation(range(lo, lo + n // 4)).tolist() for lo in range(0, n, n // 4)]
    lines = [
        "model:", "  kind: classical", f"  n: {n}",
        f"  mu: {numbers(np.repeat(rng.uniform(0.5, 2.0, 4), n // 4).tolist())}",
        "initial:", f"  values: {numbers(rng.uniform(0.1, 1.0, n).tolist())}",
        "evolution:", f"  permutation: {numbers(cycles)}", "steps:",
    ]
    for k in range(rounds):
        subset = np.sort(rng.choice(n, n // 2, replace=False)).tolist()
        lines += ["  - measure:", f"      name: cells{k}", "      outcome: in",
                  f"      subset: {numbers(subset)}", "  - evolve:", "      delta: 1"]
    return "\n".join(lines) + "\n"


def test_a_large_document_composes_only_its_structure():
    text = classical_document()
    created = []
    init = ScalarNode.__init__

    def counted(self, *args, **kwargs):
        created.append(1)
        init(self, *args, **kwargs)

    with mock.patch.object(ScalarNode, "__init__", counted):
        doc = parse_scenario_text(text)
    # about 13,000 numbers; a silent fall back to composing them all shows here
    assert len(created) < 200
    assert {"model": doc.model, "initial": doc.initial, "steps": list(doc.steps),
            "evolution": doc.evolution} == yaml.load(text, Loader=yaml.SafeLoader)


def test_json_reads_at_most_three_levels_of_a_deep_list():
    depths = []
    loads = json.loads

    def measured(span, *args, **kwargs):
        depth = level = 0
        for char in span:
            level += {"[": 1, "]": -1}.get(char, 0)
            depth = max(depth, level)
        depths.append(depth)
        return loads(span, *args, **kwargs)

    levels = MAX_NESTING - 1
    text = (
        "model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\nsteps: []\nextra: "
        + "[" * levels + "1, 2.5" + "]" * levels + "\n"
    )
    with mock.patch.object(scenario.json, "loads", measured):
        with pytest.raises(ScenarioSchemaError, match="unknown field 'extra'"):
            parse_scenario_text(text)
    assert depths and max(depths) <= 3


LONG = 1024
CLASSICAL = "model: {kind: classical, n: %d, mu: [%s]}\ninitial: {values: [%s]}\nsteps: []\n"


def values(entries: list) -> str:
    return CLASSICAL % (len(entries), ", ".join(["1"] * len(entries)), ", ".join(entries))


@pytest.mark.parametrize("at", [0, 1, 700, LONG - 1])
@pytest.mark.parametrize("bad", [".nan", ".NaN", ".inf", "-.inf"])
def test_a_value_that_is_not_finite_is_named_in_a_long_list(at, bad):
    entries = ["0.5"] * LONG
    entries[at] = bad
    with pytest.raises(ScenarioSchemaError) as info:
        parse_scenario_text(values(entries))
    assert str(info.value) == f"initial.values[{at}]: expected a finite number"


def test_an_integer_that_rounds_into_the_float_range_is_named():
    # float() reads it as the largest float, but it is larger
    big = int(sys.float_info.max) + 1
    assert float(big) == sys.float_info.max
    entries = ["0.5"] * LONG
    entries[900] = str(big)
    with pytest.raises(ScenarioSchemaError) as info:
        parse_scenario_text(values(entries))
    assert str(info.value) == "initial.values[900]: expected a finite number"


@pytest.mark.parametrize(
    "text",
    [
        ("[" + "1" * 400) * 2500,
        "model: '" + ("[" + "1" * 400) * 2500 + "'\n",
        "extra: " + ("[1, [2, [3, [" + "4, " * 100) * 50 + "\n",
    ],
    ids=["bare", "quoted", "open-lists"],
)
def test_unclosed_lists_are_refused_in_linear_time(text, tmp_path, capsys):
    path = tmp_path / "hostile.yaml"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    assert main(["run", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: ")


def test_an_integer_past_the_digit_limit_is_still_unreadable():
    text = values(["0.5"] * 3 + ["1" * 5000])
    with pytest.raises(ScenarioSyntaxError, match="unreadable scalar"):
        parse_scenario_text(text)


@pytest.mark.parametrize("text, data", [
    ("# [1]\na: 1\n", {"a": 1}),
    ("a: 1 # [1, 2]\n", {"a": 1}),
    ("a: [1, 2] # [3]\nb:\n  - 4\t# [5]\n", {"a": [1, 2], "b": [4]}),
])
def test_a_number_list_in_a_comment_loads_the_text_once(text, data):
    # a list after "#" at the start of its line or after a space is a comment's
    with mock.patch.object(yaml, "load", wraps=yaml.load) as load:
        assert scenario._load_yaml(text) == data
    assert load.call_count == 1
