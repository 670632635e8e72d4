"""A permutation's cycles come from pointer doubling in numpy, and a measure
step keeps its table's spec when it already bears the step's name.

``EvolutionGroup._cycles`` must give what a walk point by point gives: per
length, ascending, the cycles of that length from their least points, each row
in orbit order and twice round.  ``bind_scenario`` calls ``replace`` only for
a step whose name differs from its payload's first name.  The replace counts
fail at the parent, which copied every spec, and so does the cycle property:
the parent's walk gave the lengths in the order of their first cycle.  The
power and identity tests pin the parent's results.
"""

import pathlib
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexop import scenario
from convexop.classical import PhaseSpace, make_classical_space, permutation_evolution
from convexop.operational import _permutation_power
from convexop.scenario import bind_scenario, parse_scenario_text

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "bench"))
import docs  # noqa: E402  (the bench's document generators)


def walked_cycles(image) -> dict:
    """Each length's cycles, from their least points in orbit order, by a walk."""
    seen, by_length = set(), {}
    for start in range(len(image)):
        cycle, point = [], start
        while point not in seen:
            seen.add(point)
            cycle.append(point)
            point = int(image[point])
        if cycle:
            by_length.setdefault(len(cycle), []).append(cycle)
    return by_length


def group(image):
    n = len(image)
    return permutation_evolution(make_classical_space(PhaseSpace(n, np.ones(n))), image)


@st.composite
def permutations(draw):
    n = draw(st.integers(1, 80))
    if draw(st.booleans()):
        return draw(st.permutations(range(n)))
    # cycles of one length, and the rest fixed
    length = draw(st.integers(1, n))
    order = draw(st.permutations(range(n)))
    image = list(range(n))
    for start in range(0, n - n % length, length):
        block = order[start:start + length]
        for a, b in zip(block, block[1:] + block[:1]):
            image[a] = b
    return image


@settings(max_examples=300, deadline=None)
@given(permutations())
def test_cycles_are_the_walked_cycles(image):
    expected = walked_cycles(image)
    got = group(image)._cycles
    assert [length for length, _, _ in got] == sorted(expected)
    for length, points, rows in got:
        assert type(length) is int and points.dtype == rows.dtype == np.intp
        cycles = expected[length]
        assert points.tolist() == [p for cycle in cycles for p in cycle]
        assert rows.tolist() == [cycle + cycle for cycle in cycles]


@settings(max_examples=100, deadline=None)
@given(permutations(), st.integers(0, 200))
def test_a_power_turns_every_point_that_many_steps(image, steps):
    expected = np.arange(len(image))
    for _ in range(steps):
        expected = np.asarray(image)[expected]
    assert _permutation_power(group(image), steps).tolist() == expected.tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 1024])
def test_the_identity_and_one_long_cycle(n):
    identity = group(list(range(n)))._cycles
    assert [(length, points.tolist()) for length, points, _ in identity] == [(1, list(range(n)))]
    shift = group([(i + 1) % n for i in range(n)])._cycles
    assert [(length, points.tolist()) for length, points, _ in shift] == [(n, list(range(n)))]


def test_a_step_named_as_its_table_keeps_the_table_spec():
    doc = parse_scenario_text(docs.classical_cells_doc(np.random.default_rng(0), 64).text)
    with mock.patch.object(scenario, "replace", wraps=scenario.replace) as replace:
        bound = bind_scenario(doc)
    assert replace.call_count == 0
    names = [step.spec.name for step in bound.steps if hasattr(step, "spec")]
    assert names == [f"cells{k}" for k in range(20)]


def test_a_step_under_another_name_gets_its_own_spec():
    text = """model: {kind: classical, n: 3, mu: [1, 1, 1]}
initial: {values: [1, 1, 1]}
steps:
- measure: &m {name: a, outcome: in, subset: [0]}
- measure: {<<: *m, name: b}
- measure: *m
"""
    with mock.patch.object(scenario, "replace", wraps=scenario.replace) as replace:
        bound = bind_scenario(parse_scenario_text(text))
    assert replace.call_count == 1
    a, b, again = (step.spec for step in bound.steps)
    assert (a.name, b.name) == ("a", "b")
    assert again is a and b is not a and b.outcomes == a.outcomes
