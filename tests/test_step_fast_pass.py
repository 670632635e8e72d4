"""An evolve step passes the schema through one cheap test.

``scenario._list`` skips the walk of each entry that its item's ``accepts``
passes, and the step checker's ``accepts`` is true only for
``{"evolve": {"delta": <finite real>}}`` in plain dicts.  So whenever it is
true, the walk must find nothing.  The values are drawn as mutations of an
evolve step: a bool, inf, NaN or string delta, an integer past the float
range, an extra key, nesting, and ``dict`` and ``float`` subclasses.
"""

import sys
from unittest import mock

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from convexop import scenario
from convexop.errors import ScenarioSchemaError
from convexop.scenario import parse_scenario_text


class Real(float):
    pass


class Mapping(dict):
    pass


DELTAS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(Real),
    st.integers(-(2**1100), 2**1100),
    st.sampled_from([True, False, None, "0.5", [0.5], sys.float_info.max, 10**309, -(10**309)]),
)

#: Each takes a step or its payload to a value around it.
MUTATIONS = [
    lambda v: {"evolve": v},
    lambda v: {"delta": v},
    lambda v: [v],
    lambda v: Mapping(v) if isinstance(v, dict) else v,
    lambda v: {**v, "extra": 1} if isinstance(v, dict) else v,
    lambda v: {"measure": v},
]


@st.composite
def steps(draw):
    payload = {"delta": draw(DELTAS)}
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        payload = mutate(payload)
    step = {draw(st.sampled_from(["evolve", "evolve", "measure", "delta"])): payload}
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        step = mutate(step)
    return step


def holds(value) -> bool:
    """Whether the walk passes every step the cheap test accepts."""
    if not scenario._step.accepts(value):
        return True
    try:
        scenario._step(value, "s")
    except ScenarioSchemaError:
        return False
    return True


@settings(max_examples=500, deadline=None)
@given(steps())
def test_a_step_the_cheap_test_accepts_passes_the_walk(value):
    assert holds(value), value


def test_property_catches_a_cheap_test_that_accepts_a_bool():
    def accepts_a_bool(value):  # isinstance lets a bool through as an int
        if type(value) is not dict or len(value) != 1:
            return False
        payload = value.get("evolve")
        return (type(payload) is dict and len(payload) == 1
                and isinstance(payload.get("delta"), (int, float))
                and abs(payload["delta"]) <= sys.float_info.max)

    with mock.patch.object(scenario._step, "accepts", accepts_a_bool):
        value = find(steps(), lambda value: not holds(value),
                     settings=settings(max_examples=2000, database=None,
                                       phases=[Phase.generate]))
    assert value["evolve"]["delta"] is True or value["evolve"]["delta"] is False


@pytest.mark.parametrize("value", [
    {"evolve": {"delta": 0.5}},
    {"evolve": {"delta": -3}},
    {"evolve": {"delta": sys.float_info.max}},
])
def test_plain_evolve_steps_are_accepted(value):
    assert scenario._step.accepts(value)


@pytest.mark.parametrize("delta, message", [
    ("true", "steps[2].evolve.delta: expected a real number"),
    (".inf", "steps[2].evolve.delta: expected a finite number"),
    ("1" * 400, "steps[2].evolve.delta: expected a finite number"),
    ("'0.5'", "steps[2].evolve.delta: expected a real number"),
])
def test_the_walk_still_names_a_bad_delta_among_good_steps(delta, message):
    text = ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\n"
            "evolution: {hamiltonian: [[1, 0], [0, -1]]}\nsteps:\n"
            f"  - evolve: {{delta: 0.5}}\n  - evolve: {{delta: 1}}\n  - evolve: {{delta: {delta}}}\n"
            "  - evolve: {delta: 0.25}\n")
    with pytest.raises(ScenarioSchemaError) as info:
        parse_scenario_text(text)
    assert str(info.value) == message
