"""One point-index rule: a subset, the points of a document's cycles and an
image table are each a list of distinct points ``0..n-1``.

``operational._first_bad_point`` names the first entry, in the order given,
that is out of range or repeats an earlier entry.  ``indicator_measurement``,
``scenario._cycles_to_image`` and ``EvolutionGroup`` ask it and keep their own
error classes and messages.  Integers past int64 count as out of range and
are named by their exact value; they never raise ``OverflowError`` and never
wrap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexop.classical import (
    PhaseSpace,
    indicator_measurement,
    make_classical_space,
    permutation_evolution,
)
from convexop.errors import InvalidEvolutionError, ScenarioValidationError
from convexop.operational import EvolutionGroup, _first_bad_point
from convexop.scenario import _cycles_to_image, bind_scenario, parse_scenario_text

SPACE = make_classical_space(PhaseSpace(3, np.ones(3)))
HUGE = [2**63, 10**30, 2**70]


def bind_cycles(cycles: str):
    text = ("model: {kind: classical, n: 3, mu: [1, 1, 1]}\n"
            "initial: {values: [1, 1, 1]}\n"
            f"evolution: {{permutation: {cycles}}}\nsteps: []\n")
    return bind_scenario(parse_scenario_text(text))


def bind_subset(subset: str):
    text = ("model: {kind: classical, n: 3, mu: [1, 1, 1]}\n"
            "initial: {values: [1, 1, 1]}\n"
            f"steps: [{{measure: {{name: m, outcome: in, subset: {subset}}}}}]\n")
    return bind_scenario(parse_scenario_text(text))


# ---------------------------------------------------------------------------
# the helper
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("indices, n, expected", [
    ([], 3, None),
    ([2, 0, 1], 3, None),
    ([0], 1, None),
    ([3], 3, 0),
    ([-1], 3, 0),
    ([0, 1, 1], 3, 2),
    ([5, 0, 0], 3, 0),
    ([0, 0, 5], 3, 1),
    ([7, -1], 3, 0),
    ([-1, 7], 3, 0),
    ([1, 2**63], 3, 1),
    ([-1, 2**63], 3, 0),
    ([2**63, -1], 3, 0),
    ([0, 10**30, 0], 3, 1),
    ([0, 0, 10**30], 3, 1),
    ([0, 1, 2**70], 3, 2),
    (np.array([2**63, 1], dtype=np.uint64), 3, 0),
    (np.array([1, 2**64 - 1], dtype=np.uint64), 3, 1),
    ([float("nan"), 0], 3, 0),
    ([[0, 1]], 3, 0),
])
def test_first_bad_point(indices, n, expected):
    assert _first_bad_point(indices, n) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 12) | st.sampled_from(HUGE + [-(2**64)]), max_size=12),
       st.integers(1, 10))
def test_first_bad_point_matches_a_walk_in_order(indices, n):
    seen, expected = set(), None
    for k, i in enumerate(indices):
        if not 0 <= i < n or i in seen:
            expected = k
            break
        seen.add(i)
    assert _first_bad_point(indices, n) == expected


# ---------------------------------------------------------------------------
# integers past int64
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("subset, named", [
    ([2**63], 2**63), ([10**30], 10**30), ([-1, 2**63], -1), ([2**63, -1], 2**63),
])
def test_huge_subset_entries_are_named_exactly(subset, named):
    # pins the parent's text for all but [2**63, -1], which the parent named by -1
    with pytest.raises(ValueError, match=f"^point index {named} is out of range for 3 points$"):
        indicator_measurement(SPACE, subset)


@pytest.mark.parametrize("subset, named", [
    ("[9223372036854775808]", 2**63),
    ("[1000000000000000000000000000000]", 10**30),
    ("[-1, 9223372036854775808]", -1),
])
def test_huge_subset_entries_in_a_document(subset, named):
    # pins the parent's text: the schema lets these integers through
    with pytest.raises(ScenarioValidationError) as info:
        bind_subset(subset)
    assert str(info.value) == (
        f"steps[0].measure.subset: point index {named} is out of range for 3 points"
    )


@pytest.mark.parametrize("cycles, named", [
    ("[[9223372036854775808]]", 2**63),
    ("[[0, 1000000000000000000000000000000]]", 10**30),
    ("[[-1, 9223372036854775808]]", -1),
    ("[[0, 1], [9223372036854775808, -1]]", 2**63),
])
def test_huge_cycle_entries_are_named_exactly(cycles, named):
    # pins the parent's text: the first bad point of the document, in order
    with pytest.raises(ScenarioValidationError) as info:
        bind_cycles(cycles)
    assert str(info.value) == f"evolution.permutation: point index {named} is out of range"


@pytest.mark.parametrize("table", [
    (2**70, 0, 1), (2**63, 0, 1), (10**30, 1, 2), (-1, 2**63, 0), (1, 2, 2**63),
    np.array([2**63, 0, 1], dtype=np.uint64),
])
def test_huge_image_table_entries_are_no_permutation(table):
    # the parent raised OverflowError converting the tuples to int64; the
    # uint64 array pins its verdict (it wrapped 2**63 to a negative entry)
    with pytest.raises(InvalidEvolutionError, match="is not a permutation of 0..2"):
        permutation_evolution(SPACE, table)


def test_a_table_past_int64_does_not_wrap_onto_a_point():
    # 2**64 + 1 wraps to 1 in 64 bits; with 0 and 2 it would read as a permutation
    with pytest.raises(InvalidEvolutionError):
        EvolutionGroup(SPACE, "permutation", permutation=(2**64 + 1, 2, 0))


# ---------------------------------------------------------------------------
# double violations: the first entry in the order given is named
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("subset, message", [
    ([5, 0, 0], "point index 5 is out of range for 3 points"),
    ([0, 0, 5], "subset [0, 0, 5] lists a point twice"),
    ([7, -1], "point index 7 is out of range for 3 points"),
    ([-1, 7], "point index -1 is out of range for 3 points"),
    ([2**63, 1, 1], f"point index {2**63} is out of range for 3 points"),
])
def test_a_subset_names_its_first_violation(subset, message):
    # [5, 0, 0] and [7, -1] changed: the parent named the repeat and -1
    with pytest.raises(ValueError) as info:
        indicator_measurement(SPACE, subset)
    assert str(info.value) == message


@pytest.mark.parametrize("cycles, message", [
    ("[[5, 0, 0]]", "point index 5 is out of range"),
    ("[[0, 0, 5]]", "point 0 appears in two cycles"),
    ("[[0, 1], [1, 7]]", "point 1 appears in two cycles"),
    ("[[0, 7], [0, 1]]", "point index 7 is out of range"),
])
def test_cycles_name_their_first_violation(cycles, message):
    # pins the parent's text: its loop walked the document's points in order
    with pytest.raises(ScenarioValidationError) as info:
        bind_cycles(cycles)
    assert str(info.value) == f"evolution.permutation: {message}"


# ---------------------------------------------------------------------------
# shapes and images
# ---------------------------------------------------------------------------

def test_singleton_and_identity_cycles_give_the_identity():
    # pins the parent's images, which it returned as a list
    assert _cycles_to_image([[1]], 3).tolist() == [0, 1, 2]
    assert _cycles_to_image([[0], [1], [2]], 3).tolist() == [0, 1, 2]
    assert _cycles_to_image([], 3).tolist() == [0, 1, 2]
    assert _cycles_to_image([[2, 0], [1]], 3).tolist() == [2, 1, 0]


def test_an_image_table_of_shape_one_by_n_is_refused():
    # pins the parent's verdict
    with pytest.raises(InvalidEvolutionError, match="is not a permutation of 0..2"):
        permutation_evolution(SPACE, [[1, 2, 0]])


def test_a_nested_subset_is_refused():
    # pins the parent's error class: a row of a nested list is no point
    with pytest.raises(TypeError):
        indicator_measurement(SPACE, [[0, 1]])


def test_subset_default_name_and_indicator():
    # pins the parent's name and indicator; a set and an iterator are subsets too
    for subset in ([2, 0], (2, 0), np.array([2, 0]), {0, 2}, iter([2, 0])):
        spec = indicator_measurement(SPACE, subset)
        assert spec.name == "chi[0,2]"
        assert np.diag(spec.outcomes["in"].matrix).tolist() == [1.0, 0.0, 1.0]
        assert np.diag(spec.outcomes["out"].matrix).tolist() == [0.0, 1.0, 0.0]


def old_cycles_to_image(cycles, n):
    """The parent's loop, kept here as the reference."""
    image = list(range(n))
    seen = set()
    for cycle in cycles:
        for i in cycle:
            assert 0 <= i < n and i not in seen
            seen.add(i)
        for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
            image[a] = b
    return image


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.integers(0, 60))
def test_image_from_cycles_matches_the_old_loop(n, seed, cuts):
    # pins the parent's images: a random permutation of n points, cut into
    # cycles at random places, some points left out as fixed points
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)[: rng.integers(0, n + 1)]
    bounds = np.unique(rng.integers(0, order.size + 1, size=cuts))
    cycles = [part.tolist() for part in np.split(order, bounds) if part.size]
    image = _cycles_to_image(cycles, n)
    assert image.tolist() == old_cycles_to_image(cycles, n)
    group = permutation_evolution(make_classical_space(PhaseSpace(n, np.ones(n))), image)
    assert group.permutation.tolist() == image.tolist()
