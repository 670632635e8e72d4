"""A stretch of evolve steps gives the bits of one step at a time.

``run_sequence`` applies each maximal stretch of consecutive evolve steps of
one group in one pass.  The reference here is the per-step formula
``np.real(back @ ((p[:, None] * p.conj()).ravel() * (eig @ x)))`` with
``p = exp(-1j * delta * w)``, one step after another, each state a new
coordinate array; measurements take the library's own per-step calls.
Permutation groups turn each cycle by the time modulo its length.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexop import operational
from convexop.classical import PhaseSpace, make_classical_space, permutation_evolution
from convexop.errors import InvalidEvolutionError
from convexop.hermitian import random_density, random_hermitian
from convexop.operational import (
    Element,
    EvolveStep,
    MeasureStep,
    apply_operation,
    evolution_operation,
    evolve,
    run_sequence,
)
from convexop.quantum import (
    from_matrix,
    hamiltonian_evolution,
    make_quantum_space,
    spectral_measurement,
)
from convexop.spaces import inner, unit_element

SETTINGS = settings(max_examples=30, deadline=None)
DIMS = st.integers(1, 16)
SEEDS = st.integers(0, 2**32 - 1)


def reference_step(group, delta, x):
    """The time-``delta`` member on coordinates ``x``, as one step computes it."""
    w = group.spectrum[0]
    eig, back = group.eigen_frame
    p = np.exp(-1j * delta * w)
    return np.array(np.real(back @ ((p[:, None] * p.conj()).ravel() * (eig @ x))))


def reference_run(initial, steps, post_selection):
    """``(probability, state, reference)`` coordinates, one step at a time."""
    space = initial.space
    state, reference, probability = initial.coords, initial.coords, 1.0
    for step in steps:
        if isinstance(step, EvolveStep):
            state = reference_step(step.group, step.delta, state)
            reference = reference_step(step.group, step.delta, reference)
            continue
        parent = step.spec.parent
        if step.outcome is None:
            state = apply_operation(parent, Element(space, state)).coords
        else:
            image = apply_operation(step.spec.outcomes[step.outcome], Element(space, state))
            p = inner(unit_element(space), image)
            state = image.coords / p
            probability *= p
        reference = apply_operation(parent, Element(space, reference)).coords
    if post_selection is not None:
        probability *= inner(post_selection, Element(space, state)) / inner(
            post_selection, Element(space, reference)
        )
    return probability, state, reference


def assert_same_bits(a, b):
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def quantum_case(d, seed):
    rng = np.random.default_rng(seed)
    space = make_quantum_space(d)
    groups = [hamiltonian_evolution(random_hermitian(d, rng), space) for _ in range(2)]
    initial = from_matrix(space, random_density(d, rng))
    post = from_matrix(space, random_density(d, rng))
    spec, _ = spectral_measurement(random_hermitian(d, rng), space, "obs")
    return rng, space, groups, initial, post, spec


def check_against_reference(initial, steps, post):
    result = run_sequence(initial, steps, post)
    probability, state, _ = reference_run(initial, steps, post)
    assert_same_bits(result.final_state.coords, state)
    assert_same_bits(result.probability, probability)
    evolved = [r for r in result.records if r.name == "evolve"]
    assert len(evolved) == sum(isinstance(s, EvolveStep) for s in steps)
    assert all(r.outcome is None and r.conditional_probability == 1.0 for r in evolved)
    return result


@SETTINGS
@given(DIMS, SEEDS, st.integers(1, 40), st.booleans())
def test_a_stretch_gives_the_bits_of_one_step_at_a_time(d, seed, count, post_selected):
    rng, _, (group, _), initial, post, _ = quantum_case(d, seed)
    steps = [EvolveStep(group, float(t)) for t in rng.uniform(-2.0, 2.0, size=count)]
    check_against_reference(initial, steps, post if post_selected else None)


@SETTINGS
@given(DIMS, SEEDS, st.lists(st.sampled_from("ab+u"), min_size=1, max_size=30),
       st.booleans())
def test_stretches_cut_by_measurements_and_by_a_second_group(d, seed, kinds, post_selected):
    # "a" and "b" evolve under two groups on one space, "+" reads the outcome
    # of a measurement with the largest weight, "u" leaves one unread
    rng, _, groups, initial, post, spec = quantum_case(d, seed)
    steps = []
    for kind in kinds:
        if kind in "ab":
            steps.append(EvolveStep(groups["ab".index(kind)], float(rng.uniform(-2.0, 2.0))))
        elif kind == "u":
            steps.append(MeasureStep(spec))
        else:
            state = Element(initial.space, reference_run(initial, steps, None)[1])
            unit = unit_element(initial.space)
            weights = {
                label: inner(unit, apply_operation(op, state))
                for label, op in spec.outcomes.items()
            }
            steps.append(MeasureStep(spec, max(weights, key=weights.get)))
    check_against_reference(initial, steps, post if post_selected else None)


@pytest.mark.parametrize("d", [1, 2, 5, 16])
def test_a_stretch_longer_than_a_block_gives_the_same_bits(d):
    rng, _, (group, _), initial, post, _ = quantum_case(d, d)
    count = 2 * operational._BLOCK + 7
    steps = [EvolveStep(group, float(t)) for t in rng.uniform(-2.0, 2.0, size=count)]
    result = check_against_reference(initial, steps, post)
    assert len(result.records) == count + 1


@SETTINGS
@given(DIMS, SEEDS, st.floats(-1e3, 1e3))
def test_evolve_and_the_evolution_operation_use_the_per_step_member(d, seed, delta):
    _, _, (group, _), initial, _, _ = quantum_case(d, seed)
    assert_same_bits(evolve(group, delta, initial).coords,
                     reference_step(group, delta, initial.coords))
    w = group.spectrum[0]
    eig, back = group.eigen_frame
    p = np.exp(-1j * delta * w)
    matrix = np.real((back * (p[:, None] * p.conj()).ravel()) @ eig)
    assert_same_bits(evolution_operation(group, delta).matrix, matrix)


@pytest.mark.parametrize("delta", [1e308, -1e308, float("inf"), float("nan")])
def test_an_overflowing_time_reads_alike_on_every_path(delta):
    group = hamiltonian_evolution(np.diag([2.0, -1.0]))
    state = from_matrix(group.space, np.eye(2) / 2)
    messages = []
    for path in (
        lambda: EvolveStep(group, delta),
        lambda: evolve(group, delta, state),
        lambda: evolution_operation(group, delta),
    ):
        with pytest.raises(InvalidEvolutionError) as info:
            path()
        messages.append(str(info.value))
    assert messages == [f"time {delta!r} times the generator's spectrum overflows"] * 3


def test_a_later_step_that_is_not_a_step_fails_after_the_stretch_before_it():
    _, space, (group, _), initial, _, _ = quantum_case(2, 0)
    elsewhere = from_matrix(make_quantum_space(2, "other"), np.eye(2) / 2)
    with pytest.raises(operational.SpaceMismatchError):
        run_sequence(elsewhere, [EvolveStep(group, 0.1), "not a step"])
    with pytest.raises(TypeError, match="cannot interpret sequence step"):
        run_sequence(initial, [EvolveStep(group, 0.1), "not a step"])


def test_a_long_stretch_holds_bounded_memory():
    # members of the whole stretch at once would take 20,000 x 256 x 16 bytes
    rng, _, (group, _), initial, post, _ = quantum_case(16, 3)
    steps = [EvolveStep(group, float(t)) for t in rng.uniform(0.05, 0.5, size=20_000)]
    run_sequence(initial, steps[:2], post)
    tracemalloc.start()
    try:
        run_sequence(initial, steps, post)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


# ---------------------------------------------------------------------------
# permutation groups
# ---------------------------------------------------------------------------

def squared_power(perm, steps):
    """Image table of ``steps`` shifts by repeated squaring."""
    result = np.arange(perm.size)
    base = perm if steps >= 0 else np.argsort(perm)
    steps = abs(steps)
    while steps:
        if steps & 1:
            result = base[result]
        base = base[base]
        steps >>= 1
    return result


def cycle_lcm(perm):
    lengths, seen = [], set()
    for start in range(perm.size):
        length, point = 0, start
        while point not in seen:
            seen.add(point)
            point = int(perm[point])
            length += 1
        if length:
            lengths.append(length)
    return np.lcm.reduce(lengths)


def permutation_group(perm):
    space = make_classical_space(PhaseSpace(perm.size, np.ones(perm.size)))
    return permutation_evolution(space, perm)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(n))),
       st.one_of(st.integers(-10**6, 10**6), st.integers(-10**300, 10**300)),
       st.integers(-3, 3))
def test_a_permutation_power_depends_on_the_time_modulo_each_cycle(perm, steps, k):
    perm = np.array(perm)
    group = permutation_group(perm)
    image = operational._permutation_power(group, steps)
    assert np.array_equal(image, squared_power(perm, steps))
    shifted = steps + k * int(cycle_lcm(perm))
    assert np.array_equal(operational._permutation_power(group, shifted), image)
    if float(shifted) == shifted and float(steps) == steps:  # times as floats
        assert np.array_equal(evolution_operation(group, float(shifted)).matrix,
                              evolution_operation(group, float(steps)).matrix)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.permutations(range(n))),
       st.lists(st.integers(-50, 50), min_size=1, max_size=6), st.booleans())
def test_a_permutation_stretch_moves_values_like_each_step(perm, times, post_selected):
    perm = np.array(perm)
    group = permutation_group(perm)
    values = np.arange(1.0, perm.size + 1.0)
    initial = Element(group.space, values / values.sum())
    post = initial if post_selected else None
    result = run_sequence(initial, [EvolveStep(group, float(t)) for t in times], post)
    expected = initial.coords
    for t in times:
        moved = np.empty_like(expected)
        moved[squared_power(perm, t)] = expected
        expected = moved
    assert_same_bits(result.final_state.coords, expected)


def test_a_huge_permutation_time_costs_what_a_small_one_does():
    n = 30_000
    group = permutation_group(np.random.default_rng(0).permutation(n))
    state = Element(group.space, np.full(n, 1.0 / n))
    evolve(group, 1.0, state)  # the cycles are found once per group

    def best(delta):
        times = []
        for _ in range(7):
            start = time.perf_counter()
            evolve(group, delta, state)
            times.append(time.perf_counter() - start)
        return min(times)

    assert best(1e300) < 3 * best(3.0)
