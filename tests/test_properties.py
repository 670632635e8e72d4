"""Property tests at random dimensions: quantum d from 2 to 6, classical n
from 1 to 12.  Each example draws one numpy seed and builds its data from it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from convexop.classical import (
    PhaseSpace,
    indicator_measurement,
    make_classical_space,
    permutation_evolution,
)
from convexop.hermitian import (
    matrix_to_coords,
    random_hermitian,
    random_psd,
    random_unitary,
)
from convexop.operational import (
    EvolveStep,
    MeasureStep,
    apply_operation,
    completeness_gap,
    evolution_operation,
    evolve,
    order_unit_defect,
    predict,
    run_sequence,
    update_state,
)
from convexop.quantum import (
    from_matrix,
    hamiltonian_evolution,
    make_quantum_space,
    spectral_measurement,
)
from convexop.spaces import (
    DEFAULT_TOL,
    Element,
    cone_margin,
    is_positive,
    normalize_state,
    scaled_tol,
)

SETTINGS = settings(max_examples=25, deadline=None)
DIMS = st.integers(2, 6)
CELLS = st.integers(1, 12)
SEEDS = st.integers(0, 2**32 - 1)


def quantum_case(d, seed):
    rng = np.random.default_rng(seed)
    return rng, make_quantum_space(d)


def classical_case(n, seed):
    """A phase space whose measure takes few values, and a permutation that
    shuffles points within each level set, so it preserves the measure."""
    rng = np.random.default_rng(seed)
    mu = rng.integers(1, 4, size=n).astype(float)
    image = np.arange(n)
    for level in np.unique(mu):
        points = np.flatnonzero(mu == level)
        image[points] = rng.permutation(points)
    return rng, make_classical_space(PhaseSpace(n, mu)), image


def degenerate_observable(d, rng):
    """Hermitian matrix with repeated eigenvalues in a random basis."""
    u = random_unitary(d, rng)
    values = rng.integers(-2, 3, size=d).astype(float)
    return (u * values) @ u.conj().T


@SETTINGS
@given(DIMS, SEEDS, st.floats(-1.0, 1.0))
def test_cone_margin_is_least_eigenvalue_and_decides_membership(d, seed, shift):
    rng, space = quantum_case(d, seed)
    mat = random_hermitian(d, rng) + shift * np.eye(d)
    b = from_matrix(space, mat)
    margin = cone_margin(b)
    scale = max(1.0, np.abs(mat).max())
    assert abs(margin - np.linalg.eigvalsh(mat).min()) <= 1e-9 * scale
    assert is_positive(b) == (margin >= -scaled_tol(DEFAULT_TOL, b.coords))
    assert is_positive(from_matrix(space, random_psd(d, rng)))


@SETTINGS
@given(CELLS, SEEDS)
def test_cone_margin_is_least_value_and_decides_membership(n, seed):
    rng, space, _ = classical_case(n, seed)
    values = rng.normal(size=n)
    b = Element(space, values)
    assert cone_margin(b) == values.min()
    assert is_positive(b) == (values.min() >= -scaled_tol(DEFAULT_TOL, values))


@SETTINGS
@given(DIMS, SEEDS)
def test_spectral_measurement_is_complete_and_causal(d, seed):
    rng, space = quantum_case(d, seed)
    spec, _ = spectral_measurement(degenerate_observable(d, rng), space=space)
    gap, gap_bound = completeness_gap(spec)
    defect, defect_bound = order_unit_defect(spec.parent)
    assert gap <= gap_bound
    assert defect <= defect_bound


@SETTINGS
@given(CELLS, SEEDS)
def test_indicator_measurement_is_complete_and_causal(n, seed):
    rng, space, _ = classical_case(n, seed)
    subset = np.flatnonzero(rng.random(n) < 0.5)
    spec = indicator_measurement(space, subset)
    gap, gap_bound = completeness_gap(spec)
    defect, defect_bound = order_unit_defect(spec.parent)
    assert gap <= gap_bound
    assert defect <= defect_bound


@SETTINGS
@given(DIMS, SEEDS, st.floats(-3.0, 3.0))
def test_hamiltonian_operation_matches_evolve(d, seed, delta):
    rng, space = quantum_case(d, seed)
    group = hamiltonian_evolution(random_hermitian(d, rng), space)
    b = Element(space, matrix_to_coords(random_hermitian(d, rng)))
    via_map = apply_operation(evolution_operation(group, delta), b).coords
    direct = evolve(group, delta, b).coords
    scale = max(1.0, np.abs(b.coords).max())
    assert np.allclose(via_map, direct, rtol=0.0, atol=1e-10 * scale)


@SETTINGS
@given(CELLS, SEEDS, st.integers(-7, 7))
def test_permutation_operation_matches_evolve(n, seed, delta):
    rng, space, image = classical_case(n, seed)
    group = permutation_evolution(space, image)
    b = Element(space, rng.normal(size=n))
    via_map = apply_operation(evolution_operation(group, float(delta)), b).coords
    assert np.array_equal(via_map, evolve(group, float(delta), b).coords)


def chain_by_hand(initial, steps, rng):
    """Pick a possible outcome for each measurement and predict step by step;
    returns the steps with outcomes filled in and the per-step predictions."""
    state, chosen, predictions = initial, [], []
    for step in steps:
        if isinstance(step, EvolveStep):
            state = evolve(step.group, step.delta, state)
            chosen.append(step)
            continue
        spec = step.spec
        labels = [a for a in spec.outcomes if predict(state, spec, a) > 1e-6]
        outcome = labels[rng.integers(len(labels))]
        predictions.append(predict(state, spec, outcome))
        state = update_state(state, spec.outcomes[outcome])
        chosen.append(MeasureStep(spec, outcome))
    return chosen, predictions


def assert_chain_probability(initial, steps, rng):
    chosen, predictions = chain_by_hand(initial, steps, rng)
    result = run_sequence(initial, chosen)
    recorded = [r.conditional_probability for r in result.records if r.name != "evolve"]
    assert recorded == predictions
    assert np.isclose(result.probability, np.prod(predictions), rtol=1e-12, atol=0.0)


@SETTINGS
@given(DIMS, SEEDS, st.integers(1, 4))
def test_quantum_chain_probability_is_product_of_predictions(d, seed, length):
    rng, space = quantum_case(d, seed)
    group = hamiltonian_evolution(random_hermitian(d, rng), space)
    initial = normalize_state(from_matrix(space, random_psd(d, rng)))
    steps = []
    for _ in range(length):
        spec, _ = spectral_measurement(degenerate_observable(d, rng), space=space)
        steps += [MeasureStep(spec), EvolveStep(group, float(rng.uniform(0.0, 2.0)))]
    assert_chain_probability(initial, steps, rng)


@SETTINGS
@given(CELLS, SEEDS, st.integers(1, 4))
def test_classical_chain_probability_is_product_of_predictions(n, seed, length):
    rng, space, image = classical_case(n, seed)
    group = permutation_evolution(space, image)
    initial = normalize_state(Element(space, rng.uniform(0.1, 1.0, size=n)))
    steps = []
    for _ in range(length):
        subset = np.flatnonzero(rng.random(n) < 0.5)
        steps += [MeasureStep(indicator_measurement(space, subset)),
                  EvolveStep(group, float(rng.integers(-3, 4)))]
    assert_chain_probability(initial, steps, rng)
