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
    OperationMap,
    apply_operation,
    completeness_gap,
    evolution_operation,
    evolve,
    order_unit_defect,
    predict,
    run_sequence,
    update_state,
)
from convexop.probes import compose, map_to_probe
from convexop.quantum import (
    born,
    from_matrix,
    hamiltonian_evolution,
    luders,
    make_quantum_space,
    spectral_measurement,
    to_matrix,
)
from convexop.spaces import (
    DEFAULT_TOL,
    Element,
    cone_margin,
    inner,
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


def postselected_chain_by_hand(initial, steps, post, rng):
    """The post-selected run spelled out: each step moves the state, and the
    reference branch takes every step unread.  Returns the steps with the
    outcomes chosen for the read measurements, the final state, the total
    probability and the post-selection factor."""
    state, reference, chosen, probability = initial, initial, [], 1.0
    for step, read in steps:
        if isinstance(step, EvolveStep):
            state = evolve(step.group, step.delta, state)
            reference = evolve(step.group, step.delta, reference)
            chosen.append(step)
            continue
        spec = step.spec
        if read:
            labels = [a for a in spec.outcomes if predict(state, spec, a) > 1e-6]
            outcome = labels[rng.integers(len(labels))]
            probability *= predict(state, spec, outcome)
            state = update_state(state, spec.outcomes[outcome])
        else:
            outcome = None
            state = apply_operation(spec.parent, state)
        reference = apply_operation(spec.parent, reference)
        chosen.append(MeasureStep(spec, outcome))
    factor = inner(post, state) / inner(post, reference)
    return chosen, state, probability * factor, factor


def assert_postselected_run_matches(initial, steps, post, rng):
    chosen, state, probability, factor = postselected_chain_by_hand(
        initial, steps, post, rng)
    result = run_sequence(initial, chosen, post)
    assert np.array_equal(result.final_state.coords, state.coords)
    assert result.records[-1].conditional_probability == factor
    assert result.probability == probability


@SETTINGS
@given(DIMS, SEEDS, st.integers(1, 6))
def test_quantum_postselected_run_is_the_chain_by_hand(d, seed, length):
    rng, space = quantum_case(d, seed)
    group = hamiltonian_evolution(random_hermitian(d, rng), space)
    initial = normalize_state(from_matrix(space, random_psd(d, rng)))
    steps = []
    for kind in rng.integers(0, 3, size=length):
        if kind == 0:
            steps.append((EvolveStep(group, float(rng.uniform(-2.0, 2.0))), False))
        else:
            spec, _ = spectral_measurement(degenerate_observable(d, rng), space=space)
            steps.append((MeasureStep(spec), kind == 1))
    post = from_matrix(space, random_psd(d, rng))
    assert_postselected_run_matches(initial, steps, post, rng)


@SETTINGS
@given(CELLS, SEEDS, st.integers(1, 6))
def test_classical_postselected_run_is_the_chain_by_hand(n, seed, length):
    rng, space, image = classical_case(n, seed)
    group = permutation_evolution(space, image)
    initial = normalize_state(Element(space, rng.uniform(0.1, 1.0, size=n)))
    steps = []
    for kind in rng.integers(0, 3, size=length):
        if kind == 0:
            steps.append((EvolveStep(group, float(rng.integers(-3, 4))), False))
        else:
            subset = np.flatnonzero(rng.random(n) < 0.5)
            steps.append((MeasureStep(indicator_measurement(space, subset)), kind == 1))
    post = Element(space, rng.uniform(0.1, 1.0, size=n))
    assert_postselected_run_matches(initial, steps, post, rng)


@SETTINGS
@given(DIMS, SEEDS)
def test_prediction_is_the_trace_rule(d, seed):
    rng, space = quantum_case(d, seed)
    state = normalize_state(from_matrix(space, random_psd(d, rng)))
    spec, decomposition = spectral_measurement(degenerate_observable(d, rng), space=space)
    for k, projector in enumerate(decomposition.projectors):
        assert abs(predict(state, spec, str(k)) - born(state, projector)) <= 1e-10


def assert_compose_is_basis_independent(space, first_map, second_map, bases):
    """Gluing the two map probes along the middle factor gives the probe of
    the composite map, in each orthonormal basis of the middle factor."""
    first = map_to_probe(OperationMap(space, first_map), final_id="mid")
    second = map_to_probe(
        OperationMap(first.boundary[1], second_map), initial_id="mid", final_id="out")
    direct = map_to_probe(OperationMap(space, second_map @ first_map), final_id="out")
    bound = 1e-10 * max(1.0, np.abs(direct.coeffs).max())
    for basis in bases:
        composed = compose(first, second, shared="mid", basis=basis)
        assert np.abs(composed.coeffs - direct.coeffs).max() <= bound


@SETTINGS
@given(DIMS, SEEDS)
def test_quantum_compose_is_independent_of_the_shared_basis(d, seed):
    rng, space = quantum_case(d, seed)
    n = space.dim
    rotation, _ = np.linalg.qr(rng.standard_normal((n, n)))
    assert_compose_is_basis_independent(
        space, rng.standard_normal((n, n)), rng.standard_normal((n, n)),
        [None, rotation])


@SETTINGS
@given(CELLS, SEEDS)
def test_classical_compose_is_independent_of_the_shared_basis(n, seed):
    # rows orthonormal under the metric diag(mu): a rotation of the points
    # scaled by 1/sqrt(mu)
    rng, space, _ = classical_case(n, seed)
    scaling = np.diag(1.0 / np.sqrt(np.diag(space.metric)))
    rotation, _ = np.linalg.qr(rng.standard_normal((n, n)))
    assert_compose_is_basis_independent(
        space, rng.standard_normal((n, n)), rng.standard_normal((n, n)),
        [scaling, rotation @ scaling])


@SETTINGS
@given(CELLS, SEEDS)
def test_classical_model_embeds_diagonally_in_the_quantum_one(n, seed):
    rng, cspace, _ = classical_case(n, seed)
    mu = np.diag(cspace.metric)
    qspace = make_quantum_space(n)
    cstate = normalize_state(Element(cspace, rng.uniform(0.1, 1.0, size=n)))
    qstate = from_matrix(qspace, np.diag(mu * cstate.coords))
    subset = np.flatnonzero(rng.random(n) < 0.5)
    if subset.size == 0:
        subset = np.array([rng.integers(n)])
    spec = indicator_measurement(cspace, subset)
    projector = np.zeros((n, n))
    projector[subset, subset] = 1.0
    assert abs(predict(cstate, spec, "in") - born(qstate, projector)) < 1e-12
    c_next = update_state(cstate, spec.outcomes["in"])
    q_next = luders(qstate, projector)
    embedded = np.diag(mu * c_next.coords)
    assert np.abs(to_matrix(q_next) - embedded).max() < 1e-12
