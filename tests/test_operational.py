"""Operation maps, measurements, sequences, evolution groups."""

import numpy as np
import pytest

from convexop.classical import PhaseSpace, indicator_measurement, make_classical_space
from convexop.errors import (
    InvalidEvolutionError,
    NotNormalizedError,
    SpaceMismatchError,
    UnknownOutcomeError,
    ZeroProbabilityError,
)
from convexop.hermitian import matrix_to_coords
from convexop.operational import (
    UNOBSERVED,
    EvolutionGroup,
    EvolveStep,
    MeasureStep,
    MeasurementSpec,
    OperationMap,
    apply_operation,
    check_positivity_sampled,
    completeness_gap,
    conditioned_probability,
    evolution_operation,
    evolve,
    identity_operation,
    is_nonselective,
    measurement_defects,
    predict,
    run_sequence,
    update_state,
)
from convexop.quantum import from_matrix, make_quantum_space, pure_state, spectral_measurement
from convexop.spaces import Element, inner, normalize_state, unit_element


def uniform(n):
    return make_classical_space(PhaseSpace(n, np.ones(n)))


def qubit_z():
    space = make_quantum_space(2)
    spec, _ = spectral_measurement(
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex), space=space, name="Z"
    )
    return space, spec


def test_identity_operation_is_nonselective():
    space = uniform(3)
    assert is_nonselective(identity_operation(space))


def test_is_nonselective_detects_leakage():
    space = uniform(2)
    # drops half the weight of the second point
    op = OperationMap(space, np.diag([1.0, 0.5]), "nonselective")
    assert not is_nonselective(op)


def test_apply_operation_is_matrix_action():
    space = uniform(2)
    op = OperationMap(space, np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = apply_operation(op, Element(space, np.array([1.0, 2.0])))
    assert np.abs(out.coords - np.array([2.0, 1.0])).max() < 1e-15


def test_measurement_spec_validates_labels_and_flags():
    space = uniform(2)
    sel = OperationMap(space, np.diag([1.0, 0.0]), "selective")
    parent = identity_operation(space)
    spec = MeasurementSpec("m", {"a": sel}, parent)
    assert spec.space is space
    with pytest.raises(ValueError):
        MeasurementSpec("m", {}, parent)
    with pytest.raises(ValueError):
        MeasurementSpec("m", {UNOBSERVED: sel}, parent)
    with pytest.raises(ValueError):
        MeasurementSpec("m", {"a": parent}, parent)  # outcome must be selective
    with pytest.raises(ValueError):
        MeasurementSpec("m", {"a": sel}, sel)  # parent must be nonselective


def test_measurement_defects_reports_incomplete_family():
    space = uniform(2)
    half = OperationMap(space, np.diag([1.0, 0.0]), "selective")
    parent = identity_operation(space)
    spec = MeasurementSpec("m", {"a": half}, parent)
    defects = measurement_defects(spec)
    assert len(defects) == 1 and "sum to the parent" in defects[0]


def test_predict_born_weights():
    space, spec = qubit_z()
    plus = from_matrix(space, pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0)))
    # labels sort by eigenvalue: "0" is the -1 eigenspace |1><1|
    assert predict(plus, spec, "0") == pytest.approx(0.5, abs=1e-12)
    assert predict(plus, spec, "1") == pytest.approx(0.5, abs=1e-12)


def test_predict_requires_normalized_state():
    space, spec = qubit_z()
    with pytest.raises(NotNormalizedError):
        predict(from_matrix(space, np.diag([2.0, 0.0]).astype(complex)), spec, "1")


def test_predict_unknown_outcome_names_known_labels():
    space, spec = qubit_z()
    state = from_matrix(space, np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(UnknownOutcomeError) as info:
        predict(state, spec, "left")
    assert "0" in str(info.value) and "1" in str(info.value)


def test_update_state_renormalizes():
    space, spec = qubit_z()
    plus = from_matrix(space, pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0)))
    updated = update_state(plus, spec.outcomes["1"])
    assert inner(unit_element(space), updated) == pytest.approx(1.0, abs=1e-12)
    target = matrix_to_coords(np.diag([1.0, 0.0]))
    assert np.abs(updated.coords - target).max() < 1e-12


def test_conditioned_probability_ratio():
    space = uniform(2)
    b = Element(space, np.array([0.25, 0.75]))
    m_in = OperationMap(space, np.diag([1.0, 0.0]), "selective")
    m_star = identity_operation(space)
    p = conditioned_probability(b, unit_element(space), m_in, m_star)
    assert p == pytest.approx(0.25, abs=1e-14)


def test_run_sequence_two_qubit_measurements():
    # |0> gives the +1 outcome of Z with certainty, then either X outcome
    # with probability one half; joint weight one half
    space = make_quantum_space(2)
    z_spec, _ = spectral_measurement(
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex), space=space, name="Z"
    )
    x_spec, _ = spectral_measurement(
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), space=space, name="X"
    )
    b = from_matrix(space, pure_state(np.array([1.0, 0.0])))
    result = run_sequence(b, [(z_spec, "1"), (x_spec, "1")])
    assert result.probability == pytest.approx(0.5, abs=1e-12)
    # final state is |+><+|
    expect = matrix_to_coords(np.full((2, 2), 0.5))
    assert np.abs(result.final_state.coords - expect).max() < 1e-12
    assert [r.name for r in result.records] == ["Z", "X"]
    assert [r.conditional_probability for r in result.records] == pytest.approx(
        [1.0, 0.5], abs=1e-12
    )


def test_run_sequence_unobserved_step_applies_parent():
    # an unread Z between preparation and X measurement dephases |+>,
    # leaving X outcomes at one half instead of certainty
    space = make_quantum_space(2)
    z_spec, _ = spectral_measurement(
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex), space=space, name="Z"
    )
    x_spec, _ = spectral_measurement(
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), space=space, name="X"
    )
    plus = from_matrix(space, pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0)))
    direct = run_sequence(plus, [(x_spec, "1")])
    assert direct.probability == pytest.approx(1.0, abs=1e-12)
    dephased = run_sequence(plus, [(z_spec, UNOBSERVED), (x_spec, "1")])
    assert dephased.probability == pytest.approx(0.5, abs=1e-12)
    assert dephased.records[0].outcome == UNOBSERVED
    assert dephased.records[0].conditional_probability == 1.0


def test_run_sequence_zero_probability_branch():
    space, spec = qubit_z()
    b = from_matrix(space, pure_state(np.array([1.0, 0.0])))
    with pytest.raises(ZeroProbabilityError) as info:
        run_sequence(b, [(spec, "0")])
    assert "Z" in str(info.value)


def test_run_sequence_requires_normalized_input():
    space, spec = qubit_z()
    with pytest.raises(NotNormalizedError):
        run_sequence(
            from_matrix(space, np.diag([2.0, 0.0]).astype(complex)), [(spec, "1")]
        )


def test_run_sequence_classical_chain():
    # uniform three points: keep {0, 1} (2/3), shift by one, keep {1} (1/2)
    space = uniform(3)
    low = indicator_measurement(space, [0, 1], name="low")
    mid = indicator_measurement(space, [1], name="mid")
    group = EvolutionGroup(space, "permutation", permutation=(1, 2, 0))
    b = normalize_state(Element(space, np.ones(3)))
    result = run_sequence(
        b, [MeasureStep(low, "in"), EvolveStep(group, 1), MeasureStep(mid, "in")]
    )
    assert result.probability == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert np.abs(result.final_state.coords - np.array([0.0, 1.0, 0.0])).max() < 1e-12


def test_run_sequence_post_selection_factor():
    # |+> conditioned on the +1 outcome of Z becomes |0>; post-selecting on
    # cos(pi/6)|0> + sin(pi/6)|1> compares 3/4 against the unread branch 1/2
    space, spec = qubit_z()
    plus = from_matrix(space, pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0)))
    eta = from_matrix(
        space, pure_state(np.array([np.cos(np.pi / 6.0), np.sin(np.pi / 6.0)]))
    )
    result = run_sequence(plus, [(spec, "1")], post_selection=eta)
    assert result.probability == pytest.approx(0.75, abs=1e-12)
    assert result.records[-1].name == "post_selection"
    assert result.records[-1].conditional_probability == pytest.approx(1.5, abs=1e-12)


def test_run_sequence_post_selection_zero_reference():
    # reference branch annihilated by the post-selection state
    space, spec = qubit_z()
    b = from_matrix(space, pure_state(np.array([1.0, 0.0])))
    eta = from_matrix(space, pure_state(np.array([0.0, 1.0])))
    with pytest.raises(ZeroProbabilityError):
        run_sequence(b, [(spec, "1")], post_selection=eta)


def test_evolution_group_permutation_validation():
    space = uniform(3)
    with pytest.raises(InvalidEvolutionError):
        EvolutionGroup(space, "permutation", permutation=(0, 0, 1))
    skewed = make_classical_space(PhaseSpace(2, np.array([1.0, 2.0])))
    # the swap does not preserve an uneven measure
    with pytest.raises(InvalidEvolutionError):
        EvolutionGroup(skewed, "permutation", permutation=(1, 0))


def test_evolve_permutation_powers_and_inverse():
    space = uniform(4)
    group = EvolutionGroup(space, "permutation", permutation=(1, 2, 3, 0))
    x = Element(space, np.array([1.0, 2.0, 3.0, 4.0]))
    once = evolve(group, 1, x)
    assert np.abs(once.coords - np.array([4.0, 1.0, 2.0, 3.0])).max() == 0.0
    assert np.abs(evolve(group, 4, x).coords - x.coords).max() == 0.0
    assert np.abs(evolve(group, -1, once).coords - x.coords).max() == 0.0
    assert np.abs(evolve(group, 13, x).coords - evolve(group, 1, x).coords).max() == 0.0


def test_evolve_permutation_rejects_fractional_steps():
    space = uniform(3)
    group = EvolutionGroup(space, "permutation", permutation=(1, 2, 0))
    with pytest.raises(InvalidEvolutionError):
        evolve(group, 0.5, Element(space, np.ones(3)))


def test_evolve_hamiltonian_phase_oracle():
    # H = diag(1, -1), Delta = pi/2: U = diag(-i, i) sends |+><+| to |-><-|
    space = make_quantum_space(2)
    group = EvolutionGroup(
        space, "hamiltonian", hamiltonian=np.diag([1.0, -1.0]).astype(complex)
    )
    plus = from_matrix(space, pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0)))
    out = evolve(group, np.pi / 2.0, plus)
    minus = matrix_to_coords(np.array([[0.5, -0.5], [-0.5, 0.5]]))
    assert np.abs(out.coords - minus).max() < 1e-12


def test_evolution_group_law_and_trace():
    rng = np.random.default_rng(21)
    space = make_quantum_space(3)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (h + h.conj().T) / 2.0
    group = EvolutionGroup(space, "hamiltonian", hamiltonian=h)
    from convexop.hermitian import random_density

    b = from_matrix(space, random_density(3, rng))
    s, t = 0.37, -1.24
    lhs = evolve(group, s + t, b)
    rhs = evolve(group, t, evolve(group, s, b))
    assert np.abs(lhs.coords - rhs.coords).max() < 1e-12
    assert inner(unit_element(space), lhs) == pytest.approx(1.0, abs=1e-12)


def test_evolution_operation_matches_evolve():
    space = make_quantum_space(2)
    h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    group = EvolutionGroup(space, "hamiltonian", hamiltonian=h)
    op = evolution_operation(group, 0.7)
    assert op.selectivity == "nonselective"
    assert is_nonselective(op)
    rng = np.random.default_rng(23)
    from convexop.hermitian import random_density

    for _ in range(5):
        b = from_matrix(space, random_density(2, rng))
        assert np.abs(
            apply_operation(op, b).coords - evolve(group, 0.7, b).coords
        ).max() < 1e-12


def test_evolution_operation_permutation_matrix():
    space = uniform(3)
    group = EvolutionGroup(space, "permutation", permutation=(1, 2, 0))
    op = evolution_operation(group, 1)
    x = Element(space, np.array([1.0, 2.0, 3.0]))
    assert np.abs(
        apply_operation(op, x).coords - evolve(group, 1, x).coords
    ).max() == 0.0


def test_check_positivity_sampled_accepts_and_rejects():
    space = uniform(2)
    rng = np.random.default_rng(29)
    assert check_positivity_sampled(identity_operation(space), rng, samples=50)
    sign_flip = OperationMap(space, np.diag([1.0, -1.0]))
    assert not check_positivity_sampled(sign_flip, rng, samples=50)


def test_measurement_parent_defaults_to_outcome_sum():
    space = uniform(3)
    rng = np.random.default_rng(31)
    ops = {k: OperationMap(space, rng.uniform(size=(3, 3)), "selective") for k in "abc"}
    spec = MeasurementSpec("m", ops)
    assert spec.parent.selectivity == "nonselective"
    assert np.array_equal(
        spec.parent.matrix, ops["a"].matrix + ops["b"].matrix + ops["c"].matrix
    )
    assert completeness_gap(spec)[0] == 0.0


def test_measurement_outcome_in_other_space_is_rejected():
    # the default parent is built only after every outcome is checked, so
    # outcomes of different sizes give a space error, not a numpy one
    small = OperationMap(uniform(2), np.diag([1.0, 0.0]), "selective")
    large = OperationMap(uniform(3), np.diag([0.0, 1.0, 1.0]), "selective")
    with pytest.raises(SpaceMismatchError):
        MeasurementSpec("m", {"a": small, "b": large})


def test_evolve_step_rejects_fractional_permutation_time():
    group = EvolutionGroup(uniform(2), "permutation", permutation=(1, 0))
    with pytest.raises(InvalidEvolutionError, match="integer steps, got 0.5"):
        EvolveStep(group, 0.5)
    assert EvolveStep(group, 2.0).delta == 2.0
