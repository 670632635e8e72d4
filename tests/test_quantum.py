"""Quantum model: Born weights, state update, channels, integrators."""

import numpy as np
import pytest

from convexop.errors import (
    NotNormalizedError,
    NotProjectorError,
    ZeroProbabilityError,
    ZeroStateError,
)
from convexop.hermitian import (
    matrix_to_coords,
    random_density,
    random_hermitian,
    random_unitary,
)
from convexop.operational import apply_operation, is_nonselective, predict
from convexop.quantum import (
    KrausSet,
    StateVector,
    apply_kraus,
    born,
    born_pure,
    choi_cp_check,
    from_matrix,
    hamiltonian_evolution,
    kraus_nonselective_check,
    kraus_operation,
    liouville_integrate,
    luders,
    luders_pure,
    make_quantum_space,
    pure_state,
    schrodinger_integrate,
    spectral_measurement,
    to_matrix,
    unitary_operation,
)
from convexop.spaces import Element, inner, unit_element
from convexop.operational import evolution_operation, evolve, propagator


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def test_space_round_trip():
    space = make_quantum_space(3)
    rng = np.random.default_rng(1)
    mat = random_hermitian(3, rng)
    assert np.abs(to_matrix(from_matrix(space, mat)) - mat).max() < 1e-13


def test_pure_state_normalizes_and_rejects_zero():
    rho = pure_state(np.array([2.0, 0.0]))
    assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-15
    with pytest.raises(ZeroStateError):
        pure_state(np.zeros(2))


def test_state_vector_requires_unit_norm():
    StateVector(2, np.array([1.0, 0.0]))
    with pytest.raises(NotNormalizedError):
        StateVector(2, np.array([1.0, 1.0]))


def test_born_matches_pure_overlap():
    # tr(|eta><eta| |psi><psi|) = |<eta|psi>|^2
    rng = np.random.default_rng(2)
    space = make_quantum_space(3)
    for _ in range(10):
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        eta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        eta /= np.linalg.norm(eta)
        proj = np.outer(eta, eta.conj())
        b = from_matrix(space, pure_state(psi))
        assert born(b, proj) == pytest.approx(born_pure(psi, eta), abs=1e-12)


def test_born_requires_projector():
    space = make_quantum_space(2)
    b = from_matrix(space, np.eye(2, dtype=complex) / 2.0)
    with pytest.raises(NotProjectorError):
        born(b, np.diag([2.0, 0.0]).astype(complex))


def test_luders_repeatability_and_weight():
    rng = np.random.default_rng(3)
    space = make_quantum_space(3)
    u = random_unitary(3, rng)
    proj = u[:, :2] @ u[:, :2].conj().T  # rank-two projector
    b = from_matrix(space, random_density(3, rng))
    once = luders(b, proj)
    assert born(once, proj) == pytest.approx(1.0, abs=1e-12)
    twice = luders(once, proj)
    assert np.abs(once.coords - twice.coords).max() < 1e-12
    assert inner(unit_element(space), once) == pytest.approx(1.0, abs=1e-12)


def test_luders_zero_weight_rejected():
    space = make_quantum_space(2)
    b = from_matrix(space, np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(ZeroProbabilityError):
        luders(b, np.diag([0.0, 1.0]).astype(complex))


def test_luders_pure_phase_convention():
    # projecting (|0> + |1>)/sqrt2 onto span{|0>} gives |0> with a real
    # nonnegative leading amplitude
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    out = luders_pure(psi, np.diag([1.0, 0.0]).astype(complex))
    assert np.abs(out.amplitudes - np.array([1.0, 0.0])).max() < 1e-12
    # a global phase on the input does not change the output
    out2 = luders_pure(np.exp(0.7j) * psi, np.diag([1.0, 0.0]).astype(complex))
    assert np.abs(out.amplitudes - out2.amplitudes).max() < 1e-12


def test_spectral_measurement_orders_labels_by_eigenvalue():
    space = make_quantum_space(2)
    spec, dec = spectral_measurement(PAULI_Z, space=space, name="Z")
    assert dec.eigenvalues == pytest.approx((-1.0, 1.0))
    # label "0" belongs to the lowest eigenvalue -1, projector |1><1|
    assert np.abs(dec.projectors[0] - np.diag([0.0, 1.0])).max() < 1e-12
    b = from_matrix(space, np.diag([1.0, 0.0]).astype(complex))
    assert predict(b, spec, "1") == pytest.approx(1.0, abs=1e-12)


def test_spectral_measurement_clusters_degenerate_levels():
    # a 1e-12 split is below the default gap and must merge into one level
    h = np.diag([1.0, 1.0 + 1e-12, 2.0]).astype(complex)
    spec, dec = spectral_measurement(h)
    assert len(dec.eigenvalues) == 2
    assert np.abs(dec.projectors[0] - np.diag([1.0, 1.0, 0.0])).max() < 1e-9
    assert sorted(spec.outcomes) == ["0", "1"]


def test_spectral_parent_is_dephasing():
    space = make_quantum_space(2)
    spec, _ = spectral_measurement(PAULI_Z, space=space, name="Z")
    plus = from_matrix(space, pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0)))
    dephased = apply_operation(spec.parent, plus)
    assert np.abs(to_matrix(dephased) - np.diag([0.5, 0.5])).max() < 1e-12
    assert is_nonselective(spec.parent)


def test_apply_kraus_unitary_conjugation():
    rng = np.random.default_rng(5)
    space = make_quantum_space(2)
    u = random_unitary(2, rng)
    rho = random_density(2, rng)
    out = apply_kraus(KrausSet((u,)), from_matrix(space, rho))
    assert np.abs(to_matrix(out) - u @ rho @ u.conj().T).max() < 1e-12


def test_kraus_nonselective_criterion_is_operator_identity():
    # amplitude damping sums K^dag K to the identity for every gamma
    gamma = 0.3
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    assert kraus_nonselective_check(KrausSet((k0, k1)))
    # dropping one operator leaves only the trace condition intact on some
    # states, not the operator identity
    assert not kraus_nonselective_check(KrausSet((k0,)))


def test_kraus_operation_selectivity_inferred():
    gamma = 0.3
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    space = make_quantum_space(2)
    op = kraus_operation(space, KrausSet((k0, k1)))
    assert op.selectivity == "nonselective"
    assert is_nonselective(op)
    half = kraus_operation(space, KrausSet((k0,)))
    assert half.selectivity == "selective"


def test_choi_identity_channel():
    space = make_quantum_space(2)
    from convexop.operational import identity_operation

    report = choi_cp_check(identity_operation(space))
    assert report.is_cp
    # Choi of the identity is the rank-one maximally entangled projector
    # scaled to trace d: eigenvalues {2, 0, 0, 0}
    eigs = np.sort(np.linalg.eigvalsh(report.choi))
    assert np.abs(eigs - np.array([0.0, 0.0, 0.0, 2.0])).max() < 1e-12
    assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_choi_transpose_is_not_cp():
    # the transpose map has the swap as its Choi matrix, eigenvalues
    # {1, 1, 1, -1}
    space = make_quantum_space(2)
    flip = np.diag([1.0, 1.0, -1.0, 1.0])  # negates the antisymmetric coordinate
    from convexop.operational import OperationMap

    report = choi_cp_check(OperationMap(space, flip))
    assert not report.is_cp
    assert report.min_eigenvalue == pytest.approx(-1.0, abs=1e-10)
    eigs = np.sort(np.linalg.eigvalsh(report.choi))
    assert np.abs(eigs - np.array([-1.0, 1.0, 1.0, 1.0])).max() < 1e-10
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    assert np.abs(report.choi - swap).max() < 1e-10


def test_choi_full_depolarizing():
    # K = {I, X, Y, Z} / 2 sends every state to I/2; Choi = I/2
    space = make_quantum_space(2)
    kraus = KrausSet(tuple(k / 2.0 for k in (np.eye(2, dtype=complex),
                                             PAULI_X, PAULI_Y, PAULI_Z)))
    op = kraus_operation(space, kraus)
    report = choi_cp_check(op)
    assert report.is_cp
    eigs = np.linalg.eigvalsh(report.choi)
    assert np.abs(eigs - 0.5).max() < 1e-12


def test_choi_random_kraus_channels_are_cp():
    rng = np.random.default_rng(6)
    space = make_quantum_space(2)
    for _ in range(20):
        ops = tuple(
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(3)
        )
        report = choi_cp_check(kraus_operation(space, KrausSet(ops), "selective"))
        assert report.min_eigenvalue > -1e-10


def test_unitary_operation_checks_unitarity():
    space = make_quantum_space(2)
    with pytest.raises(ValueError):
        unitary_operation(space, np.diag([1.0, 2.0]).astype(complex))
    op = unitary_operation(space, PAULI_X)
    b = from_matrix(space, np.diag([1.0, 0.0]).astype(complex))
    assert np.abs(to_matrix(apply_operation(op, b)) - np.diag([0.0, 1.0])).max() < 1e-12


def test_hamiltonian_evolution_convenience():
    group = hamiltonian_evolution(PAULI_Z)
    assert group.space.psd_dim == 2
    assert group.kind == "hamiltonian"


def test_liouville_integrator_tracks_exact_path():
    rng = np.random.default_rng(7)
    space = make_quantum_space(2)
    h = random_hermitian(2, rng)
    b0 = from_matrix(space, random_density(2, rng))
    group = hamiltonian_evolution(h, space)
    exact = evolve(group, 1.0, b0)
    approx = liouville_integrate(h, b0, 1.0, dt=1e-3)
    assert np.abs(approx.coords - exact.coords).max() < 1e-6
    assert inner(unit_element(space), approx) == pytest.approx(1.0, abs=1e-9)


def test_schrodinger_integrator_tracks_exact_path():
    rng = np.random.default_rng(8)
    h = random_hermitian(2, rng)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    w, v = np.linalg.eigh(h)
    exact = v @ (np.exp(-1j * w) * (v.conj().T @ psi0))
    approx = schrodinger_integrate(h, psi0, 1.0, dt=1e-3)
    assert np.abs(approx - exact).max() < 1e-6


def test_integrator_consistency_pure_vs_density():
    # integrating the amplitudes and the density matrix must agree
    rng = np.random.default_rng(9)
    space = make_quantum_space(2)
    h = random_hermitian(2, rng)
    psi0 = np.array([0.6, 0.8], dtype=complex)
    psi_t = schrodinger_integrate(h, psi0, 0.5)
    rho_t = liouville_integrate(h, from_matrix(space, pure_state(psi0)), 0.5)
    assert np.abs(to_matrix(rho_t) - pure_state(psi_t)).max() < 1e-6


def test_integrator_rejects_bad_steps():
    space = make_quantum_space(2)
    b = from_matrix(space, np.eye(2, dtype=complex) / 2.0)
    with pytest.raises(ValueError):
        liouville_integrate(PAULI_Z, b, 1.0, dt=0.0)
    with pytest.raises(ValueError):
        liouville_integrate(PAULI_Z, b, -1.0)


def test_unitary_and_evolution_maps_are_one_operator_kraus_maps():
    rng = np.random.default_rng(41)
    space = make_quantum_space(3)
    u = random_unitary(3, rng)
    single = kraus_operation(space, KrausSet((u,))).matrix
    assert np.abs(unitary_operation(space, u).matrix - single).max() < 1e-12
    h = random_hermitian(3, rng)
    step = kraus_operation(space, KrausSet((propagator(h, 0.6),))).matrix
    group = hamiltonian_evolution(h, space)
    assert np.abs(evolution_operation(group, 0.6).matrix - step).max() < 1e-12
