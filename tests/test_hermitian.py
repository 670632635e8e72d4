"""Hermitian coordinate bridge: basis properties and round trips."""

import numpy as np
import pytest

from convexop.errors import SpaceMismatchError
from convexop.hermitian import (
    complex_coords,
    coords_to_matrix,
    hermitian_basis,
    matrix_to_coords,
    random_density,
    random_hermitian,
    random_psd,
    random_unitary,
    require_hermitian,
)
from convexop.quantum import (
    from_matrix,
    hamiltonian_evolution,
    make_quantum_space,
    spectral_measurement,
)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_basis_is_orthonormal(d):
    basis = hermitian_basis(d)
    assert basis.shape == (d * d, d, d)
    gram = np.einsum("aij,bji->ab", basis, basis)
    assert np.abs(gram - np.eye(d * d)).max() < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4])
def test_basis_elements_are_hermitian(d):
    basis = hermitian_basis(d)
    assert np.abs(basis - basis.conj().transpose(0, 2, 1)).max() < 1e-15


def test_first_basis_element_is_normalized_identity():
    basis = hermitian_basis(3)
    assert np.abs(basis[0] - np.eye(3) / np.sqrt(3)).max() < 1e-15


@pytest.mark.parametrize("d", [2, 3, 4])
def test_round_trip_matrix_coords(d):
    rng = np.random.default_rng(11)
    for _ in range(5):
        mat = random_hermitian(d, rng)
        coords = matrix_to_coords(mat)
        assert coords.dtype == np.float64
        back = coords_to_matrix(coords)
        assert np.abs(back - mat).max() < 1e-13


def test_coords_of_known_qubit_matrix():
    # [[1, 0], [0, 0]] = (1/sqrt2) I/sqrt2 + 0 sym + 0 antisym + (1/sqrt2) Z/sqrt2
    coords = matrix_to_coords(np.array([[1.0, 0.0], [0.0, 0.0]]))
    r = 1.0 / np.sqrt(2.0)
    assert np.abs(coords - np.array([r, 0.0, 0.0, r])).max() < 1e-15


def test_complex_coords_flags_non_hermitian_part():
    mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    coords = complex_coords(mat)
    assert np.abs(coords.imag).max() > 0.1


def test_require_hermitian_rejects_asymmetric():
    with pytest.raises(ValueError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_require_hermitian_rejects_non_square():
    with pytest.raises(SpaceMismatchError):
        require_hermitian(np.zeros((2, 3)))


def test_coords_to_matrix_rejects_bad_length():
    with pytest.raises(SpaceMismatchError):
        coords_to_matrix(np.zeros(5))


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(3)
    u = random_unitary(4, rng)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


def test_random_density_is_a_state():
    rng = np.random.default_rng(3)
    rho = random_density(3, rng)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_random_psd_is_psd():
    rng = np.random.default_rng(3)
    assert np.linalg.eigvalsh(random_psd(3, rng)).min() > -1e-12


def test_basis_is_cached_and_read_only():
    basis = hermitian_basis(2)
    assert hermitian_basis(2) is basis
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 1.0


EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize("call", [
    lambda: require_hermitian(EMPTY),
    lambda: from_matrix(make_quantum_space(1), EMPTY),
    lambda: spectral_measurement(EMPTY),
    lambda: hamiltonian_evolution(EMPTY),
], ids=["require_hermitian", "from_matrix", "spectral_measurement", "hamiltonian_evolution"])
def test_empty_matrix_has_the_library_message(call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == "matrix dimension must be positive"
