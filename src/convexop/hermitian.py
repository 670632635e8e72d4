"""Orthonormal Hermitian matrix bases and real-coordinate conversions.

Self-adjoint ``d x d`` matrices form a real vector space of dimension
``d**2``.  This module fixes one orthonormal basis of that space (identity
over ``sqrt(d)`` followed by normalized generalized Gell-Mann matrices) so
that the Hilbert-Schmidt inner product ``tr(a b)`` becomes the plain dot
product of real coordinate vectors.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import SpaceMismatchError

HERMITICITY_TOL = 1e-12


@lru_cache(maxsize=None)
def hermitian_basis(d: int) -> np.ndarray:
    """Return an orthonormal basis of the Hermitian ``d x d`` matrices.

    The basis has shape ``(d**2, d, d)`` and satisfies
    ``tr(B_a B_b) = delta_ab``.  Ordering: ``identity/sqrt(d)``, then the
    symmetric off-diagonal elements ``(E_jk + E_kj)/sqrt(2)`` for ``j < k``
    in lexicographic order, then the antisymmetric ones
    ``(-i E_jk + i E_kj)/sqrt(2)``, then the traceless diagonal elements.
    """
    if d < 1:
        raise ValueError("matrix dimension must be positive")
    basis = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2)
            basis.append(sym)
    for j in range(d):
        for k in range(j + 1, d):
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k] = -1j / np.sqrt(2)
            anti[k, j] = 1j / np.sqrt(2)
            basis.append(anti)
    for ell in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        diag[np.arange(ell), np.arange(ell)] = 1.0
        diag[ell, ell] = -float(ell)
        basis.append(diag / np.sqrt(ell * (ell + 1)))
    out = np.stack(basis, axis=0)
    out.setflags(write=False)
    return out


def require_hermitian(mat: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate Hermiticity and return the matrix as a complex array."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SpaceMismatchError(f"expected a square matrix, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()) if mat.size else 0.0)
    if np.abs(mat - mat.conj().T).max() > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return mat


def matrix_to_coords(mat: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Real coordinates ``tr(B_a m)`` of a Hermitian matrix."""
    return np.real(complex_coords(require_hermitian(mat, tol)))


def coords_to_matrix(coords: np.ndarray) -> np.ndarray:
    """Hermitian matrix with the given real coordinates."""
    coords = np.asarray(coords, dtype=float)
    d = int(round(np.sqrt(coords.size)))
    if d * d != coords.size:
        raise SpaceMismatchError(f"coordinate length {coords.size} is not a square")
    return np.einsum("a,aij->ij", coords, hermitian_basis(d))


def kraus_matrix(ops: np.ndarray) -> np.ndarray:
    """Real matrix on coordinates of the map ``b -> sum_r K_r b K_r^dagger``.

    ``ops`` stacks the Kraus operators with shape ``(r, d, d)``; a unitary
    conjugation is the case of one operator.
    """
    basis = hermitian_basis(ops.shape[-1])
    images = np.einsum("rij,ajk,rlk->ail", ops, basis, ops.conj())
    return np.real(np.einsum("pij,aji->pa", basis, images))


def complex_coords(mat: np.ndarray) -> np.ndarray:
    """Complex expansion coefficients ``tr(B_a m)`` of an arbitrary matrix.

    Extends the real coordinate map complex-linearly to non-Hermitian
    matrices; used when a real-linear map on coordinates has to act on
    matrix units.
    """
    mat = np.asarray(mat, dtype=complex)
    d = mat.shape[0]
    return np.einsum("aij,ji->a", hermitian_basis(d), mat)


def random_hermitian(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """A random Hermitian matrix with Gaussian entries."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (g + g.conj().T) / 2.0


def random_psd(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """A random positive semidefinite matrix ``X X^dagger``."""
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (x @ x.conj().T) / d


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """A random density matrix (PSD with unit trace)."""
    p = random_psd(d, rng)
    return p / np.trace(p).real


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-ish random unitary from the QR decomposition of a Ginibre matrix."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
