"""Orthonormal Hermitian matrix bases and real-coordinate conversions.

Self-adjoint ``d x d`` matrices form a real vector space of dimension
``d**2``.  This module fixes one orthonormal basis of that space (identity
over ``sqrt(d)`` followed by normalized generalized Gell-Mann matrices) so
that the Hilbert-Schmidt inner product ``tr(a b)`` becomes the plain dot
product of real coordinate vectors.

Every contraction against the basis runs over its nonzero entries only.
Each element has at most ``d`` of them and about ``2.5 d**2`` in all,
against the ``d**4`` entries of the dense ``(d**2, d, d)`` array.  Their
``(a, i, j, value)`` table is built from :func:`hermitian_basis` on first
use for each ``d`` and cached, once arranged by output matrix entry
(:func:`basis_expand`) and once by basis element (:func:`basis_pair`).  A
contraction adds the terms of each output entry in increasing basis index,
starting from zero: one vector add per level, where level ``k`` holds the
``k``-th term of every output entry, and there are at most ``d`` levels.
That is the order in which a dense sum over the basis adds its nonzero
terms.  Each basis entry is real or imaginary, so a product with it is
one rounding whatever the multiply routine, and :func:`coords_to_matrix`,
:func:`complex_coords` and the Choi matrix of ``quantum.choi_cp_check``
give the same bits as the dense sums.  :func:`kraus_matrix` does too for
a single operator; with more, it sums over the operators in another
order, within about ``1e-16`` of the dense sum relative to its scale.
"""

from __future__ import annotations

import math
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


def require_hermitian(mat: np.ndarray) -> np.ndarray:
    """Validate Hermiticity and return the matrix as a complex array."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SpaceMismatchError(f"expected a square matrix, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()) if mat.size else 0.0)
    # fails for a NaN entry, and for an inf one before the difference warns
    if not (scale < np.inf and np.abs(mat - mat.conj().T).max() <= HERMITICITY_TOL * scale):
        raise ValueError("matrix is not Hermitian within tolerance")
    return mat


@lru_cache(maxsize=None)
def _nonzeros(d: int, expand: bool) -> tuple:
    """``(source, value, sizes, slot)`` of the basis nonzeros, level by level.

    For ``expand`` the output is indexed by the matrix position ``i*d + j``
    and the source by the basis index; otherwise the output is indexed by
    the basis index and the source by the transposed position ``j*d + i``,
    as in the pairing ``tr(B_a m)``.  Outputs are stored in order of
    decreasing term count, output ``t`` in ``slot[t]``, so level ``k`` (the
    ``k``-th term of each output, counted in increasing basis index) fills
    the first ``sizes[k]`` slots.
    """
    basis = hermitian_basis(d)
    a, i, j = np.nonzero(basis)  # basis order, row-major within an element
    value = basis[a, i, j]
    target, source = (i * d + j, a) if expand else (a, j * d + i)
    # rank of each term among the terms of its output, in basis order
    by_target = np.argsort(target, kind="stable")
    first = np.searchsorted(target[by_target], target[by_target])
    rank = np.empty_like(by_target)
    rank[by_target] = np.arange(a.size) - first
    slot = np.empty(d * d, dtype=np.intp)
    slot[np.argsort(-np.bincount(target), kind="stable")] = np.arange(d * d)
    order = np.lexsort((slot[target], rank))
    source, value = source[order], value[order]
    for column in (source, value, slot):
        column.setflags(write=False)
    return source, value, tuple(np.bincount(rank).tolist()), slot


def _contract(d: int, expand: bool, term) -> np.ndarray:
    """Sum over the basis nonzeros: ``out[target] = sum term(source, value)``.

    ``term`` maps the sources and values of all nonzeros to the stacked
    terms; the result has ``d**2`` rows, each the sum of its terms in
    increasing basis index, starting from zero.
    """
    source, value, sizes, slot = _nonzeros(d, expand)
    terms = term(source, value)
    out = np.zeros((d * d,) + terms.shape[1:], dtype=complex)
    lo = 0
    for size in sizes:
        out[:size] += terms[lo:lo + size]
        lo += size
    return out[slot]


def _linear(x: np.ndarray, d: int, expand: bool) -> np.ndarray:
    rows = x.reshape(d * d, -1)
    return _contract(d, expand, lambda source, value: value[:, None] * rows[source])


def basis_expand(coords: np.ndarray) -> np.ndarray:
    """``sum_a coords[a] B_a``: ``(d**2, ...)`` to ``(d, d, ...)``."""
    d = math.isqrt(coords.shape[0])
    return _linear(coords, d, True).reshape((d, d) + coords.shape[1:])


def basis_pair(mats: np.ndarray) -> np.ndarray:
    """``tr(B_a m)`` for each ``m``: ``(d, d, ...)`` to ``(d**2, ...)``."""
    d = mats.shape[0]
    return _linear(mats, d, False).reshape((d * d,) + mats.shape[2:])


def matrix_to_coords(mat: np.ndarray) -> np.ndarray:
    """Real coordinates ``tr(B_a m)`` of a Hermitian matrix."""
    return np.real(complex_coords(require_hermitian(mat)))


def coords_to_matrix(coords: np.ndarray) -> np.ndarray:
    """Hermitian matrix with the given real coordinates."""
    coords = np.asarray(coords, dtype=float)
    d = math.isqrt(coords.size)
    if d * d != coords.size:
        raise SpaceMismatchError(f"coordinate length {coords.size} is not a square")
    return basis_expand(coords)


def kraus_matrix(ops: np.ndarray) -> np.ndarray:
    """Real matrix on coordinates of the map ``b -> sum_r K_r b K_r^dagger``.

    ``ops`` stacks the Kraus operators with shape ``(r, d, d)``; a unitary
    conjugation is the case of one operator.
    """
    d = ops.shape[-1]
    conj = ops.conj()

    def image(source, value):
        # value * K_r[:, i] K_r[:, j]^dagger for the nonzero B_a[i, j], summed
        # over r; (K value) K^* is the dense sum's order of multiplication
        i, j = source % d, source // d
        return np.einsum("rxl,ryl->lxy", ops[:, :, i] * value, conj[:, :, j])

    images = _contract(d, False, image)
    return np.real(basis_pair(images.transpose(1, 2, 0)))


def complex_coords(mat: np.ndarray) -> np.ndarray:
    """Complex expansion coefficients ``tr(B_a m)`` of an arbitrary matrix.

    Extends the real coordinate map complex-linearly to non-Hermitian
    matrices; used when a real-linear map on coordinates has to act on
    matrix units.
    """
    return basis_pair(np.asarray(mat, dtype=complex))


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    """A random Hermitian matrix with Gaussian entries."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def random_psd(d: int, rng: np.random.Generator) -> np.ndarray:
    """A random positive semidefinite matrix ``X X^dagger``."""
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (x @ x.conj().T) / d


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """A random density matrix (PSD with unit trace)."""
    p = random_psd(d, rng)
    return p / np.trace(p).real


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-ish random unitary from the QR decomposition of a Ginibre matrix."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
