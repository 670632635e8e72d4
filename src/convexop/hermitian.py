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
(:func:`basis_expand`) and once by basis element (:func:`complex_coords`).
A contraction adds the terms of each output entry in increasing basis index,
starting from zero: one vector add per level, where level ``k`` holds the
``k``-th term of every output entry, and there are at most ``d`` levels.
That is the order in which a dense sum over the basis adds its nonzero
terms.  Each basis entry is real or imaginary, so a product with it is
one rounding whatever the multiply routine, and :func:`coords_to_matrix`,
:func:`complex_coords` and the Choi matrix of ``quantum.choi_cp_check``
give the same bits as the dense sums.  :func:`kraus_matrix` does too for
a single operator; with more, it sums over the operators in another
order, within about ``1e-16`` of the dense sum relative to its scale.

The contractions work in complex buffers held per thread (a
``threading.local``).  Each buffer grows to the largest request its thread
has made and is then reused, never shrunk or freed, so a warm kernel
allocates no array of a contraction's size but the one it hands out.
With ``n = (5 d**2 - d - 2) / 2`` basis nonzeros, a superoperator at
dimension ``d`` uses ``rows``, ``sums`` and ``stage`` of ``d**4`` entries
and ``gathered`` of ``n d**2``: ``16 (3 d**4 + n d**2)`` bytes, 0.87 MB at
d=10 and 5.7 MB at d=16.  :func:`kraus_matrix` with ``r`` operators adds
``terms`` of ``n d**2`` entries and ``left`` and ``right`` of ``n r d``;
it allocates only arrays of ``r d**2`` entries, the conjugated operators
and the copies in gather order that ``take`` makes.  Ownership:
:func:`coords_to_matrix`, :func:`complex_coords`, :func:`basis_expand` and
:func:`kraus_matrix` return new arrays that the caller owns;
``quantum.kraus_operation`` and ``unitary_operation`` hand the one from
:func:`kraus_matrix` to their map, which keeps it without a copy, so a map
costs one array of ``d**4`` reals.  :func:`choi_scratch` returns a view of
the workspace, valid until the thread's next kernel call, which
``quantum.choi_cp_check`` copies into its report.  No other array leaves
the workspace.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

from .errors import SpaceMismatchError

__all__ = [
    "coords_to_matrix",
    "hermitian_basis",
    "matrix_to_coords",
    "random_density",
    "random_hermitian",
    "random_psd",
    "random_unitary",
    "require_hermitian",
]

HERMITICITY_TOL = 1e-12

_workspace = threading.local()


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
    if not mat.size:
        raise ValueError("matrix dimension must be positive")
    scale = max(1.0, float(np.abs(mat).max()))
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


def _scratch(name: str, shape: tuple) -> np.ndarray:
    """A complex ``shape`` view of this thread's workspace buffer ``name``.

    The buffer grows to the largest request it has seen and is kept, so a
    kernel called again at the same or a smaller ``d`` allocates nothing.
    """
    size = math.prod(shape)
    buffer = _workspace.__dict__.get(name)
    if buffer is None or buffer.size < size:
        buffer = _workspace.__dict__[name] = np.empty(size, dtype=complex)
    return buffer[:size].reshape(shape)


def _contract(d: int, expand: bool, term, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over the basis nonzeros: ``out[target] = sum term(source, value)``.

    ``term`` maps the sources and values of all nonzeros to the stacked
    terms; the result has ``d**2`` rows, each the sum of its terms in
    increasing basis index, starting from zero.  It is written to ``out``,
    a C-ordered complex array, or to a new array.
    """
    source, value, sizes, slot = _nonzeros(d, expand)
    terms = term(source, value)
    sums = _scratch("sums", (d * d,) + terms.shape[1:])
    # every output has a first term, so level 0 fills all of them
    np.add(0j, terms[:sizes[0]], out=sums)
    lo = sizes[0]
    for size in sizes[1:]:
        sums[:size] += terms[lo:lo + size]
        lo += size
    # the indices are in range, and "raise" would copy into a buffered out
    return sums.take(slot, axis=0, out=out, mode="clip")


def _linear(x: np.ndarray, d: int, expand: bool, out: np.ndarray | None = None) -> np.ndarray:
    if x.dtype != complex or not x.flags.c_contiguous:
        # the cast that a product with the complex basis values would make
        rows = _scratch("rows", x.shape)
        np.copyto(rows, x)
        x = rows
    rows = x.reshape(d * d, -1)

    def term(source, value):
        shape = (source.size, rows.shape[1])
        gathered = rows.take(source, axis=0, out=_scratch("gathered", shape), mode="clip")
        return np.multiply(gathered, value[:, None], out=gathered)

    return _contract(d, expand, term, out)


def basis_expand(coords: np.ndarray) -> np.ndarray:
    """``sum_a coords[a] B_a``: ``(d**2, ...)`` to ``(d, d, ...)``."""
    d = math.isqrt(coords.shape[0])
    return _linear(coords, d, True).reshape((d, d) + coords.shape[1:])


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
    r, d = ops.shape[0], ops.shape[-1]
    # columns[i, r] = K_r[:, i]
    columns = np.asarray(ops, dtype=complex).transpose(2, 0, 1)
    conjugates = columns.conj()

    def image(source, value):
        # value * K_r[:, i] K_r[:, j]^dagger for the nonzero B_a[i, j], summed
        # over r; (K value) K^* is the dense sum's order of multiplication.
        # With the nonzero index first in memory, einsum reads its operands
        # without buffers of its own
        shape = (source.size, r, d)
        left = columns.take(source % d, axis=0, out=_scratch("left", shape), mode="clip")
        np.multiply(left, value[:, None, None], out=left)
        right = conjugates.take(source // d, axis=0, out=_scratch("right", shape), mode="clip")
        return np.einsum("lrx,lry->lxy", left, right, out=_scratch("terms", (source.size, d, d)))

    images = _contract(d, False, image, _scratch("stage", (d * d, d, d)))
    # the pairing reads the images from a copy in "rows" and then overwrites them
    pairs = _linear(images.transpose(1, 2, 0), d, False, images.reshape(d * d, d * d))
    return pairs.real.copy()


def choi_scratch(matrix: np.ndarray) -> np.ndarray:
    """Choi matrix of the map with ``matrix`` on real coordinates, in the
    calling thread's workspace: the next kernel call on the thread
    overwrites it, so copy what is kept.

    The map extends complex-linearly to all matrices; the Choi matrix is
    the ``d**2 x d**2`` block matrix of the images of the matrix units.  A
    real map gives a Hermitian Choi matrix, and it is returned as the mean
    with its conjugate transpose, so that the triangle an eigensolver reads
    agrees with the other.
    """
    d = math.isqrt(matrix.shape[0])
    stage = _scratch("stage", (d * d, d * d))
    # images[(i, j), a]: the image of each storage basis element B_a
    images = _linear(matrix, d, True, stage)
    # units[(j, i), (k, l)]: the image of the matrix unit E_ij, using the
    # complex expansion E_ij = sum_a B_a[j, i] B_a; the expansion reads the
    # images from a copy in "rows", so they can be overwritten
    units = _linear(images.T, d, True, stage)
    choi = _scratch("rows", stage.shape)
    np.copyto(choi.reshape(d, d, d, d), units.reshape(d, d, d, d).transpose(2, 1, 3, 0))
    mean = np.conjugate(choi.T, out=stage)
    np.add(choi, mean, out=mean)
    # "*= 0.5" differs where an overflowed map left inf beside NaN
    return np.divide(mean, 2.0, out=mean)


def complex_coords(mat: np.ndarray) -> np.ndarray:
    """Complex expansion coefficients ``tr(B_a m)`` of an arbitrary matrix.

    Extends the real coordinate map complex-linearly to non-Hermitian
    matrices; used when a real-linear map on coordinates has to act on
    matrix units.
    """
    mat = np.asarray(mat, dtype=complex)
    return _linear(mat, mat.shape[0], False).reshape(-1)


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
