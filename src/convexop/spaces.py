"""Finite-dimensional ordered vector spaces with a fixed inner product.

A :class:`ModelSpace` bundles the data every model shares: real storage
coordinates for its elements, a Gram matrix for the inner product, a positive
cone singling out the elements that count as states, and an order unit playing
the role of the state of maximal uncertainty.  Classical and quantum models
differ only in the cone kind and metric they install here.

Two cone kinds are decidable: ``componentwise`` (functions on a finite set,
nonnegative pointwise) and ``psd`` (real coordinates of Hermitian matrices in
an orthonormal basis, positive semidefinite in matrix form).  Tensor products
of mixed kinds get the ``product`` kind, for which membership queries are
deliberately refused rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    NotInConeError,
    SpaceMismatchError,
    UnsupportedSpaceError,
    ZeroStateError,
)
from .hermitian import coords_to_matrix, matrix_to_coords, random_psd

DEFAULT_TOL = 1e-9

CONE_KINDS = ("componentwise", "psd", "product")


def scaled_tol(tol: float, coords: np.ndarray) -> float:
    """Tolerance scaled by the max-norm of ``coords``, floored at ``tol``.

    All positivity and normalization decisions use this relative policy so
    that large elements are not held to an absolute threshold.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    peak = float(np.abs(coords).max()) if coords.size else 0.0
    return tol * max(1.0, peak)


@dataclass(frozen=True, eq=False)
class ModelSpace:
    """An ordered real vector space with inner product and order unit.

    Parameters
    ----------
    space_id : str
        Identifier used to match elements, probes, and operations.  Copies
        of one space under different identifiers (time slices) are made with
        :meth:`with_id`.
    dim : int
        Real dimension of the space.
    metric : array_like
        Symmetric positive-definite ``dim x dim`` Gram matrix of the inner
        product in the storage basis.
    cone_kind : str
        One of ``"componentwise"``, ``"psd"``, ``"product"``.
    unit : array_like
        Storage coordinates of the order unit ``e``.
    psd_dim : int, optional
        Matrix size ``d`` for the psd cone; requires ``dim == d**2``.
    """

    space_id: str
    dim: int
    metric: np.ndarray
    cone_kind: str
    unit: np.ndarray
    psd_dim: int | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("space dimension must be positive")
        metric = np.array(self.metric, dtype=float)
        unit = np.array(self.unit, dtype=float)
        if metric.shape != (self.dim, self.dim):
            raise SpaceMismatchError(
                f"metric shape {metric.shape} does not fit dimension {self.dim}"
            )
        if unit.shape != (self.dim,):
            raise SpaceMismatchError(
                f"unit length {unit.shape} does not fit dimension {self.dim}"
            )
        scale = max(1.0, float(np.abs(metric).max()))
        if np.abs(metric - metric.T).max() > 1e-12 * scale:
            raise ValueError("metric must be symmetric")
        try:  # the factor exists iff positive definite, but LAPACK passes a NaN
            if np.isnan(np.linalg.cholesky(metric)).any():
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            raise ValueError("metric must be positive definite") from None
        if self.cone_kind == "componentwise":
            if self.psd_dim is not None:
                raise ValueError("psd_dim only applies to the psd cone kind")
            if float(unit.min()) <= 0.0:
                raise ValueError("componentwise order unit must be strictly positive")
        elif self.cone_kind == "psd":
            if self.psd_dim is None or self.psd_dim ** 2 != self.dim:
                raise ValueError("psd cone requires dim equal to psd_dim squared")
            if np.abs(metric - np.eye(self.dim)).max() > 1e-12:
                raise ValueError(
                    "psd spaces store coordinates in an orthonormal basis; "
                    "metric must be the identity"
                )
            unit_eigs = np.linalg.eigvalsh(coords_to_matrix(unit))
            if float(unit_eigs.min()) <= 0.0:
                raise ValueError("psd order unit must be strictly positive definite")
        elif self.cone_kind != "product":
            raise ValueError(f"unknown cone kind {self.cone_kind!r}")
        metric.setflags(write=False)
        unit.setflags(write=False)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "unit", unit)

    def with_id(self, space_id: str) -> "ModelSpace":
        """Copy of this space under a new identifier (a relabeled time slice)."""
        return replace(self, space_id=space_id)

    def __repr__(self) -> str:  # short form, metric omitted
        kind = self.cone_kind
        if self.cone_kind == "psd":
            kind = f"psd({self.psd_dim})"
        return f"ModelSpace({self.space_id!r}, dim={self.dim}, cone={kind})"


@dataclass(frozen=True, eq=False)
class Element:
    """A vector in a :class:`ModelSpace`, held as real storage coordinates."""

    space: ModelSpace
    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = np.array(self.coords, dtype=float)
        if coords.shape != (self.space.dim,):
            raise SpaceMismatchError(
                f"coordinate shape {coords.shape} does not match dimension "
                f"{self.space.dim} of space {self.space.space_id!r}"
            )
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def __add__(self, other: "Element") -> "Element":
        require_same_space(self.space, other.space)
        return Element(self.space, self.coords + other.coords)

    def __sub__(self, other: "Element") -> "Element":
        require_same_space(self.space, other.space)
        return Element(self.space, self.coords - other.coords)

    def __mul__(self, factor: float) -> "Element":
        return Element(self.space, self.coords * float(factor))

    __rmul__ = __mul__

    def __neg__(self) -> "Element":
        return Element(self.space, -self.coords)

    def __repr__(self) -> str:
        return f"Element({self.space.space_id!r}, {np.array2string(self.coords, precision=6)})"


def same_structure(a: ModelSpace, b: ModelSpace) -> bool:
    """Whether two spaces agree up to the identifier (relabeled time slices do)."""
    return (
        a.dim == b.dim
        and a.cone_kind == b.cone_kind
        and a.psd_dim == b.psd_dim
        and np.array_equal(a.metric, b.metric)
        and np.array_equal(a.unit, b.unit)
    )


def same_space(a: ModelSpace, b: ModelSpace) -> bool:
    """Whether two space values describe the same space, identifier included."""
    return a is b or (a.space_id == b.space_id and same_structure(a, b))


def require_same_space(a: ModelSpace, b: ModelSpace) -> None:
    if not same_space(a, b):
        raise SpaceMismatchError(
            f"elements live in different spaces: {a.space_id!r} vs {b.space_id!r}"
        )


def zero_element(space: ModelSpace) -> Element:
    return Element(space, np.zeros(space.dim))


def unit_element(space: ModelSpace) -> Element:
    """The order unit of the space as an element."""
    return Element(space, space.unit)


def inner(b: Element, c: Element) -> float:
    """Inner product of two elements of the same space.

    Symmetric and bilinear; on pairs of cone elements it is nonnegative for
    both supported cone kinds.
    """
    require_same_space(b.space, c.space)
    return float(b.coords @ (b.space.metric @ c.coords))


def cone_margin(b: Element) -> float:
    """How far inside the cone ``b`` lies; it is in the cone iff this is >= 0.

    componentwise: the least coordinate; psd: the least eigenvalue of the
    matrix form.  Product spaces refuse the query, since deciding membership
    in a tensor-product cone with a psd factor is outside what this library
    commits to.
    """
    kind = b.space.cone_kind
    if kind == "componentwise":
        return float(b.coords.min())
    if kind == "psd":
        return float(np.linalg.eigvalsh(coords_to_matrix(b.coords)).min())
    raise UnsupportedSpaceError(
        "cone membership is only decided for componentwise and psd spaces, "
        f"not for {b.space.space_id!r}"
    )


def is_positive(b: Element, tol: float = DEFAULT_TOL) -> bool:
    """Cone membership up to the scaled tolerance: ``cone_margin(b) >= -tol``."""
    eff = scaled_tol(tol, b.coords)
    return cone_margin(b) >= -eff


def leq(b: Element, c: Element, tol: float = DEFAULT_TOL) -> bool:
    """Partial order: ``b <= c`` iff ``c - b`` lies in the cone."""
    require_same_space(b.space, c.space)
    return is_positive(c - b, tol)


def order_unit_lambda(b: Element, tol: float = DEFAULT_TOL) -> float:
    """Least ``lam >= 0`` with ``b <= lam * e`` for a cone element ``b``.

    componentwise: the largest ratio of coordinate to unit entry; psd: the
    largest eigenvalue, rescaled by the unit when it is not the identity.
    """
    if not is_positive(b, tol):
        raise NotInConeError(
            f"element of {b.space.space_id!r} is not in the cone"
        )
    kind = b.space.cone_kind
    if kind == "componentwise":
        lam = float(np.max(b.coords / b.space.unit))
    else:
        e_mat = coords_to_matrix(b.space.unit)
        b_mat = coords_to_matrix(b.coords)
        d = e_mat.shape[0]
        if np.abs(e_mat - np.eye(d)).max() <= 1e-12:
            lam = float(np.linalg.eigvalsh(b_mat).max())
        else:
            # whiten by the unit: least lam with lam*E - b psd
            w, v = np.linalg.eigh(e_mat)
            root_inv = (v / np.sqrt(w)) @ v.conj().T
            lam = float(np.linalg.eigvalsh(root_inv @ b_mat @ root_inv).max())
    return max(lam, 0.0)


def normalize_state(b: Element, tol: float = DEFAULT_TOL) -> Element:
    """Scale a nonzero cone element so that its pairing with ``e`` is one."""
    total = inner(unit_element(b.space), b)
    if total <= scaled_tol(tol, b.coords):
        raise ZeroStateError(
            "cannot normalize: pairing with the order unit is not positive"
        )
    return Element(b.space, b.coords / total)


def product_space(a: ModelSpace, b: ModelSpace) -> ModelSpace:
    """Tensor product space: Kronecker metric and unit.

    The product of two componentwise spaces is again componentwise (the
    nonnegative orthant is its own tensor product); any product involving a
    psd factor only records the factor structure implicitly and refuses
    membership queries.
    """
    if a.cone_kind == "componentwise" and b.cone_kind == "componentwise":
        kind = "componentwise"
    else:
        kind = "product"
    return ModelSpace(
        space_id=f"({a.space_id}*{b.space_id})",
        dim=a.dim * b.dim,
        metric=np.kron(a.metric, b.metric),
        cone_kind=kind,
        unit=np.kron(a.unit, b.unit),
    )


def tensor_element(b: Element, c: Element) -> Element:
    """Tensor product of two elements, living in the product space.

    Coordinates are the Kronecker product, so inner products factorize:
    the pairing of ``b (x) c`` with ``b' (x) c'`` equals the product of the
    factor pairings.
    """
    return Element(product_space(b.space, c.space), np.kron(b.coords, c.coords))


def sample_cone(
    space: ModelSpace, rng: np.random.Generator, scale: float = 1.0
) -> Element:
    """Draw a random cone element (componentwise or psd spaces only)."""
    if space.cone_kind == "componentwise":
        return Element(space, scale * rng.uniform(0.0, 1.0, size=space.dim))
    if space.cone_kind == "psd":
        return Element(space, matrix_to_coords(random_psd(space.psd_dim, rng, scale)))
    raise UnsupportedSpaceError(
        "cone sampling is only defined for componentwise and psd spaces"
    )
