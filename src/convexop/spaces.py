"""Finite-dimensional ordered vector spaces with a fixed inner product.

A :class:`ModelSpace` bundles the data every model shares: real storage
coordinates for its elements, a diagonal inner product held as a vector of
positive weights, a positive cone singling out the elements that count as
states, and an order unit playing the role of the state of maximal
uncertainty.  Classical and quantum models differ only in the cone kind and
weights they install here: the measure of a classical phase space, and all
ones for a quantum space stored in an orthonormal Hermitian basis.  Both
cones are self-dual under such a diagonal inner product; an off-diagonal
metric is rejected, since under it two cone elements can pair negatively.

Two cone kinds are decidable: ``componentwise`` (functions on a finite set,
nonnegative pointwise) and ``psd`` (real coordinates of Hermitian matrices in
an orthonormal basis, positive semidefinite in matrix form).  Tensor products
of mixed kinds get the ``product`` kind, for which membership queries are
deliberately refused rather than approximated.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import cached_property

import numpy as np

from .errors import (
    NotInConeError,
    SpaceMismatchError,
    UnsupportedSpaceError,
    ZeroStateError,
)
from .hermitian import coords_to_matrix, matrix_to_coords, random_psd

__all__ = [
    "DEFAULT_TOL",
    "Element",
    "ModelSpace",
    "inner",
    "is_positive",
    "leq",
    "normalize_state",
    "order_unit_lambda",
    "product_space",
    "sample_cone",
    "scaled_tol",
    "tensor_element",
    "unit_element",
    "zero_element",
]

DEFAULT_TOL = 1e-9


def scaled_tol(tol: float, coords: np.ndarray) -> float:
    """Tolerance scaled by the max-norm of ``coords``, floored at ``tol``.

    All positivity and normalization decisions use this relative policy so
    that large elements are not held to an absolute threshold.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    peak = float(np.abs(coords).max()) if coords.size else 0.0
    return tol * max(1.0, peak)


def margin_passes(margin, coords: np.ndarray, tol: float):
    """The positivity verdict ``margin >= -scaled_tol(tol, coords)``, elementwise."""
    return margin >= -scaled_tol(tol, coords)


def pairing_passes(pairing: float, coords: np.ndarray, tol: float) -> bool:
    """Whether a pairing may divide: finite and above ``scaled_tol(tol, coords)``."""
    return scaled_tol(tol, coords) < pairing < np.inf


class _Record:
    """Base of the library's records: immutable, equal only to themselves.

    Records are plain classes, not dataclasses, whose methods ``dataclasses``
    writes and compiles on every import.  A record's ``__init__`` stores its
    fields with ``object.__setattr__``; assigning or deleting an attribute
    afterwards raises :class:`dataclasses.FrozenInstanceError`, as on a
    frozen dataclass.  Instances keep a ``__dict__``, which
    :func:`functools.cached_property` writes.  ``repr`` shows the fields
    named in ``_fields``, in the dataclass format.
    """

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Value(_Record):
    """A record equal to a record of its own class with equal ``_fields``, and
    hashed by them."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())


class ModelSpace(_Record):
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
        The inner product in the storage basis: a vector of ``dim`` finite,
        strictly positive weights, or the ``dim x dim`` diagonal Gram matrix
        holding them (its diagonal is not checked for an inf).  A symmetric
        metric with a nonzero off-diagonal entry is rejected.
    cone_kind : str
        One of ``"componentwise"``, ``"psd"``, ``"product"``.
    unit : array_like
        Storage coordinates of the order unit ``e``; for the psd cone, those
        of the identity matrix.
    psd_dim : int, optional
        Matrix size ``d`` for the psd cone; requires ``dim == d**2``.

    The space keeps the read-only ``weights``, so that pairings cost
    ``O(dim)``; :attr:`metric` is their diagonal matrix, built when read.
    It holds no :class:`Element`: ``<e, b>`` is ``unit . (weights * b)``,
    :func:`inner`'s arithmetic, as ``g . b`` for the cached ``g = weights *
    unit`` may round otherwise (BLAS fuses multiply-adds).  ``g``
    (:attr:`_unit_weights`) is computed once, on first use, and kept
    read-only.
    """

    def __init__(
        self,
        space_id: str,
        dim: int,
        metric,
        cone_kind: str,
        unit,
        psd_dim: int | None = None,
    ) -> None:
        if dim < 1:
            raise ValueError("space dimension must be positive")
        weights = np.array(metric, dtype=float)
        unit = np.array(unit, dtype=float)
        if weights.shape not in ((dim,), (dim, dim)):
            raise SpaceMismatchError(
                f"metric shape {weights.shape} does not fit dimension {dim}"
            )
        if unit.shape != (dim,):
            raise SpaceMismatchError(
                f"unit length {unit.shape} does not fit dimension {dim}"
            )
        square = weights.ndim == 2
        if square:
            off_diagonal = weights.copy()
            np.fill_diagonal(off_diagonal, 0.0)
            # a NaN fails; the diagonal, where inf - inf is NaN, never counts
            if not np.abs(off_diagonal - off_diagonal.T).max() <= scaled_tol(1e-12, weights):
                raise ValueError("metric must be symmetric")
            if off_diagonal.any():
                raise ValueError(
                    "metric must be diagonal in the storage basis; an "
                    "off-diagonal metric breaks the self-duality of the cone"
                )
            weights = np.diagonal(weights).copy()
        if not (weights > 0.0).all():  # also rejects a NaN weight
            raise ValueError("metric must be positive definite")
        if not (square or np.isfinite(weights).all()):  # an inf, or a NaN
            raise ValueError("metric entries must be finite")
        if cone_kind == "componentwise":
            if psd_dim is not None:
                raise ValueError("psd_dim only applies to the psd cone kind")
            if not unit.min() > 0.0:  # also rejects a NaN entry
                raise ValueError("componentwise order unit must be strictly positive")
            if not np.isfinite(unit).all():
                raise ValueError("order unit entries must be finite")
        elif cone_kind == "psd":
            if psd_dim is None or psd_dim ** 2 != dim:
                raise ValueError("psd cone requires dim equal to psd_dim squared")
            if np.abs(weights - 1.0).max() > 1e-12:
                raise ValueError(
                    "psd spaces store coordinates in an orthonormal basis; "
                    "metric must be the identity"
                )
            # also rejects a NaN entry
            if not np.abs(coords_to_matrix(unit) - np.eye(psd_dim)).max() <= 1e-12:
                raise ValueError("psd order unit must be the identity matrix")
        elif cone_kind != "product":
            raise ValueError(f"unknown cone kind {cone_kind!r}")
        weights.setflags(write=False)
        unit.setflags(write=False)
        for name, value in (
            ("space_id", space_id), ("dim", dim), ("weights", weights),
            ("cone_kind", cone_kind), ("unit", unit), ("psd_dim", psd_dim),
        ):
            object.__setattr__(self, name, value)

    @cached_property
    def metric(self) -> np.ndarray:
        """The Gram matrix ``diag(weights)``, read-only; ``dim**2`` floats."""
        metric = np.diag(self.weights)
        metric.setflags(write=False)
        return metric

    @cached_property
    def _unit_weights(self) -> np.ndarray:
        """``g = weights * unit``, read-only: the adjoint of a nonselective map
        fixes it; an entry that overflows is inf, for its checks to reject."""
        with np.errstate(over="ignore"):
            g = self.weights * self.unit
        g.setflags(write=False)
        return g

    def with_id(self, space_id: str) -> "ModelSpace":
        """Copy of this space under a new identifier (a relabeled time slice)."""
        return ModelSpace(
            space_id, self.dim, self.weights, self.cone_kind, self.unit, self.psd_dim
        )

    def __repr__(self) -> str:  # short form, metric omitted
        kind = self.cone_kind
        if self.cone_kind == "psd":
            kind = f"psd({self.psd_dim})"
        return f"ModelSpace({self.space_id!r}, dim={self.dim}, cone={kind})"


class Element(_Record):
    """A vector in a :class:`ModelSpace`, held as real storage coordinates."""

    def __init__(self, space: ModelSpace, coords: np.ndarray) -> None:
        object.__setattr__(self, "space", space)
        self._hold(np.array(coords, dtype=float))

    @classmethod
    def _taking(cls, space: ModelSpace, coords: np.ndarray) -> "Element":
        """An element holding ``coords``, a float array the caller made and no
        longer writes to, without the copy the constructor makes."""
        b = cls.__new__(cls)
        object.__setattr__(b, "space", space)
        b._hold(coords)
        return b

    def _hold(self, coords: np.ndarray) -> None:
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
        and np.array_equal(a.weights, b.weights)
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
    """The order unit as a fresh, read-only element over ``space.unit``;
    ``<e, b>`` is :func:`unit_pairing`, :func:`inner`'s arithmetic without it
    (not ``g . b``, whose multiply-adds BLAS may fuse and round otherwise)."""
    return Element._taking(space, space.unit)


def unit_pairing(b: Element) -> float:
    """``<e, b>`` as ``inner(unit_element(b.space), b)`` computes it; not as
    ``g . b``, whose multiply-adds BLAS may fuse, rounding otherwise."""
    return float(b.space.unit @ (b.space.weights * b.coords))


def inner(b: Element, c: Element) -> float:
    """Inner product of two elements of the same space.

    Symmetric and bilinear; on pairs of cone elements it is nonnegative for
    both supported cone kinds.
    """
    require_same_space(b.space, c.space)
    return float(b.coords @ (b.space.weights * c.coords))


def cone_margin(b: Element) -> float:
    """How far inside the cone ``b`` lies; it is in the cone iff this is >= 0.

    componentwise: the least coordinate; psd: the least eigenvalue of the
    matrix form, or NaN when a coordinate is not finite.  Product spaces
    refuse the query, since deciding membership in a tensor-product cone
    with a psd factor is outside what this library commits to.
    """
    kind = b.space.cone_kind
    if kind == "componentwise":
        return float(b.coords.min())
    if kind == "psd":
        # LAPACK may return finite eigenvalues for a NaN matrix, and an inf
        # one warns before it gets there
        if not np.isfinite(b.coords).all():
            return np.nan
        return float(np.linalg.eigvalsh(coords_to_matrix(b.coords)).min())
    raise UnsupportedSpaceError(
        "cone membership is only decided for componentwise and psd spaces, "
        f"not for {b.space.space_id!r}"
    )


def is_positive(b: Element, tol: float = DEFAULT_TOL) -> bool:
    """Cone membership up to the scaled tolerance, by :func:`margin_passes`."""
    return margin_passes(cone_margin(b), b.coords, tol)


def leq(b: Element, c: Element, tol: float = DEFAULT_TOL) -> bool:
    """Partial order: ``b <= c`` iff ``c - b`` lies in the cone, judged at the
    scale of both operands, so that equal elements up to rounding compare equal."""
    require_same_space(b.space, c.space)
    return margin_passes(cone_margin(c - b), np.concatenate((b.coords, c.coords)), tol)


def order_unit_lambda(b: Element) -> float:
    """Least ``lam >= 0`` with ``b <= lam * e`` for a cone element ``b``.

    componentwise: the largest ratio of coordinate to unit entry; psd: the
    largest eigenvalue, the unit being the identity.
    """
    if not is_positive(b):
        raise NotInConeError(
            f"element of {b.space.space_id!r} is not in the cone"
        )
    kind = b.space.cone_kind
    if kind == "componentwise":
        lam = float(np.max(b.coords / b.space.unit))
    else:
        lam = float(np.linalg.eigvalsh(coords_to_matrix(b.coords)).max())
    return max(lam, 0.0)


def normalize_state(b: Element, tol: float = DEFAULT_TOL) -> Element:
    """Scale a nonzero cone element so that its pairing with ``e`` is one."""
    total = unit_pairing(b)
    if not pairing_passes(total, b.coords, tol):
        raise ZeroStateError(
            f"cannot normalize: the pairing with the order unit is {total:.6e}"
        )
    return Element._taking(b.space, b.coords / total)


def product_space(a: ModelSpace, b: ModelSpace) -> ModelSpace:
    """Tensor product space: Kronecker product of the weights and of the units.

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
        metric=np.kron(a.weights, b.weights),
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


def sample_cone(space: ModelSpace, rng: np.random.Generator) -> Element:
    """Draw a random cone element (componentwise or psd spaces only)."""
    if space.cone_kind == "componentwise":
        return Element(space, rng.uniform(0.0, 1.0, size=space.dim))
    if space.cone_kind == "psd":
        return Element(space, matrix_to_coords(random_psd(space.psd_dim, rng)))
    raise UnsupportedSpaceError(
        "cone sampling is only defined for componentwise and psd spaces"
    )
