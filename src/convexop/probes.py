"""Probes: linear functionals on tensor products of model spaces.

A probe assigns to each boundary condition a real compatibility weight;
ratios of such weights are outcome probabilities.  Probes over a two-factor
boundary (initial and final copy of one space) are the functional form of
operation maps, and gluing two probes along a shared factor reproduces the
composition of the underlying maps.

Coefficients are stored against the product storage basis and evaluated
through the product metric, so a probe value is ``coeffs . (g * x)`` with
``g`` the Kronecker product of the factor weights (the diagonal of the
product Gram matrix).
"""

from __future__ import annotations

from functools import cached_property, reduce

import numpy as np

from .errors import (
    IncompatibleBoundaryError,
    NotInConeError,
    SpaceMismatchError,
    UnsupportedSpaceError,
)
from .operational import OperationMap, _sum_gap, identity_operation
from .spaces import (
    DEFAULT_TOL,
    Element,
    ModelSpace,
    _Record,
    margin_passes,
    pairing_passes,
    product_space,
    same_space,
    same_structure,
    sample_cone,
)

__all__ = [
    "ProbeFunctional",
    "boundary_space",
    "certify_proper",
    "completeness_check",
    "compose",
    "map_to_probe",
    "outcome_probability",
    "pair",
    "probe_to_map",
    "transparent_probe",
    "zero_probe",
]


class ProbeFunctional(_Record):
    """A linear functional on the tensor product of the boundary spaces.

    ``proper=True`` asserts nonnegativity on tensor products of cone
    elements; the flag is an assertion carried by construction (transparent
    probes) or by sampling (:func:`certify_proper`), never re-derived.
    """

    def __init__(self, boundary: tuple, coeffs: np.ndarray, proper: bool = False) -> None:
        boundary = tuple(boundary)
        if not boundary:
            raise IncompatibleBoundaryError("a probe needs at least one boundary factor")
        for factor in boundary:
            if not isinstance(factor, ModelSpace):
                raise TypeError("boundary factors must be ModelSpace values")
        coeffs = np.array(coeffs, dtype=float)
        expected = int(np.prod([s.dim for s in boundary]))
        if coeffs.shape != (expected,):
            raise SpaceMismatchError(
                f"coefficient length {coeffs.shape} does not match boundary "
                f"dimension {expected}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "proper", proper)

    @cached_property
    def _product_weights(self) -> np.ndarray:
        """Weights of the product space: the Kronecker product of the factors'."""
        return reduce(np.kron, [s.weights for s in self.boundary])

    def __repr__(self) -> str:
        ids = ", ".join(s.space_id for s in self.boundary)
        return f"ProbeFunctional([{ids}], proper={self.proper})"


def boundary_space(boundary) -> ModelSpace:
    """The tensor product space a probe's boundary conditions live in."""
    factors = tuple(boundary)
    if not factors:
        raise IncompatibleBoundaryError("empty boundary has no product space")
    return reduce(product_space, factors)


def zero_probe(boundary) -> ProbeFunctional:
    boundary = tuple(boundary)
    dim = int(np.prod([s.dim for s in boundary]))
    return ProbeFunctional(boundary, np.zeros(dim), proper=True)


def pair(p: ProbeFunctional, x: Element) -> float:
    """Evaluate the probe on a boundary condition of its product space."""
    dim = p.coeffs.size
    if x.space.dim != dim:
        raise SpaceMismatchError(
            f"boundary condition has dimension {x.space.dim}, probe expects {dim}"
        )
    weights = p._product_weights
    if not np.allclose(x.space.weights, weights, rtol=0.0, atol=1e-12):
        raise SpaceMismatchError(
            "boundary condition does not live in the probe's product space"
        )
    return float(p.coeffs @ (weights * x.coords))


def outcome_probability(
    p_a: ProbeFunctional, p_star: ProbeFunctional, x: Element
) -> float:
    """Elementary probability: the ratio of the outcome pairing to the
    reference pairing.

    Requires the reference value to be positive; a boundary condition the
    reference probe assigns no weight to cannot condition anything.
    """
    denom = pair(p_star, x)
    if not pairing_passes(denom, x.coords, DEFAULT_TOL):
        raise IncompatibleBoundaryError(
            "reference probe pairs to zero with this boundary condition"
        )
    return pair(p_a, x) / denom


def completeness_check(
    outcomes, p_star: ProbeFunctional, tol: float = DEFAULT_TOL
) -> bool:
    """Whether the outcome probes sum to the reference probe."""
    outcomes = list(outcomes)
    if not outcomes:
        return False
    for p in outcomes:
        if len(p.boundary) != len(p_star.boundary) or not all(
            same_space(a, b) for a, b in zip(p.boundary, p_star.boundary)
        ):
            raise SpaceMismatchError("all probes must share one boundary")
    gap, bound = _sum_gap([p.coeffs for p in outcomes], p_star.coeffs, tol)
    return gap <= bound


def _shared_index(p: ProbeFunctional, shared: str) -> int:
    hits = [i for i, s in enumerate(p.boundary) if s.space_id == shared]
    if len(hits) != 1:
        raise IncompatibleBoundaryError(
            f"shared factor {shared!r} must appear exactly once per boundary, "
            f"found {len(hits)} occurrences"
        )
    return hits[0]


def compose(
    p: ProbeFunctional,
    q: ProbeFunctional,
    shared: str,
    basis: np.ndarray | None = None,
) -> ProbeFunctional:
    """Glue two probes along a shared boundary factor.

    The result evaluates, on any product boundary condition, to the sum over
    an orthonormal basis of the shared space of the products of the factor
    pairings.  The value does not depend on which orthonormal basis is used;
    the ``basis`` hook (rows = basis vector coordinates) exists to test
    exactly that.  Without it the storage basis is used, which requires the
    shared factor's metric to be the identity.

    Resulting boundary: the remaining factors of ``p`` followed by the
    remaining factors of ``q``.
    """
    i = _shared_index(p, shared)
    j = _shared_index(q, shared)
    sp, sq = p.boundary[i], q.boundary[j]
    if not same_structure(sp, sq):
        raise SpaceMismatchError(
            f"shared factor {shared!r} differs structurally between the probes"
        )
    s = sp.dim
    pt = (p._product_weights * p.coeffs).reshape([f.dim for f in p.boundary])
    qt = (q._product_weights * q.coeffs).reshape([f.dim for f in q.boundary])
    pt, qt = np.moveaxis(pt, i, -1), np.moveaxis(qt, j, -1)
    if basis is None:
        if np.abs(sp.weights - 1.0).max() > 1e-12:
            raise UnsupportedSpaceError(
                "storage basis of the shared factor is not orthonormal; "
                "pass an explicit orthonormal basis"
            )
        pt = np.ascontiguousarray(pt)  # BLAS sums a transposed operand otherwise
    else:
        xi = np.asarray(basis, dtype=float)
        if xi.shape != (s, s):
            raise SpaceMismatchError(
                f"basis shape {xi.shape} does not fit the shared dimension {s}"
            )
        # sum_k |xi_k><xi_k| as raw coordinate outer products
        pt = np.tensordot(pt, xi.T @ xi, axes=(-1, 0))
    weighted = np.tensordot(pt, qt, axes=(-1, -1))

    rest = tuple(f for k, f in enumerate(p.boundary) if k != i) + tuple(
        f for k, f in enumerate(q.boundary) if k != j
    )
    if not rest:
        raise IncompatibleBoundaryError(
            "composition must leave at least one boundary factor"
        )
    weights_rest = reduce(np.kron, [f.weights for f in rest])
    coeffs = weighted.reshape(-1) / weights_rest
    return ProbeFunctional(rest, coeffs, proper=p.proper and q.proper)


def probe_to_map(p: ProbeFunctional) -> OperationMap:
    """The linear map a two-factor probe determines.

    For boundary factors (initial, final) over one space, the probe value on
    ``b1 (x) b2`` equals the inner product of ``b2`` with the image of
    ``b1`` under the returned map.
    """
    if len(p.boundary) != 2:
        raise IncompatibleBoundaryError(
            f"map form needs a two-factor boundary, got {len(p.boundary)} factors"
        )
    first, second = p.boundary
    if not same_structure(first, second):
        raise IncompatibleBoundaryError(
            "map form needs both boundary factors over the same space"
        )
    n = first.dim
    c = p.coeffs.reshape(n, n)
    # row-major, as the product with the dense metric was: a map's matrix
    # layout decides the summation order of every later application
    matrix = np.ascontiguousarray(c.T) * first.weights
    return OperationMap(first, matrix, "selective")


def map_to_probe(
    m: OperationMap,
    initial_id: str | None = None,
    final_id: str | None = None,
) -> ProbeFunctional:
    """The two-factor probe whose map form is ``m``.

    Inverse of :func:`probe_to_map`.  Boundary identifiers default to the
    map's space for the initial factor and a primed copy for the final one;
    pass explicit identifiers to line probes up for gluing.
    """
    space = m.space
    initial = space.with_id(initial_id) if initial_id else space
    final = space.with_id(final_id if final_id else space.space_id + "'")
    c = m.matrix.T / space.weights[:, np.newaxis]
    return ProbeFunctional((initial, final), c.reshape(-1))


def transparent_probe(
    space: ModelSpace,
    initial_id: str | None = None,
    final_id: str | None = None,
) -> ProbeFunctional:
    """The probe of the identity map: it lets the boundary condition pass.

    Its value on ``b1 (x) b2`` is the inner product of the two factors.
    """
    p = map_to_probe(identity_operation(space), initial_id, final_id)
    return ProbeFunctional(p.boundary, p.coeffs, proper=True)


def certify_proper(p: ProbeFunctional) -> ProbeFunctional:
    """Sample product cone elements; flag the probe proper if none pairs negative.

    This is a certification by sampling, not a decision procedure: 1000
    product states of the factor cones are drawn from a generator seeded
    with 7, and the probe must pass :func:`margin_passes` at ``DEFAULT_TOL``
    on all of them.
    """
    rng = np.random.default_rng(7)
    weights = p._product_weights
    for _ in range(1000):
        coords = reduce(np.kron, [sample_cone(f, rng).coords for f in p.boundary])
        value = float(p.coeffs @ (weights * coords))
        if not margin_passes(value, coords, DEFAULT_TOL):
            raise NotInConeError(
                f"probe paired negatively ({value:.3e}) with a sampled product state"
            )
    return ProbeFunctional(p.boundary, p.coeffs, proper=True)
