"""Classical model: functions on a finite phase space with a measure.

States are nonnegative functions on the points, the inner product is the
measure-weighted dot product, and the order unit is the constant function
one.  Observables are indicator functions of subsets, dynamics are measure
preserving permutations of the points, and the pointwise minimum and
maximum make the state space a lattice.

Point indices are zero-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatchError, UnsupportedSpaceError
from .operational import EvolutionGroup, MeasurementSpec, OperationMap, _first_bad_point
from .spaces import Element, ModelSpace, require_same_space

__all__ = [
    "PhaseSpace",
    "indicator_measurement",
    "join",
    "make_classical_space",
    "meet",
    "permutation_evolution",
]


@dataclass(frozen=True, eq=False)
class PhaseSpace:
    """A finite set of points carrying a strictly positive measure."""

    n: int
    mu: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("phase space needs at least one point")
        mu = np.array(self.mu, dtype=float)
        if mu.shape != (self.n,):
            raise SpaceMismatchError(
                f"measure length {mu.shape} does not match {self.n} points"
            )
        if not (mu > 0.0).all():  # also rejects a NaN entry
            raise ValueError("measure entries must be strictly positive")
        if not np.isfinite(mu).all():  # an inf, or a NaN
            raise ValueError("measure entries must be finite")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


def make_classical_space(ps: PhaseSpace, space_id: str = "classical") -> ModelSpace:
    """Model space of a phase space: the measure as weights, componentwise cone."""
    return ModelSpace(
        space_id=space_id,
        dim=ps.n,
        metric=ps.mu,
        cone_kind="componentwise",
        unit=np.ones(ps.n),
    )


def indicator_measurement(
    space: ModelSpace, subset, name: str | None = None
) -> MeasurementSpec:
    """Two-outcome measurement of membership in a subset of points.

    Outcome ``"in"`` multiplies by the indicator of the subset, outcome
    ``"out"`` by the indicator of the complement.  Reading neither changes
    nothing: the parent operation, the sum of the two, is the identity.
    All three maps are held as diagonals, so they cost ``O(n)``.
    """
    if space.cone_kind != "componentwise":
        raise UnsupportedSpaceError("indicator measurements need a classical space")
    subset = subset if hasattr(subset, "__getitem__") else list(subset)  # a set or an iterator
    points = np.asarray(subset)
    bad = _first_bad_point(points, space.dim)
    if bad is not None:
        i = subset[bad]
        raise ValueError(f"subset {subset!r} lists a point twice" if 0 <= i < space.dim
                         else f"point index {i} is out of range for {space.dim} points")
    points = np.sort(points.astype(np.intp))
    chi = np.zeros(space.dim)
    chi[points] = 1.0
    if name is None:
        name = "chi[" + ",".join(map(str, points.tolist())) + "]"
    return MeasurementSpec(
        name=name,
        outcomes={
            "in": OperationMap(space, chi, "selective"),
            "out": OperationMap(space, 1.0 - chi, "selective"),
        },
    )


def permutation_evolution(space: ModelSpace, image_of) -> EvolutionGroup:
    """Discrete dynamics moving the weight at point ``i`` to ``image_of[i]``.

    Only permutations leaving the measure invariant are accepted; anything
    else would distort the inner product and the cone geometry.
    """
    if space.cone_kind != "componentwise":
        raise UnsupportedSpaceError("permutation evolution needs a classical space")
    return EvolutionGroup(space=space, kind="permutation", permutation=image_of)


def meet(b: Element, c: Element) -> Element:
    """Pointwise minimum: the greatest lower bound in the classical order."""
    require_same_space(b.space, c.space)
    if b.space.cone_kind != "componentwise":
        raise UnsupportedSpaceError("meet is a classical (componentwise) operation")
    return Element(b.space, np.minimum(b.coords, c.coords))


def join(b: Element, c: Element) -> Element:
    """Pointwise maximum: the least upper bound in the classical order."""
    require_same_space(b.space, c.space)
    if b.space.cone_kind != "componentwise":
        raise UnsupportedSpaceError("join is a classical (componentwise) operation")
    return Element(b.space, np.maximum(b.coords, c.coords))
