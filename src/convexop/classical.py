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
from .operational import EvolutionGroup, MeasurementSpec, OperationMap
from .spaces import Element, ModelSpace, require_same_space


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
        if float(mu.min()) <= 0.0:
            raise ValueError("measure entries must be strictly positive")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


def make_classical_space(ps: PhaseSpace, space_id: str = "classical") -> ModelSpace:
    """Model space of a phase space: diagonal metric, componentwise cone."""
    return ModelSpace(
        space_id=space_id,
        dim=ps.n,
        metric=np.diag(ps.mu),
        cone_kind="componentwise",
        unit=np.ones(ps.n),
    )


def _check_subset(space: ModelSpace, subset) -> tuple:
    points = tuple(sorted(int(i) for i in subset))
    if len(set(points)) != len(points):
        raise ValueError(f"subset {subset!r} lists a point twice")
    for i in points:
        if not 0 <= i < space.dim:
            raise ValueError(
                f"point index {i} is out of range for {space.dim} points"
            )
    return points


def indicator_measurement(
    space: ModelSpace, subset, name: str | None = None
) -> MeasurementSpec:
    """Two-outcome measurement of membership in a subset of points.

    Outcome ``"in"`` multiplies by the indicator of the subset, outcome
    ``"out"`` by the indicator of the complement.  Reading neither changes
    nothing: the parent operation, the sum of the two, is the identity.
    """
    if space.cone_kind != "componentwise":
        raise UnsupportedSpaceError("indicator measurements need a classical space")
    points = _check_subset(space, subset)
    chi = np.zeros(space.dim)
    chi[list(points)] = 1.0
    if name is None:
        name = "chi[" + ",".join(str(i) for i in points) + "]"
    return MeasurementSpec(
        name=name,
        outcomes={
            "in": OperationMap(space, np.diag(chi), "selective"),
            "out": OperationMap(space, np.diag(1.0 - chi), "selective"),
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
