"""Operations on a model space: prediction, update, sequences, evolution.

An :class:`OperationMap` is a linear map on storage coordinates that sends
the cone into itself.  Non-selective operations additionally leave the
pairing with the order unit untouched; that normalization is what makes
probabilities of later outcomes insensitive to earlier unread measurements.

A :class:`MeasurementSpec` groups selective outcome maps under a
non-selective parent, by default their sum.  :func:`predict`,
:func:`update_state`, and :func:`run_sequence` chain these into
sequential-outcome probabilities with optional post-selection.
:class:`EvolutionGroup` supplies one-parameter families of cone
automorphisms (permutations of phase-space points, or unitary conjugation
generated by a Hamiltonian).  A Hamiltonian member acts in the eigenbasis of
its generator, where it multiplies each matrix entry by a phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial, reduce

import numpy as np

from .errors import (
    InvalidEvolutionError,
    NotNormalizedError,
    SpaceMismatchError,
    UnknownOutcomeError,
    ZeroProbabilityError,
)
from .hermitian import basis_expand, require_hermitian
from .spaces import (
    DEFAULT_TOL,
    Element,
    ModelSpace,
    inner,
    is_positive,
    require_same_space,
    sample_cone,
    scaled_tol,
    unit_element,
)

SELECTIVITIES = ("selective", "nonselective")

#: Outcome label wildcard: perform the measurement, discard the result.
UNOBSERVED = "unobserved"


@dataclass(frozen=True, eq=False, init=False)
class OperationMap:
    """A linear cone-preserving map on one model space.

    ``matrix`` acts on storage coordinates: a ``dim x dim`` array, or a
    vector of ``dim`` entries for a diagonal map, which is then held and
    applied as that vector in ``O(dim)``; reading :attr:`matrix` builds its
    dense form.  ``selectivity`` records the intended role ("nonselective"
    maps must fix the order-unit pairing, see :func:`is_nonselective`).  The
    flag is not re-derived from the matrix at construction time; numeric
    certification lives in :func:`is_nonselective`,
    :func:`check_positivity_sampled`, and the model-specific checks.
    """

    space: ModelSpace
    _entries: np.ndarray
    selectivity: str = "selective"

    def __init__(
        self, space: ModelSpace, matrix, selectivity: str = "selective"
    ) -> None:
        entries = np.array(matrix, dtype=float)
        n = space.dim
        if entries.shape not in ((n,), (n, n)):
            raise SpaceMismatchError(
                f"operation matrix shape {entries.shape} does not fit space "
                f"{space.space_id!r} of dimension {n}"
            )
        if selectivity not in SELECTIVITIES:
            raise ValueError(f"unknown selectivity {selectivity!r}")
        entries.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "selectivity", selectivity)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense ``dim x dim`` matrix of the map, read-only."""
        if self._entries.ndim == 2:
            return self._entries
        matrix = np.diag(self._entries)
        matrix.setflags(write=False)
        return matrix

    def __repr__(self) -> str:
        return f"OperationMap({self.space.space_id!r}, {self.selectivity})"


def _act(op: OperationMap, coords: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``M x``, or ``M^T x``, on storage coordinates.

    A diagonal map multiplies entrywise, which gives the same bits as the
    product with its dense matrix: each row has one nonzero term.
    """
    entries = op._entries
    if entries.ndim == 1:
        return entries * coords
    return (entries.T if transpose else entries) @ coords


def _same_form(ops) -> list:
    """The maps' diagonals if every one is diagonal, else their dense matrices."""
    ops = list(ops)
    if all(op._entries.ndim == 1 for op in ops):
        return [op._entries for op in ops]
    return [op.matrix for op in ops]


def identity_operation(space: ModelSpace) -> OperationMap:
    return OperationMap(space, np.ones(space.dim), "nonselective")


def apply_operation(op: OperationMap, b: Element) -> Element:
    require_same_space(op.space, b.space)
    return Element(b.space, _act(op, b.coords))


def order_unit_defect(op: OperationMap, tol: float = DEFAULT_TOL) -> tuple:
    """How far the adjoint of the map is from fixing the order unit.

    Returns the largest entry of ``|M^T g - g|`` for ``g = weights * unit``
    (the metric applied to the unit), the matrix form of requiring the
    pairing with ``e`` to be preserved on every element, and the scaled
    tolerance it is judged against.
    """
    g = op.space.weights * op.space.unit
    return float(np.abs(_act(op, g, transpose=True) - g).max()), scaled_tol(tol, g)


def is_nonselective(op: OperationMap) -> bool:
    """Whether the adjoint of the map fixes the order unit.

    See :func:`order_unit_defect` for the defect and its tolerance.
    """
    defect, bound = order_unit_defect(op)
    return defect <= bound


def conditioned_probability(
    b1: Element,
    b2: Element,
    m_a: OperationMap,
    m_star: OperationMap,
) -> float:
    """Probability of the selective branch given preparation and post-selection.

    Ratio of ``<b2, M_A b1>`` to ``<b2, M_* b1>``.  A vanishing denominator
    means the post-selection is incompatible with the non-selective branch.
    """
    return _pairing_ratio(
        b2, apply_operation(m_a, b1), apply_operation(m_star, b1), DEFAULT_TOL,
        "post-selection is incompatible: the non-selective branch has "
        "vanishing overlap with the final boundary condition",
    )


def _pairing_ratio(
    b2: Element, selected: Element, reference: Element, tol: float, message: str
) -> float:
    """``<b2, selected> / <b2, reference>``; the denominator must not vanish."""
    denom = inner(b2, reference)
    if denom <= scaled_tol(tol, b2.coords):
        raise ZeroProbabilityError(message)
    return inner(b2, selected) / denom


@dataclass(frozen=True, eq=False)
class MeasurementSpec:
    """Selective outcome maps under a nonselective parent, by default their sum."""

    name: str
    outcomes: dict
    parent: OperationMap | None = None

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ValueError(f"measurement {self.name!r} has no outcomes")
        space = (self.parent or next(iter(self.outcomes.values()))).space
        for label, op in self.outcomes.items():
            if not isinstance(label, str):
                raise TypeError("outcome labels must be strings")
            if label == UNOBSERVED:
                raise ValueError(
                    f"outcome label {UNOBSERVED!r} is reserved for discarded results"
                )
            require_same_space(op.space, space)
            if op.selectivity != "selective":
                raise ValueError(
                    f"outcome {label!r} of {self.name!r} must be flagged selective"
                )
        if self.parent is None:
            parent = OperationMap(space, _outcome_sum(self.outcomes), "nonselective")
            object.__setattr__(self, "parent", parent)
        if self.parent.selectivity != "nonselective":
            raise ValueError(
                f"parent of measurement {self.name!r} must be flagged nonselective"
            )
        object.__setattr__(self, "outcomes", dict(self.outcomes))

    @property
    def space(self) -> ModelSpace:
        return self.parent.space


def _outcome_sum(outcomes: dict) -> np.ndarray:
    """``sum_a M_a``, added up in outcome order without stacking the maps; a
    diagonal when every outcome is one."""
    return reduce(np.add, _same_form(outcomes.values()))


def completeness_gap(spec: MeasurementSpec, tol: float = DEFAULT_TOL) -> tuple:
    """Largest entry of ``|sum_a M_a - M_*|`` and the scaled tolerance it is
    judged against.  On diagonal maps only the diagonals are compared: the
    zeros off the diagonal add nothing to either maximum."""
    *outcomes, parent = _same_form([*spec.outcomes.values(), spec.parent])
    gap = float(np.abs(reduce(np.add, outcomes) - parent).max())
    return gap, scaled_tol(tol, parent)


def measurement_defects(spec: MeasurementSpec) -> list:
    """Numeric defects of a measurement, as human-readable strings.

    Empty list means the outcome maps sum to the parent within ``1e-10`` and
    the parent fixes the order-unit pairing within :data:`DEFAULT_TOL`.
    """
    defects = []
    gap, bound = completeness_gap(spec, 1e-10)
    if gap > bound:
        defects.append(
            f"outcome maps of {spec.name!r} sum to the parent only up to {gap:.3e}"
        )
    if not is_nonselective(spec.parent):
        defects.append(
            f"parent of {spec.name!r} does not preserve the order-unit pairing"
        )
    return defects


def _require_normalized(b: Element, tol: float, what: str = "state") -> None:
    total = inner(unit_element(b.space), b)
    if abs(total - 1.0) > max(tol, 1e-9):
        raise NotNormalizedError(
            f"{what} pairing with the order unit is {total!r}, expected 1"
        )


def _branch(b: Element, spec: MeasurementSpec, outcome: str, tol: float) -> tuple:
    """Image of a normalized state under one outcome map, and its probability."""
    require_same_space(b.space, spec.space)
    _require_normalized(b, tol)
    try:
        op = spec.outcomes[outcome]
    except KeyError:
        raise UnknownOutcomeError(
            f"unknown outcome {outcome!r} for measurement {spec.name!r}; "
            f"known: {sorted(spec.outcomes)}"
        ) from None
    image = apply_operation(op, b)
    return image, inner(unit_element(b.space), image)


def predict(b: Element, spec: MeasurementSpec, outcome: str) -> float:
    """Probability of one outcome on a normalized state.

    Evaluates the pairing of the order unit with the selected branch.  The
    state must come in normalized; this function does not renormalize.
    """
    return _branch(b, spec, outcome, DEFAULT_TOL)[1]


def update_state(b: Element, m_a: OperationMap) -> Element:
    """Renormalized state after a selective operation fired."""
    image = apply_operation(m_a, b)
    return _condition(
        b, image, inner(unit_element(b.space), image), DEFAULT_TOL,
        "cannot condition on an outcome of probability zero",
    )


def _condition(
    b: Element, image: Element, weight: float, tol: float, message: str
) -> Element:
    """``image`` divided by its order-unit pairing ``weight``, which must not vanish."""
    if weight <= scaled_tol(tol, b.coords):
        raise ZeroProbabilityError(message)
    return Element(b.space, image.coords / weight)


# ---------------------------------------------------------------------------
# evolution groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EvolutionGroup:
    """A one-parameter group of cone automorphisms of one space.

    ``kind`` is ``"permutation"`` (discrete; ``permutation[i]`` is the image
    point of ``i``, integer time steps only) or ``"hamiltonian"`` (continuous;
    unitary conjugation by ``v diag(exp(-i delta w)) v^dagger``, where the
    eigenpairs ``spectrum = (w, v)`` of the Hermitian generator are computed once).
    A Hamiltonian member acts through :attr:`eigen_frame` and never forms the
    matrix of the state.
    """

    space: ModelSpace
    kind: str
    permutation: np.ndarray | None = None
    hamiltonian: np.ndarray | None = None
    spectrum: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind == "permutation":
            if self.permutation is None:
                raise ValueError("permutation kind requires an image table")
            perm = np.array(self.permutation, dtype=int)
            if self.space.cone_kind != "componentwise":
                raise InvalidEvolutionError(
                    "permutation evolution needs a componentwise space"
                )
            if sorted(perm.tolist()) != list(range(self.space.dim)):
                raise InvalidEvolutionError(
                    f"{self.permutation!r} is not a permutation of "
                    f"0..{self.space.dim - 1}"
                )
            # the pairing with the order unit must survive the shift, which
            # for g = weights * unit means g is constant on every orbit
            g = self.space.weights * self.space.unit
            drift = float(np.abs(g[perm] - g).max())
            if drift > 1e-12 * max(1.0, float(np.abs(g).max())):
                raise InvalidEvolutionError(
                    "permutation does not preserve the measure"
                )
            perm.setflags(write=False)
            object.__setattr__(self, "permutation", perm)
        elif self.kind == "hamiltonian":
            if self.hamiltonian is None:
                raise ValueError("hamiltonian kind requires a generator matrix")
            h = require_hermitian(self.hamiltonian)
            if self.space.cone_kind != "psd" or h.shape[0] != self.space.psd_dim:
                raise InvalidEvolutionError(
                    "hamiltonian size does not match the psd space"
                )
            h = h.copy()
            spectrum = np.linalg.eigh(h)
            for array in (h, *spectrum):
                array.setflags(write=False)
            object.__setattr__(self, "hamiltonian", h)
            object.__setattr__(self, "spectrum", tuple(spectrum))
        else:
            raise ValueError(f"unknown evolution kind {self.kind!r}")

    @cached_property
    def eigen_frame(self) -> tuple:
        """``(eig, back)`` of a Hamiltonian group, built on first use: the
        unitary ``d**2 x d**2`` matrix ``eig`` takes coordinates to
        ``vec(v^dagger rho v)``, its column ``a`` is ``vec(v^dagger B_a v)``,
        and ``back = eig^dagger`` takes it back."""
        d = self.space.psd_dim
        v = self.spectrum[1]
        basis = basis_expand(np.eye(d * d)).transpose(2, 0, 1)
        eig = np.ascontiguousarray((v.conj().T @ basis @ v).reshape(d * d, d * d).T)
        return eig, eig.conj().T


def _integer_steps(delta: float) -> int:
    """The number of shifts a permutation evolution makes in time ``delta``."""
    steps = int(round(delta))
    if abs(delta - steps) > 1e-9:
        raise InvalidEvolutionError(
            f"permutation evolution needs integer steps, got {delta!r}"
        )
    return steps


def _permutation_power(perm: np.ndarray, delta: float) -> np.ndarray:
    """Image table of the time-``delta`` shift; ``delta`` must be an integer."""
    steps = _integer_steps(delta)
    result = np.arange(perm.size)
    base = perm if steps >= 0 else np.argsort(perm)
    steps = abs(steps)
    while steps:
        if steps & 1:
            result = base[result]
        base = base[base]
        steps >>= 1
    return result


def propagator(hamiltonian: np.ndarray, delta: float) -> np.ndarray:
    """Unitary ``exp(-i * delta * H)`` via Hermitian eigendecomposition."""
    w, v = np.linalg.eigh(require_hermitian(hamiltonian))
    return (v * np.exp(-1j * delta * w)) @ v.conj().T


def _require_finite_phases(group: EvolutionGroup, delta: float) -> None:
    """Reject a time whose phases ``delta * w`` overflow the float range."""
    # eigh sorts w, so its largest magnitude is at an end; a product of
    # Python floats overflows to inf without a warning
    w = group.spectrum[0]
    if not abs(float(delta) * float(max(-w[0], w[-1]))) < np.inf:
        raise InvalidEvolutionError(
            f"time {delta!r} times the generator's spectrum overflows"
        )


def _member(group: EvolutionGroup, delta: float) -> np.ndarray:
    """The time-``delta`` member: an image table, or the phase
    ``p_i conj(p_j)``, ``p = exp(-i delta w)``, of each eigenbasis entry
    ``(i, j)``; not ``exp(-i delta (w_i - w_j))``, whose gap can overflow."""
    if group.kind == "permutation":
        return _permutation_power(group.permutation, delta)
    _require_finite_phases(group, delta)
    phases = np.exp(-1j * delta * group.spectrum[0])
    return (phases[:, np.newaxis] * phases.conj()).ravel()


def _apply_member(group: EvolutionGroup, member: np.ndarray, b: Element) -> Element:
    require_same_space(group.space, b.space)
    if group.kind == "permutation":
        out = np.empty_like(b.coords)
        out[member] = b.coords
        return Element(b.space, out)
    eig, back = group.eigen_frame
    return Element(b.space, np.real(back @ (member * (eig @ b.coords))))


def evolve(group: EvolutionGroup, delta: float, b: Element) -> Element:
    """Apply the time-``delta`` member of the group to an element."""
    return _apply_member(group, _member(group, delta), b)


def evolution_operation(group: EvolutionGroup, delta: float) -> OperationMap:
    """The time-``delta`` member of the group as an explicit operation map."""
    member = _member(group, delta)
    if group.kind == "permutation":
        matrix = np.zeros((group.space.dim, group.space.dim))
        matrix[member, np.arange(group.space.dim)] = 1.0
    else:
        eig, back = group.eigen_frame
        matrix = np.real((back * member) @ eig)
    return OperationMap(group.space, matrix, "nonselective")


# ---------------------------------------------------------------------------
# sequential runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureStep:
    """One measurement in a sequence; ``outcome None`` means unread."""

    spec: MeasurementSpec
    outcome: str | None = None

    def __post_init__(self) -> None:
        if self.outcome == UNOBSERVED:
            object.__setattr__(self, "outcome", None)


@dataclass(frozen=True)
class EvolveStep:
    """Free evolution for a time ``delta``, an integer for a permutation group
    and one whose phases ``delta * w`` are finite for a Hamiltonian group."""

    group: EvolutionGroup
    delta: float

    def __post_init__(self) -> None:
        if self.group.kind == "permutation":
            _integer_steps(self.delta)
        else:
            _require_finite_phases(self.group, self.delta)


@dataclass(frozen=True)
class StepRecord:
    name: str
    outcome: str | None
    conditional_probability: float


@dataclass(frozen=True)
class SequenceResult:
    probability: float
    final_state: Element
    records: tuple


def _coerce_step(step):
    if isinstance(step, (MeasureStep, EvolveStep)):
        return step
    if isinstance(step, tuple) and len(step) == 2 and isinstance(step[0], MeasurementSpec):
        return MeasureStep(step[0], step[1])
    raise TypeError(f"cannot interpret sequence step {step!r}")


def run_sequence(
    b: Element,
    steps,
    post_selection: Element | None = None,
    tol: float = DEFAULT_TOL,
) -> SequenceResult:
    """Chain measurements and evolutions, conditioning on recorded outcomes.

    The total probability is the product of the per-step conditional
    probabilities.  Steps with ``outcome None`` apply the parent map and
    contribute a factor of one.  With post-selection the final factor is the
    ratio of the overlap of the final boundary condition with the selected
    branch to its overlap with the fully non-selective branch, so the total
    remains the joint probability of all recorded outcomes given preparation
    and post-selection.
    """
    _require_normalized(b, tol, "initial state")
    state = b
    # reference branch with every measurement unread, for the
    # post-selection denominator
    reference = b if post_selection is not None else None
    probability = 1.0
    records = []
    for raw in steps:
        step = _coerce_step(raw)
        # the step unread, built once: the reference always takes it
        if isinstance(step, EvolveStep):
            move = partial(_apply_member, step.group, _member(step.group, step.delta))
            outcome, record = None, StepRecord("evolve", None, 1.0)
        else:
            move = partial(apply_operation, step.spec.parent)
            outcome, record = step.outcome, StepRecord(step.spec.name, UNOBSERVED, 1.0)
        if outcome is None:
            state = move(state)
        else:
            image, p = _branch(state, step.spec, outcome, tol)
            state = _condition(
                state, image, p, tol,
                f"outcome {outcome!r} of measurement {step.spec.name!r} has "
                "probability zero; cannot condition on it",
            )
            probability *= p
            record = StepRecord(step.spec.name, outcome, p)
        if reference is not None:
            reference = move(reference)
        records.append(record)
    if post_selection is not None:
        factor = _pairing_ratio(
            post_selection, state, reference, tol,
            "post-selection has vanishing overlap with the non-selective "
            "branch; the conditional probability is undefined",
        )
        probability *= factor
        records.append(StepRecord("post_selection", None, factor))
    return SequenceResult(probability, state, tuple(records))


def check_positivity_sampled(
    op: OperationMap, rng: np.random.Generator, samples: int = 1000
) -> bool:
    """Whether the map sends sampled cone elements into the cone."""
    for _ in range(samples):
        x = sample_cone(op.space, rng)
        if not is_positive(apply_operation(op, x)):
            return False
    return True
