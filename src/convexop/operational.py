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

from functools import cached_property, reduce

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
    _Record,
    _Value,
    inner,
    is_positive,
    pairing_passes,
    require_same_space,
    sample_cone,
    scaled_tol,
    unit_pairing,
)

__all__ = [
    "EvolutionGroup",
    "EvolveStep",
    "MeasureStep",
    "MeasurementSpec",
    "OperationMap",
    "SequenceResult",
    "StepRecord",
    "UNOBSERVED",
    "apply_operation",
    "check_positivity_sampled",
    "conditioned_probability",
    "evolution_operation",
    "evolve",
    "identity_operation",
    "is_nonselective",
    "measurement_defects",
    "predict",
    "run_sequence",
    "update_state",
]

SELECTIVITIES = ("selective", "nonselective")

#: Outcome label wildcard: perform the measurement, discard the result.
UNOBSERVED = "unobserved"


class OperationMap(_Record):
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

    def __init__(
        self, space: ModelSpace, matrix, selectivity: str = "selective"
    ) -> None:
        self._hold(space, np.array(matrix, dtype=float), selectivity)

    @classmethod
    def _taking(cls, space: ModelSpace, entries: np.ndarray, selectivity: str):
        """A map holding ``entries``, a new float array the caller made and no
        longer uses, without the copy the constructor makes."""
        op = cls.__new__(cls)
        op._hold(space, entries, selectivity)
        return op

    def _hold(self, space: ModelSpace, entries: np.ndarray, selectivity: str) -> None:
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
    return Element._taking(b.space, _act(op, b.coords))


def order_unit_defect(op: OperationMap, tol: float = DEFAULT_TOL) -> tuple:
    """How far the adjoint of the map is from fixing the order unit.

    Returns the largest entry of ``|M^T g - g|`` for ``g = weights * unit``
    (the metric applied to the unit), the matrix form of requiring the
    pairing with ``e`` to be preserved on every element, and the scaled
    tolerance it is judged against.  The space keeps ``g``.
    """
    g = op.space._unit_weights
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
    if not pairing_passes(denom, b2.coords, tol):
        raise ZeroProbabilityError(message)
    return inner(b2, selected) / denom


class MeasurementSpec(_Record):
    """Selective outcome maps under a nonselective parent, by default their sum."""

    _fields = ("name", "outcomes", "parent")

    def __init__(self, name: str, outcomes: dict, parent: OperationMap | None = None) -> None:
        if not outcomes:
            raise ValueError(f"measurement {name!r} has no outcomes")
        space = (parent or next(iter(outcomes.values()))).space
        for label, op in outcomes.items():
            if not isinstance(label, str):
                raise TypeError("outcome labels must be strings")
            if label == UNOBSERVED:
                raise ValueError(
                    f"outcome label {UNOBSERVED!r} is reserved for discarded results"
                )
            require_same_space(op.space, space)
            if op.selectivity != "selective":
                raise ValueError(
                    f"outcome {label!r} of {name!r} must be flagged selective"
                )
        if parent is None:
            # a new sum, or the one outcome's read-only entries, which it may share
            parent = OperationMap._taking(space, _outcome_sum(outcomes), "nonselective")
        if parent.selectivity != "nonselective":
            raise ValueError(
                f"parent of measurement {name!r} must be flagged nonselective"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "outcomes", dict(outcomes))
        object.__setattr__(self, "parent", parent)

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
    return _sum_gap(outcomes, parent, tol)


def _sum_gap(parts, whole: np.ndarray, tol: float) -> tuple:
    """``max |sum(parts) - whole|``, the parts added in order, and its scaled tolerance."""
    gap = float(np.abs(reduce(np.add, parts) - whole).max())
    return gap, scaled_tol(tol, whole)


def measurement_defects(spec: MeasurementSpec) -> list:
    """Numeric defects of a measurement, as human-readable strings.

    Empty list means the outcome maps sum to the parent within ``1e-10`` and
    the parent fixes the order-unit pairing within :data:`DEFAULT_TOL`.
    """
    defects = []
    gap, bound = completeness_gap(spec, 1e-10)
    if not gap <= bound:
        defects.append(
            f"outcome maps of {spec.name!r} sum to the parent only up to {gap:.3e}"
        )
    if not is_nonselective(spec.parent):
        defects.append(
            f"parent of {spec.name!r} does not preserve the order-unit pairing"
        )
    return defects


def _require_normalized(b: Element, tol: float, what: str = "state") -> None:
    total = unit_pairing(b)
    if not abs(total - 1.0) <= max(tol, 1e-9):
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
    return image, unit_pairing(image)


def predict(b: Element, spec: MeasurementSpec, outcome: str) -> float:
    """Probability of one outcome on a normalized state.

    Evaluates the pairing of the order unit with the selected branch.  The
    state must come in normalized; this function does not renormalize.
    """
    return _branch(b, spec, outcome, DEFAULT_TOL)[1]


def update_state(b: Element, m_a: OperationMap) -> Element:
    """Renormalized state after a selective operation fired."""
    image = apply_operation(m_a, b)
    weight = unit_pairing(image)
    return _condition(
        b, image, weight, DEFAULT_TOL,
        "cannot condition on an outcome: its probability is %.6e", weight,
    )


def _condition(
    b: Element, image: Element, weight: float, tol: float, message: str, *args
) -> Element:
    """``image`` divided by its order-unit pairing ``weight``, which must not
    vanish; ``message % args`` is formatted only to be raised."""
    if not pairing_passes(weight, b.coords, tol):
        raise ZeroProbabilityError(message % args)
    return Element._taking(b.space, image.coords / weight)


# ---------------------------------------------------------------------------
# evolution groups
# ---------------------------------------------------------------------------

def _first_bad_point(indices, n: int) -> int | None:
    """Position of the first entry, in the order given, that is out of ``0..n-1`` or repeats
    an earlier one, else None.  A nested row is no point; an int past int64 never wraps.

    An integer array passes on one sort; the entries are walked in order only
    to name a violation, a float by its integer part, as an index reads it."""
    a = np.asarray(indices)
    if a.ndim != 1:
        return 0 if a.size else None
    if a.dtype.kind in "iu":
        ordered = np.sort(a)
        if not a.size or 0 <= ordered[0] and ordered[-1] < n and (ordered[1:] != ordered[:-1]).all():
            return None
    seen = set()
    for k, i in enumerate(a.tolist()):
        if not 0 <= i < n or int(i) in seen:
            return k
        seen.add(int(i))
    return None


class EvolutionGroup(_Record):
    """A one-parameter group of cone automorphisms of one space.

    ``kind`` is ``"permutation"`` (discrete; ``permutation[i]`` is the image
    point of ``i``, integer time steps only) or ``"hamiltonian"`` (continuous;
    unitary conjugation by ``v diag(exp(-i delta w)) v^dagger``, where the
    eigenpairs ``spectrum = (w, v)`` of the Hermitian generator are computed once).
    A Hamiltonian member acts through :attr:`eigen_frame` and never forms the
    matrix of the state.  A permutation group's ``spectrum`` is None.
    """

    _fields = ("space", "kind", "permutation", "hamiltonian")

    def __init__(self, space: ModelSpace, kind: str, permutation: np.ndarray | None = None,
                 hamiltonian: np.ndarray | None = None) -> None:
        spectrum = None
        if kind == "permutation":
            if permutation is None:
                raise ValueError("permutation kind requires an image table")
            perm, n = np.asarray(permutation), space.dim
            if space.cone_kind != "componentwise":
                raise InvalidEvolutionError("permutation evolution needs a componentwise space")
            if perm.shape != (n,) or _first_bad_point(perm, n) is not None:
                raise InvalidEvolutionError(f"{permutation!r} is not a permutation"
                                            f" of 0..{n - 1}")
            permutation = perm.astype(int)
            # the pairing with the order unit must survive the shift, which
            # for g = weights * unit means g is constant on every orbit
            g = space._unit_weights
            if not np.isfinite(g).all():  # no finite scale to judge a drift by
                raise InvalidEvolutionError("the measure times the order unit is not finite")
            drift = float(np.abs(g[permutation] - g).max())
            if not drift <= scaled_tol(1e-12, g):
                raise InvalidEvolutionError("permutation does not preserve the measure")
            permutation.setflags(write=False)
        elif kind == "hamiltonian":
            if hamiltonian is None:
                raise ValueError("hamiltonian kind requires a generator matrix")
            h = require_hermitian(hamiltonian)
            if space.cone_kind != "psd" or h.shape[0] != space.psd_dim:
                raise InvalidEvolutionError(
                    "hamiltonian size does not match the psd space"
                )
            hamiltonian = h.copy()
            spectrum = tuple(np.linalg.eigh(hamiltonian))
            for array in (hamiltonian, *spectrum):
                array.setflags(write=False)
        else:
            raise ValueError(f"unknown evolution kind {kind!r}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "permutation", permutation)
        object.__setattr__(self, "hamiltonian", hamiltonian)
        object.__setattr__(self, "spectrum", spectrum)

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

    @cached_property
    def spectral_radius(self) -> float:
        """The largest ``|w|`` of a Hamiltonian group's generator; eigh sorts
        ``w``, so it is at an end."""
        w = self.spectrum[0]
        return float(max(-w[0], w[-1]))

    @cached_property
    def _cycles(self) -> tuple:
        """The permutation's cycles, by length: a triple ``(length, points,
        rows)`` per length, where row ``c`` of ``rows`` runs twice round the
        ``c``-th cycle of that length in orbit order and ``points`` holds the
        first round of every row, so that ``rows[:, r:r + length]`` are the
        images ``r`` steps on.  Lengths ascend, and each cycle starts at its
        least point, in the order of those points.

        They are found by pointer doubling on ``key = least * span + ahead``:
        after round ``k`` each point holds the least of its next ``2**(k + 1)``
        images, from itself on, and the fewest steps on to it."""
        perm = self.permutation
        n = perm.size
        rounds = (n - 1).bit_length()  # 2**rounds >= n, the longest cycle
        span = 1 << rounds
        key, jump = np.arange(n) * span, perm
        for k in range(rounds):
            key = np.minimum(key, key.take(jump) + (1 << k))
            jump = jump.take(jump)
        least, ahead = key >> rounds, key & (span - 1)
        sizes = np.bincount(least, minlength=n)  # a cycle's length at its least point
        leaders = np.flatnonzero(sizes)
        order = leaders[np.argsort(sizes[leaders], kind="stable")]  # by length, then by point
        start = np.empty(n, dtype=np.intp)  # where each cycle starts in the output
        start[order] = np.cumsum(sizes[order]) - sizes[order]
        size = sizes[least]
        points = np.empty(n, dtype=np.intp)
        points[start[least] + (size - ahead) % size] = np.arange(n)
        counts = np.bincount(sizes[leaders])  # cycles of each length
        cycles, stop = [], 0
        for length in np.flatnonzero(counts).tolist():
            block = points[stop:stop + length * counts[length]]
            stop += block.size
            rows = block.reshape(-1, length)
            cycles.append((length, block, np.hstack([rows, rows])))
        return tuple(cycles)


def _permutation_power(group: EvolutionGroup, steps: int) -> np.ndarray:
    """Image table of ``steps`` shifts: each cycle turns by ``steps`` modulo its
    length, a Python int, so the cost does not grow with ``steps``."""
    image = np.empty_like(group.permutation)
    for length, points, rows in group._cycles:
        turn = steps % length
        image[points] = rows[:, turn:turn + length].ravel()
    return image


def propagator(hamiltonian: np.ndarray, delta: float) -> np.ndarray:
    """Unitary ``exp(-i * delta * H)`` via Hermitian eigendecomposition."""
    w, v = np.linalg.eigh(require_hermitian(hamiltonian))
    return (v * np.exp(-1j * delta * w)) @ v.conj().T


def _require_finite_phases(group: EvolutionGroup, delta: float) -> None:
    """Reject a time whose phases ``delta * w`` overflow the float range."""
    # a product of Python floats overflows to inf without a warning
    if not abs(float(delta) * group.spectral_radius) < np.inf:
        raise InvalidEvolutionError(
            f"time {delta!r} times the generator's spectrum overflows"
        )


#: Steps whose phases are computed in one call; it bounds what a stretch of
#: evolve steps holds at once, however long the stretch is.
_BLOCK = 256


def _members(group: EvolutionGroup, deltas: list):
    """The time-``delta`` members of a Hamiltonian group, one per delta: the
    phase ``p_i conj(p_j)``, ``p = exp(-i delta w)``, of each eigenbasis entry
    ``(i, j)``; not ``exp(-i delta (w_i - w_j))``, whose gap can overflow.

    The phases of :data:`_BLOCK` times, which :class:`EvolveStep` checked, and
    their conjugates are computed in one call each, and each member is built as
    it is needed.
    """
    w = group.spectrum[0]
    for k in range(0, len(deltas), _BLOCK):
        phases = np.exp(np.multiply.outer([-1j * delta for delta in deltas[k:k + _BLOCK]], w))
        # one outer product per member: one over a block of them would multiply
        # through another numpy loop, whose bits differ
        for p, q in zip(phases, phases.conj()):
            yield (p[:, np.newaxis] * q).ravel()


def _evolve_stretch(group: EvolutionGroup, deltas: list, branches) -> list:
    """Elements ``branches`` after the group's time-``delta`` members, one
    delta after another.

    Under a Hamiltonian group the branches are one stacked coordinate array
    between steps, a column per branch, so that each product is one
    matrix-vector product per branch in a single call; each becomes an
    :class:`Element` once, at the end.  Permutation times, which
    :class:`EvolveStep` checked, add up to one shift of each branch.
    """
    for b in branches:
        require_same_space(group.space, b.space)
    if group.kind == "permutation":
        # the value at i moves to image[i], so the value at j comes from
        # where the reverse shift sends j
        source = _permutation_power(group, -sum(int(round(delta)) for delta in deltas))
        return [Element._taking(b.space, b.coords[source]) for b in branches]
    eig, back = group.eigen_frame
    x = np.array([b.coords for b in branches])[:, :, np.newaxis]
    for m in _members(group, deltas):
        x = (back @ (m[:, np.newaxis] * (eig @ x))).real
    # the rows are views of a complex array's real parts: each element copies its own
    return [Element(b.space, row) for b, row in zip(branches, x[:, :, 0])]


def evolve(group: EvolutionGroup, delta: float, b: Element) -> Element:
    """Apply the time-``delta`` member of the group to an element."""
    return _evolve_stretch(group, [EvolveStep(group, delta).delta], [b])[0]


def evolution_operation(group: EvolutionGroup, delta: float) -> OperationMap:
    """The time-``delta`` member of the group as an explicit operation map."""
    delta = EvolveStep(group, delta).delta
    if group.kind == "permutation":
        matrix = np.zeros((group.space.dim, group.space.dim))
        image = _permutation_power(group, int(round(delta)))
        matrix[image, np.arange(group.space.dim)] = 1.0
    else:
        (member,) = _members(group, [delta])
        eig, back = group.eigen_frame
        matrix = np.real((back * member) @ eig)
    return OperationMap(group.space, matrix, "nonselective")


# ---------------------------------------------------------------------------
# sequential runs
# ---------------------------------------------------------------------------

class MeasureStep(_Value):
    """One measurement in a sequence; ``outcome None`` means unread."""

    _fields = ("spec", "outcome")

    def __init__(self, spec: MeasurementSpec, outcome: str | None = None) -> None:
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "outcome", None if outcome == UNOBSERVED else outcome)


class EvolveStep(_Value):
    """Free evolution for a time ``delta``, checked here once: an integer for a
    permutation group, and one whose phases ``delta * w`` are finite for a
    Hamiltonian group."""

    _fields = ("group", "delta")

    def __init__(self, group: EvolutionGroup, delta: float) -> None:
        if group.kind == "hamiltonian":
            _require_finite_phases(group, delta)
        # delta * 0 is NaN for inf and NaN, on which round() raises, else 0
        elif not (delta * 0 == 0 and abs(delta - round(delta)) <= 1e-9):
            raise InvalidEvolutionError(
                f"permutation evolution needs integer steps, got {delta!r}"
            )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "delta", delta)


class StepRecord(_Value):
    _fields = ("name", "outcome", "conditional_probability")

    def __init__(self, name: str, outcome: str | None, conditional_probability: float) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "conditional_probability", conditional_probability)


class SequenceResult(_Value):
    _fields = ("probability", "final_state", "records")

    def __init__(self, probability: float, final_state: Element, records: tuple) -> None:
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "final_state", final_state)
        object.__setattr__(self, "records", records)


def _coerce_step(step):
    if isinstance(step, (MeasureStep, EvolveStep)):
        return step
    if isinstance(step, tuple) and len(step) == 2 and isinstance(step[0], MeasurementSpec):
        return MeasureStep(step[0], step[1])
    raise TypeError(f"cannot interpret sequence step {step!r}")


def _stretches(steps):
    """The steps, with each maximal stretch of consecutive evolve steps of one
    group as one ``(group, deltas)`` pair.  A stretch is handed on before
    the step after it is interpreted, so errors come in step order."""
    group, deltas = None, []
    for raw in steps:
        if isinstance(raw, EvolveStep) and raw.group is group:
            deltas.append(raw.delta)
            continue
        if deltas:
            yield group, deltas
        if isinstance(raw, EvolveStep):
            group, deltas = raw.group, [raw.delta]
        else:
            group, deltas = None, []
            yield _coerce_step(raw)
    if deltas:
        yield group, deltas


#: The record of every evolve step; records are frozen, so one is shared.
_EVOLVED = StepRecord("evolve", None, 1.0)


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
    and post-selection.  A stretch of evolve steps of one group is applied in
    one pass (:func:`_evolve_stretch`), with the arithmetic of one step at a
    time.
    """
    _require_normalized(b, tol, "initial state")
    state = b
    # reference branch with every measurement unread, for the
    # post-selection denominator
    reference = b if post_selection is not None else None
    probability = 1.0
    records = []
    for step in _stretches(steps):
        if isinstance(step, tuple):  # a stretch of evolve steps
            group, deltas = step
            branches = [state] if reference is None else [state, reference]
            state, *rest = _evolve_stretch(group, deltas, branches)
            reference = rest[0] if rest else None
            records += [_EVOLVED] * len(deltas)
            continue
        spec, outcome = step.spec, step.outcome
        if outcome is None:
            state = apply_operation(spec.parent, state)
            record = StepRecord(spec.name, UNOBSERVED, 1.0)
        else:
            image, p = _branch(state, spec, outcome, tol)
            state = _condition(
                state, image, p, tol,
                "outcome %r of measurement %r has probability zero; cannot "
                "condition on it", outcome, spec.name,
            )
            probability *= p
            record = StepRecord(spec.name, outcome, p)
        # the reference takes every measurement unread
        if reference is not None:
            reference = apply_operation(spec.parent, reference)
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
