"""The library's argument guards: each raises its error class and message.

One row per guard that no other test reaches: each call below fails at the
guard named by its id and nowhere earlier.  The rows pin today's classes and
messages, so that a reworded or reordered check shows here.
"""

import numpy as np
import pytest

from convexop.classical import PhaseSpace, make_classical_space
from convexop.errors import InvalidEvolutionError, SpaceMismatchError, UnsupportedSpaceError
from convexop.operational import (
    EvolutionGroup,
    MeasurementSpec,
    OperationMap,
    identity_operation,
    measurement_defects,
    order_unit_defect,
)
from convexop.quantum import (
    KrausSet,
    ObservableDecomposition,
    StateVector,
    _require_psd_space,
    apply_kraus,
    from_matrix,
    kraus_operation,
    make_quantum_space,
    spectral_measurement,
    unitary_operation,
)
from convexop.spaces import ModelSpace, scaled_tol

QUBIT = make_quantum_space(2)
LINE = make_classical_space(PhaseSpace(2, [1.0, 1.0]))
EYE3 = np.eye(3)

GUARDS = [
    pytest.param(
        lambda: EvolutionGroup(LINE, "rotation"),
        ValueError, "unknown evolution kind 'rotation'", id="evolution-unknown-kind"),
    pytest.param(
        lambda: EvolutionGroup(LINE, "permutation"),
        ValueError, "permutation kind requires an image table", id="evolution-no-table"),
    pytest.param(
        lambda: EvolutionGroup(QUBIT, "hamiltonian"),
        ValueError, "hamiltonian kind requires a generator matrix", id="evolution-no-generator"),
    pytest.param(
        lambda: EvolutionGroup(QUBIT, "permutation", permutation=[0, 1, 2, 3]),
        InvalidEvolutionError, "permutation evolution needs a componentwise space",
        id="evolution-permutation-on-psd"),
    pytest.param(
        lambda: EvolutionGroup(QUBIT, "hamiltonian", hamiltonian=EYE3),
        InvalidEvolutionError, "hamiltonian size does not match the psd space",
        id="evolution-hamiltonian-size"),
    pytest.param(
        lambda: ModelSpace("s", 0, [], "componentwise", []),
        ValueError, "space dimension must be positive", id="space-dim"),
    pytest.param(
        lambda: ModelSpace("s", 2, [1.0, 1.0, 1.0], "componentwise", [1.0, 1.0]),
        SpaceMismatchError, "metric shape (3,) does not fit dimension 2", id="space-metric-shape"),
    pytest.param(
        lambda: ModelSpace("s", 2, [1.0, 1.0], "componentwise", [1.0]),
        SpaceMismatchError, "unit length (1,) does not fit dimension 2", id="space-unit-length"),
    pytest.param(
        lambda: ModelSpace("s", 4, np.ones(4), "componentwise", np.ones(4), psd_dim=2),
        ValueError, "psd_dim only applies to the psd cone kind", id="space-psd-dim-componentwise"),
    pytest.param(
        lambda: ModelSpace("s", 4, 2.0 * np.ones(4), "psd", QUBIT.unit, psd_dim=2),
        ValueError,
        "psd spaces store coordinates in an orthonormal basis; metric must be the identity",
        id="space-psd-metric"),
    pytest.param(
        lambda: ModelSpace("s", 2, [1.0, 1.0], "simplex", [1.0, 1.0]),
        ValueError, "unknown cone kind 'simplex'", id="space-unknown-cone"),
    pytest.param(
        lambda: kraus_operation(QUBIT, KrausSet((EYE3,))),
        UnsupportedSpaceError, "Kraus size 3 does not match the space's 2", id="kraus-operation-size"),
    pytest.param(
        lambda: apply_kraus(KrausSet((EYE3,)), from_matrix(QUBIT, np.eye(2) / 2)),
        UnsupportedSpaceError, "matrix size 2 does not match Kraus size 3", id="apply-kraus-size"),
    pytest.param(
        lambda: spectral_measurement(np.diag([0.0, 1.0, 2.0]), QUBIT),
        UnsupportedSpaceError, "observable size 3 does not match the space's 2",
        id="spectral-measurement-size"),
    pytest.param(
        lambda: unitary_operation(QUBIT, EYE3),
        UnsupportedSpaceError, "unitary shape (3, 3) does not fit size 2", id="unitary-size"),
    pytest.param(
        lambda: _require_psd_space(LINE),
        UnsupportedSpaceError, "space 'classical' does not hold Hermitian matrices",
        id="psd-space-required"),
    pytest.param(
        lambda: KrausSet(()),
        ValueError, "a Kraus set needs at least one operator", id="kraus-set-empty"),
    pytest.param(
        lambda: KrausSet((np.ones((2, 3)),)),
        ValueError, "Kraus operators must be square and equally sized", id="kraus-set-not-square"),
    pytest.param(
        lambda: ObservableDecomposition(()),
        ValueError, "a decomposition needs at least one spectral pair", id="decomposition-empty"),
    pytest.param(
        lambda: ObservableDecomposition(((1.0, np.eye(2)), (1.0, np.eye(2)))),
        ValueError, "eigenvalues must be strictly increasing", id="decomposition-not-increasing"),
    pytest.param(
        lambda: StateVector(2, [1.0, 0.0, 0.0]),
        ValueError, "expected 2 amplitudes, got shape (3,)", id="state-vector-shape"),
    pytest.param(
        lambda: scaled_tol(-1.0, np.zeros(2)),
        ValueError, "tolerance must be nonnegative", id="scaled-tol-negative"),
    pytest.param(
        lambda: order_unit_defect(identity_operation(LINE), -1.0),
        ValueError, "tolerance must be nonnegative", id="order-unit-defect-negative"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_guard_raises_its_class_and_message(call, error, message):
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


def test_measurement_defects_names_a_parent_that_moves_the_unit_pairing():
    spec = MeasurementSpec("half", {"in": OperationMap(LINE, [0.5, 0.5])})
    assert measurement_defects(spec) == [
        "parent of 'half' does not preserve the order-unit pairing"
    ]
