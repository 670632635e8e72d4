"""The library's argument guards: each raises its error class and message.

One row per guard that no other test reaches: each call below fails at the
guard named by its id and nowhere earlier.  The rows pin today's classes and
messages, so that a reworded or reordered check shows here.
"""

import numpy as np
import pytest

from convexop.classical import PhaseSpace, indicator_measurement, make_classical_space
from convexop.errors import (
    IncompatibleBoundaryError,
    InvalidEvolutionError,
    SpaceMismatchError,
    UnsupportedSpaceError,
)
from convexop.hermitian import hermitian_basis
from convexop.lattice import OrderRelation
from convexop.operational import (
    EvolutionGroup,
    MeasurementSpec,
    OperationMap,
    identity_operation,
    measurement_defects,
    order_unit_defect,
)
from convexop.probes import (
    ProbeFunctional,
    boundary_space,
    completeness_check,
    compose,
    pair,
    probe_to_map,
)
from convexop.quantum import (
    KrausSet,
    ObservableDecomposition,
    StateVector,
    _require_psd_space,
    apply_kraus,
    born_pure,
    from_matrix,
    kraus_operation,
    make_quantum_space,
    spectral_measurement,
    unitary_operation,
)
from convexop.scenario import render_json
from convexop.spaces import Element, ModelSpace, product_space, sample_cone, scaled_tol

QUBIT = make_quantum_space(2)
LINE = make_classical_space(PhaseSpace(2, [1.0, 1.0]))
HEAVY = make_classical_space(PhaseSpace(2, [1.0, 2.0]))  # LINE's id, another measure
EYE3 = np.eye(3)
ON_LINE = ProbeFunctional((LINE,), [1.0, 1.0])
ON_LINE_QUBIT = ProbeFunctional((LINE, QUBIT), np.zeros(8))

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
    pytest.param(
        lambda: PhaseSpace(0, []),
        ValueError, "phase space needs at least one point", id="phase-space-empty"),
    pytest.param(
        lambda: PhaseSpace(2, [1.0]),
        SpaceMismatchError, "measure length (1,) does not match 2 points",
        id="phase-space-measure-length"),
    pytest.param(
        lambda: indicator_measurement(QUBIT, [0]),
        UnsupportedSpaceError, "indicator measurements need a classical space",
        id="indicator-on-psd"),
    pytest.param(
        lambda: hermitian_basis(0),
        ValueError, "matrix dimension must be positive", id="hermitian-basis-empty"),
    pytest.param(
        lambda: OrderRelation("bogus"),
        ValueError, "unknown verdict 'bogus'", id="order-relation-verdict"),
    pytest.param(
        lambda: OperationMap(LINE, EYE3),
        SpaceMismatchError,
        "operation matrix shape (3, 3) does not fit space 'classical' of dimension 2",
        id="operation-map-shape"),
    pytest.param(
        lambda: OperationMap(LINE, np.eye(2), "x"),
        ValueError, "unknown selectivity 'x'", id="operation-map-selectivity"),
    pytest.param(
        lambda: MeasurementSpec("m", {0: OperationMap(LINE, np.eye(2))}),
        TypeError, "outcome labels must be strings", id="measurement-label-not-str"),
    pytest.param(
        lambda: sample_cone(product_space(LINE, QUBIT), np.random.default_rng(0)),
        UnsupportedSpaceError, "cone sampling is only defined for componentwise and psd spaces",
        id="sample-cone-product"),
    pytest.param(
        lambda: ProbeFunctional((), []),
        IncompatibleBoundaryError, "a probe needs at least one boundary factor",
        id="probe-empty-boundary"),
    pytest.param(
        lambda: ProbeFunctional((LINE, "x"), [1.0, 1.0]),
        TypeError, "boundary factors must be ModelSpace values", id="probe-factor-not-space"),
    pytest.param(
        lambda: ProbeFunctional((LINE,), [1.0, 1.0, 1.0]),
        SpaceMismatchError, "coefficient length (3,) does not match boundary dimension 2",
        id="probe-coefficient-length"),
    pytest.param(
        lambda: boundary_space(()),
        IncompatibleBoundaryError, "empty boundary has no product space",
        id="boundary-space-empty"),
    pytest.param(
        lambda: pair(ON_LINE, Element(QUBIT, np.zeros(4))),
        SpaceMismatchError, "boundary condition has dimension 4, probe expects 2",
        id="pair-dimension"),
    pytest.param(
        lambda: completeness_check([ProbeFunctional((QUBIT,), np.zeros(4))], ON_LINE),
        SpaceMismatchError, "all probes must share one boundary",
        id="completeness-boundaries-differ"),
    pytest.param(
        lambda: compose(ON_LINE, ProbeFunctional((HEAVY,), [1.0, 1.0]), "classical"),
        SpaceMismatchError, "shared factor 'classical' differs structurally between the probes",
        id="compose-shared-structure"),
    pytest.param(
        lambda: compose(ON_LINE_QUBIT, ON_LINE_QUBIT, "classical", basis=EYE3),
        SpaceMismatchError, "basis shape (3, 3) does not fit the shared dimension 2",
        id="compose-basis-shape"),
    pytest.param(
        lambda: probe_to_map(ON_LINE),
        IncompatibleBoundaryError, "map form needs a two-factor boundary, got 1 factors",
        id="probe-to-map-one-factor"),
    pytest.param(
        lambda: probe_to_map(ON_LINE_QUBIT),
        IncompatibleBoundaryError, "map form needs both boundary factors over the same space",
        id="probe-to-map-mixed-spaces"),
    pytest.param(
        lambda: render_json(object()),
        TypeError, "cannot render object in a report", id="render-json-object"),
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


def test_completeness_check_of_no_outcomes_is_false():
    assert completeness_check([], ON_LINE) is False


def test_born_pure_reads_state_vectors_as_their_amplitudes():
    psi, eta = [1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]
    assert born_pure(StateVector(2, psi), StateVector(2, eta)) == born_pure(psi, eta)
    assert born_pure(psi, eta) == pytest.approx(0.5)


def test_render_json_renders_a_str_subclass_as_a_string():
    class Label(str):
        pass

    assert render_json(Label("x")) == '"x"\n'
