"""One pairing rule: a pairing may divide only when it is finite and above
``scaled_tol(tol, x)``, with ``x`` the numbers it came from.

Conditioning, normalisation, the probe ratio, the Lüders rules and the
scenario's ``normalizable`` check all ask this of their denominator through
``spaces.pairing_passes``.  A NaN or an overflowed pairing is refused with the
site's own error instead of spreading into a probability or a state.  The
completeness gaps of maps and of probes add their parts in order in one
helper, and a NaN gap or normalisation fails its check.
"""

import numpy as np
import pytest

from convexop.classical import PhaseSpace, indicator_measurement, make_classical_space
from convexop.errors import (
    IncompatibleBoundaryError,
    NotInConeError,
    NotNormalizedError,
    ZeroProbabilityError,
    ZeroStateError,
)
from convexop.hermitian import random_density, random_unitary
from convexop.operational import (
    MeasurementSpec,
    OperationMap,
    _sum_gap,
    conditioned_probability,
    identity_operation,
    measurement_defects,
    predict,
    run_sequence,
    update_state,
)
from convexop.probes import (
    ProbeFunctional,
    certify_proper,
    completeness_check,
    map_to_probe,
    outcome_probability,
)
from convexop.quantum import from_matrix, luders, luders_pure, make_quantum_space, to_matrix
from convexop.spaces import (
    DEFAULT_TOL,
    Element,
    normalize_state,
    pairing_passes,
    scaled_tol,
    tensor_element,
)

NAN = float("nan")
SPACE = make_classical_space(PhaseSpace(2, [1.0, 1.0]))
SPEC = indicator_measurement(SPACE, [0])
IN = SPEC.outcomes["in"]
STATE = Element(SPACE, [0.5, 0.5])
NAN_STATE = Element(SPACE, [NAN, 0.5])
QUBIT = make_quantum_space(2)
UP = np.diag([1.0, 0.0])


def _probe_case(state):
    """An outcome probe, its reference probe and a boundary condition."""
    probe, reference = map_to_probe(IN), map_to_probe(SPEC.parent)
    final = Element(probe.boundary[1], [1.0, 1.0])
    return probe, reference, tensor_element(state, final)


NAN_CASES = {
    "normalize_state": (ZeroStateError, lambda: normalize_state(Element(SPACE, [NAN, 1.0]))),
    "conditioned_probability": (
        ZeroProbabilityError,
        lambda: conditioned_probability(NAN_STATE, STATE, IN, SPEC.parent),
    ),
    "update_state": (ZeroProbabilityError, lambda: update_state(NAN_STATE, IN)),
    "outcome_probability": (
        IncompatibleBoundaryError,
        lambda: outcome_probability(*_probe_case(NAN_STATE)),
    ),
    "luders": (ZeroProbabilityError, lambda: luders(Element(QUBIT, [NAN, 0.0, 0.0, 0.5]), UP)),
    "luders_pure": (ZeroProbabilityError, lambda: luders_pure(np.array([NAN, 1.0]), UP)),
    "run_sequence": (NotNormalizedError, lambda: run_sequence(NAN_STATE, [(SPEC, "in")])),
    "predict": (NotNormalizedError, lambda: predict(NAN_STATE, SPEC, "in")),
    "certify_proper": (
        NotInConeError,
        lambda: certify_proper(ProbeFunctional(map_to_probe(IN).boundary, [NAN, 0.0, 0.0, 1.0])),
    ),
}


@pytest.mark.parametrize("name", NAN_CASES)
def test_a_nan_is_refused_where_it_would_divide(name):
    error, call = NAN_CASES[name]
    with pytest.raises(error):
        call()


def test_a_nan_outcome_map_is_a_completeness_defect():
    spec = MeasurementSpec(
        "m",
        {"a": OperationMap(SPACE, [NAN, 1.0]), "b": OperationMap(SPACE, [1.0, 0.0])},
        parent=identity_operation(SPACE),
    )
    assert measurement_defects(spec) == ["outcome maps of 'm' sum to the parent only up to nan"]


def test_the_rule_refuses_nan_and_inf_and_keeps_the_scaled_bound():
    coords = np.array([3.0, -7.0])
    bound = scaled_tol(DEFAULT_TOL, coords)
    assert not pairing_passes(NAN, coords, DEFAULT_TOL)
    assert not pairing_passes(np.inf, coords, DEFAULT_TOL)
    assert not pairing_passes(-np.inf, coords, DEFAULT_TOL)
    assert not pairing_passes(bound, coords, DEFAULT_TOL)
    assert pairing_passes(np.nextafter(bound, 1.0), coords, DEFAULT_TOL)
    assert pairing_passes(1e308, coords, DEFAULT_TOL)


HUGE = Element(SPACE, [1e308, 1e308])  # finite, but its order-unit pairing is inf

OVERFLOW_CASES = {
    "normalize_state": (ZeroStateError, lambda: normalize_state(HUGE)),
    "update_state": (ZeroProbabilityError, lambda: update_state(HUGE, identity_operation(SPACE))),
    "conditioned_probability": (
        ZeroProbabilityError,
        lambda: conditioned_probability(Element(SPACE, [1.0, 1.0]), HUGE, IN, SPEC.parent),
    ),
    "outcome_probability": (
        IncompatibleBoundaryError,
        lambda: outcome_probability(*_probe_case(HUGE)),
    ),
}


@pytest.mark.parametrize("name", OVERFLOW_CASES)
def test_a_pairing_that_overflows_cannot_divide(name):
    error, call = OVERFLOW_CASES[name]
    with np.errstate(over="ignore"), pytest.raises(error):
        call()


#: weights at and around DEFAULT_TOL, in units of it
NEAR_BOUND = [0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0, 1e9]


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_luders_verdicts_are_those_of_the_absolute_bound_on_unit_trace_states(d):
    # the scaled bound is DEFAULT_TOL when every coordinate or amplitude has
    # size at most 1, as on a unit-trace state
    rng = np.random.default_rng([29, d])
    space = make_quantum_space(d)
    for _ in range(20):
        rank = int(rng.integers(1, d))
        frame = random_unitary(d, rng)
        p = frame[:, :rank] @ frame[:, :rank].conj().T
        inside, outside = frame[:, 0], frame[:, rank]
        for eps in np.multiply(NEAR_BOUND, DEFAULT_TOL):
            psi = np.sqrt(1.0 - eps) * outside + np.sqrt(eps) * inside
            for rho in (np.outer(psi, psi.conj()), random_density(d, rng)):
                state = from_matrix(space, rho)
                assert np.abs(state.coords).max() <= 1.0
                weight = float(np.real(np.einsum("ij,ji->", p, to_matrix(state))))
                _judged_alike(weight, state.coords, lambda: luders(state, p))
            image = p @ psi
            weight = float(np.real(np.vdot(image, image)))
            _judged_alike(weight, psi, lambda: luders_pure(psi, p))


def _judged_alike(weight: float, numbers: np.ndarray, condition) -> None:
    """The scaled rule and the old ``weight <= DEFAULT_TOL`` agree, and so
    does the conditioning call."""
    passes = weight > DEFAULT_TOL
    assert pairing_passes(weight, numbers, DEFAULT_TOL) == passes
    if passes:
        condition()
    else:
        with pytest.raises(ZeroProbabilityError):
            condition()


def _in_order(parts) -> np.ndarray:
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


@pytest.mark.parametrize("size", [1, 2, 3, 9, 16, 81])
@pytest.mark.parametrize("count", range(1, 13))
def test_probe_completeness_gap_has_the_bits_of_the_sum_in_order(size, count):
    rng = np.random.default_rng([31, size, count])
    space = make_classical_space(PhaseSpace(size, rng.uniform(0.5, 2.0, size)))
    for _ in range(20):
        parts = [rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3) for _ in range(count)]
        whole = _in_order(parts) + rng.normal(size=size) * 10.0 ** rng.uniform(-16, -6)
        gap, bound = _sum_gap(parts, whole, DEFAULT_TOL)
        expected = np.abs(_in_order(parts) - whole).max()
        assert np.float64(gap).tobytes() == expected.tobytes()
        assert bound == scaled_tol(DEFAULT_TOL, whole)
        if size > 1:
            # np.sum over axis 0 adds whole rows in order; on a single
            # coefficient it reduces a contiguous run, pairwise from 8 parts
            stacked = np.abs(np.sum(parts, axis=0) - whole).max()
            assert np.float64(gap).tobytes() == stacked.tobytes()
        probes = [ProbeFunctional((space,), part) for part in parts]
        reference = ProbeFunctional((space,), whole)
        assert completeness_check(probes, reference) == (gap <= bound)
