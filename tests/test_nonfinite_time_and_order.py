"""A non-finite time stops the RK4 integrators, and a non-finite psd element
fails every order verdict.

``quantum._rk4`` counts the time left down by steps, and ``inf - h`` is inf,
so an infinite time must be refused before the loop or it never ends; a NaN
time or step must fail the guards too.  LAPACK's ``eigvalsh`` may return
finite eigenvalues for a NaN matrix, and an inf entry makes it warn, so
``spaces.cone_margin`` must not hand it a non-finite element.
"""

import threading
import warnings

import numpy as np
import pytest

from convexop import (
    Element,
    NotInConeError,
    classify_order,
    is_positive,
    leq,
    liouville_integrate,
    make_quantum_space,
    order_unit_lambda,
    pure_state,
    schrodinger_integrate,
    unit_element,
)
from convexop.quantum import from_matrix

NAN, INF = float("nan"), float("inf")
SPACE = make_quantum_space(2)
H = np.array([[1.0, 0.5], [0.5, -1.0]])


def outcome_within(call, seconds=5.0):
    """The exception ``call`` raised, or its result; None if it ran on."""
    box = []

    def target():
        try:
            box.append(call())
        except Exception as exc:  # noqa: BLE001 - handed back to the test
            box.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    return box[0] if box else None


INTEGRATORS = {
    "liouville": lambda t, dt: liouville_integrate(H, from_matrix(SPACE, pure_state([1, 0])), t, dt),
    "schrodinger": lambda t, dt: schrodinger_integrate(H, [1, 0], t, dt),
}


@pytest.mark.parametrize("name", sorted(INTEGRATORS))
@pytest.mark.parametrize("t, dt, message", [
    (INF, 1e-3, "integration time must be finite and nonnegative"),
    (NAN, 1e-3, "integration time must be finite and nonnegative"),
    (-INF, 1e-3, "integration time must be finite and nonnegative"),
    (0.1, NAN, "step size must be positive"),
])
def test_a_non_finite_time_or_step_is_refused(name, t, dt, message):
    outcome = outcome_within(lambda: INTEGRATORS[name](t, dt))
    assert isinstance(outcome, ValueError), outcome
    assert str(outcome) == message


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
@pytest.mark.parametrize("slot", [0, 1, 3])
def test_a_non_finite_psd_element_fails_every_order_verdict(bad, slot):
    coords = np.array([1.0, 0.0, 0.0, 1.0])
    coords[slot] = bad
    e, unit = Element(SPACE, coords), unit_element(SPACE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_positive(e)
        assert not leq(e, unit)
        assert not leq(unit, e)
        assert classify_order(e, unit).verdict == "incomparable"
        with pytest.raises(NotInConeError):
            order_unit_lambda(e)
