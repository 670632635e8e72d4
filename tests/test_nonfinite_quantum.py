"""A NaN or an infinity fails the absolute checks of ``quantum.py``.

Each check is written so that a NaN comparison fails it:
``unitary_operation`` refuses a matrix unless ``|U^dagger U - 1| <= 1e-10``,
``StateVector`` unless ``|norm - 1| <= 1e-12``, and ``pure_state`` unless
``1e-12 < norm < inf``.  The documented thresholds themselves are unchanged.
"""

import numpy as np
import pytest

from convexop.errors import NotNormalizedError, ZeroStateError
from convexop.quantum import StateVector, make_quantum_space, pure_state, unitary_operation

NAN, INF = float("nan"), float("inf")
SPACE = make_quantum_space(2)


@pytest.mark.parametrize("bad", [NAN, INF, -INF, complex(0, NAN), complex(1, INF)])
def test_unitary_operation_refuses_non_finite_entries(bad):
    # inf * 0 inside U^dagger U is NaN, which numpy reports as invalid
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not unitary"):
        unitary_operation(SPACE, [[bad, 0], [0, 1]])


@pytest.mark.parametrize("bad", [NAN, INF, -INF, complex(NAN, 0)])
def test_state_vector_refuses_non_finite_amplitudes(bad):
    # the parent refused the infinities already; these two cases pin that
    with pytest.raises(NotNormalizedError):
        StateVector(2, [bad, 1])


@pytest.mark.parametrize("bad", [NAN, INF, -INF, complex(0, NAN)])
def test_pure_state_refuses_non_finite_amplitudes(bad):
    with pytest.raises(ZeroStateError):
        pure_state([bad, 1])
    with pytest.raises(ZeroStateError):
        pure_state(np.array([1, bad]))


def test_pure_state_refuses_a_norm_that_overflows():
    # the parent divided by the infinite norm and returned a zero matrix
    with np.errstate(over="ignore"), pytest.raises(ZeroStateError):
        pure_state([1e300, 1e300])


def test_the_thresholds_stay_where_they_are():
    # pins the parent's finite verdicts at the documented thresholds
    unitary_operation(SPACE, np.diag([1.0, np.exp(0.5j)]))
    with pytest.raises(ValueError, match="not unitary"):
        unitary_operation(SPACE, np.diag([1.0, 1.0 + 1e-9]))
    StateVector(2, [1.0 + 1e-13, 0.0])
    with pytest.raises(NotNormalizedError):
        StateVector(2, [1.0 + 1e-11, 0.0])
    assert np.allclose(pure_state([2e-12, 0.0]), np.diag([1.0, 0.0]))
    assert np.allclose(pure_state([1e150, 1e150]), np.full((2, 2), 0.5))
    with pytest.raises(ZeroStateError):
        pure_state([1e-13, 0.0])
    with pytest.raises(ZeroStateError):
        pure_state([0.0, 0.0])
