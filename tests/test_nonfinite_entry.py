"""A NaN or an infinity fails at entry, with the documented message.

``PhaseSpace`` requires ``mu > 0`` for every point and a componentwise
``ModelSpace`` a unit whose least entry is ``> 0``; a NaN fails both
comparisons.  ``unitary_operation`` checks that every entry is finite before
it forms ``U^dagger U``, so no ``RuntimeWarning`` comes before its
``ValueError``.  These tests run without ``np.errstate``, under the suite's
``error::RuntimeWarning`` filter.  Each of them fails at the parent except
the finite cases and a NaN unitary entry, whose product raises no warning;
these pin the parent's verdict.
"""

import numpy as np
import pytest

from convexop.classical import PhaseSpace, make_classical_space
from convexop.quantum import make_quantum_space, unitary_operation
from convexop.spaces import ModelSpace

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("mu", [[NAN, 1.0], [1.0, NAN], [NAN, NAN]])
def test_phase_space_refuses_a_nan_measure(mu):
    with pytest.raises(ValueError, match="measure entries must be strictly positive"):
        PhaseSpace(2, mu)


@pytest.mark.parametrize("unit", [[NAN, 1, 1], [1, 1, NAN]])
def test_componentwise_space_refuses_a_nan_unit(unit):
    with pytest.raises(ValueError, match="componentwise order unit must be strictly positive"):
        ModelSpace("c", 3, np.ones(3), "componentwise", unit)


def test_finite_measures_and_units_still_pass():
    space = make_classical_space(PhaseSpace(3, [0.5, 1.0, 2.0]))
    assert space.unit.tolist() == [1.0, 1.0, 1.0]
    assert ModelSpace("c", 2, np.ones(2), "componentwise", [1e-300, 1e300]).dim == 2


@pytest.mark.parametrize("bad", [NAN, INF, -INF, complex(0, INF), complex(INF, NAN)])
def test_unitary_operation_refuses_non_finite_entries_without_a_warning(bad):
    with pytest.raises(ValueError, match="matrix is not unitary within tolerance"):
        unitary_operation(make_quantum_space(2), [[bad, 0], [0, 1]])
