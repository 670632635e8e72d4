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

from convexop.classical import PhaseSpace, make_classical_space, permutation_evolution
from convexop.errors import InvalidEvolutionError
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


@pytest.mark.parametrize("unit, message", [
    ([INF, 1, 1], "order unit entries must be finite"),
    ([1, 1, INF], "order unit entries must be finite"),
    ([1, -INF, 1], "componentwise order unit must be strictly positive"),  # checked first
])
def test_componentwise_space_refuses_an_infinite_unit(unit, message):
    with pytest.raises(ValueError, match=message):
        ModelSpace("c", 3, np.ones(3), "componentwise", unit)


def test_finite_measures_and_units_still_pass():
    space = make_classical_space(PhaseSpace(3, [0.5, 1.0, 2.0]))
    assert space.unit.tolist() == [1.0, 1.0, 1.0]
    assert ModelSpace("c", 2, np.ones(2), "componentwise", [1e-300, 1e300]).dim == 2


@pytest.mark.parametrize("bad", [NAN, INF, -INF, complex(0, INF), complex(INF, NAN)])
def test_unitary_operation_refuses_non_finite_entries_without_a_warning(bad):
    with pytest.raises(ValueError, match="matrix is not unitary within tolerance"):
        unitary_operation(make_quantum_space(2), [[bad, 0], [0, 1]])


# ``EvolutionGroup`` judges a permutation's measure drift against a scaled
# bound, and ``ModelSpace`` a metric's asymmetry, each written so that a NaN
# fails (``not drift <= bound``).  An infinite entry of ``weights * unit``
# leaves no finite scale: the bound was inf, so a swap of an infinite point
# with a finite one passed, and a fixed infinite point made the drift NaN.
# ``PhaseSpace`` refuses an infinite measure entry and ``ModelSpace`` an
# infinite unit entry, so the inf comes from a product that overflows, which
# raises no ``RuntimeWarning`` before the documented error.


@pytest.mark.parametrize("mu, image", [
    ([INF, 1.0, 1.0], [1, 0, 2]),  # drift inf against an inf bound
    ([INF, 1.0, 2.0], [0, 2, 1]),  # drift NaN: finite points of unequal measure swap
    ([INF, 1.0, 1.0], [0, 1, 2]),
])
def test_a_permutation_of_an_infinite_measure_is_refused(mu, image):
    weights = [1e200 if m == INF else m for m in mu]
    unit = [1e200 if m == INF else 1.0 for m in mu]
    space = ModelSpace("c", 3, weights, "componentwise", unit)  # weights * unit is mu
    with pytest.raises(InvalidEvolutionError, match="the measure times the order unit is not finite"):
        permutation_evolution(space, image)


def test_a_finite_measure_still_judges_its_drift():
    space = make_classical_space(PhaseSpace(3, [1.0, 2.0, 1.0]))
    assert permutation_evolution(space, [2, 1, 0]).permutation.tolist() == [2, 1, 0]
    with pytest.raises(InvalidEvolutionError, match="permutation does not preserve the measure"):
        permutation_evolution(space, [1, 0, 2])


@pytest.mark.parametrize("metric", [[[1.0, NAN], [0.0, 1.0]], [[1.0, 0.0], [NAN, 1.0]]])
def test_a_nan_off_the_diagonal_makes_a_metric_asymmetric(metric):
    with pytest.raises(ValueError, match="metric must be symmetric"):
        ModelSpace("c", 2, metric, "componentwise", [1.0, 1.0])


# ``PhaseSpace`` and a 1-D ``ModelSpace`` metric refuse an infinite entry, by a
# check that a NaN fails too; a NaN keeps the positivity message, checked first.
# The first two tests fail at the parent, which built both spaces; the last two
# pin its verdicts.


@pytest.mark.parametrize("mu", [[INF, 1.0, 1.0], [1.0, INF, INF]])
def test_phase_space_refuses_an_infinite_measure(mu):
    with pytest.raises(ValueError, match="measure entries must be finite"):
        PhaseSpace(3, mu)


@pytest.mark.parametrize("metric", [[INF, 1.0, 1.0], [1.0, 1.0, INF], [INF, INF, INF]])
def test_a_vector_metric_refuses_an_infinite_weight(metric):
    with pytest.raises(ValueError, match="metric entries must be finite"):
        ModelSpace("c", 3, metric, "componentwise", np.ones(3))


def test_a_nan_measure_or_weight_keeps_its_positivity_message():
    with pytest.raises(ValueError, match="measure entries must be strictly positive"):
        PhaseSpace(2, [INF, NAN])
    with pytest.raises(ValueError, match="metric must be positive definite"):
        ModelSpace("c", 2, [INF, NAN], "componentwise", np.ones(2))


def test_the_largest_finite_measure_is_still_accepted():
    space = make_classical_space(PhaseSpace(2, [np.finfo(float).max, 1.0]))
    assert space.weights.tolist() == [np.finfo(float).max, 1.0]
