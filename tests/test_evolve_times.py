"""Each evolve time is checked once, where an ``EvolveStep`` is built.

``evolve`` and ``evolution_operation`` build a step and use its time, and a
stretch of steps in ``run_sequence`` trusts the times its steps checked.  A
permutation group refuses inf and NaN with ``InvalidEvolutionError``, as a
Hamiltonian group does.
"""

import numpy as np
import pytest

from convexop import operational
from convexop.classical import PhaseSpace, make_classical_space, permutation_evolution
from convexop.errors import InvalidEvolutionError
from convexop.hermitian import random_density, random_hermitian
from convexop.operational import (
    EvolveStep,
    MeasureStep,
    evolution_operation,
    evolve,
    run_sequence,
)
from convexop.quantum import (
    from_matrix,
    hamiltonian_evolution,
    make_quantum_space,
    spectral_measurement,
)
from convexop.spaces import Element


@pytest.fixture
def checks(monkeypatch):
    """A list that gets one entry per call of ``_require_finite_phases``."""
    calls = []
    check = operational._require_finite_phases

    def counted(group, delta):
        calls.append(delta)
        check(group, delta)

    monkeypatch.setattr(operational, "_require_finite_phases", counted)
    return calls


@pytest.mark.parametrize("post_selected", [False, True])
def test_finite_phases_are_checked_once_per_step(checks, post_selected):
    rng = np.random.default_rng(41)
    d = 3
    space = make_quantum_space(d)
    group = hamiltonian_evolution(random_hermitian(d, rng), space)
    spec, _ = spectral_measurement(random_hermitian(d, rng), space)
    steps = []
    for k in range(40):
        steps.append(EvolveStep(group, float(rng.uniform(-2.0, 2.0))))
        if k % 9 == 8:
            steps.append(MeasureStep(spec, None if k % 2 else "0"))
    assert len(checks) == 40
    initial = from_matrix(space, random_density(d, rng))
    post = from_matrix(space, random_density(d, rng)) if post_selected else None
    run_sequence(initial, steps, post)
    assert len(checks) == 40
    evolve(group, 0.3, initial)
    evolution_operation(group, 0.3)
    assert len(checks) == 42


@pytest.mark.parametrize("delta", [float("inf"), float("-inf"), float("nan")])
def test_a_permutation_group_refuses_inf_and_nan_but_takes_any_integer(delta):
    space = make_classical_space(PhaseSpace(3, [1.0, 1.0, 1.0]))
    group = permutation_evolution(space, [1, 2, 0])
    x = Element(space, [1.0, 2.0, 3.0])
    for call in (
        lambda: EvolveStep(group, delta),
        lambda: evolve(group, delta, x),
        lambda: evolution_operation(group, delta),
    ):
        with pytest.raises(InvalidEvolutionError, match="needs integer steps, got"):
            call()
    # past the float range, one turn more than a whole number of cycles
    steps = 3 ** 700 + 1
    assert np.array_equal(evolve(group, steps, x).coords, evolve(group, 1, x).coords)
