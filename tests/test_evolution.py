"""Accuracy of Hamiltonian evolution against dense references.

A member of a Hamiltonian group acts on real coordinates through the
generator's eigenbasis (``EvolutionGroup.eigen_frame``).  The references
here conjugate the density matrix by ``u = v diag(exp(-i delta w)) v^dagger``
with the eigenpairs that ``numpy.linalg.eigh`` gives for the generator.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from convexop import hermitian
from convexop.hermitian import random_density, random_hermitian
from convexop.operational import (
    EvolveStep,
    apply_operation,
    evolution_operation,
    evolve,
    run_sequence,
)
from convexop.quantum import (
    from_matrix,
    hamiltonian_evolution,
    make_quantum_space,
    to_matrix,
)
from convexop.spaces import inner, unit_element

SETTINGS = settings(max_examples=25, deadline=None)
DIMS = st.integers(1, 16)
SEEDS = st.integers(0, 2**32 - 1)
TIMES = st.floats(-3.0, 3.0)


def dense_unitary(h, delta):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * delta * w)) @ v.conj().T


def hamiltonian_case(d, seed):
    rng = np.random.default_rng(seed)
    space = make_quantum_space(d)
    h = random_hermitian(d, rng)
    return rng, space, h, hamiltonian_evolution(h, space)


@SETTINGS
@given(DIMS, SEEDS, TIMES)
def test_evolve_is_conjugation_by_the_dense_unitary(d, seed, delta):
    rng, space, h, group = hamiltonian_case(d, seed)
    rho = random_density(d, rng)
    u = dense_unitary(h, delta)
    expected = u @ rho @ u.conj().T
    out = to_matrix(evolve(group, delta, from_matrix(space, rho)))
    assert np.abs(out - expected).max() <= 1e-12 * max(1.0, np.abs(rho).max())


@SETTINGS
@given(DIMS, SEEDS, TIMES, TIMES)
def test_evolve_obeys_the_group_law(d, seed, s, t):
    rng, space, _, group = hamiltonian_case(d, seed)
    b = from_matrix(space, random_density(d, rng))
    once = evolve(group, s + t, b)
    twice = evolve(group, t, evolve(group, s, b))
    assert np.abs(once.coords - twice.coords).max() <= 1e-12


def test_long_chain_tracks_the_dense_chain_and_keeps_the_trace():
    d = 16
    rng, space, h, group = hamiltonian_case(d, 2024)
    rho = random_density(d, rng)
    b = from_matrix(space, rho)
    for delta in rng.uniform(-3.0, 3.0, size=300):
        u = dense_unitary(h, delta)
        rho = u @ rho @ u.conj().T
        b = evolve(group, delta, b)
    assert np.abs(to_matrix(b) - rho).max() <= 1e-10
    assert abs(inner(unit_element(space), b) - 1.0) <= 1e-12


@SETTINGS
@given(DIMS, SEEDS, TIMES)
def test_evolution_operation_is_the_evolve_map(d, seed, delta):
    rng, space, _, group = hamiltonian_case(d, seed)
    op = evolution_operation(group, delta)
    for _ in range(3):
        b = from_matrix(space, random_density(d, rng))
        gap = np.abs(apply_operation(op, b).coords - evolve(group, delta, b).coords)
        assert gap.max() <= 1e-12


def test_evolve_steps_make_no_basis_contraction(monkeypatch):
    # the group's first evolution builds its eigenbasis frame; after that a
    # post-selected run of evolve steps never expands or pairs coordinates
    rng, space, _, group = hamiltonian_case(4, 11)
    initial = from_matrix(space, random_density(4, rng))
    post = from_matrix(space, random_density(4, rng))
    evolve(group, 0.1, initial)
    calls = []
    contract = hermitian._contract

    def counted(*args):
        calls.append(args[:2])
        return contract(*args)

    monkeypatch.setattr(hermitian, "_contract", counted)
    steps = [EvolveStep(group, delta) for delta in rng.uniform(-2.0, 2.0, size=50)]
    result = run_sequence(initial, steps, post)
    assert calls == []
    assert len(result.records) == 51
    to_matrix(result.final_state)  # the counter does see the kernel
    assert calls
