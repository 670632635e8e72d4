"""The basis kernels' per-thread workspace: results never share it, threads
never see each other's, and a warm kernel allocates only what it returns."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from convexop import (
    KrausSet,
    OperationMap,
    choi_cp_check,
    evolution_operation,
    hamiltonian_evolution,
    kraus_operation,
    make_quantum_space,
    random_hermitian,
    random_unitary,
)
from convexop import hermitian
from convexop.hermitian import complex_coords, coords_to_matrix, kraus_matrix


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def kernel_calls(d, seed):
    """One call of each kernel that hands out an array, on inputs fixed by the seed."""
    rng = np.random.default_rng([seed, d])
    space = make_quantum_space(d)
    coords = rng.normal(size=d * d)
    mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    ops = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    op = OperationMap(space, rng.normal(size=(d * d, d * d)), "selective")
    group = hamiltonian_evolution(random_hermitian(d, rng), space)
    return {
        "coords_to_matrix": lambda: coords_to_matrix(coords),
        "complex_coords": lambda: complex_coords(mat),
        "kraus_matrix": lambda: kraus_matrix(ops),
        "choi": lambda: choi_cp_check(op).choi,
        "evolution_operation": lambda: evolution_operation(group, 0.3).matrix,
    }


@pytest.mark.parametrize("d", [1, 3, 6])
def test_successive_results_never_share_memory(d):
    for name, call in kernel_calls(d, 1).items():
        first, second = call(), call()
        assert not np.shares_memory(first, second), name
        assert np.array_equal(bits(first), bits(second)), name


WRITABLE = ["coords_to_matrix", "complex_coords", "kraus_matrix", "choi"]


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("name", WRITABLE)
def test_writing_into_a_result_leaves_the_next_one_unchanged(d, name):
    call = kernel_calls(d, 2)[name]
    expected = call().copy()
    result = call()
    result[...] = np.nan
    assert np.array_equal(bits(call()), bits(expected))


def test_the_evolution_matrix_is_read_only():
    matrix = kernel_calls(3, 3)["evolution_operation"]()
    assert not matrix.flags.writeable


def test_the_workspace_keeps_its_buffers_for_smaller_d():
    # sized by the largest d the thread has used, with no buffer per d
    for call in kernel_calls(10, 4).values():
        call()
    held = {name: id(buffer) for name, buffer in vars(hermitian._workspace).items()}
    for d in range(1, 10):
        for call in kernel_calls(d, 4).values():
            call()
    assert {name: id(buffer) for name, buffer in vars(hermitian._workspace).items()} == held


def run_tasks(tasks):
    return [(key, bits(call()).tobytes()) for key, call in tasks]


def test_threads_compute_the_bits_of_a_serial_run():
    calls = {d: kernel_calls(d, 5) for d in range(1, 11)}
    tasks = [((d, name), call) for d, named in calls.items() for name, call in named.items()]
    serial = dict(run_tasks(tasks))
    results = [None] * 4
    start = threading.Barrier(4, timeout=60)

    def worker(k):
        # each thread its own mix of sizes and kernels
        order = np.random.default_rng(k).permutation(len(tasks))
        start.wait()
        results[k] = run_tasks([tasks[i] for i in order] * 2)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for result in results:
        assert len(result) == 2 * len(tasks)
        for key, data in result:
            assert data == serial[key], key


def peak_bytes(call):
    """Peak of the memory traced during one call, above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_warm_d10_choi_check_and_kraus_operation_allocate_what_they_return():
    # the Choi check returns its d**4 complex matrix, and a Kraus operation's
    # matrix of d**4 reals is copied once into the OperationMap; everything
    # else runs in the workspace
    d = 10
    rng = np.random.default_rng(6)
    space = make_quantum_space(d)
    kraus = KrausSet(tuple(random_unitary(d, rng) / np.sqrt(3) for _ in range(3)))
    op = kraus_operation(space, kraus)
    checks = [
        (lambda: choi_cp_check(op), 2 * 16 * d**4 + 64 * 1024),
        (lambda: kraus_operation(space, kraus), 2 * 8 * d**4 + 64 * 1024),
    ]
    for call, bound in checks:
        call()
        assert peak_bytes(call) <= bound


def test_a_warm_d16_kraus_operation_keeps_one_copy_of_its_map():
    # the map keeps the d**4 reals kraus_matrix returns, with no second copy
    d = 16
    rng = np.random.default_rng(7)
    space = make_quantum_space(d)
    kraus = KrausSet(tuple(random_unitary(d, rng) / np.sqrt(2) for _ in range(2)))

    def call():
        return kraus_operation(space, kraus)

    call()
    assert peak_bytes(call) <= 8 * d**4 + 64 * 1024
