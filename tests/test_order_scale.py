"""``leq`` and ``classify_order`` judge a difference at the scale of both operands.

``c - b`` of two elements equal up to rounding is of the size of that
rounding, so judged at its own scale it reads as less, greater or
incomparable at random.  Both operands' coordinates set the scale instead,
as the witness's bound certificates already do.  The witness's own check
that its two bounds are incomparable still judges each difference at its own
scale, since the bounds may lie much closer to each other than the inputs.

The tests on rotations of ``1e7 * I`` and the ``witness-antilattice`` pair at
1e7 fail at the parent; the other tests pin its verdicts.
"""

import json

import numpy as np

from convexop.cli import main
from convexop.hermitian import random_unitary
from convexop.lattice import anti_lattice_witness, classify_order
from convexop.quantum import from_matrix, make_quantum_space
from convexop.spaces import leq

SPACE = make_quantum_space(2)


def rotated(rng, scale: float, flatness: float = 1.0):
    # as tests/test_witness_scale.py builds its inputs
    u = random_unitary(2, rng)
    return from_matrix(SPACE, scale * (u * [1.0, flatness]) @ u.conj().T)


def test_rotations_of_one_large_multiple_of_the_identity_are_equal():
    # at the parent, seeds 0-299 read 78 less, 100 greater, 121 incomparable
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a, b = rotated(rng, 1e7), rotated(rng, 1e7)
        assert leq(a, b) and leq(b, a), seed
        assert classify_order(a, b).verdict == "equal", seed


def test_the_falsifying_example_of_the_witness_property_is_equal():
    # seed=1, sa=sb=7.0, ta=tb=0.0 of test_witness_scale's property
    rng = np.random.default_rng(1)
    a, b = rotated(rng, 1e7), rotated(rng, 1e7)
    assert classify_order(a, b).verdict == "equal"
    assert anti_lattice_witness(a, b).relation == "equal"


def test_leq_still_sees_a_difference_above_the_scaled_tolerance():
    a = from_matrix(SPACE, np.diag([1e7, 1e7]))
    b = from_matrix(SPACE, np.diag([1e7, 1e7 + 1.0]))
    assert leq(a, b) and not leq(b, a)
    assert classify_order(a, b).verdict == "less"


def witness(tmp_path, capsys, a, b):
    path = tmp_path / "pair.yaml"
    path.write_text(f"A: {a}\nB: {b}\n", encoding="utf-8")
    code = main(["witness-antilattice", str(path)])
    out, err = capsys.readouterr()
    return code, json.loads(out) if code == 0 else None, err


def test_a_pair_equal_up_to_rounding_at_1e7_is_reported_equal(tmp_path, capsys):
    # the parent exited 3: "internal witness failure: bounds are comparable"
    code, report, err = witness(tmp_path, capsys,
                                "[[10000000.0, 0], [0, 10000000.000000002]]",
                                "[[10000000.000000002, 0], [0, 10000000.0]]")
    assert (code, err) == (0, "")
    assert report["comparable"] is True and report["relation"] == "equal"


def test_bounds_closer_than_the_inputs_are_still_incomparable(tmp_path, capsys):
    # judged through the new leq, the bounds of this pair read comparable
    code, report, err = witness(tmp_path, capsys,
                                "[[1000.000003, 0], [0, 1000]]", "[[1000, 0], [0, 1000.000003]]")
    assert (code, err) == (0, "")
    assert report["comparable"] is False

