"""The anti-lattice witness works at every scale, a large input beside a small one.

Each input of a qubit pair is ``s * U diag(1, t) U^dagger``, with its own scale
``s`` between 1e-6 and 1e8 and its own flatness ``t`` between 1e-12 and 1, so
that a nearly rank-one large input can sit beside a small one and the pair
stays incomparable.  The witness must not raise, and both bounds must lie
below both inputs by ``margin_passes`` at the scale of the inputs.

Before the bounds were made exactly Hermitian, about 1 in 28 such pairs made
the witness raise "matrix is not Hermitian within tolerance" (exit 5 from
``witness-antilattice``): the bounds kept a skew part of rounding at the
large input's scale, judged against their own small entries.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexop.cli import main
from convexop.hermitian import random_unitary
from convexop.lattice import anti_lattice_witness, classify_order
from convexop.quantum import from_matrix, make_quantum_space
from convexop.spaces import cone_margin, margin_passes

SPACE = make_quantum_space(2)


def qubit(rng, log_scale: float, log_flatness: float) -> np.ndarray:
    u = random_unitary(2, rng)
    return 10.0**log_scale * (u * [1.0, 10.0**log_flatness]) @ u.conj().T


def assert_bounds_below_inputs(ea, eb):
    witness = anti_lattice_witness(ea, eb)
    assert not witness.comparable
    scale = np.concatenate((ea.coords, eb.coords))
    for bound in (witness.c1, witness.c2):
        for upper in (ea, eb):
            margin = cone_margin(upper - from_matrix(SPACE, bound))
            assert margin_passes(margin, scale, 1e-10), margin


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-6, 8), st.floats(-6, 8),
       st.floats(-12, 0), st.floats(-12, 0))
def test_witness_bounds_lie_below_both_inputs_at_any_scale(seed, sa, sb, ta, tb):
    rng = np.random.default_rng(seed)
    ea = from_matrix(SPACE, qubit(rng, sa, ta))
    eb = from_matrix(SPACE, qubit(rng, sb, tb))
    assume(classify_order(ea, eb).verdict == "incomparable")
    assert_bounds_below_inputs(ea, eb)


A = [[48818.79436304, 45034.95378955 - 143552.369j],
     [45034.95378955 + 143552.369j, 463662.20353465]]
B = [[14.07781364, -1.68473784 + 3.82400173j], [-1.68473784 - 3.82400173j, 1.29212973]]


def test_a_large_nearly_rank_one_input_beside_a_small_one(tmp_path, capsys):
    assert_bounds_below_inputs(from_matrix(SPACE, np.array(A)), from_matrix(SPACE, np.array(B)))
    path = tmp_path / "pair.yaml"
    path.write_text(
        "A: [[48818.79436304, [45034.95378955, -143552.369]],"
        " [[45034.95378955, 143552.369], 463662.20353465]]\n"
        "B: [[14.07781364, [-1.68473784, 3.82400173]], [[-1.68473784, -3.82400173], 1.29212973]]\n"
    )
    assert main(["witness-antilattice", str(path)]) == 0
    assert '"comparable": false' in capsys.readouterr().out
