"""Ordered model spaces: cones, order units, tensor products."""

import numpy as np
import pytest

from convexop.errors import (
    NotInConeError,
    SpaceMismatchError,
    UnsupportedSpaceError,
    ZeroStateError,
)
from convexop.hermitian import matrix_to_coords
from convexop.spaces import (
    DEFAULT_TOL,
    Element,
    ModelSpace,
    inner,
    is_positive,
    leq,
    normalize_state,
    order_unit_lambda,
    product_space,
    sample_cone,
    scaled_tol,
    tensor_element,
    unit_element,
    zero_element,
)


def classical3():
    mu = np.array([2.0, 1.0, 0.5])
    return ModelSpace("c3", 3, np.diag(mu), "componentwise", np.ones(3))


def qubit():
    return ModelSpace(
        "q2", 4, np.eye(4), "psd", matrix_to_coords(np.eye(2)), psd_dim=2
    )


def test_scaled_tol_grows_with_magnitude():
    assert scaled_tol(1e-9, np.array([0.5])) == 1e-9
    assert scaled_tol(1e-9, np.array([100.0])) == pytest.approx(1e-7)


def test_space_rejects_asymmetric_metric():
    with pytest.raises(ValueError):
        ModelSpace("bad", 2, np.array([[1.0, 1.0], [0.0, 1.0]]), "componentwise", np.ones(2))


def test_space_rejects_indefinite_metric():
    with pytest.raises(ValueError):
        ModelSpace("bad", 2, np.diag([1.0, -1.0]), "componentwise", np.ones(2))


def test_space_rejects_nonpositive_unit():
    with pytest.raises(ValueError):
        ModelSpace("bad", 2, np.eye(2), "componentwise", np.array([1.0, 0.0]))


def test_psd_space_requires_square_dimension():
    with pytest.raises(ValueError):
        ModelSpace("bad", 5, np.eye(5), "psd", np.ones(5), psd_dim=2)


def test_element_shape_checked():
    with pytest.raises(SpaceMismatchError):
        Element(classical3(), np.zeros(4))


def test_inner_matches_double_sum():
    space = classical3()
    rng = np.random.default_rng(5)
    x = Element(space, rng.standard_normal(3))
    y = Element(space, rng.standard_normal(3))
    # direct evaluation of sum_ij x_i G_ij y_j
    expected = 0.0
    for i in range(3):
        for j in range(3):
            expected += x.coords[i] * space.metric[i, j] * y.coords[j]
    assert inner(x, y) == pytest.approx(expected, abs=1e-14)


def test_inner_requires_same_space():
    with pytest.raises(SpaceMismatchError):
        inner(Element(classical3(), np.ones(3)), Element(qubit(), np.zeros(4)))


def test_is_positive_componentwise():
    space = classical3()
    assert is_positive(Element(space, np.array([0.0, 1.0, 2.0])))
    assert not is_positive(Element(space, np.array([0.0, -1.0, 2.0])))
    # just inside tolerance
    assert is_positive(Element(space, np.array([-1e-12, 1.0, 2.0])))


def test_is_positive_psd():
    space = qubit()
    assert is_positive(Element(space, matrix_to_coords(np.diag([1.0, 0.0]))))
    assert not is_positive(Element(space, matrix_to_coords(np.diag([1.0, -0.5]))))
    # [[1, 2], [2, 1]] has eigenvalues 3 and -1
    assert not is_positive(
        Element(space, matrix_to_coords(np.array([[1.0, 2.0], [2.0, 1.0]])))
    )


def test_is_positive_undecided_on_product_cone():
    space = product_space(qubit(), qubit().with_id("q2b"))
    assert space.cone_kind == "product"
    with pytest.raises(UnsupportedSpaceError):
        is_positive(Element(space, np.zeros(16)))


def test_leq_is_cone_order():
    space = classical3()
    low = Element(space, np.array([1.0, 1.0, 1.0]))
    high = Element(space, np.array([1.0, 2.0, 1.0]))
    assert leq(low, high)
    assert not leq(high, low)


def test_order_unit_lambda_classical_is_max_ratio():
    space = classical3()
    x = Element(space, np.array([0.5, 3.0, 1.0]))
    assert order_unit_lambda(x) == pytest.approx(3.0, abs=1e-12)


def test_order_unit_lambda_quantum_is_top_eigenvalue():
    space = qubit()
    # [[1, 2], [2, 1]] is not in the cone; shift by identity: [[3, 2], [2, 3]]
    # has eigenvalues 5 and 1, so lambda = 5.
    x = Element(space, matrix_to_coords(np.array([[3.0, 2.0], [2.0, 3.0]])))
    assert order_unit_lambda(x) == pytest.approx(5.0, abs=1e-10)


def test_order_unit_lambda_requires_cone_membership():
    space = classical3()
    with pytest.raises(NotInConeError):
        order_unit_lambda(Element(space, np.array([1.0, -1.0, 0.0])))


def test_order_unit_lambda_certifies_bound():
    # lambda e - x must land in the cone for random cone elements
    rng = np.random.default_rng(9)
    for space in (classical3(), qubit()):
        for _ in range(20):
            x = sample_cone(space, rng)
            lam = order_unit_lambda(x)
            gap = Element(space, lam * unit_element(space).coords - x.coords)
            assert is_positive(gap, 1e-8)
            # the bound is tight: shrinking lambda leaves the cone
            if lam > 1e-6:
                short = Element(
                    space, (lam * 0.99) * unit_element(space).coords - x.coords
                )
                assert not is_positive(short, 1e-12)


def test_normalize_state_unit_pairing():
    space = classical3()
    x = normalize_state(Element(space, np.array([1.0, 1.0, 2.0])))
    assert inner(unit_element(space), x) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("make", [classical3, qubit])
def test_unit_element_is_one_read_only_element_per_space(make):
    space = make()
    unit = unit_element(space)
    assert unit_element(space) is unit
    assert unit.space is space and not unit.coords.flags.writeable
    with pytest.raises(ValueError):
        unit.coords[0] = 2.0
    relabeled = space.with_id("later")
    assert unit_element(relabeled) is not unit
    assert unit_element(relabeled).space is relabeled
    # the pairing keeps the bits of a fresh element built from the unit
    x = sample_cone(space, np.random.default_rng(5))
    assert inner(unit, x) == float(space.unit @ (space.weights * x.coords))
    assert inner(unit, x) == inner(Element(space, space.unit), x)


def test_normalize_state_rejects_zero():
    space = classical3()
    with pytest.raises(ZeroStateError):
        normalize_state(zero_element(space))


def test_product_space_kron_structure():
    a, b = classical3(), classical3().with_id("c3b")
    prod = product_space(a, b)
    assert prod.dim == 9
    assert prod.cone_kind == "componentwise"
    assert np.abs(prod.metric - np.kron(a.metric, b.metric)).max() < 1e-14
    assert np.abs(prod.unit - np.ones(9)).max() < 1e-14


def test_product_of_psd_spaces_is_undecided_kind():
    prod = product_space(qubit(), qubit().with_id("q2b"))
    assert prod.cone_kind == "product"
    assert np.abs(prod.metric - np.eye(16)).max() < 1e-14


def test_tensor_element_coords_are_kron():
    a, b = classical3(), classical3().with_id("c3b")
    x = Element(a, np.array([1.0, 2.0, 3.0]))
    y = Element(b, np.array([0.5, 0.0, -1.0]))
    t = tensor_element(x, y)
    assert np.abs(t.coords - np.kron(x.coords, y.coords)).max() < 1e-14


def test_tensor_inner_factorizes():
    # <x1 ox y1, x2 ox y2> = <x1, x2> <y1, y2>
    rng = np.random.default_rng(13)
    a, b = classical3(), qubit()
    x1, x2 = (Element(a, rng.standard_normal(3)) for _ in range(2))
    y1, y2 = (Element(b, rng.standard_normal(4)) for _ in range(2))
    lhs = inner(tensor_element(x1, y1), tensor_element(x2, y2))
    rhs = inner(x1, x2) * inner(y1, y2)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_sample_cone_lands_in_cone():
    rng = np.random.default_rng(17)
    for space in (classical3(), qubit()):
        for _ in range(10):
            assert is_positive(sample_cone(space, rng))


def test_element_arithmetic():
    space = classical3()
    x = Element(space, np.array([1.0, 2.0, 3.0]))
    y = Element(space, np.array([1.0, 1.0, 1.0]))
    assert np.abs((x + y).coords - np.array([2.0, 3.0, 4.0])).max() < 1e-15
    assert np.abs((x - y).coords - np.array([0.0, 1.0, 2.0])).max() < 1e-15
    assert np.abs((2.0 * x).coords - np.array([2.0, 4.0, 6.0])).max() < 1e-15
    assert np.abs((-x).coords + x.coords).max() == 0.0


def test_default_tolerance_value():
    assert DEFAULT_TOL == 1e-9
