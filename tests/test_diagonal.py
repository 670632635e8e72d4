"""Diagonal metrics and maps against their dense matrix forms.

A space keeps its metric as a weight vector and an indicator measurement
keeps its maps as diagonals.  Each product with such a diagonal has one
nonzero term per row, so the vector kernels must give the same bits as the
dense ``np.diag`` products they replace; the dense forms are written out
here as the reference.
"""

import numpy as np
import pytest

from convexop.classical import PhaseSpace, indicator_measurement, make_classical_space
from convexop.operational import (
    MeasurementSpec,
    OperationMap,
    apply_operation,
    completeness_gap,
    order_unit_defect,
)
from convexop.spaces import (
    DEFAULT_TOL,
    Element,
    ModelSpace,
    inner,
    product_space,
    same_structure,
    scaled_tol,
)


def random_case(seed: int):
    """A classical space of random size, an indicator measurement on it with
    the indicator ``chi`` of its subset, and two random elements."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 513))
    mu = rng.uniform(0.1, 3.0, size=n)
    space = make_classical_space(PhaseSpace(n, mu))
    subset = np.flatnonzero(rng.uniform(size=n) < 0.4)
    chi = np.zeros(n)
    chi[subset] = 1.0
    spec = indicator_measurement(space, subset)
    x = Element(space, rng.standard_normal(n))
    y = Element(space, rng.uniform(0.0, 2.0, size=n))
    return rng, mu, chi, spec, x, y


def maps_and_diagonals(spec, chi):
    """The outcome maps and the parent, each with the diagonal it should hold."""
    return zip(
        (spec.outcomes["in"], spec.outcomes["out"], spec.parent),
        (chi, 1.0 - chi, chi + (1.0 - chi)),
    )


SEEDS = range(40)


def test_inner_matches_dense_metric_bitwise():
    for seed in SEEDS:
        _, mu, _, _, x, y = random_case(seed)
        assert inner(x, y) == float(x.coords @ (np.diag(mu) @ y.coords)), seed


def test_indicator_maps_act_like_dense_diagonals_bitwise():
    for seed in SEEDS:
        _, _, chi, spec, x, _ = random_case(seed)
        for op, diagonal in maps_and_diagonals(spec, chi):
            expected = np.diag(diagonal) @ x.coords
            assert np.array_equal(apply_operation(op, x).coords, expected), seed


def test_completeness_gap_matches_dense_form_bitwise():
    for seed in SEEDS:
        _, _, chi, spec, _, _ = random_case(seed)
        total = np.diag(chi) + np.diag(1.0 - chi)
        parent = np.diag(chi + (1.0 - chi))
        gap = float(np.abs(total - parent).max())
        assert completeness_gap(spec) == (gap, scaled_tol(DEFAULT_TOL, parent)), seed


def test_order_unit_defect_matches_dense_form_bitwise():
    for seed in SEEDS:
        _, mu, chi, spec, _, _ = random_case(seed)
        g = np.diag(mu) @ spec.space.unit
        for op, diagonal in maps_and_diagonals(spec, chi):
            defect = float(np.abs(np.diag(diagonal).T @ g - g).max())
            assert order_unit_defect(op) == (defect, scaled_tol(DEFAULT_TOL, g)), seed


def test_diagonal_outcomes_under_a_dense_parent():
    # a measurement mixing diagonal and dense maps compares dense matrices
    for seed in SEEDS[:10]:
        rng, _, _, spec, _, _ = random_case(seed)
        n = spec.space.dim
        parent = np.eye(n) + 1e-3 * rng.standard_normal((n, n))
        mixed = MeasurementSpec(
            "mixed", spec.outcomes, OperationMap(spec.space, parent, "nonselective")
        )
        total = spec.outcomes["in"].matrix + spec.outcomes["out"].matrix
        gap = float(np.abs(total - parent).max())
        assert completeness_gap(mixed) == (gap, scaled_tol(DEFAULT_TOL, parent)), seed


def test_indicator_outcome_matrix_is_the_dense_diagonal():
    space = make_classical_space(PhaseSpace(5, [1.0, 2.0, 1.0, 0.5, 1.0]))
    spec = indicator_measurement(space, [1, 3])
    chi = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    assert np.array_equal(spec.outcomes["in"].matrix, np.diag(chi))
    assert np.array_equal(spec.outcomes["out"].matrix, np.diag(1.0 - chi))
    assert np.array_equal(spec.parent.matrix, np.eye(5))
    assert not spec.outcomes["in"].matrix.flags.writeable


def test_weight_vector_and_diagonal_metric_give_one_space():
    mu = np.array([2.0, 1.0, 0.5])
    from_vector = ModelSpace("c", 3, mu, "componentwise", np.ones(3))
    from_matrix = ModelSpace("c", 3, np.diag(mu), "componentwise", np.ones(3))
    assert same_structure(from_vector, from_matrix)
    assert np.array_equal(from_vector.weights, mu)
    assert np.array_equal(from_vector.metric, np.diag(mu))
    assert not from_vector.weights.flags.writeable
    assert not from_vector.metric.flags.writeable


def test_product_space_weights_are_the_kronecker_product():
    a = ModelSpace("a", 2, [1.0, 3.0], "componentwise", np.ones(2))
    b = ModelSpace("b", 3, [0.5, 2.0, 1.0], "componentwise", np.ones(3))
    prod = product_space(a, b)
    assert prod.weights.shape == (6,)
    assert np.array_equal(prod.metric, np.kron(a.metric, b.metric))


def test_off_diagonal_metric_is_rejected():
    # positive definite, but two basis vectors of the cone would pair to -0.5
    with pytest.raises(ValueError, match="diagonal"):
        ModelSpace(
            "bad", 2, np.array([[1.0, -0.5], [-0.5, 1.0]]), "componentwise", np.ones(2)
        )


def test_asymmetric_metric_keeps_its_message():
    with pytest.raises(ValueError, match="metric must be symmetric"):
        ModelSpace(
            "bad", 2, np.array([[1.0, 1.0], [0.0, 1.0]]), "componentwise", np.ones(2)
        )


NAN, INF = float("nan"), float("inf")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "metric, accepted",
    [
        ([[NAN, 0.0], [0.0, 1.0]], False),
        ([[INF, 0.0], [0.0, 1.0]], True),
        ([[1.0, 0.0], [0.0, -1.0]], False),  # indefinite
        ([[1.0, 0.0], [0.0, 0.0]], False),  # singular
        ([[1.0, 1.0], [1.0, 1.0]], False),  # rank one
        ([[1e-300, 0.0], [0.0, 1.0]], True),
        ([[-1.0, 0.0], [0.0, 1.0]], False),
    ],
    ids=["nan", "inf", "indefinite", "singular", "rank-one", "tiny", "negative"],
)
def test_edge_case_metrics(metric, accepted):
    def build():
        return ModelSpace("edge", 2, np.array(metric), "componentwise", np.ones(2))

    if accepted:
        build()
    else:
        with pytest.raises(ValueError):
            build()
