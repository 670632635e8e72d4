"""Sparse-basis contractions against the dense sums they replace, and the
YAML loader: libyaml parity and duplicate keys."""

import pathlib

import numpy as np
import pytest
import yaml

from convexop import OperationMap, choi_cp_check, make_quantum_space
from convexop.cli import main
from convexop.hermitian import (
    complex_coords,
    coords_to_matrix,
    hermitian_basis,
    kraus_matrix,
)
from convexop._libyaml import _Loader

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIMS = range(1, 9)


# dense references: contractions over every entry of the (d**2, d, d) basis

def dense_coords_to_matrix(coords):
    d = int(round(np.sqrt(coords.size)))
    return np.einsum("a,aij->ij", coords, hermitian_basis(d))


def dense_complex_coords(mat):
    return np.einsum("aij,ji->a", hermitian_basis(mat.shape[0]), mat)


def dense_kraus_matrix(ops):
    basis = hermitian_basis(ops.shape[-1])
    images = np.einsum("rij,ajk,rlk->ail", ops, basis, ops.conj())
    return np.real(np.einsum("pij,aji->pa", basis, images))


def dense_choi(matrix, d):
    basis = hermitian_basis(d)
    images = np.einsum("pa,pij->aij", matrix, basis)
    unit_images = np.einsum("aji,amn->ijmn", basis, images)
    choi = unit_images.transpose(2, 0, 3, 1).reshape(d * d, d * d)
    return (choi + choi.conj().T) / 2.0


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def complex_matrices(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("d", DIMS)
def test_coords_to_matrix_is_bitwise_dense(d):
    rng = np.random.default_rng([1, d])
    for _ in range(5):
        coords = rng.normal(size=d * d) * 10.0 ** rng.uniform(-3, 3)
        assert np.array_equal(bits(coords_to_matrix(coords)),
                              bits(dense_coords_to_matrix(coords)))


@pytest.mark.parametrize("d", DIMS)
def test_complex_coords_is_bitwise_dense(d):
    rng = np.random.default_rng([2, d])
    for _ in range(5):
        mat = complex_matrices(rng, d, d)
        assert np.array_equal(bits(complex_coords(mat)), bits(dense_complex_coords(mat)))


@pytest.mark.parametrize("d", DIMS)
def test_choi_matrix_is_bitwise_dense(d):
    rng = np.random.default_rng([3, d])
    space = make_quantum_space(d)
    for _ in range(3):
        matrix = rng.normal(size=(d * d, d * d))
        report = choi_cp_check(OperationMap(space, matrix, "selective"))
        assert np.array_equal(bits(report.choi), bits(dense_choi(matrix, d)))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("r", range(1, 5))
def test_kraus_matrix_matches_dense(d, r):
    rng = np.random.default_rng([4, d, r])
    for _ in range(3):
        ops = complex_matrices(rng, r, d, d)
        dense = dense_kraus_matrix(ops)
        scale = max(1.0, float(np.abs(dense).max()))
        assert np.abs(kraus_matrix(ops) - dense).max() <= 1e-15 * scale


@pytest.mark.parametrize("d", DIMS)
def test_one_kraus_operator_is_bitwise_dense(d):
    # projectors and unitaries, the maps behind the goldens, are this case
    rng = np.random.default_rng([5, d])
    ops = complex_matrices(rng, 1, d, d)
    assert np.array_equal(bits(kraus_matrix(ops)), bits(dense_kraus_matrix(ops)))


def rotation(d, angle):
    """A real rotation in the plane of the first two basis vectors."""
    rot = np.eye(d)
    if d > 1:
        c, s = np.cos(angle), np.sin(angle)
        rot[:2, :2] = [[c, -s], [s, c]]
    return rot


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("r", [1, 2])
def test_a_real_kraus_stack_gives_the_bits_of_its_complex_cast(d, r):
    for ops in (np.stack([np.eye(d)] * r) / np.sqrt(r),
                np.stack([rotation(d, 0.3 + k) for k in range(r)]) / np.sqrt(r)):
        assert ops.dtype == np.float64
        assert np.array_equal(bits(kraus_matrix(ops)), bits(kraus_matrix(ops.astype(complex))))


SCENARIO_FILES = sorted((ROOT / "scenarios").rglob("*.yaml"))


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml")
@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.name)
def test_libyaml_parses_like_pure_python(path):
    text = path.read_text(encoding="utf-8")
    try:
        expected = yaml.load(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError:
        for loader in (yaml.CSafeLoader, _Loader):
            with pytest.raises(yaml.YAMLError):
                yaml.load(text, Loader=loader)
        return
    assert yaml.load(text, Loader=yaml.CSafeLoader) == expected
    assert yaml.load(text, Loader=_Loader) == expected


DUPLICATE_MODEL = """\
model: {kind: quantum, d: 2}
initial:
  pure: [1, 0]
model: {kind: quantum, d: 3}
steps: []
"""

DUPLICATE_WITNESS = """\
A: [[1, 0], [0, 0]]
B: [[1, 0], [0, 1]]
A: [[0, 0], [0, 1]]
"""


@pytest.mark.parametrize(
    "verb, text, message",
    [
        ("run", DUPLICATE_MODEL, "found duplicate key 'model' (line 4, column 1)"),
        ("validate", DUPLICATE_MODEL, "found duplicate key 'model' (line 4, column 1)"),
        ("witness-antilattice", DUPLICATE_WITNESS,
         "found duplicate key 'A' (line 3, column 1)"),
    ],
)
def test_duplicate_key_exits_2(verb, text, message, tmp_path, capsys):
    path = tmp_path / "doc.yaml"
    path.write_text(text, encoding="utf-8")
    assert main([verb, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"error: {message}"


def test_duplicate_nested_key_is_rejected():
    with pytest.raises(yaml.YAMLError, match="found duplicate key 'd'"):
        yaml.load("model: {kind: quantum, d: 2, d: 3}\n", Loader=_Loader)


def test_merge_keys_load_as_with_safe_loader():
    text = "base: &b {kind: quantum, d: 2}\nmodel:\n  <<: *b\n  d: 3\n"
    assert yaml.load(text, Loader=_Loader) == yaml.load(text, Loader=yaml.SafeLoader)
    assert yaml.load(text, Loader=_Loader)["model"] == {"kind": "quantum", "d": 3}
