"""Bind-layer and witness errors that no other test reaches, through the CLI.

Each document is well formed YAML that fits the schema, and fails when its
values are bound to the model: exit 3, nothing on stdout, one error line.
The documents are written to ``tmp_path``: the bench's ``cli_corpus`` runs
every file under ``scenarios/``.
"""

import pytest

from convexop.cli import main

QUBIT = "model: {kind: quantum, d: 2}\n"
PURE = "initial: {pure: [1, 0]}\n"
NO_STEPS = "steps: []\n"

CASES = [
    pytest.param(
        "model: {kind: classical, n: 3, mu: [1, 1, 1]}\ninitial: {values: [1, 2]}\n" + NO_STEPS,
        "initial.values: expected 3 entries, got 2", id="initial-values-length"),
    pytest.param(
        "model: {kind: classical, n: 2, mu: [1, 1]}\ninitial: {values: [1, 1]}\n" + NO_STEPS
        + "post_selection: {values: [1, 1, 1]}\n",
        "post_selection.values: expected 2 entries, got 3", id="post-selection-values-length"),
    pytest.param(
        QUBIT + "initial: {pure: [0, 0]}\n" + NO_STEPS,
        "initial.pure: amplitude vector is zero", id="initial-pure-zero"),
    pytest.param(
        "model: {kind: classical, n: 0, mu: [1]}\ninitial: {values: [1]}\n" + NO_STEPS,
        "model.n: need at least one point", id="model-no-points"),
    pytest.param(
        QUBIT + "initial: {matrix: [[1, 1], [0, 1]]}\n" + NO_STEPS,
        "initial.matrix: matrix is not Hermitian within tolerance",
        id="initial-matrix-not-hermitian"),
    pytest.param(
        QUBIT + PURE + "evolution: {hamiltonian: [[0, 1], [0, 0]]}\n" + NO_STEPS,
        "evolution.hamiltonian: matrix is not Hermitian within tolerance",
        id="hamiltonian-not-hermitian"),
    pytest.param(
        "model: {kind: classical, n: 2, mu: [1, 2]}\ninitial: {values: [1, 1]}\n"
        "evolution: {permutation: [[0, 1]]}\n" + NO_STEPS,
        "evolution.permutation: permutation does not preserve the measure",
        id="permutation-moves-the-measure"),
    pytest.param(
        QUBIT + PURE + "steps:\n  - measure:\n      name: p\n"
        "      projectors: {unobserved: [[1, 0], [0, 0]], b: [[0, 0], [0, 1]]}\n"
        "      outcome: b\n",
        "steps[0].measure: outcome label 'unobserved' is reserved for discarded results",
        id="projector-label-unobserved"),
]


@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize("text, message", CASES)
def test_a_value_that_does_not_bind_is_exit_3(verb, text, message, tmp_path, capsys):
    path = tmp_path / "doc.yaml"
    path.write_text(text, encoding="utf-8")
    assert main([verb, str(path)]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_witness_matrix_that_is_not_hermitian_is_exit_3(tmp_path, capsys):
    path = tmp_path / "witness.yaml"
    path.write_text("A: [[1, 1], [0, 1]]\nB: [[1, 0], [0, 1]]\n", encoding="utf-8")
    assert main(["witness-antilattice", str(path)]) == 3
    assert capsys.readouterr() == ("", "error: A: matrix is not Hermitian within tolerance\n")
