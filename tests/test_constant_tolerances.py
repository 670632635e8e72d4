"""Tolerances that no caller sets are constants, and built matrices are trusted.

The public functions below take no tolerance, sample count, generator or
scale: each uses :data:`DEFAULT_TOL` (or the fixed value its docstring
names).  ``require_hermitian`` rejects NaN and inf entries, a Hamiltonian is
checked once per group, and differently named ``measure`` mappings that
alias one form payload share its maps and their Choi reports.
"""

import inspect
import os
import resource
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import convexop.operational as operational
import convexop.quantum as quantum
import convexop.scenario as scenario
from convexop import hermitian, probes, spaces
from convexop.errors import SpaceMismatchError
from convexop.hermitian import random_hermitian, require_hermitian
from convexop.operational import propagator
from convexop.quantum import (
    KrausSet,
    apply_kraus,
    from_matrix,
    hamiltonian_evolution,
    luders,
    make_quantum_space,
    spectral_measurement,
)
from convexop.scenario import (
    BoundScenario,
    bind_scenario,
    parse_scenario_text,
    validate_scenario,
)

REMOVED = [
    (quantum.born, "tol"),
    (quantum.luders, "tol"),
    (quantum.luders_pure, "tol"),
    (quantum._require_projector, "tol"),
    (quantum.kraus_nonselective_check, "tol"),
    (operational.predict, "tol"),
    (operational.update_state, "tol"),
    (operational.conditioned_probability, "tol"),
    (operational.is_nonselective, "tol"),
    (operational.check_positivity_sampled, "tol"),
    (spaces.order_unit_lambda, "tol"),
    (spaces.sample_cone, "scale"),
    (probes.outcome_probability, "tol"),
    (probes.certify_proper, "rng"),
    (probes.certify_proper, "samples"),
    (probes.certify_proper, "tol"),
    (hermitian.random_psd, "scale"),
    (hermitian.random_hermitian, "scale"),
    (scenario.bind_scenario, "tol"),
]

KEPT = [
    (scenario.run_scenario, "tol"),
    (scenario.validate_scenario, "tol"),
    (operational.run_sequence, "tol"),
    (operational.completeness_gap, "tol"),
    (operational.order_unit_defect, "tol"),
    (operational.check_positivity_sampled, "samples"),
    (spaces.normalize_state, "tol"),
    (spaces.is_positive, "tol"),
    (spaces.leq, "tol"),
    (quantum.choi_cp_check, "tol"),
    (probes.completeness_check, "tol"),
]


@pytest.mark.parametrize("func, name", REMOVED, ids=lambda x: getattr(x, "__name__", x))
def test_parameter_is_gone(func, name):
    assert name not in inspect.signature(func).parameters


@pytest.mark.parametrize("func, name", KEPT, ids=lambda x: getattr(x, "__name__", x))
def test_parameter_a_caller_sets_is_kept(func, name):
    assert name in inspect.signature(func).parameters


# ---------------------------------------------------------------------------
# non-finite matrices
# ---------------------------------------------------------------------------

NON_FINITE = {
    "nan on the diagonal": [[np.nan, 0], [0, 1]],
    "inf on the diagonal": [[np.inf, 0], [0, 1]],
    "inf off the diagonal": [[0, np.inf], [0, 0]],
    "imaginary inf": [[0, complex(0, np.inf)], [0, 0]],
    "nan pair": [[0, np.nan], [np.nan, 0]],
}


@pytest.mark.parametrize("mat", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize("use", [
    require_hermitian,
    lambda m: from_matrix(make_quantum_space(2), m),
    hamiltonian_evolution,
    spectral_measurement,
    lambda m: propagator(m, 0.5),
], ids=["require_hermitian", "from_matrix", "hamiltonian_evolution",
        "spectral_measurement", "propagator"])
def test_non_finite_entries_are_rejected(use, mat):
    # RuntimeWarnings are errors in this suite, so none may come first
    with pytest.raises(ValueError, match="not Hermitian"):
        use(np.array(mat, dtype=complex))


# ---------------------------------------------------------------------------
# the library trusts matrices it built
# ---------------------------------------------------------------------------

def _count_require_hermitian(monkeypatch) -> list:
    calls = []

    def counted(mat):
        calls.append(mat)
        return require_hermitian(mat)

    for module in (quantum, operational):
        monkeypatch.setattr(module, "require_hermitian", counted)
    return calls


@pytest.mark.parametrize("with_space", [False, True])
def test_a_hamiltonian_is_checked_once(monkeypatch, with_space):
    calls = _count_require_hermitian(monkeypatch)
    h = random_hermitian(3, np.random.default_rng(5))
    group = hamiltonian_evolution(h, make_quantum_space(3) if with_space else None)
    assert len(calls) == 1
    assert np.array_equal(group.hamiltonian, h)


@pytest.mark.parametrize("h, shape", [
    (2.0, "()"),
    ([1.0, 2.0], "(2,)"),
    ([[1, 2, 3], [4, 5, 6]], "(2, 3)"),
    (np.zeros((1, 2, 2)), "(1, 2, 2)"),
    (np.zeros(0), "(0,)"),
])
def test_a_hamiltonian_that_is_not_square_keeps_its_shape_error(h, shape):
    with pytest.raises(SpaceMismatchError) as info:
        hamiltonian_evolution(h)
    assert str(info.value) == f"expected a square matrix, got shape {shape}"


def test_kraus_and_luders_images_skip_the_hermiticity_check(monkeypatch):
    space = make_quantum_space(3)
    rng = np.random.default_rng(11)
    state = from_matrix(space, hermitian.random_density(3, rng))
    kraus = KrausSet((hermitian.random_unitary(3, rng) / np.sqrt(2),) * 2)
    projector = np.diag([1.0, 1.0, 0.0]).astype(complex)
    calls = _count_require_hermitian(monkeypatch)
    image = apply_kraus(kraus, state)
    conditioned = luders(state, projector)
    assert len(calls) == 1  # the caller's projector, in luders
    mat = quantum.to_matrix(state)
    ops = np.stack(kraus.operators)
    sandwich = np.einsum("rij,jk,rlk->il", ops, mat, ops.conj())
    assert np.array_equal(image.coords, from_matrix(space, sandwich).coords)
    weight = float(np.real(np.einsum("ij,ji->", projector, mat)))
    expected = from_matrix(space, (projector @ mat @ projector) / weight)
    assert np.array_equal(conditioned.coords, expected.coords)


def test_bound_scenario_keeps_only_what_is_read():
    assert [f.name for f in fields(BoundScenario)] == [
        "space", "initial", "steps", "post_selection"
    ]


# ---------------------------------------------------------------------------
# differently named mappings on one aliased form payload
# ---------------------------------------------------------------------------

def _named_alias_document(names: int = 19, d: int = 16) -> str:
    h = random_hermitian(d, np.random.default_rng(3)).real
    rows = "[" + ", ".join("[" + ", ".join(repr(float(x)) for x in r) + "]" for r in h) + "]"
    text = (f"model: {{kind: quantum, d: {d}}}\ninitial: {{pure: [1{', 0' * (d - 1)}]}}\n"
            f"steps:\n  - measure: {{name: O, outcome: unobserved, observable: &o {rows}}}\n")
    return text + "".join(
        f"  - measure: {{name: M{k}, outcome: unobserved, observable: *o}}\n"
        for k in range(1, names + 1)
    )


def test_named_aliases_build_their_maps_once(monkeypatch):
    kraus_calls, choi_calls = [], []
    kraus_matrix, choi_cp_check = quantum.kraus_matrix, scenario.choi_cp_check
    monkeypatch.setattr(
        quantum, "kraus_matrix", lambda ops: kraus_calls.append(1) or kraus_matrix(ops)
    )
    # validation calls choi_cp_check and keeps its verdict, never a Choi matrix
    monkeypatch.setattr(
        scenario, "choi_cp_check",
        lambda op, tol: choi_calls.append(op) or choi_cp_check(op, tol),
    )
    bound = bind_scenario(parse_scenario_text(_named_alias_document()))
    checks = validate_scenario(bound)
    assert len(kraus_calls) == 16
    # the 16 outcome maps and the parent, shared by all 20 names
    assert len(choi_calls) == len({id(op) for op in choi_calls}) == 17
    specs = [step.spec for step in bound.steps]
    assert [spec.name for spec in specs] == ["O"] + [f"M{k}" for k in range(1, 20)]
    assert len({id(spec) for spec in specs}) == 20
    assert all(spec.outcomes == specs[0].outcomes for spec in specs)
    assert all(spec.parent is specs[0].parent for spec in specs)
    # cone and normalizable, then per name completeness, causality,
    # 16 outcomes and the parent
    assert len(checks) == 382
    assert [c.target for c in checks if c.check == "causality"] == [s.name for s in specs]


def test_a_repeated_name_still_shares_its_spec():
    text = _named_alias_document(names=1, d=2)
    text += "  - measure: {name: M1, outcome: unobserved, observable: *o}\n"
    first, second, third = (step.spec for step in bind_scenario(parse_scenario_text(text)).steps)
    assert second is third
    assert first is not second
    assert len(validate_scenario(parse_scenario_text(text))) == 2 + 2 * 5


def child_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_named_alias_document_runs_quickly_through_the_cli(tmp_path):
    path = tmp_path / "aliases.yaml"
    path.write_text(_named_alias_document())
    # the child's CPU time, on one BLAS thread, measures the program; wall
    # time would measure the machine's other load too
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    start = child_cpu_seconds()
    result = subprocess.run(
        [sys.executable, "-m", "convexop", "run", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    cpu = child_cpu_seconds() - start
    assert result.returncode == 0, result.stderr[-300:]
    assert result.stdout.count('"check"') == 382
    assert cpu < 3.0
