"""Each input is checked once, where it enters.

The binder holds one table from state, evolution and measurement form to
the model kind it needs, and every YAML matrix goes through one shape check.
A document nested deeper than ``MAX_NESTING`` levels is refused before
libyaml composes it, merge-key copies of a ``measure`` node bind once, and
one rule rejects a time step whose phases overflow on every evolution path.
"""

import inspect
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import convexop.scenario as scenario
from convexop.errors import (
    InvalidEvolutionError,
    ScenarioSchemaError,
    ScenarioSyntaxError,
    ScenarioValidationError,
)
from convexop.hermitian import (
    basis_expand,
    matrix_to_coords,
    random_hermitian,
    require_hermitian,
)
from convexop.operational import (
    EvolveStep,
    OperationMap,
    evolution_operation,
    evolve,
    measurement_defects,
)
from convexop.probes import ProbeFunctional, compose
from convexop.quantum import (
    from_matrix,
    hamiltonian_evolution,
    make_quantum_space,
    spectral_measurement,
)
from convexop.scenario import (
    MAX_NESTING,
    MAX_NESTING_WORK,
    bind_scenario,
    parse_scenario_text,
    validate_scenario,
)
from convexop.spaces import ModelSpace

QUANTUM = "model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\n"
CLASSICAL = "model: {kind: classical, n: 2, mu: [1, 1]}\ninitial: {values: [1, 1]}\n"


def _measure(form_and_payload: str) -> str:
    return f"steps: [{{measure: {{name: m, outcome: unobserved, {form_and_payload}}}}}]\n"


# ---------------------------------------------------------------------------
# one model-kind rule
# ---------------------------------------------------------------------------

WRONG_MODEL = {
    # quantum forms on the classical model
    "pure": ("model: {kind: classical, n: 2, mu: [1, 1]}\ninitial: {pure: [1, 0]}\n"
             "steps: []\n", "initial.pure", "quantum state form"),
    "matrix": ("model: {kind: classical, n: 2, mu: [1, 1]}\n"
               "initial: {matrix: [[1, 0], [0, 0]]}\nsteps: []\n",
               "initial.matrix", "quantum state form"),
    "hamiltonian": (CLASSICAL + "evolution: {hamiltonian: [[1, 0], [0, -1]]}\nsteps: []\n",
                    "evolution.hamiltonian", "quantum evolution form"),
    "observable": (CLASSICAL + _measure("observable: [[1, 0], [0, -1]]"),
                   "steps[0].measure.observable", "quantum measurement form"),
    "projectors": (CLASSICAL + _measure("projectors: {a: [[1, 0], [0, 0]]}"),
                   "steps[0].measure.projectors", "quantum measurement form"),
    "kraus": (CLASSICAL + _measure("kraus: {a: [[[1, 0], [0, 1]]]}"),
              "steps[0].measure.kraus", "quantum measurement form"),
    # classical forms on the quantum model
    "values": ("model: {kind: quantum, d: 2}\ninitial: {values: [1, 1]}\nsteps: []\n",
               "initial.values", "classical state form"),
    "permutation": (QUANTUM + "evolution: {permutation: [[0, 1]]}\nsteps: []\n",
                    "evolution.permutation", "classical evolution form"),
    "subset": (QUANTUM + _measure("subset: [0]"),
               "steps[0].measure.subset", "classical measurement form"),
}


@pytest.mark.parametrize("form", sorted(WRONG_MODEL))
def test_a_form_on_the_other_model_is_refused_at_its_path(form):
    text, path, what = WRONG_MODEL[form]
    need = what.split()[0]
    with pytest.raises(ScenarioValidationError) as info:
        bind_scenario(parse_scenario_text(text))
    assert str(info.value) == f"{path}: a {what} needs the {need} model"


def test_a_form_on_the_other_model_is_refused_in_post_selection():
    text = QUANTUM + "steps: []\npost_selection: {values: [1, 0]}\n"
    with pytest.raises(ScenarioValidationError, match="^post_selection.values: "):
        bind_scenario(parse_scenario_text(text))


@pytest.mark.parametrize(
    "head, rows",
    [
        (QUANTUM, "[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"),
        (CLASSICAL, "[[1, 0], [0, 1]]"),
    ],
)
def test_coords_matrix_fits_either_model(head, rows):
    text = head + _measure(f"coords_matrix: {{a: {rows}}}")
    checks = validate_scenario(parse_scenario_text(text))
    assert checks and all(c.passed for c in checks)


# ---------------------------------------------------------------------------
# one shape check for YAML matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "payload, path",
    [
        ("kraus: {a: [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}",
         "steps[0].measure.kraus['a']"),
        ("projectors: {a: [[1, 0], [0, 0]], b: [[1]]}", "steps[0].measure.projectors['b']"),
    ],
)
def test_a_wrong_size_operator_is_refused_at_its_label(payload, path):
    with pytest.raises(ScenarioValidationError) as info:
        bind_scenario(parse_scenario_text(QUANTUM + _measure(payload)))
    assert str(info.value).startswith(f"{path}: expected a 2 by 2 matrix, got (")


# ---------------------------------------------------------------------------
# an explicit coords_matrix parent
# ---------------------------------------------------------------------------

SPLIT = "coords_matrix: {a: [[1, 0], [0, 0]], b: [[0, 0], [0, 1]]}"


def test_an_explicit_parent_is_bound_and_validated():
    bound = bind_scenario(parse_scenario_text(
        CLASSICAL + _measure(f"{SPLIT}, parent: [[1, 0], [0, 1]]")
    ))
    parent = bound.steps[0].spec.parent
    assert parent.selectivity == "nonselective"
    assert np.array_equal(parent.matrix, np.eye(2))
    assert all(c.passed for c in validate_scenario(bound))


def test_an_explicit_parent_that_breaks_completeness_fails_validation():
    checks = validate_scenario(parse_scenario_text(
        CLASSICAL + _measure(f"{SPLIT}, parent: [[1, 0], [0, 0.5]]")
    ))
    failed = {c.check for c in checks if not c.passed}
    assert failed == {"completeness", "causality"}


def test_a_wrong_size_parent_is_refused_at_its_path():
    with pytest.raises(ScenarioValidationError) as info:
        bind_scenario(parse_scenario_text(CLASSICAL + _measure(f"{SPLIT}, parent: [[1]]")))
    assert str(info.value) == "steps[0].measure.parent: expected a 2 by 2 matrix, got (1, 1)"


# ---------------------------------------------------------------------------
# a psd space's order unit is the identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("unit", [
    2.0 * matrix_to_coords(np.eye(2)),
    matrix_to_coords(np.diag([1.0, 2.0])),
    np.array([np.nan, 0.0, 0.0, 0.0]),
])
def test_a_psd_unit_other_than_the_identity_is_refused(unit):
    with pytest.raises(ValueError, match="psd order unit must be the identity matrix"):
        ModelSpace("q", 4, np.ones(4), "psd", unit, psd_dim=2)


# ---------------------------------------------------------------------------
# nesting depth, bounded before libyaml composes the document
# ---------------------------------------------------------------------------

def _nested_extra(levels: int) -> str:
    return QUANTUM + "steps: []\nextra: " + "[" * levels + "]" * levels + "\n"


def test_nesting_up_to_the_limit_reaches_the_schema():
    # the root mapping is one level
    with pytest.raises(ScenarioSchemaError, match="unknown field 'extra'"):
        parse_scenario_text(_nested_extra(MAX_NESTING - 1))


def test_nesting_one_level_past_the_limit_is_a_syntax_error():
    with pytest.raises(ScenarioSyntaxError) as info:
        parse_scenario_text(_nested_extra(MAX_NESTING))
    assert f"nested deeper than {MAX_NESTING} levels" in str(info.value)


@pytest.mark.parametrize(
    "text",
    [
        # each "[" opens a sequence and a single-pair mapping inside it
        "extra: " + "[a: " * (MAX_NESTING // 2 + 10) + "x" + "]" * (MAX_NESTING // 2 + 10),
        # block mappings on lines broken by carriage returns and by U+2028
        "".join(" " * i + f"k{i}:\r" for i in range(MAX_NESTING + 10)),
        "".join(" " * i + f"k{i}:\u2028" for i in range(MAX_NESTING + 10)),
        "- " * (MAX_NESTING + 10) + "x\n",
        "? " * (MAX_NESTING + 10) + "x\n",
    ],
    ids=["flow-pairs", "cr-breaks", "ls-breaks", "block-dashes", "block-keys"],
)
def test_every_way_to_open_a_level_counts_toward_the_limit(text):
    with pytest.raises(ScenarioSyntaxError, match=f"nested deeper than {MAX_NESTING}"):
        parse_scenario_text(text)


def test_witness_input_is_bounded_too():
    text = "A: [[1, 0], [0, 0]]\nB: " + "[" * (MAX_NESTING + 1) + "]" * (MAX_NESTING + 1)
    with pytest.raises(ScenarioSyntaxError, match=f"nested deeper than {MAX_NESTING}"):
        scenario.parse_witness_text(text)


@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize(
    "body",
    [
        QUANTUM + "steps: []\nextra: " + "[" * 100_000 + "]" * 100_000 + "\n",
        "- " * 100_000 + "x\n",
    ],
    ids=["flow", "block"],
)
def test_a_document_100000_levels_deep_exits_2_quickly(tmp_path, verb, body):
    path = tmp_path / "deep.yaml"
    path.write_text(body)
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "convexop", verb, str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 2, result.stderr[-300:]
    assert f"nested deeper than {MAX_NESTING} levels" in result.stderr
    assert result.stdout == ""
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# merge-key copies of a measure node bind once
# ---------------------------------------------------------------------------

def _merge_document(copy: str = "{<<: *m}", copies: int = 19, d: int = 16) -> str:
    rng = np.random.default_rng(3)
    h = random_hermitian(d, rng).real
    rows = "[" + ", ".join("[" + ", ".join(repr(float(x)) for x in r) + "]" for r in h) + "]"
    head = (f"model: {{kind: quantum, d: {d}}}\ninitial: {{pure: [1{', 0' * (d - 1)}]}}\n"
            f"steps:\n  - measure: &m {{name: O, outcome: unobserved, observable: {rows}}}\n")
    return head + f"  - measure: {copy}\n" * copies


@pytest.mark.parametrize("copy", ['{<<: *m}', '{<<: *m, outcome: "0"}'])
def test_merge_key_copies_share_one_spec(monkeypatch, copy):
    calls = []
    bind = scenario._bind_measure
    monkeypatch.setattr(
        scenario, "_bind_measure", lambda *args: calls.append(args) or bind(*args)
    )
    bound = bind_scenario(parse_scenario_text(_merge_document(copy)))
    assert len(calls) == 1
    assert len({id(step.spec) for step in bound.steps}) == 1
    # cone, normalizable, completeness, causality, 16 outcomes and the parent
    assert len(validate_scenario(bound)) == 21


def test_a_renamed_merge_key_copy_is_its_own_measurement():
    text = _merge_document("{<<: *m, name: P}", copies=1, d=2)
    bound = bind_scenario(parse_scenario_text(text))
    assert [step.spec.name for step in bound.steps] == ["O", "P"]
    assert bound.steps[0].spec is not bound.steps[1].spec


def test_different_forms_on_one_payload_object_bind_apart():
    # at d = 1 the same 1 by 1 table is a valid projector and coordinate map
    text = ("model: {kind: quantum, d: 1}\ninitial: {pure: [1]}\nsteps:\n"
            "  - measure: {name: m, outcome: a, projectors: &t {a: [[0.5]]}}\n"
            "  - measure: {name: m, outcome: a, coords_matrix: *t}\n")
    first, second = (step.spec for step in bind_scenario(parse_scenario_text(text)).steps)
    assert first is not second
    assert second.outcomes["a"].matrix[0, 0] == 0.5
    assert first.outcomes["a"].matrix[0, 0] == pytest.approx(0.25, abs=1e-15)


# ---------------------------------------------------------------------------
# one time-step rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta", [1e308, -1e308, float("inf"), float("nan")])
def test_every_evolution_path_rejects_an_overflowing_time(delta):
    group = hamiltonian_evolution(np.diag([2.0, -1.0]))
    state = from_matrix(group.space, np.eye(2) / 2)
    message = r"times the generator's spectrum overflows"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in (
            lambda: evolve(group, delta, state),
            lambda: evolution_operation(group, delta),
            lambda: EvolveStep(group, delta),
        ):
            with pytest.raises(InvalidEvolutionError, match=message):
                path()


def test_a_large_finite_phase_still_evolves():
    group = hamiltonian_evolution(np.diag([1.0, -1.0]))
    state = from_matrix(group.space, np.eye(2) / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = evolve(group, 1e300, state)
    assert np.all(np.isfinite(out.coords))


# ---------------------------------------------------------------------------
# values the library built are not checked again
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", range(1, 7))
def test_the_choi_matrix_of_a_real_map_is_exactly_hermitian(d):
    rng = np.random.default_rng(d)
    for _ in range(10):
        matrix = rng.normal(size=(d * d, d * d)) * 10.0 ** rng.integers(-6, 6)
        images = basis_expand(OperationMap(make_quantum_space(d), matrix).matrix)
        units = basis_expand(images.reshape(d * d, d * d).T).reshape(d, d, d, d)
        choi = units.transpose(2, 1, 3, 0).reshape(d * d, d * d)
        assert np.array_equal(choi, choi.conj().T)


def test_from_matrix_still_refuses_a_non_hermitian_matrix():
    with pytest.raises(ValueError, match="not Hermitian"):
        from_matrix(make_quantum_space(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "function, dropped",
    [
        (require_hermitian, {"tol"}),
        (matrix_to_coords, {"tol"}),
        (measurement_defects, {"completeness_tol", "causality_tol"}),
        (spectral_measurement, {"degeneracy_tol"}),
    ],
)
def test_tolerances_no_caller_set_are_constants(function, dropped):
    assert not dropped & set(inspect.signature(function).parameters)


# ---------------------------------------------------------------------------
# composition without a basis contracts the shared factor directly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_compose_without_a_basis_matches_the_identity_basis_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    shared = make_quantum_space(int(rng.integers(1, 5)), "s")
    left = make_quantum_space(int(rng.integers(1, 4)), "a")
    right = make_quantum_space(int(rng.integers(1, 4)), "b")
    p_boundary = (left, shared) if rng.integers(2) else (shared, left)
    q_boundary = (shared, right) if rng.integers(2) else (right, shared)
    p = ProbeFunctional(p_boundary, rng.normal(size=left.dim * shared.dim))
    q = ProbeFunctional(q_boundary, rng.normal(size=right.dim * shared.dim))
    plain = compose(p, q, "s").coeffs
    assert np.array_equal(plain, compose(p, q, "s", basis=np.eye(shared.dim)).coeffs)


# ---------------------------------------------------------------------------
# nesting work: deep collections side by side are refused early
# ---------------------------------------------------------------------------

BAD_MU = pathlib.Path(__file__).resolve().parent.parent / "scenarios/malformed/bad_mu.yaml"


def _fanned_out(entries: int, levels: int) -> str:
    # bad_mu.yaml with its state fanned out to deeply nested entries
    text = BAD_MU.read_text(encoding="utf-8")
    deep = "[" * levels + "0" + "]" * levels
    return text.replace("values: [1, 1, 1]", "values: [" + ", ".join([deep] * entries) + "]")


def test_deep_collections_side_by_side_pass_the_nesting_work_bound():
    text = _fanned_out(65, 3000)
    assert len(text) > 390_000
    with pytest.raises(ScenarioSyntaxError) as info:
        parse_scenario_text(text)
    assert f"nesting work passes {MAX_NESTING_WORK:,}" in str(info.value)
    # stopped within the sixth deep entry, not at the end of the line
    assert info.value.column < 6 * 6004


def test_one_collection_just_under_the_depth_limit_stays_under_the_work_bound():
    # its work is about (MAX_NESTING - 1)**2, half the bound
    with pytest.raises(ScenarioSchemaError, match="unknown field 'extra'"):
        parse_scenario_text(_nested_extra(MAX_NESTING - 1))
    assert MAX_NESTING_WORK == 2 * MAX_NESTING**2
