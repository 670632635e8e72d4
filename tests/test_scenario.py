"""Scenario documents: schema, binding, validation, execution, rendering."""

import pathlib
import sys

import numpy as np
import pytest
from test_loader_differential import composed_nodes

from convexop.errors import (
    ScenarioSchemaError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    ZeroProbabilityError,
)
from convexop.operational import completeness_gap
from convexop.scenario import (
    bind_scenario,
    parse_scenario_text,
    render_json,
    render_report,
    run_scenario,
    serialize_scenario,
    validate_scenario,
)

ROOT = pathlib.Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import docs  # noqa: E402  (the bench's document generators)
from worker import MIXES  # noqa: E402

QUANTUM_ZX = """
model: {kind: quantum, d: 2}
initial: {pure: [1, 0]}
steps:
  - measure: {name: Z, observable: [[1, 0], [0, -1]], outcome: "1"}
  - measure: {name: X, observable: [[0, 1], [1, 0]], outcome: "1"}
"""

CLASSICAL_CHAIN = """
model: {kind: classical, n: 3, mu: [1, 1, 1]}
initial: {values: [1, 1, 1]}
evolution: {permutation: [[0, 1, 2]]}
steps:
  - measure: {name: low, subset: [0, 1], outcome: in}
  - evolve: {delta: 1}
  - measure: {name: mid, subset: [1], outcome: in}
"""


def test_parse_minimal_quantum_document():
    doc = parse_scenario_text(QUANTUM_ZX)
    assert doc.model == {"kind": "quantum", "d": 2}
    assert len(doc.steps) == 2
    assert doc.evolution is None and doc.post_selection is None and doc.seed is None


def test_parse_serialize_round_trip():
    for text in (QUANTUM_ZX, CLASSICAL_CHAIN):
        doc = parse_scenario_text(text)
        assert parse_scenario_text(serialize_scenario(doc)) == doc


def test_a_serialized_document_is_read_by_lines():
    # no list is wrapped across lines, and '1' is a single-quoted scalar
    zx = (ROOT / "scenarios" / "quantum_zx.yaml").read_text(encoding="utf-8")
    cells = docs.make_pool("classical_cells", 0, MIXES["classical_cells"])[0].text
    for source in (zx, cells):
        doc = parse_scenario_text(source)
        text = serialize_scenario(doc)
        assert composed_nodes(text, parse_scenario_text) == (doc, 0)
    assert "outcome: '1'" in serialize_scenario(parse_scenario_text(zx))


def test_syntax_error_carries_position():
    with pytest.raises(ScenarioSyntaxError) as info:
        parse_scenario_text("model: {kind: quantum, d: 2\nsteps: []")
    assert info.value.line is not None
    assert "line" in str(info.value)


def test_empty_document_rejected():
    with pytest.raises(ScenarioSchemaError):
        parse_scenario_text("")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("initial: {pure: [1, 0]}\nsteps: []", "model"),
        ("model: {kind: quantum, d: 2}\nsteps: []", "initial"),
        ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}", "steps"),
        (QUANTUM_ZX + "\nextra: 1", "unknown field"),
        ("model: {kind: thermal}\ninitial: {values: [1]}\nsteps: []", "kind"),
        ("model: {kind: quantum, d: yes}\ninitial: {pure: [1, 0]}\nsteps: []",
         "integer"),
        ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0], values: [1]}\n"
         "steps: []", "exactly one"),
        ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\n"
         "steps: [{measure: {name: m, outcome: a}}]", "measurement form"),
        ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\n"
         "steps: [{measure: {name: m, outcome: a, observable: [[1, 0], [0]]}}]",
         "unequal"),
        ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\n"
         "steps: [{measure: {name: m, outcome: a, observable: [[.inf, 0], [0, 1]]}}]",
         "finite"),
        ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\n"
         "steps: [{evolve: {}}]", "delta"),
        ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\n"
         "steps: [{measure: {name: m, outcome: a, subset: [0], parent: [[1]]}}]",
         "unknown field"),
    ],
)
def test_schema_rejections(text, fragment):
    with pytest.raises(ScenarioSchemaError) as info:
        parse_scenario_text(text)
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "text, fragment",
    [
        # wrong state length
        ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0, 0]}\nsteps: []",
         "amplitudes"),
        # classical state form on a quantum model
        ("model: {kind: quantum, d: 2}\ninitial: {values: [1, 0]}\nsteps: []",
         "classical state form"),
        # measure length mismatch
        ("model: {kind: classical, n: 3, mu: [1, 1]}\ninitial: {values: [1, 1, 1]}\n"
         "steps: []", "mu"),
        # zero measure entry
        ("model: {kind: classical, n: 2, mu: [1, 0]}\ninitial: {values: [1, 1]}\n"
         "steps: []", "positive"),
        # unknown outcome label
        ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\n"
         "steps: [{measure: {name: Z, observable: [[1, 0], [0, -1]], outcome: up}}]",
         "unknown outcome"),
        # evolve step without a declared evolution
        ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\n"
         "steps: [{evolve: {delta: 1}}]", "declares no evolution"),
        # hamiltonian on a classical model
        ("model: {kind: classical, n: 2, mu: [1, 1]}\ninitial: {values: [1, 1]}\n"
         "evolution: {hamiltonian: [[1, 0], [0, -1]]}\nsteps: []",
         "quantum model"),
        # permutation on a quantum model
        ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\n"
         "evolution: {permutation: [[0, 1]]}\nsteps: []", "classical model"),
        # subset form on a quantum model
        ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\n"
         "steps: [{measure: {name: m, outcome: in, subset: [0]}}]",
         "classical model"),
        # overlapping cycles
        ("model: {kind: classical, n: 3, mu: [1, 1, 1]}\ninitial: {values: [1, 1, 1]}\n"
         "evolution: {permutation: [[0, 1], [1, 2]]}\nsteps: []", "two cycles"),
        # non-hermitian observable
        ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\n"
         "steps: [{measure: {name: m, outcome: \"0\", observable: [[0, 1], [0, 0]]}}]",
         "observable"),
    ],
)
def test_bind_rejections(text, fragment):
    doc = parse_scenario_text(text)
    with pytest.raises(ScenarioValidationError) as info:
        bind_scenario(doc)
    assert fragment in str(info.value)


def test_validate_reports_every_check():
    doc = parse_scenario_text(QUANTUM_ZX)
    checks = validate_scenario(doc)
    names = [(c.check, c.target) for c in checks]
    assert ("cone_membership", "initial") in names
    assert ("normalizable", "initial") in names
    assert ("completeness", "Z") in names
    assert ("causality", "X") in names
    assert ("complete_positivity", "Z:parent") in names
    assert all(c.passed for c in checks)


def test_validate_flags_non_cp_coordinate_map():
    text = """
model: {kind: quantum, d: 2}
initial: {pure: [1, 0]}
steps:
  - measure:
      name: flip
      coords_matrix:
        t: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
      outcome: t
"""
    checks = validate_scenario(parse_scenario_text(text))
    failed = [c for c in checks if not c.passed]
    assert failed and all(c.check == "complete_positivity" for c in failed)
    with pytest.raises(ScenarioValidationError) as info:
        run_scenario(parse_scenario_text(text))
    assert info.value.checks  # the failing table rides along


def test_validate_flags_negative_initial_state():
    text = """
model: {kind: quantum, d: 2}
initial: {matrix: [[1, 0], [0, -0.5]]}
steps: []
"""
    checks = validate_scenario(parse_scenario_text(text))
    cone = [c for c in checks if c.check == "cone_membership"][0]
    assert not cone.passed


def test_run_quantum_chain_probabilities():
    report = run_scenario(parse_scenario_text(QUANTUM_ZX))
    assert report.probability == pytest.approx(0.5, abs=1e-12)
    assert [s["name"] for s in report.per_step] == ["Z", "X"]
    assert report.per_step[0]["conditional_probability"] == pytest.approx(
        1.0, abs=1e-12
    )
    final = np.array(report.final_state["matrix"])
    assert np.abs(final[..., 0] - 0.5).max() < 1e-12  # all entries one half
    assert np.abs(final[..., 1]).max() < 1e-12  # no imaginary part


def test_run_classical_chain_probabilities():
    report = run_scenario(parse_scenario_text(CLASSICAL_CHAIN))
    assert report.probability == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report.final_state["values"] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
    assert report.per_step[1]["name"] == "evolve"
    assert report.per_step[1]["outcome"] is None


def test_run_post_selected_chain():
    text = """
model: {kind: quantum, d: 2}
initial: {pure: [0.7071067811865476, 0.7071067811865476]}
steps:
  - measure: {name: Z, observable: [[1, 0], [0, -1]], outcome: "1"}
post_selection: {pure: [0.8660254037844387, 0.5]}
"""
    report = run_scenario(parse_scenario_text(text))
    assert report.probability == pytest.approx(0.75, abs=1e-12)
    assert report.per_step[-1]["name"] == "post_selection"
    assert report.per_step[-1]["conditional_probability"] == pytest.approx(
        1.5, abs=1e-12
    )


def test_run_unobserved_outcome():
    text = """
model: {kind: quantum, d: 2}
initial: {pure: [0.7071067811865476, 0.7071067811865476]}
steps:
  - measure: {name: Z, observable: [[1, 0], [0, -1]], outcome: unobserved}
  - measure: {name: X, observable: [[0, 1], [1, 0]], outcome: "1"}
"""
    report = run_scenario(parse_scenario_text(text))
    assert report.probability == pytest.approx(0.5, abs=1e-12)
    assert report.per_step[0]["outcome"] == "unobserved"


def test_run_zero_probability_conditioning():
    text = """
model: {kind: quantum, d: 2}
initial: {pure: [1, 0]}
steps:
  - measure: {name: Z, observable: [[1, 0], [0, -1]], outcome: "0"}
"""
    with pytest.raises(ZeroProbabilityError):
        run_scenario(parse_scenario_text(text))


def test_run_normalizes_raw_weights():
    text = """
model: {kind: classical, n: 2, mu: [1, 1]}
initial: {values: [3, 1]}
steps:
  - measure: {name: first, subset: [0], outcome: in}
"""
    report = run_scenario(parse_scenario_text(text))
    assert report.probability == pytest.approx(0.75, abs=1e-12)


def test_run_kraus_measurement():
    # amplitude damping with gamma = 1 maps everything to |0>; the "decay"
    # outcome from |1> has probability 1
    text = """
model: {kind: quantum, d: 2}
initial: {pure: [0, 1]}
steps:
  - measure:
      name: damp
      kraus:
        stay: [[[1, 0], [0, 0]]]
        decay: [[[0, 1], [0, 0]]]
      outcome: decay
"""
    report = run_scenario(parse_scenario_text(text))
    assert report.probability == pytest.approx(1.0, abs=1e-12)
    final = np.array(report.final_state["matrix"])
    assert final[0][0] == pytest.approx([1.0, 0.0], abs=1e-12)


def test_run_projector_table_measurement():
    text = """
model: {kind: quantum, d: 2}
initial: {pure: [1, 0]}
steps:
  - measure:
      name: Z
      projectors:
        up: [[1, 0], [0, 0]]
        down: [[0, 0], [0, 1]]
      outcome: up
"""
    report = run_scenario(parse_scenario_text(text))
    assert report.probability == pytest.approx(1.0, abs=1e-12)


def test_complex_entries_parse_as_pairs():
    # sigma_y observable written with [re, im] pairs
    text = """
model: {kind: quantum, d: 2}
initial: {pure: [1, 0]}
steps:
  - measure:
      name: Y
      observable: [[0, [0, -1]], [[0, 1], 0]]
      outcome: "1"
"""
    report = run_scenario(parse_scenario_text(text))
    assert report.probability == pytest.approx(0.5, abs=1e-12)


def test_seed_is_recorded():
    doc = parse_scenario_text(QUANTUM_ZX + "seed: 7\n")
    assert doc.seed == 7


# rendering ------------------------------------------------------------------

def test_render_real_is_17_significant_digits():
    assert render_json(0.1) == "0.10000000000000001\n"
    assert render_json(1.0) == "1\n"
    assert render_json(-0.0) == "0\n"
    assert render_json(1.0 / 3.0) == "0.33333333333333331\n"


def test_render_scalars_and_layout():
    text = render_json({"a": [1.0, 2.0], "b": {"c": None, "d": True}})
    assert text == (
        '{\n  "a": [1, 2],\n  "b": {\n    "c": null,\n    "d": true\n  }\n}\n'
    )


def test_render_matrix_rows_inline():
    text = render_json([[1.0, 0.0], [0.0, 1.0]])
    assert text == "[[1, 0], [0, 1]]\n"


def test_render_rejects_non_finite():
    with pytest.raises(ValueError):
        render_json(float("nan"))


def test_report_rendering_is_deterministic():
    doc = parse_scenario_text(QUANTUM_ZX)
    first = render_report(run_scenario(doc))
    second = render_report(run_scenario(parse_scenario_text(QUANTUM_ZX)))
    assert first == second
    assert first.startswith('{\n  "probability": 0.49999999999999')
    for key in ('"per_step"', '"final_state"', '"validation"'):
        assert key in first


@pytest.mark.parametrize(
    "model, initial, form",
    [
        ("{kind: quantum, d: 3}", "{pure: [1, 0, 0]}",
         "observable: [[1, 0.3, 0], [0.3, 2, 0.7], [0, 0.7, 2.5]]"),
        ("{kind: quantum, d: 3}", "{pure: [1, 0, 0]}",
         "observable: [[2, 0, 0], [0, 1, 0.5], [0, 0.5, 1]]"),
        ("{kind: classical, n: 3, mu: [1, 2, 1]}", "{values: [1, 1, 1]}",
         "subset: [0, 2]"),
        ("{kind: quantum, d: 2}", "{pure: [1, 0]}",
         "projectors: {up: [[0.5, 0.5], [0.5, 0.5]], down: [[0.5, -0.5], [-0.5, 0.5]]}"),
        ("{kind: quantum, d: 2}", "{pure: [1, 0]}",
         "kraus: {stay: [[[1, 0], [0, 0.6]]], decay: [[[0, 0.8], [0, 0]]]}"),
        ("{kind: classical, n: 2, mu: [1, 1]}", "{values: [1, 1]}",
         "coords_matrix: {a: [[0.3, 0.1], [0.7, 0.2]], b: [[0.7, 0.9], [0.3, 0.8]]}"),
    ],
    ids=["observable", "degenerate", "subset", "projectors", "kraus", "coords_matrix"],
)
def test_parent_is_the_exact_sum_of_outcomes(model, initial, form):
    text = (
        f"model: {model}\ninitial: {initial}\n"
        f"steps: [{{measure: {{name: m, outcome: unobserved, {form}}}}}]\n"
    )
    spec = bind_scenario(parse_scenario_text(text)).steps[0].spec
    summed = sum(op.matrix for op in spec.outcomes.values())
    assert np.array_equal(spec.parent.matrix, summed)
    assert completeness_gap(spec)[0] == 0.0
