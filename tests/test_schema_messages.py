"""Schema error messages, pinned word for word: one malformed document per
message template of the scenario and witness formats."""

import pytest

from convexop.errors import ScenarioSchemaError
from convexop.scenario import parse_scenario_text, parse_witness_text

Q = "model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\n"
C = "model: {kind: classical, n: 2, mu: [1, 1]}\ninitial: {values: [1, 1]}\n"
H = "evolution: {hamiltonian: [[1, 0], [0, -1]]}\n"
FORMS = "('observable', 'projectors', 'kraus', 'coords_matrix', 'subset')"


def measure(body):
    return Q + "steps:\n  - measure: {name: m, outcome: '0', %s}\n" % body


SCENARIO_MESSAGES = [
    # document and mappings
    ("", "document is empty"),
    ("- 1\n", "document: expected a mapping, got list"),
    ("model: {kind: quantum, d: 2}\ninitial: 3\nsteps: []\n",
     "initial: expected a mapping, got int"),
    # unknown and missing fields
    (Q + "steps: []\nextra: 1\n", "document: unknown field 'extra'"),
    ("initial: {pure: [1, 0]}\nsteps: []\n", "document: missing field 'model'"),
    ("model: {kind: quantum, d: 2, n: 3}\ninitial: {pure: [1, 0]}\nsteps: []\n",
     "model: unknown field 'n'"),
    ("model: {kind: classical, n: 2}\ninitial: {values: [1, 1]}\nsteps: []\n",
     "model: missing field 'mu'"),
    (measure("observable: [[1, 0], [0, -1]], parent: [[1]]"),
     "steps[0].measure: unknown field 'parent'"),
    (Q + "steps:\n  - evolve: {}\n", "steps[0].evolve: missing field 'delta'"),
    # leaves: real, finite, integer, string
    (Q + H + "steps:\n  - evolve: {delta: soon}\n",
     "steps[0].evolve.delta: expected a real number"),
    (Q + H + "steps:\n  - evolve: {delta: .inf}\n",
     "steps[0].evolve.delta: expected a finite number"),
    ("model: {kind: quantum, d: 2.5}\ninitial: {pure: [1, 0]}\nsteps: []\n",
     "model.d: expected an integer"),
    ("model: {kind: classical, n: true, mu: [1]}\ninitial: {values: [1]}\nsteps: []\n",
     "model.n: expected an integer"),
    (Q + "steps: []\nseed: one\n", "seed: expected an integer"),
    (Q + "steps:\n  - measure: {name: 3, outcome: '0', observable: [[1]]}\n",
     "steps[0].measure.name: expected a string"),
    # complex entries
    ("model: {kind: quantum, d: 2}\ninitial: {pure: [[1, 0, 0], 0]}\nsteps: []\n",
     "initial.pure[0]: complex entries are [re, im] pairs"),
    ("model: {kind: quantum, d: 2}\ninitial: {pure: [[1, x], 0]}\nsteps: []\n",
     "initial.pure[0][1]: expected a real number"),
    # matrices: rows, then widths before entries
    (measure("observable: []"),
     "steps[0].measure.observable: expected a nonempty list of rows"),
    (measure("observable: [[1, 0], []]"),
     "steps[0].measure.observable[1]: expected a nonempty row"),
    (measure("observable: [1, 0]"),
     "steps[0].measure.observable[0]: expected a nonempty row"),
    (measure("observable: [[1, 0], [0]]"),
     "steps[0].measure.observable[1]: rows have unequal lengths"),
    (measure("observable: [[1, 0], [x]]"),
     "steps[0].measure.observable[1]: rows have unequal lengths"),
    (measure("coords_matrix: {a: [[1, [0, 1]]]}"),
     "steps[0].measure.coords_matrix['a'][0][1]: expected a real number"),
    (measure("coords_matrix: {a: [[1]]}, parent: [[true]]"),
     "steps[0].measure.parent[0][0]: expected a real number"),
    # exactly one form
    ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0], matrix: [[1, 0], [0, 0]]}\n"
     "steps: []\n",
     "initial: exactly one of 'pure', 'matrix', 'values' is required"),
    ("model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0], phase: 0}\nsteps: []\n",
     "initial: unknown field 'phase'"),
    (Q + "evolution: {}\nsteps: []\n",
     "evolution: exactly one of 'hamiltonian', 'permutation' is required"),
    (Q + "steps:\n  - measure: {name: m, outcome: '0'}\n",
     f"steps[0].measure: exactly one measurement form out of {FORMS} is required"),
    (measure("observable: [[1]], subset: [0]"),
     f"steps[0].measure: exactly one measurement form out of {FORMS} is required"),
    # model kind
    ("model: {kind: qubit, d: 2}\ninitial: {pure: [1, 0]}\nsteps: []\n",
     "model.kind: expected 'quantum' or 'classical', got 'qubit'"),
    ("model: {d: 2}\ninitial: {pure: [1, 0]}\nsteps: []\n",
     "model.kind: expected 'quantum' or 'classical', got None"),
    ("model: {kind: [quantum], d: 2}\ninitial: {pure: [1, 0]}\nsteps: []\n",
     "model.kind: expected 'quantum' or 'classical', got ['quantum']"),
    # list nouns
    ("model: {kind: quantum, d: 2}\ninitial: {pure: []}\nsteps: []\n",
     "initial.pure: expected a nonempty list"),
    ("model: {kind: classical, n: 1, mu: [1]}\ninitial: {values: 1}\nsteps: []\n",
     "initial.values: expected a nonempty list"),
    ("model: {kind: classical, n: 1, mu: []}\ninitial: {values: [1]}\nsteps: []\n",
     "model.mu: expected a nonempty list"),
    (Q + "steps: []\npost_selection: {pure: x}\n",
     "post_selection.pure: expected a nonempty list"),
    (C + "evolution: {permutation: 1}\nsteps: []\n",
     "evolution.permutation: expected a list of cycles"),
    (C + "evolution: {permutation: [[0, 1], []]}\nsteps: []\n",
     "evolution.permutation[1]: expected a nonempty cycle"),
    (C + "evolution: {permutation: [[0, 1.5]]}\nsteps: []\n",
     "evolution.permutation[0][1]: expected an integer"),
    (C + "steps:\n  - measure: {name: m, outcome: in, subset: 0}\n",
     "steps[0].measure.subset: expected a list of point indices"),
    (C + "steps:\n  - measure: {name: m, outcome: in, subset: [a]}\n",
     "steps[0].measure.subset[0]: expected an integer"),
    (Q + "steps: {}\n", "steps: expected a list of steps"),
    (measure("kraus: {a: []}"),
     "steps[0].measure.kraus['a']: expected a nonempty list of matrices"),
    (measure("kraus: {a: [[[1, 0], [0, 1]], []]}"),
     "steps[0].measure.kraus['a'][1]: expected a nonempty list of rows"),
    # single measure or evolve field
    (Q + "steps:\n  - {measure: {}, evolve: {}}\n",
     "steps[0]: expected a single 'measure' or 'evolve' field"),
    (Q + "steps:\n  - {}\n", "steps[0]: expected a single 'measure' or 'evolve' field"),
    (Q + "steps:\n  - {wait: 1}\n",
     "steps[0]: expected a single 'measure' or 'evolve' field"),
    (Q + "steps:\n  - 1\n", "steps[0]: expected a mapping, got int"),
    (Q + "steps:\n  - evolve: 1\n", "steps[0].evolve: expected a mapping, got int"),
    # outcome tables
    (measure("projectors: [[1, 0], [0, 0]]"),
     "steps[0].measure.projectors: expected a mapping, got list"),
    (measure("kraus: {}"), "steps[0].measure.kraus: expected at least one outcome"),
    (measure("projectors: {1: [[1, 0], [0, 0]]}"),
     "steps[0].measure.projectors key: expected a string"),
    (measure("projectors: {a: [[1, 0], [0, [1, 2, 3]]]}"),
     "steps[0].measure.projectors['a'][1][1]: complex entries are [re, im] pairs"),
]

WITNESS_MESSAGES = [
    ("", "document is empty"),
    ("[1]\n", "document: expected a mapping, got list"),
    ("A: [[1, 0], [0, 1]]\n", "document: missing field 'B'"),
    ("A: [[1]]\nB: [[1]]\nC: 1\n", "document: unknown field 'C'"),
    ("A: []\nB: [[1]]\n", "A: expected a nonempty list of rows"),
    ("A: [[1, 0], [0, 1]]\nB: [[1, x], [0, 1]]\n", "B[0][1]: expected a real number"),
]


@pytest.mark.parametrize("text, message", SCENARIO_MESSAGES)
def test_scenario_schema_message(text, message):
    with pytest.raises(ScenarioSchemaError) as info:
        parse_scenario_text(text)
    assert type(info.value) is ScenarioSchemaError
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", WITNESS_MESSAGES)
def test_witness_schema_message(text, message):
    with pytest.raises(ScenarioSchemaError) as info:
        parse_witness_text(text)
    assert type(info.value) is ScenarioSchemaError
    assert str(info.value) == message
