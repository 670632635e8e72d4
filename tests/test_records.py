"""The library's records are plain frozen classes, not dataclasses.

Eighteen record classes keep what they had as frozen dataclasses: the
``__init__`` parameters (names, order, defaults), ``FrozenInstanceError``
on assignment and deletion with the dataclass message, the dataclass
``repr`` (or the class's own), value equality and hashing for the five
value records, and identity equality for the others.  Only ``ScenarioDoc``
and ``BoundScenario`` are dataclasses, so ``import convexop`` has
``dataclasses`` build two classes, and the package compiles no code at run
time.
"""

import ast
import dataclasses
import inspect
import pathlib
import subprocess
import sys
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from convexop.classical import PhaseSpace, indicator_measurement, make_classical_space
from convexop.classical import permutation_evolution
from convexop.lattice import AntiLatticeWitness, OrderRelation
from convexop.operational import (
    EvolutionGroup,
    EvolveStep,
    MeasureStep,
    MeasurementSpec,
    OperationMap,
    SequenceResult,
    StepRecord,
)
from convexop.probes import ProbeFunctional
from convexop.quantum import KrausSet, ObservableDecomposition, StateVector
from convexop.scenario import BoundScenario, CheckResult, RunReport, ScenarioDoc
from convexop.spaces import Element, ModelSpace

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "convexop"

SPACE = make_classical_space(PhaseSpace(2, [1.0, 1.0]))
ELEMENT = Element(SPACE, [0.5, 0.5])
SPEC = indicator_measurement(SPACE, [0], name="low")
GROUP = permutation_evolution(SPACE, [1, 0])
RECORDS = (StepRecord("low", "in", 0.5),)

#: class -> (a factory of equal-field instances, the fields the dataclass
#: had, its __init__ parameters as inspect.signature printed them)
CLASSES = {
    ModelSpace: (
        lambda: ModelSpace("c", 2, [1.0, 1.0], "componentwise", [1.0, 1.0]),
        ("space_id", "dim", "weights", "cone_kind", "unit", "psd_dim"),
        "(space_id: 'str', dim: 'int', metric, cone_kind: 'str', unit,"
        " psd_dim: 'int | None' = None)",
    ),
    Element: (
        lambda: Element(SPACE, [0.5, 0.5]),
        ("space", "coords"),
        "(space: 'ModelSpace', coords: 'np.ndarray')",
    ),
    PhaseSpace: (
        lambda: PhaseSpace(2, [1.0, 1.0]),
        ("n", "mu"),
        "(n: 'int', mu: 'np.ndarray')",
    ),
    OrderRelation: (
        lambda: OrderRelation("less", ELEMENT),
        ("verdict", "witness"),
        "(verdict: 'str', witness: 'Element | None' = None)",
    ),
    AntiLatticeWitness: (
        lambda: AntiLatticeWitness(True, "less"),
        ("comparable", "relation", "c1", "c2", "dominator", "grid_step"),
        "(comparable: 'bool', relation: 'str | None' = None, c1: 'np.ndarray | None' = None,"
        " c2: 'np.ndarray | None' = None, dominator: 'np.ndarray | None' = None,"
        " grid_step: 'float' = 0.05)",
    ),
    OperationMap: (
        lambda: OperationMap(SPACE, [1.0, 0.0]),
        ("space", "_entries", "selectivity"),
        "(space: 'ModelSpace', matrix, selectivity: 'str' = 'selective')",
    ),
    MeasurementSpec: (
        lambda: MeasurementSpec("low", SPEC.outcomes, SPEC.parent),
        ("name", "outcomes", "parent"),
        "(name: 'str', outcomes: 'dict', parent: 'OperationMap | None' = None)",
    ),
    EvolutionGroup: (
        lambda: EvolutionGroup(SPACE, "permutation", [1, 0]),
        ("space", "kind", "permutation", "hamiltonian", "spectrum"),
        "(space: 'ModelSpace', kind: 'str', permutation: 'np.ndarray | None' = None,"
        " hamiltonian: 'np.ndarray | None' = None)",
    ),
    MeasureStep: (
        lambda: MeasureStep(SPEC, "in"),
        ("spec", "outcome"),
        "(spec: 'MeasurementSpec', outcome: 'str | None' = None)",
    ),
    EvolveStep: (
        lambda: EvolveStep(GROUP, 1.0),
        ("group", "delta"),
        "(group: 'EvolutionGroup', delta: 'float')",
    ),
    StepRecord: (
        lambda: StepRecord("low", "in", 0.5),
        ("name", "outcome", "conditional_probability"),
        "(name: 'str', outcome: 'str | None', conditional_probability: 'float')",
    ),
    SequenceResult: (
        lambda: SequenceResult(0.5, ELEMENT, RECORDS),
        ("probability", "final_state", "records"),
        "(probability: 'float', final_state: 'Element', records: 'tuple')",
    ),
    ProbeFunctional: (
        lambda: ProbeFunctional((SPACE, SPACE), [1.0, 0.0, 0.0, 1.0]),
        ("boundary", "coeffs", "proper"),
        "(boundary: 'tuple', coeffs: 'np.ndarray', proper: 'bool' = False)",
    ),
    StateVector: (
        lambda: StateVector(2, [1.0, 0.0]),
        ("d", "amplitudes"),
        "(d: 'int', amplitudes: 'np.ndarray')",
    ),
    KrausSet: (
        lambda: KrausSet((np.eye(2),)),
        ("operators",),
        "(operators: 'tuple')",
    ),
    ObservableDecomposition: (
        lambda: ObservableDecomposition(((1.0, np.eye(2)),)),
        ("pairs",),
        "(pairs: 'tuple')",
    ),
    CheckResult: (
        lambda: CheckResult("cone_membership", "initial", True, "min value 5.000000e-01"),
        ("check", "target", "passed", "detail"),
        "(check: 'str', target: 'str', passed: 'bool', detail: 'str')",
    ),
    RunReport: (
        lambda: RunReport(0.5, (), {}, ()),
        ("probability", "per_step", "final_state", "validation"),
        "(probability: 'float', per_step: 'tuple', final_state: 'dict', validation: 'tuple')",
    ),
}

#: the records that were ``eq=True`` dataclasses
VALUES = {MeasureStep, EvolveStep, StepRecord, SequenceResult, CheckResult}

#: the records with a ``__repr__`` of their own, as they print the instance
#: their factory makes
OWN_REPRS = {
    ModelSpace: "ModelSpace('c', dim=2, cone=componentwise)",
    Element: "Element('classical', [0.5 0.5])",
    OperationMap: "OperationMap('classical', selective)",
    ProbeFunctional: "ProbeFunctional([classical, classical], proper=False)",
}

each_class = pytest.mark.parametrize("cls", list(CLASSES), ids=lambda cls: cls.__name__)


@each_class
def test_the_init_parameters_are_the_dataclass_ones(cls):
    parameters = inspect.signature(cls).parameters.values()
    assert "(" + ", ".join(map(str, parameters)) + ")" == CLASSES[cls][2]


@each_class
def test_assignment_and_deletion_raise_as_on_a_frozen_dataclass(cls):
    record = CLASSES[cls][0]()
    for name in (*CLASSES[cls][1], "other"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    for name in CLASSES[cls][1]:
        getattr(record, name)  # every field is still there


@each_class
def test_the_repr_is_the_dataclass_format_or_the_class_own(cls):
    record = CLASSES[cls][0]()
    if cls in OWN_REPRS:
        assert repr(record) == OWN_REPRS[cls]
        return
    # the dataclass left EvolutionGroup.spectrum out of its repr
    shown = [name for name in CLASSES[cls][1] if name != "spectrum"]
    twin = dataclasses.make_dataclass(cls.__name__, shown, frozen=True)
    assert repr(record) == repr(twin(*(getattr(record, name) for name in shown)))


@each_class
def test_value_records_compare_by_their_fields_and_the_others_by_identity(cls):
    make, fields, _ = CLASSES[cls]
    a, b = make(), make()
    assert a is not b and a == a
    if cls in VALUES:
        assert a == b and hash(a) == hash(b)
        assert a != tuple(getattr(a, name) for name in fields)
    else:
        assert a != b
        assert hash(a) == object.__hash__(a)


def test_value_records_differ_when_a_field_does():
    assert StepRecord("low", "in", 0.5) != StepRecord("low", "in", 0.25)
    assert EvolveStep(GROUP, 1.0) != EvolveStep(GROUP, 2.0)
    assert MeasureStep(SPEC, "in") != MeasureStep(SPEC, "out")
    # an equal-field spec is another spec
    assert MeasureStep(SPEC, "in") != MeasureStep(CLASSES[MeasurementSpec][0](), "in")
    assert MeasureStep(SPEC, "unobserved") == MeasureStep(SPEC, None)


def test_only_the_two_documents_are_dataclasses():
    assert not any(map(dataclasses.is_dataclass, CLASSES))
    assert dataclasses.is_dataclass(ScenarioDoc) and dataclasses.is_dataclass(BoundScenario)


def test_import_has_dataclasses_build_only_the_two_documents():
    code = (
        "import dataclasses\n"
        "built, process = [], dataclasses._process_class\n"
        "def counted(cls, *args):\n"
        "    built.append(cls.__qualname__)\n"
        "    return process(cls, *args)\n"
        "dataclasses._process_class = counted\n"
        "import convexop\n"
        "print(sorted(built))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "['BoundScenario', 'ScenarioDoc']\n"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_the_package_compiles_no_code_at_run_time(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not called & {"exec", "eval", "compile"}
