"""One positivity rule: a margin passes when it is at least
``-scaled_tol(tol, x)``, with ``x`` the numbers of the object judged.

Cone membership, the Choi check, the witness command's input gate and the
dominator grid all judge this way, so a large but physical object is not
held to an absolute threshold.  The command line refuses a tolerance or a
grid step that would make the verdicts meaningless, with the usage error.
"""

import json
import pathlib

import numpy as np
import pytest

from convexop.cli import main
from convexop.hermitian import random_unitary
from convexop.operational import OperationMap
from convexop.quantum import (
    KrausSet,
    choi_cp_check,
    kraus_operation,
    make_quantum_space,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "quantum_zx.yaml"
WITNESS = ROOT / "scenarios" / "witness_canonical.yaml"

# A and B = 2A: comparable, B above A; A's least eigenvalue rounds to about
# -7e-12 of its spectral radius 4.2e7
A = "[[28694167.734, -19369539.64], [-19369539.64, 13075098.373]]"
TWO_A = "[[57388335.468, -38739079.28], [-38739079.28, 26150196.746]]"


@pytest.mark.parametrize("d", [2, 4, 8])
def test_large_kraus_maps_are_completely_positive(d):
    rng = np.random.default_rng([11, d])
    space = make_quantum_space(d)
    for scale in (1e3, 1e4, 1e5):
        for count in (1, 2, 3):
            ops = tuple(
                scale * random_unitary(d, rng) / np.sqrt(count) for _ in range(count)
            )
            report = choi_cp_check(kraus_operation(space, KrausSet(ops)))
            assert report.is_cp, (scale, count, report.min_eigenvalue)


def test_a_large_transpose_map_is_still_not_completely_positive():
    # scaling the tolerance by the spectrum must not forgive a negative
    # eigenvalue of the object's own size
    flip = np.diag([1.0, 1.0, -1.0, 1.0]) * 1e6
    report = choi_cp_check(OperationMap(make_quantum_space(2), flip))
    assert not report.is_cp
    assert report.min_eigenvalue == pytest.approx(-1e6, rel=1e-9)


def test_witness_gate_accepts_a_large_psd_pair(tmp_path, capsys):
    path = tmp_path / "pair.yaml"
    path.write_text(f"A: {A}\nB: {TWO_A}\n")
    assert main(["witness-antilattice", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["comparable"] is True
    assert result["relation"] == "less"


def test_witness_bounds_are_judged_at_the_scale_of_the_inputs(tmp_path, capsys):
    # the first bound is built out of A at scale 4e7 and keeps its rounding,
    # while it and B are about 1: judged at their own scale, "first bound is
    # not below an input" exited 3
    path = tmp_path / "pair.yaml"
    path.write_text(f"A: {A}\nB: [[1, 0], [0, 0.5]]\n")
    assert main(["witness-antilattice", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["comparable"] is False
    assert result["c1"] is not None and result["c2"] is not None


def test_witness_gate_keeps_its_message(tmp_path, capsys):
    path = tmp_path / "pair.yaml"
    path.write_text("A: [[1, 0], [0, -0.5]]\nB: [[1, 0], [0, 1]]\n")
    assert main(["witness-antilattice", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: A: not positive semidefinite (min eigenvalue -5.000000e-01)\n"


# ---------------------------------------------------------------------------
# option values that would make the verdicts meaningless
# ---------------------------------------------------------------------------

TOL_COMMANDS = [
    ["run", str(SCENARIO)],
    ["validate", str(SCENARIO)],
    ["witness-antilattice", str(WITNESS)],
]


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf", "abc"])
@pytest.mark.parametrize("command", TOL_COMMANDS, ids=lambda c: c[0])
def test_a_bad_tolerance_is_a_usage_error(command, value, capsys):
    with pytest.raises(SystemExit) as info:
        main([*command, f"--tol={value}"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "argument --tol" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "0.01", "2.5", "abc"])
def test_a_bad_grid_step_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as info:
        main(["witness-antilattice", str(WITNESS), f"--grid-step={value}"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "argument --grid-step" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, code",
    [pytest.param(c, code, id=c[0]) for c, code in zip(TOL_COMMANDS, [3, 3, 0])],
)
def test_a_zero_tolerance_is_accepted(command, code, capsys):
    # an exact rule: the rounding in the scenario's checks then fails them
    assert main([*command, "--tol", "0"]) == code
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0.02", "2"])
def test_the_grid_step_bounds_are_accepted(value, capsys):
    assert main(["witness-antilattice", str(WITNESS), "--grid-step", value]) == 0
    assert json.loads(capsys.readouterr().out)["grid_step"] == float(value)
