"""Command line behavior: verbs, exit codes, deterministic reports."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from convexop import __version__
from convexop.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run_main(*argv):
    return main([str(a) for a in argv])


def test_version_verb(capsys):
    assert run_main("version") == 0
    assert capsys.readouterr().out.strip() == f"convexop {__version__}"


def test_run_emits_report(capsys):
    assert run_main("run", SCENARIOS / "quantum_zx.yaml") == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert abs(data["probability"] - 0.5) < 1e-12
    assert list(data) == ["probability", "per_step", "final_state", "validation"]


def test_run_matches_golden_bytes(capsys):
    for name in ("quantum_zx", "classical_cycle", "postselect"):
        assert run_main("run", SCENARIOS / f"{name}.yaml") == 0
        out = capsys.readouterr().out
        golden = (GOLDEN / f"{name}.json").read_text()
        assert out == golden, f"report for {name} drifted from its golden copy"


#: stdout, stderr and exit code of each verb on each file under scenarios/,
#: keyed by "<verb> <path from the repo root>"; none depends on the path
CLI_OUTPUTS = json.loads((GOLDEN / "cli_outputs.json").read_text(encoding="utf-8"))
SCENARIO_FILES = sorted(p.relative_to(ROOT).as_posix() for p in SCENARIOS.rglob("*.yaml"))


@pytest.mark.parametrize("path", SCENARIO_FILES)
@pytest.mark.parametrize("verb", ["run", "validate", "witness-antilattice"])
def test_cli_output_matches_golden(verb, path, capsys):
    want = CLI_OUTPUTS[f"{verb} {path}"]
    assert run_main(verb, ROOT / path) == want["exit"]
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (want["stdout"], want["stderr"])


def test_run_twice_is_byte_identical(capsys):
    run_main("run", SCENARIOS / "postselect.yaml")
    first = capsys.readouterr().out
    run_main("run", SCENARIOS / "postselect.yaml")
    assert capsys.readouterr().out == first


def test_run_multiple_files_concatenates(capsys):
    code = run_main(
        "run", SCENARIOS / "quantum_zx.yaml", SCENARIOS / "classical_cycle.yaml"
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "quantum_zx.json").read_text() + (
        GOLDEN / "classical_cycle.json"
    ).read_text()


def test_report_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    assert run_main("run", SCENARIOS / "quantum_zx.yaml", "--report", target) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == (GOLDEN / "quantum_zx.json").read_text()


def test_report_flag_rejects_multiple_inputs(capsys):
    with pytest.raises(SystemExit) as info:
        run_main(
            "run",
            SCENARIOS / "quantum_zx.yaml",
            SCENARIOS / "postselect.yaml",
            "--report",
            "x.json",
        )
    assert info.value.code == 2


def test_quiet_flag_suppresses_stdout(capsys):
    assert run_main("run", SCENARIOS / "quantum_zx.yaml", "--quiet") == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "name, code",
    [
        ("bad_syntax.yaml", 2),
        ("bad_schema.yaml", 2),
        ("bad_mu.yaml", 3),
        ("bad_cp.yaml", 3),
        ("bad_conditioning.yaml", 4),
    ],
)
def test_exit_codes_for_malformed_inputs(name, code, capsys):
    assert run_main("run", SCENARIOS / "malformed" / name) == code
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_missing_file_is_exit_2(capsys):
    assert run_main("run", SCENARIOS / "no_such_file.yaml") == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_is_exit_2():
    with pytest.raises(SystemExit) as info:
        run_main("run", "--bogus", SCENARIOS / "quantum_zx.yaml")
    assert info.value.code == 2


def test_failed_validation_prints_check_table(capsys):
    assert run_main("run", SCENARIOS / "malformed" / "bad_cp.yaml") == 3
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    failed = [c for c in data["validation"] if not c["passed"]]
    assert failed and all(c["check"] == "complete_positivity" for c in failed)
    assert "complete_positivity" in captured.err


def test_validate_verb_passes_good_file(capsys):
    assert run_main("validate", SCENARIOS / "quantum_zx.yaml") == 0
    data = json.loads(capsys.readouterr().out)
    assert all(c["passed"] for c in data["validation"])


def test_validate_verb_fails_non_cp_file(capsys):
    assert run_main("validate", SCENARIOS / "malformed" / "bad_cp.yaml") == 3
    data = json.loads(capsys.readouterr().out)
    assert any(not c["passed"] for c in data["validation"])


def test_validate_verb_accepts_bad_conditioning(capsys):
    # a zero-probability branch is a property of the run, not the document
    assert run_main("validate", SCENARIOS / "malformed" / "bad_conditioning.yaml") == 0


def test_witness_verb_matches_golden(capsys):
    assert run_main("witness-antilattice", SCENARIOS / "witness_canonical.yaml") == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "witness_canonical.json").read_text()
    data = json.loads(out)
    assert data["comparable"] is False
    assert data["dominator_found"] is False


def test_witness_verb_rejects_indefinite_input(tmp_path, capsys):
    bad = tmp_path / "w.yaml"
    bad.write_text("A: [[1, 0], [0, -1]]\nB: [[1, 0], [0, 1]]\n")
    assert run_main("witness-antilattice", bad) == 3
    assert "not positive semidefinite" in capsys.readouterr().err


def test_witness_verb_rejects_missing_matrix(tmp_path, capsys):
    bad = tmp_path / "w.yaml"
    bad.write_text("A: [[1, 0], [0, 1]]\n")
    assert run_main("witness-antilattice", bad) == 2


@pytest.mark.parametrize(
    "b, message",
    [
        # positivity of B is checked before its size is compared with A's
        (
            "[[1, 0, 0], [0, -1, 0], [0, 0, 1]]",
            "error: B: not positive semidefinite (min eigenvalue -1.000000e+00)\n",
        ),
        (
            "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
            "error: matrix size 3 does not match the space's 2\n",
        ),
    ],
)
def test_witness_verb_size_mismatch(b, message, tmp_path, capsys):
    bad = tmp_path / "w.yaml"
    bad.write_text(f"A: [[1, 0], [0, 1]]\nB: {b}\n")
    assert run_main("witness-antilattice", bad) == 3
    assert capsys.readouterr().err == message


def test_console_script_runs_in_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "convexop", "run", str(SCENARIOS / "quantum_zx.yaml")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "quantum_zx.json").read_text()


def test_subprocess_and_in_process_agree(capsys):
    run_main("run", SCENARIOS / "classical_cycle.yaml")
    in_process = capsys.readouterr().out
    result = subprocess.run(
        [sys.executable, "-m", "convexop", "run",
         str(SCENARIOS / "classical_cycle.yaml")],
        capture_output=True,
        text=True,
    )
    assert result.stdout == in_process


@pytest.mark.parametrize("verb", ["run", "validate", "witness-antilattice"])
def test_non_utf8_file_is_exit_2(verb, tmp_path, capsys):
    bad = tmp_path / "latin1.yaml"
    bad.write_bytes(b"model: {kind: quantum, d: 2}\n# caf\xff\n")
    assert run_main(verb, bad) == 2
    assert capsys.readouterr().err == "error: not UTF-8 text: byte 0xff at offset 34\n"


@pytest.mark.parametrize("verb", ["run", "validate"])
def test_fractional_permutation_step_is_exit_3(verb, tmp_path, capsys):
    doc = tmp_path / "half.yaml"
    doc.write_text(
        "model: {kind: classical, n: 2, mu: [1, 1]}\n"
        "initial: {values: [1, 0]}\n"
        "evolution: {permutation: [[0, 1]]}\n"
        "steps: [{evolve: {delta: 0.5}}]\n"
    )
    assert run_main(verb, doc) == 3
    assert capsys.readouterr().err == (
        "error: steps[0].evolve.delta: permutation evolution needs integer "
        "steps, got 0.5\n"
    )


@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize("d", [17, 100000000000])
def test_oversized_quantum_dimension_is_exit_3(verb, d, tmp_path, capsys):
    doc = tmp_path / "huge.yaml"
    doc.write_text(f"model: {{kind: quantum, d: {d}}}\ninitial: {{pure: [1]}}\nsteps: []\n")
    assert run_main(verb, doc) == 3
    assert capsys.readouterr().err == f"error: model.d: expected 1 to 16, got {d}\n"


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("verb", ["run", "validate", "version"])
def test_closed_stdout_is_exit_1_without_error_line(verb, unbuffered):
    # the reader is gone before the first byte is written; buffered output
    # fails at the flush, unbuffered output at the first write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    args = [] if verb == "version" else [str(SCENARIOS / "quantum_zx.yaml")]
    try:
        result = subprocess.run(
            [sys.executable, "-m", "convexop", verb, *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == ""


EVOLVE_DOC = (
    "model: {{kind: quantum, d: 2}}\n"
    "initial: {{pure: [1, 0]}}\n"
    "evolution: {{hamiltonian: [[0, 1], [1, 0]]}}\n"
    "steps: [{{evolve: {{delta: {delta}}}}}]\n"
)


@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize("delta", ["1e-3", "1.0e3"])
def test_exponent_without_dot_and_sign_is_a_string(verb, delta, tmp_path, capsys):
    # YAML 1.1 resolves a float only with a dot and a signed exponent
    doc = tmp_path / "evolve.yaml"
    doc.write_text(EVOLVE_DOC.format(delta=delta))
    assert run_main(verb, doc) == 2
    assert capsys.readouterr().err == (
        "error: steps[0].evolve.delta: expected a real number\n"
    )


@pytest.mark.parametrize("delta", ["1.0e-3", "1.0e+3"])
def test_exponent_with_dot_and_sign_is_a_real(delta, tmp_path, capsys):
    doc = tmp_path / "evolve.yaml"
    doc.write_text(EVOLVE_DOC.format(delta=delta))
    assert run_main("run", doc) == 0
    assert json.loads(capsys.readouterr().out)["probability"] == 1.0


def test_large_classical_document_runs_in_memory_linear_in_n(tmp_path):
    # n = 30000 points: a dense n x n map would take 6.7 GiB, so every
    # metric and indicator map has to stay a vector of n entries
    n = 30000
    low, even = list(range(n // 2)), list(range(0, n, 2))
    doc = tmp_path / "cells.yaml"
    doc.write_text(
        f"model: {{kind: classical, n: {n}, mu: {[1.0] * n}}}\n"
        f"initial: {{values: {[1.0] * n}}}\n"
        f"evolution: {{permutation: [{list(range(n))}]}}\n"
        "steps:\n"
        f"  - measure: {{name: low, outcome: in, subset: {low}}}\n"
        "  - evolve: {delta: 1}\n"
        f"  - measure: {{name: even, outcome: in, subset: {even}}}\n"
        f"  - measure: {{name: low, outcome: unobserved, subset: {low}}}\n"
    )
    # a wrapper process reports the peak resident size of the run alone
    probe = (
        "import resource, subprocess, sys\n"
        "result = subprocess.run(sys.argv[1:], capture_output=True, text=True)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "sys.stderr.write(result.stderr)\n"
        "print(result.returncode, peak)\n"
        "sys.stdout.write(result.stdout)\n"
    )
    started = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-c", probe,
         sys.executable, "-m", "convexop", "run", str(doc)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - started
    status, _, report = result.stdout.partition("\n")
    code, max_rss_kib = map(int, status.split())
    assert code == 0, result.stderr
    assert elapsed < 60.0
    assert max_rss_kib < 400 * 1024
    assert json.loads(report)["probability"] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("verb", ["run", "validate"])
@pytest.mark.parametrize("seed", ["!!int", '!!float ""'], ids=["int", "float"])
def test_empty_tagged_number_is_an_unreadable_scalar(verb, seed, tmp_path, capsys):
    doc = tmp_path / "seed.yaml"
    doc.write_text(
        "model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\nsteps: []\n"
        f"seed: {seed}\n"
    )
    assert run_main(verb, doc) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unreadable scalar: string index out of range\n"
