"""The README runs: its code blocks, its exit-code table and the bench's
malformed-file codes agree with the program.

Every fenced block of ``README.md`` but the ``sh`` ones is run.  A ``python``
block runs in a fresh interpreter with ``PYTHONPATH=src``, and each
``print(...)  # value`` comment must be the line that print writes.  A
``yaml`` block runs through ``python -m convexop``: a scenario with ``run``,
an ``A``/``B`` pair with ``witness-antilattice``; both must exit 0.  The
exit-code table must list exactly the ``cli.EXIT_*`` codes, and
``bench/check.py``'s ``MALFORMED_EXIT`` must give each file under
``scenarios/malformed/`` a code of that table, the one ``run`` exits with.
Each example of exit 2 that the table cites exits 2 through the CLI: the
scalars ``!!int abc`` and ``2001-13-01``, ``--tol -1`` and ``--tol nan``,
and ``--grid-step 0.01`` and ``--grid-step 3``.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from convexop import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
#: (language, text) of each fenced block, in order
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
ENV = {**os.environ, "PYTHONPATH": "src"}
#: the verb that runs a yaml block, by the block's first key
YAML_VERBS = {"model": "run", "A": "witness-antilattice"}
MALFORMED = sorted(p.stem for p in (ROOT / "scenarios" / "malformed").glob("*.yaml"))

sys.path.insert(0, str(ROOT / "bench"))
from check import MALFORMED_EXIT  # noqa: E402  (the bench's expected exit codes)


def blocks(language: str) -> list:
    return [text for kind, text in BLOCKS if kind == language]


def convexop(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "convexop", *args], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=60)


def table_codes() -> list:
    """The codes of the README's exit-code table, in its order."""
    table = README.split("Exit codes:", 1)[1].split("\n## ", 1)[0]
    return [int(code) for code in re.findall(r"^\| (\d+) \|", table, re.M)]


def test_every_fenced_block_has_a_language_the_tests_know():
    assert README.count("```") == 2 * len(BLOCKS)
    assert {kind for kind, _ in BLOCKS} == {"python", "yaml", "sh"}


@pytest.mark.parametrize("block", blocks("python"), ids=lambda block: "python")
def test_a_python_block_prints_what_its_comments_say(block):
    result = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=ENV,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    printed = result.stdout.splitlines()
    assert len(printed) == len(prints)  # one line per print call, in order
    claims = [(re.search(r"\)\s+# (.+)$", line), out) for line, out in zip(prints, printed)]
    assert any(comment for comment, _ in claims)
    for comment, out in claims:
        if comment:
            assert out == comment[1]


@pytest.mark.parametrize("block", blocks("yaml"), ids=lambda block: block.split(":", 1)[0])
def test_a_yaml_block_runs_through_the_cli(block, tmp_path):
    verb = YAML_VERBS[block.split(":", 1)[0]]
    path = tmp_path / "block.yaml"
    path.write_text(block, encoding="utf-8")
    result = convexop(verb, str(path))
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout


def test_the_yaml_blocks_cover_both_verbs():
    assert sorted(block.split(":", 1)[0] for block in blocks("yaml")) == sorted(YAML_VERBS)


def test_the_exit_code_table_lists_the_cli_codes():
    exits = sorted(getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_"))
    assert table_codes() == exits


@pytest.mark.parametrize("name", MALFORMED)
def test_a_malformed_file_exits_with_the_bench_code(name):
    assert sorted(MALFORMED_EXIT) == MALFORMED
    assert MALFORMED_EXIT[name] in set(table_codes()) - {cli.EXIT_OK}
    result = convexop("run", f"scenarios/malformed/{name}.yaml")
    assert result.returncode == MALFORMED_EXIT[name]


#: the exit-2 row of the table
UNREADABLE = re.search(r"^\| 2 \| (.*) \|$", README, re.M)[1]


@pytest.mark.parametrize("scalar", ["!!int abc", "2001-13-01"])
def test_a_scalar_the_table_cites_exits_2(scalar, tmp_path):
    assert f"`{scalar}`" in UNREADABLE
    path = tmp_path / "scalar.yaml"
    scenario = (ROOT / "scenarios" / "quantum_zx.yaml").read_text(encoding="utf-8")
    path.write_text(f"{scenario}seed: {scalar}\n", encoding="utf-8")
    result = convexop("run", str(path))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: unreadable scalar: ")


@pytest.mark.parametrize("cited, args", [
    ("a `--tol` that is negative", ["run", "--tol", "-1", "scenarios/quantum_zx.yaml"]),
    ("or not finite", ["run", "--tol", "nan", "scenarios/quantum_zx.yaml"]),
    ("a `--grid-step` outside `[0.02, 2]`",
     ["witness-antilattice", "--grid-step", "0.01", "scenarios/witness_canonical.yaml"]),
    ("a `--grid-step` outside `[0.02, 2]`",
     ["witness-antilattice", "--grid-step", "3", "scenarios/witness_canonical.yaml"]),
], ids=["tol -1", "tol nan", "grid-step 0.01", "grid-step 3"])
def test_an_argument_the_table_cites_exits_2(cited, args):
    assert cited in UNREADABLE
    result = convexop(*args)
    assert (result.returncode, result.stdout) == (2, "")
    assert f"error: argument {args[1]}: " in result.stderr
