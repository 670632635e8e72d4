"""A CLI call on a document the line reader takes never imports PyYAML.

``convexop.scenario`` reads plain block documents without PyYAML and
imports it (through ``convexop._libyaml``) only for a text off the reader's
grammar, a nesting walk past the reader's bound, or ``serialize_scenario``.
A fresh interpreter runs every verb on every file under ``scenarios/``
but the one malformed by its syntax, and ``yaml`` must stay out of
``sys.modules``; that file then imports it, with its golden output.  The
words the reader keeps as strings are those SafeLoader's resolver tags str.
"""

import json
import pathlib
import subprocess
import sys

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from convexop import scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLI_OUTPUTS = json.loads((ROOT / "tests" / "golden" / "cli_outputs.json").read_text("utf-8"))
BAD_SYNTAX = "scenarios/malformed/bad_syntax.yaml"
VERBS = ("run", "validate", "witness-antilattice")

#: Runs every verb on the given files in one interpreter; prints, as JSON,
#: whether ``yaml`` was imported after ``convexop.cli`` and after the calls,
#: and each call's output.
SCRIPT = """
import contextlib, io, json, sys
from convexop.cli import main

imported = ["yaml" in sys.modules]
calls = {}
for path in sys.argv[1:]:
    for verb in ("run", "validate", "witness-antilattice"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, path])
        calls[f"{verb} {path}"] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
imported.append("yaml" in sys.modules)
print(json.dumps({"imported": imported, "calls": calls}))
"""


def fresh_run(paths) -> dict:
    result = subprocess.run([sys.executable, "-c", SCRIPT, *paths], cwd=ROOT,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def test_cli_calls_on_documents_read_by_lines_never_import_yaml():
    paths = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "scenarios").rglob("*.yaml"))
    paths.remove(BAD_SYNTAX)
    assert len(paths) == 8
    got = fresh_run(paths)
    assert got["imported"] == [False, False]
    assert got["calls"] == {f"{verb} {path}": CLI_OUTPUTS[f"{verb} {path}"]
                            for path in paths for verb in VERBS}


def test_a_text_off_the_grammar_imports_yaml_with_its_golden_output():
    got = fresh_run([BAD_SYNTAX])
    assert got["imported"] == [False, True]
    assert got["calls"] == {f"{verb} {BAD_SYNTAX}": CLI_OUTPUTS[f"{verb} {BAD_SYNTAX}"]
                            for verb in VERBS}


# ---------------------------------------------------------------------------
# the word rule: a plain word kept as a str is one that YAML 1.1 tags str
# ---------------------------------------------------------------------------

#: The plain-word alternative of the reader's scalar token.
PLAIN_WORD = r"[-+.]?[0-9A-Za-z_][-+.0-9A-Za-z_]*"
#: Words near those SafeLoader's implicit resolvers take: bools, nulls,
#: numbers, timestamps, and words that only start like one of them.
NEAR = ["yes", "no", "true", "false", "on", "off", "null", "y", "n", "ye", "nul", "onn",
        "nan", "inf", ".inf", ".nan", "-1.0e5", "1e5", "1_0", "0x1F", "0b1", "0o7", "010",
        "2001-12-14", "2001-12-14t21", "1.", "+1", "-x", ".x", "1a", "_1", "a1", "true_",
        "Yes_", "NULLs"]


def cased(word: str):
    """The word with each letter in either case."""
    return st.tuples(*(st.sampled_from(sorted({c.lower(), c.upper()})) for c in word)).map("".join)


WORDS = st.one_of(st.from_regex(PLAIN_WORD, fullmatch=True), st.sampled_from(NEAR).flatmap(cased))
RESOLVER = yaml.SafeLoader("")


def test_the_plain_word_is_the_first_alternative_of_the_scalar_token():
    assert scenario._SCALAR.startswith(PLAIN_WORD + "|")


@settings(max_examples=1000, deadline=None)
@given(WORDS)
def test_a_word_the_reader_keeps_as_a_string_is_tagged_str_by_safe_loader(word):
    try:
        value = scenario._read_lines(f"{word}: {word}\n")
    except scenario._NotPlain:
        return
    key, = value
    for read in (key, value[key]):
        if type(read) is str:
            assert read == word
            assert RESOLVER.resolve(yaml.ScalarNode, word, (True, False)) == "tag:yaml.org,2002:str"
