"""Mutated scenario files never reach the internal-error exit.

Hypothesis mutates every file under ``scenarios/`` (the valid scenarios, the
witness input and the malformed set), and two documents in the forms those
files do not use, with byte flips, deleted keys, swapped types, huge
numbers, aliases, deep nesting and scalars that do not fit their tags.  It
runs each mutant through ``convexop.cli.main`` under ``run`` and
``validate``.  Each run must exit 0, 2, 3 or 4, never 5 (internal error),
and finish within ``RUN_BOUND_S`` seconds.
"""

import contextlib
import copy
import io
import signal
import tempfile
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convexop.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

#: Valid documents in the forms no file under ``scenarios/`` uses: Hamiltonian
#: and permutation evolutions, Kraus, projector and coordinate-map
#: measurements, a density-matrix state and a classical post-selection.
EXTRA_SOURCES = {
    "hamiltonian_kraus.yaml": """\
model: {kind: quantum, d: 2}
initial: {matrix: [[0.5, [0, 0.5]], [[0, -0.5], 0.5]]}
evolution: {hamiltonian: [[1, [0, -1]], [[0, 1], -1]]}
steps:
  - evolve: {delta: 0.25}
  - measure:
      name: damp
      kraus: {k: [[[1, 0], [0, 0.6]]], j: [[[0, 0.8], [0, 0]]]}
      outcome: k
  - evolve: {delta: -1.5}
  - measure:
      name: P
      projectors: {up: [[1, 0], [0, 0]], down: [[0, 0], [0, 1]]}
      outcome: unobserved
post_selection: {pure: [0.6, [0, 0.8]]}
""",
    "permutation_coords.yaml": """\
model: {kind: classical, n: 3, mu: [1, 2, 1]}
initial: {values: [1, 1, 1]}
evolution: {permutation: [[0, 2]]}
steps:
  - evolve: {delta: 3}
  - measure:
      name: split
      coords_matrix:
        a: [[1, 0, 0], [0, 0.5, 0], [0, 0, 0]]
        b: [[0, 0, 0], [0, 0.5, 0], [0, 0, 1]]
      parent: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
      outcome: a
  - measure: {name: low, subset: [0, 1], outcome: in}
post_selection: {values: [1, 0, 1]}
""",
}
SOURCES = {
    **{
        path.relative_to(SCENARIOS).as_posix(): path.read_bytes()
        for path in sorted([*SCENARIOS.glob("*.yaml"), *(SCENARIOS / "malformed").iterdir()])
    },
    **{name: text.encode("utf-8") for name, text in EXTRA_SOURCES.items()},
}


def _tree(text):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError:
        return None


#: Parsed form of each source that parses, for the structural mutations.
TREES = {name: tree for name, text in SOURCES.items() if (tree := _tree(text)) is not None}

#: Each run gets this long; a run past ``3 * RUN_BOUND_S`` is interrupted.
RUN_BOUND_S = 10.0
EXPECTED_EXITS = {0, 2, 3, 4}

SWAPS = [None, True, "text", "", 0, -1, 2.5, [], {}, [0], {"x": 0}, [[1, 0], [0, 1]]]
HUGE = [
    10**400, -10**400, 2**63, 2**1024, 10**6, 17, 1e154, 1e200,
    1.7976931348623157e308, -1e308, 5e-324, float("inf"), float("-inf"), float("nan"),
]
#: Stand in for a deeply nested value and for a raw scalar until the tree is
#: dumped to text.
DEEP, RAW = "deep-nesting-placeholder", "raw-scalar-placeholder"
#: Scalars the dumper would quote: explicit tags the value does not fit, an
#: impossible date and an integer too long to convert.
RAW_SCALARS = [
    "!!int abc", "!!float x", "!!bool maybe", "!!timestamp x", "!!map [1]",
    "!!seq {a: 1}", "!!binary '%'", "2001-13-01", "9" * 5000,
]

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _paths(node, path=(), ancestors=frozenset()):
    """Every path into the tree, without walking round an alias cycle."""
    yield path
    if id(node) in ancestors or not isinstance(node, (dict, list)):
        return
    inner = ancestors | {id(node)}
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        yield from _paths(child, path + (key,), inner)


def _get(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _put(tree, path, value):
    """The tree with the node at ``path`` replaced; the root path replaces it all."""
    if not path:
        return value
    _get(tree, path[:-1])[path[-1]] = value
    return tree


def _mutate(data, tree):
    paths = list(_paths(tree))
    op = data.draw(st.sampled_from(
        ["delete_key", "swap_type", "huge_number", "alias", "fan_out", "deep", "raw"]))
    if op == "delete_key":
        keyed = [p for p in paths if p and isinstance(_get(tree, p[:-1]), dict)]
        if keyed:
            path = data.draw(st.sampled_from(keyed))
            del _get(tree, path[:-1])[path[-1]]
        return tree
    if op == "fan_out":
        lists = [p for p in paths if isinstance(_get(tree, p), list) and _get(tree, p)]
        if lists:
            items = _get(tree, data.draw(st.sampled_from(lists)))
            items.extend([data.draw(st.sampled_from(items))] * data.draw(st.integers(1, 64)))
        return tree
    path = data.draw(st.sampled_from(paths))
    if op == "swap_type":
        return _put(tree, path, copy.deepcopy(data.draw(st.sampled_from(SWAPS))))
    if op == "huge_number":
        return _put(tree, path, data.draw(st.sampled_from(HUGE)))
    if op == "alias":
        # the same object at two places dumps as an anchor and an alias; an
        # ancestor put below itself makes a cyclic document
        return _put(tree, path, _get(tree, data.draw(st.sampled_from(paths))))
    return _put(tree, path, DEEP if op == "deep" else RAW)


def _fill(text, data):
    """The dumped text with its placeholders replaced."""
    if DEEP in text:
        depth = data.draw(st.integers(1, 3000))
        open_, close = data.draw(st.sampled_from([("[", "]"), ("{a: ", "}")]))
        text = text.replace(DEEP, open_ * depth + "0" + close * depth)
    if RAW in text:
        text = text.replace(RAW, data.draw(st.sampled_from(RAW_SCALARS)))
    return text


class _Overrun(BaseException):
    """Raised by the alarm; not an ``Exception``, so the CLI cannot catch it."""


def _on_alarm(signum, frame):
    raise _Overrun()


def run_cli(command, path):
    """Exit code and standard error of ``convexop COMMAND PATH``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    return code, err.getvalue()


def assert_exits_cleanly(text: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.yaml"
        path.write_bytes(text)
        for command in ("run", "validate"):
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, 3 * RUN_BOUND_S)
            start = time.perf_counter()
            try:
                code, err = run_cli(command, path)
            except _Overrun:
                raise AssertionError(f"{command} ran past {3 * RUN_BOUND_S} s") from None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            elapsed = time.perf_counter() - start
            assert code in EXPECTED_EXITS, (command, code, err)
            assert elapsed <= RUN_BOUND_S, (command, elapsed)


@SETTINGS
@given(st.data())
def test_byte_flipped_files_exit_cleanly(data):
    text = bytearray(SOURCES[data.draw(st.sampled_from(sorted(SOURCES)))])
    flips = data.draw(st.lists(
        st.tuples(st.integers(0, len(text) - 1), st.integers(1, 255)), min_size=1, max_size=8))
    for offset, mask in flips:
        text[offset] ^= mask
    assert_exits_cleanly(bytes(text))


@SETTINGS
@given(st.data())
def test_structurally_mutated_files_exit_cleanly(data):
    tree = copy.deepcopy(TREES[data.draw(st.sampled_from(sorted(TREES)))])
    for _ in range(data.draw(st.integers(1, 3))):
        tree = _mutate(data, tree)
    text = _fill(yaml.safe_dump(tree, sort_keys=False), data)
    assert_exits_cleanly(text.encode("utf-8"))


def run_text(tmp_path, text, command):
    path = tmp_path / "doc.yaml"
    path.write_text(text)
    return run_cli(command, path)


QUBIT = "model: {kind: quantum, d: 2}\ninitial: {pure: [1, 0]}\n"


def test_integer_beyond_the_float_range_is_a_schema_error(tmp_path):
    # found by the huge-number mutation: the finiteness check overflowed
    text = QUBIT + f"post_selection: {{pure: [{10**400}, 0]}}\nsteps: []\n"
    for command in ("run", "validate"):
        assert run_text(tmp_path, text, command) == (
            2, "error: post_selection.pure[0]: expected a finite number\n")


@pytest.mark.parametrize("raw, message", [
    ("9" * 5000, "unreadable scalar: Exceeds the limit (4300 digits)"),
    ("2001-13-01", "unreadable scalar: month must be in 1..12"),
    ("!!bool maybe", "unreadable scalar: 'maybe'"),
    ("!!map [1]", "expected a mapping node, but found sequence"),
], ids=["long_integer", "impossible_date", "bool_tag", "map_tag"])
def test_scalar_that_does_not_fit_its_tag_is_a_syntax_error(tmp_path, raw, message):
    # PyYAML's constructors raised ValueError, KeyError or TypeError past the loader
    code, err = run_text(tmp_path, QUBIT + f"steps: []\nseed: {raw}\n", "run")
    assert code == 2 and err.startswith(f"error: {message}")


def test_deeply_nested_model_kind_is_a_schema_error(tmp_path):
    # found by the deep-nesting mutation: the message's repr overflowed the stack
    text = f"model: {{kind: {'[' * 3000}{']' * 3000}, d: 2}}\n" + QUBIT.split("\n", 1)[1]
    assert run_text(tmp_path, text + "steps: []\n", "validate") == (
        2, "error: model.kind: expected 'quantum' or 'classical', got [[[[[[[...]]]]]]]\n")


def test_evolution_time_whose_phases_overflow_is_invalid(tmp_path):
    text = QUBIT + (
        "evolution: {hamiltonian: [[10, 0], [0, -1]]}\n"
        "steps: [{evolve: {delta: 1.0e+308}}]\n"
    )
    for command in ("run", "validate"):
        assert run_text(tmp_path, text, command) == (
            3, "error: steps[0].evolve.delta: time 1e+308 times the generator's "
               "spectrum overflows\n")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_kraus_map_whose_choi_matrix_overflows_fails_validation(tmp_path):
    # the Choi check's eigensolver raised on the inf and NaN entries
    for entry in ("1.0e+154", "1.0e+200"):
        text = QUBIT + (
            f"steps: [{{measure: {{name: f, kraus: {{t: [[[{entry}, {entry}], "
            f"[{entry}, {entry}]]]}}, outcome: t}}}}]\n"
        )
        code, err = run_text(tmp_path, text, "run")
        assert code == 3 and "complete_positivity on 'f:t'" in err
        assert run_text(tmp_path, text, "validate") == (
            3, "error: validation checks failed\n")


def test_state_whose_pairing_overflows_is_not_normalizable(tmp_path):
    # found by the huge-number mutation: an inf pairing passed the check
    text = (
        "model: {kind: classical, n: 3, mu: [1, 9223372036854775808, 1]}\n"
        "initial: {values: [1, 1.7976931348623157e+308, 1]}\nsteps: []\n"
    )
    code, err = run_text(tmp_path, text, "run")
    assert code == 3 and err == (
        "error: validation failed: normalizable on 'initial' (order-unit pairing inf)\n")
    assert run_text(tmp_path, text, "validate") == (3, "error: validation checks failed\n")


def test_state_whose_norm_overflows_is_invalid(tmp_path):
    text = "model: {kind: quantum, d: 2}\ninitial: {pure: [1.0e+200, 0]}\nsteps: []\n"
    for command in ("run", "validate"):
        assert run_text(tmp_path, text, command) == (3, (
            "error: the input's numbers leave the float range: "
            "overflow encountered in dot\n"))
