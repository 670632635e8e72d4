"""Declarative scenario files: parsing, validation, execution, reports.

A scenario document describes one experiment: a model (classical phase
space or quantum dimension), an initial state, an optional evolution
generator, an ordered list of measurement and evolution steps, and an
optional post-selection.  Documents are YAML mappings with a strict
schema; unknown fields are rejected.

Complex numbers are written as ``[re, im]`` pairs wherever a matrix or
amplitude entry allows them.  A plain block document is read line by line,
without PyYAML, each one-line list of plain decimal numbers in one
``json.loads`` call, and any other text by libyaml whole, once
(:mod:`convexop._libyaml`, imported then); either way with the values, errors
and exit codes of a plain YAML load.  Reports are rendered to a canonical JSON
text with reals at 17 significant digits, so identical documents produce
byte-identical reports.

Measurement forms
-----------------
``observable``      Hermitian matrix; projective outcomes labeled "0", "1",
                    ... in ascending eigenvalue order (quantum).
``projectors``      mapping label -> Hermitian projector (quantum).
``kraus``           mapping label -> list of Kraus matrices (quantum).
``coords_matrix``   mapping label -> real matrix acting on storage
                    coordinates, any model; optional explicit ``parent``.
``subset``          list of point indices; outcomes "in"/"out" (classical).

Without an explicit ``parent`` the parent operation is the sum of the
outcome maps.  A ``measure`` node repeated through YAML aliases or merge
keys is bound, and so validated, once; mappings under other names that
alias its form payload share its maps.  A quantum ``model.d`` may be at
most :data:`MAX_QUANTUM_DIM`, and YAML collections nest at most
:data:`MAX_NESTING` levels deep, with at most :data:`MAX_NESTING_WORK` of
nesting work (the open depth summed over the parse events).
"""

from __future__ import annotations

import json
import math
import re
import reprlib
import sys
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, filterfalse
from json.encoder import encode_basestring_ascii as _json_string  # json.dumps of a str

import numpy as np

from .classical import (
    PhaseSpace,
    indicator_measurement,
    make_classical_space,
    permutation_evolution,
)
from .errors import (
    ConvexOpError,
    InvalidEvolutionError,
    ScenarioSchemaError,
    ScenarioSyntaxError,
    ScenarioValidationError,
)
from .hermitian import require_hermitian
from .operational import (
    UNOBSERVED,
    EvolveStep,
    MeasureStep,
    MeasurementSpec,
    OperationMap,
    completeness_gap,
    order_unit_defect,
    run_sequence,
    _first_bad_point,
)
from .quantum import (
    KrausSet,
    choi_cp_check,
    from_matrix,
    hamiltonian_evolution,
    kraus_operation,
    make_quantum_space,
    pure_state,
    spectral_measurement,
    to_matrix,
)
from .spaces import (
    DEFAULT_TOL,
    Element,
    cone_margin,
    margin_passes,
    normalize_state,
    pairing_passes,
    unit_pairing,
)

__all__ = [
    "BoundScenario",
    "CheckResult",
    "RunReport",
    "ScenarioDoc",
    "bind_scenario",
    "parse_scenario",
    "parse_scenario_text",
    "render_json",
    "render_report",
    "render_validation",
    "run_scenario",
    "serialize_scenario",
    "validate_scenario",
]

#: Largest quantum ``model.d``, checked before any allocation: maps take d**4 floats.
MAX_QUANTUM_DIM = 16

#: Deepest nesting of YAML collections, checked before a document is composed:
#: libyaml's composer recurses in C and overflows its stack near 30,000 levels.
MAX_NESTING = 5000

#: Most nesting work a document may ask of the loader: the open depth summed
#: over its parse events.  One collection nested 4,999 levels deep is about
#: 25 million; many deep collections side by side pass the bound quickly.
MAX_NESTING_WORK = 2 * MAX_NESTING**2

# ---------------------------------------------------------------------------
# schema (shape and type only; semantics live in bind_scenario)
# ---------------------------------------------------------------------------
#
# Each combinator below returns a checker ``check(value, path)`` that raises
# ScenarioSchemaError on the first violation, walking fields in declaration
# order.  The empty path is the document root.  A leaf checker also carries
# ``check.accepts_all(values)``, true only where every entry passes: lists and
# matrix rows walk their entries, building paths, only to name a violation.
# A list also skips the walk of each entry that its item's cheap
# ``check.accepts(value)`` passes, where the item has one.

def _fail(path: str, message: str):
    raise ScenarioSchemaError(f"{path or 'document'}: {message}")


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _instance(types, noun: str):
    """Leaf holding a value of ``types``; booleans never count as numbers."""

    def accepts(value) -> bool:
        return isinstance(value, types) and not isinstance(value, bool)

    def check(value, path: str) -> None:
        if not accepts(value):
            _fail(path, f"expected {noun}")

    check.accepts = accepts
    # by exact type, which leaves bool out; a subclass is left to the walk
    check.accepts_all = lambda values: set(map(type, values)) <= set(types)
    return check


_integer = _instance((int,), "an integer")
_string = _instance((str,), "a string")
_number = _instance((int, float), "a real number")


def _is_real(value) -> bool:
    # false for inf, nan and an integer beyond the float range alike
    return _number.accepts(value) and abs(value) <= sys.float_info.max


def _real(value, path: str) -> None:
    _number(value, path)
    if not _is_real(value):
        _fail(path, "expected a finite number")


def _complex(value, path: str) -> None:
    if not isinstance(value, list):
        return _real(value, path)
    if len(value) != 2:
        _fail(path, "complex entries are [re, im] pairs")
    _real(value[0], f"{path}[0]")
    _real(value[1], f"{path}[1]")


# C-level passes: exact types; max, exact past the float range; isfinite for NaN
_real.accepts_all = lambda values: (
    _number.accepts_all(values)
    and max(map(abs, values), default=0) <= sys.float_info.max
    and all(map(math.isfinite, values))
)
_is_list = partial(type.__instancecheck__, list)


def _all_complex(values) -> bool:
    # the reals, then the pairs: their lengths, then their entries
    pairs = list(filter(_is_list, values))
    return (
        _real.accepts_all(list(filterfalse(_is_list, values)))
        and set(map(len, pairs)) <= {2}
        and _real.accepts_all(list(chain.from_iterable(pairs)))
    )


_complex.accepts_all = _all_complex


def _matrix(entry):
    """Nonempty list of nonempty, equally long rows of ``entry`` leaves."""

    def check(value, path: str) -> None:
        if not isinstance(value, list) or not value:
            _fail(path, "expected a nonempty list of rows")
        for r, row in enumerate(value):
            if not isinstance(row, list) or not row:
                _fail(f"{path}[{r}]", "expected a nonempty row")
            if len(row) != len(value[0]):
                _fail(f"{path}[{r}]", "rows have unequal lengths")
            if not entry.accepts_all(row):
                for c, item in enumerate(row):
                    entry(item, f"{path}[{r}][{c}]")

    return check


def _list(noun: str, item, nonempty: bool = False):
    accepts_all = getattr(item, "accepts_all", None)  # only leaves carry one
    accepts = getattr(item, "accepts", None)

    def check(value, path: str) -> None:
        if not isinstance(value, list) or (nonempty and not value):
            _fail(path, f"expected a {noun}")
        if accepts_all is not None and accepts_all(value):
            return
        for k, entry in enumerate(value):
            if accepts is None or not accepts(entry):
                item(entry, f"{path}[{k}]")

    return check


def _record(fields: dict, optional=()):
    """Mapping with exactly the keys of ``fields``, some of them optional."""

    def check(value, path: str) -> None:
        mapping = _mapping(value, path)
        for key in mapping:
            if key not in fields:
                _fail(path, f"unknown field {key!r}")
        for key in fields:
            if key not in optional and key not in mapping:
                _fail(path, f"missing field {key!r}")
        for key, item in fields.items():
            if key in mapping:
                item(mapping[key], f"{path}.{key}" if path else key)

    return check


def _one_of(forms: dict, choice: str | None = None):
    """Mapping holding exactly one key of ``forms``; that form's record then
    checks the whole mapping."""
    choice = choice or "of " + ", ".join(map(repr, forms))

    def check(value, path: str) -> None:
        mapping = _mapping(value, path)
        present = [key for key in forms if key in mapping]
        if len(present) != 1:
            _fail(path, f"exactly one {choice} is required")
        forms[present[0]](mapping, path)

    return check


def _table(item):
    """Nonempty mapping from string outcome labels to ``item`` values."""

    def check(value, path: str) -> None:
        table = _mapping(value, path)
        if not table:
            _fail(path, "expected at least one outcome")
        for label, entry in table.items():
            _string(label, f"{path} key")
            item(entry, f"{path}[{label!r}]")

    return check


_COMPLEX_MATRIX = _matrix(_complex)
_REAL_MATRIX = _matrix(_real)

#: Measurement form -> schema of its payload, in the order forms are listed.
_MEASURE_PAYLOADS = {
    "observable": _COMPLEX_MATRIX,
    "projectors": _table(_COMPLEX_MATRIX),
    "kraus": _table(_list("nonempty list of matrices", _COMPLEX_MATRIX, nonempty=True)),
    "coords_matrix": _table(_REAL_MATRIX),
    "subset": _list("list of point indices", _integer),
}
MEASURE_FORMS = tuple(_MEASURE_PAYLOADS)

_STATE = _one_of({
    "pure": _record({"pure": _list("nonempty list", _complex, nonempty=True)}),
    "matrix": _record({"matrix": _COMPLEX_MATRIX}),
    "values": _record({"values": _list("nonempty list", _real, nonempty=True)}),
})

_MEASURE = _one_of(
    {
        form: _record(
            {"name": _string, "outcome": _string, form: payload}
            | ({"parent": _REAL_MATRIX} if form == "coords_matrix" else {}),
            optional=("parent",),
        )
        for form, payload in _MEASURE_PAYLOADS.items()
    },
    choice=f"measurement form out of {MEASURE_FORMS}",
)

_MODELS = {
    "quantum": _record({"kind": _string, "d": _integer}),
    "classical": _record({
        "kind": _string,
        "n": _integer,
        "mu": _list("nonempty list", _real, nonempty=True),
    }),
}


def _model(value, path: str) -> None:
    """Mapping whose 'kind' field names the record that checks it."""
    model = _mapping(value, path)
    kind = model.get("kind")
    if not isinstance(kind, str) or kind not in _MODELS:
        # reprlib cuts a deeply nested or long value short
        _fail(f"{path}.kind", f"expected 'quantum' or 'classical', got {reprlib.repr(kind)}")
    _MODELS[kind](model, path)


_STEPS = {"measure": _MEASURE, "evolve": _record({"delta": _real})}


def _step(value, path: str) -> None:
    """Mapping with a single field, 'measure' or 'evolve'."""
    step = _mapping(value, path)
    if len(step) != 1 or next(iter(step)) not in _STEPS:
        _fail(path, "expected a single 'measure' or 'evolve' field")
    ((key, payload),) = step.items()
    _STEPS[key](payload, f"{path}.{key}")


def _is_evolve_step(value) -> bool:
    """Whether ``value`` is ``{"evolve": {"delta": <finite real>}}`` in plain
    dicts, which :func:`_step` passes; anything else is left to the walk."""
    if type(value) is not dict or len(value) != 1:
        return False
    payload = value.get("evolve")
    return type(payload) is dict and len(payload) == 1 and _is_real(payload.get("delta"))


_step.accepts = _is_evolve_step


_SCENARIO = _record(
    {
        "model": _model,
        "initial": _STATE,
        "steps": _list("list of steps", _step),
        "evolution": _one_of({
            "hamiltonian": _record({"hamiltonian": _COMPLEX_MATRIX}),
            "permutation": _record({"permutation": _list(
                "list of cycles", _list("nonempty cycle", _integer, nonempty=True)
            )}),
        }),
        "post_selection": _STATE,
        "seed": _integer,
    },
    optional=("evolution", "post_selection", "seed"),
)

_WITNESS = _record({"A": _COMPLEX_MATRIX, "B": _COMPLEX_MATRIX})


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioDoc:
    """A schema-checked scenario document, payloads kept as parsed."""

    model: dict
    initial: dict
    steps: tuple
    evolution: dict | None = None
    post_selection: dict | None = None
    seed: int | None = None


#: A plain decimal literal: an integer without leading zeros, and for a
#: float a dot, digits and an optional signed exponent.  On these texts YAML
#: 1.1 and Python's ``int()`` and ``float()`` give the same value; every other
#: number form (octal, "_", "0x", "0b", sexagesimal, ".inf", ".nan") is left
#: to PyYAML.
_DECIMAL = re.compile(r"[-+]?(?:0|[1-9][0-9]*)(?:\.[0-9]*(?:[eE][-+][0-9]+)?)?")

#: The start of a plain word that YAML 1.1 may read as other than a str: one
#: of the 18 bool words or a null word, or a sign, dot or digit that may
#: start a number, which :data:`_DECIMAL` did not take.  SafeLoader's other
#: implicit resolvers start with "<", "=", "~" or match the empty word, and
#: no plain :data:`_SCALAR` starts so.
_NOT_STR = re.compile(r"[-+.0-9]|(?:yes|Yes|YES|no|No|NO|true|True|TRUE|false|False|FALSE"
                      r"|on|On|ON|off|Off|OFF|null|Null|NULL)\Z")


#: A one-line flow sequence of number characters nested at most 4 deep, as a
#: Kraus list is; a run of them holds no bracket, so a failed match gives up
#: in linear time.  :func:`_numbers` reads it.
_NUMBER_LIST = re.compile(r"\[N(?:\[N(?:\[N(?:\[N\]N)*\]N)*\]N)*\]".replace("N", "[-+.0-9eE, ]*"))

# The tokens of the line reader: a scalar is a word or number of plain
# characters, or a double- or single-quoted string without escapes or "''";
# a list is a one-line run of number characters in brackets, read only if it
# is a _NUMBER_LIST; an anchor or alias has libyaml's name characters.
_SCALAR = r"""[-+.]?[0-9A-Za-z_][-+.0-9A-Za-z_]*|"[ !#-[\]-~]*"|'[ -&(-~]*'"""
_LIST = r"\[[-+.0-9eE, \[\]]*\]"
_NAME = r"[-0-9A-Za-z_]+"


#: A one-line flow mapping of scalars, number lists and aliases, each value
#: anchored or not: pairs, each followed by ", " or the "}".  A mapping
#: nested in it goes to libyaml.
_FLOW = (rf"\{{ *(?:(?:{_SCALAR}): +(?:(?:&{_NAME} +)?(?:{_SCALAR}|{_LIST})|\*{_NAME})"
         rf" *(?:, +(?!\}})|(?=\}})))* *\}}")


#: One line of a plain block document: indent, then a full-line comment, or
#: an optional "- ", key and colon, anchor and value, and an optional comment
#: after a space; then the "\r" of a CRLF line end.  A value is a scalar, a
#: list, a one-line flow mapping of these, or an alias, which takes no
#: anchor.  Printable ASCII only: a tab, a lone "\r" or any other character
#: lands in the last group.  An empty alternative stands for "?" where
#: Python's ``re`` runs it faster.
_LINE = re.compile(
    rf"^( *)(?:#[ -~]*|(- +)?(?:({_SCALAR}):(?: +|(?=\r?$))|)(?:&({_NAME})(?: +|(?=\r?$))(?!\*)|)"
    rf"({_SCALAR}|{_LIST}|{_FLOW}|\*{_NAME}|)) *(?:(?<= )#[ -~]*|)\r?(.*)$",
    re.M,
)

#: In a flow mapping that :data:`_LINE` took: a pair's key, its anchor and its
#: value.
_FLOW_ITEM = re.compile(rf"({_SCALAR}): +(?:&({_NAME}) +)?({_SCALAR}|{_LIST}|\*{_NAME})")


def _numbers(span: str) -> list:
    """A :data:`_NUMBER_LIST` read by ``json.loads``.  Raises ValueError
    unless each exponent follows a fraction and a sign: then every number in
    it is one that YAML 1.1 and JSON read alike,
    ``-?(0|[1-9][0-9]*)(\\.[0-9]+([eE][-+][0-9]+)?)?``."""
    exponents = span.count("e") + span.count("E")
    if exponents and len(re.findall(r"\.[0-9]+[eE][-+]", span)) != exponents:
        raise ValueError("YAML 1.1 reads 1e5 and 1.0e5 as strings")
    return json.loads(span)  # or ValueError: not JSON, or an integer past int()'s digit limit


class _NotPlain(Exception):
    """A text off the line reader's grammar, left to libyaml whole."""


def _read_lines(text: str):
    """The data of a plain block document, read without PyYAML in one pass
    with an explicit stack; raises :class:`_NotPlain` on anything else,
    before it reads a number list if a line has text off the grammar.

    A line (:data:`_LINE`) holds block mapping keys and sequence items, plain
    or quoted keys, comments, words that YAML 1.1 reads as str (none that
    :data:`_NOT_STR` matches), plain decimals (:data:`_DECIMAL`), one-line
    number lists (:func:`_numbers`), one-line flow mappings of these, and
    anchors and aliases, an alias giving the anchored object itself.  The
    text is walked only where the reader's bound could pass
    :data:`MAX_NESTING` or :data:`MAX_NESTING_WORK`."""
    words, anchors = {}, {}  # each str read so far; each anchored object

    def read(token):
        """The value of a scalar, a list or an alias."""
        first = token[0]
        if first == "[":
            if not _NUMBER_LIST.fullmatch(token):
                raise _NotPlain
            try:
                return _numbers(token)
            except ValueError:
                raise _NotPlain from None
        if token in words:
            return words[token]
        if _DECIMAL.fullmatch(token):  # the int and float SafeLoader builds
            return float(token) if "." in token else int(token)
        if first == "*":
            if token[1:] in anchors:
                return anchors[token[1:]]
            raise _NotPlain  # libyaml names the undefined alias
        if first in "\"'":
            words[token] = token[1:-1]
        elif _NOT_STR.match(token):
            raise _NotPlain  # a bool, a null, or a number that libyaml reads
        else:
            words[token] = token
        return words[token]

    def anchor(name, value):
        if name in anchors:
            raise _NotPlain  # libyaml names the repeated anchor
        anchors[name] = value

    def mapping(span):
        """A flow mapping that :data:`_LINE` took.  ``read`` must not call
        this: a cycle of closures would keep the words, the anchors and the
        data read so far alive until the collector runs."""
        data = {}
        for token, name, value in _FLOW_ITEM.findall(span):
            key = read(token)
            if len(token) > 1024 or key in data:  # as in the block loop below
                raise _NotPlain
            data[key] = read(value)
            if name:
                anchor(name, data[key])
        return data

    # libyaml drops a leading byte order mark too
    lines = _LINE.findall(text.removeprefix("\ufeff"))
    if any(line[5] for line in lines):
        raise _NotPlain
    root, stack, pending, deepest = None, [], None, 1  # stack: (column, collection)
    for indent, dash, key, name, value, _ in lines:
        if len(key) > 1024:  # libyaml's longest simple key
            raise _NotPlain
        if not (dash or key or name or value):
            continue  # a blank or comment line
        column = len(indent)
        if root is None:
            root = [] if dash else {}
            stack.append((column, root))
        elif pending is not None:  # a collection under the key or the item above
            at, parent = stack[-1]
            # deeper than its key or item, or a sequence from its key's column
            if column < at + (not dash or type(parent) is list):
                raise _NotPlain  # an empty value
            parent[pending[0]] = node = [] if dash else {}
            if pending[1]:
                anchor(pending[1], node)
            stack.append((column, node))
            deepest = max(deepest, len(stack))
            pending = None
        else:  # close what this line's column ends, a sequence at its key's column too
            while stack and (stack[-1][0] > column or stack[-1][0] == column
                             and not dash and type(stack[-1][1]) is list):
                stack.pop()
            if not stack or (stack[-1][0], type(stack[-1][1]) is list) != (column, bool(dash)):
                raise _NotPlain
        node = stack[-1][1]
        if dash and key:  # a compact mapping starts after the "- "
            item = {}
            node.append(item)
            node = item
            stack.append((column + len(dash), node))
            deepest = max(deepest, len(stack))
        elif dash:
            if not value:  # the item is on the lines below
                node.append(None)
                pending = len(node) - 1, name
                continue
            node.append(mapping(value) if value[0] == "{" else read(value))
            if name:
                anchor(name, node[-1])
            continue
        elif not key:
            raise _NotPlain  # a lone scalar or anchor
        key = read(key)
        if key in node:
            raise _NotPlain  # libyaml's walk names the repeated key
        if not value:
            pending = key, name
            continue
        node[key] = mapping(value) if value[0] == "{" else read(value)
        if name:
            anchor(name, node[key])
    if pending is not None:
        raise _NotPlain
    # upper bounds for the text: a flow mapping and the number lists in it
    # nest at most 5 levels below the deepest line; of its events, 4 are
    # the stream's and the document's, a line opens at most 2 collections
    # (2 events each) and holds at most a key and a value, a "[" or "{"
    # brings its 2 events and its first 2 entries, and each "," at most a
    # pair; so the work grows with the commas, not with the digits
    depth = deepest + 5
    events = (4 + 6 * len(lines) + 4 * (text.count("[") + text.count("{"))
              + 2 * text.count(","))
    if depth > MAX_NESTING or depth * events > MAX_NESTING_WORK:
        from . import _libyaml  # PyYAML's parser walks the text

        with _libyaml.syntax_errors():
            _libyaml._check_nesting(text)
    return root


def _load_yaml(text: str):
    """The data of a YAML text, read by lines where :func:`_read_lines` takes
    it, else by libyaml whole; errors are a :class:`ScenarioSyntaxError`."""
    try:
        return _read_lines(text)
    except _NotPlain:
        pass
    except ValueError as exc:  # an integer past int()'s digit limit
        raise ScenarioSyntaxError(f"unreadable scalar: {exc}") from exc
    from . import _libyaml  # PyYAML's import, paid by the first text off the grammar

    return _libyaml.load(text)


def __getattr__(name: str):
    """``yaml``, PyYAML itself, for tools that reach it through this module
    (the bench's tracer wraps ``scenario.yaml.safe_load``), imported here so
    that a document read by lines never imports it."""
    if name == "yaml":
        import yaml

        return yaml
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_document(text: str, schema) -> dict:
    raw = _load_yaml(text)
    if raw is None:
        raise ScenarioSchemaError("document is empty")
    schema(raw, "")
    return raw


def _read_text(path) -> str:
    """File contents as text; bytes that are not UTF-8 are a syntax error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ScenarioSyntaxError(
            f"not UTF-8 text: byte 0x{byte:02x} at offset {exc.start}"
        ) from exc


def parse_scenario_text(text: str) -> ScenarioDoc:
    """Parse and schema-check a scenario document from a string."""
    root = _load_document(text, _SCENARIO)
    return ScenarioDoc(
        model=root["model"],
        initial=root["initial"],
        steps=tuple(root["steps"]),
        evolution=root.get("evolution"),
        post_selection=root.get("post_selection"),
        seed=root.get("seed"),
    )


def parse_scenario(path) -> ScenarioDoc:
    """Parse and schema-check a scenario file."""
    return parse_scenario_text(_read_text(path))


def serialize_scenario(doc: ScenarioDoc) -> str:
    """Canonical text form of a document; parsing it back gives the document."""
    data = {
        "model": doc.model,
        "initial": doc.initial,
    }
    if doc.evolution is not None:
        data["evolution"] = doc.evolution
    data["steps"] = list(doc.steps)
    if doc.post_selection is not None:
        data["post_selection"] = doc.post_selection
    if doc.seed is not None:
        data["seed"] = doc.seed
    import yaml

    # no line width: a list on one line is read by lines, without a node composed
    return yaml.safe_dump(data, sort_keys=False, default_flow_style=None, width=math.inf)


# ---------------------------------------------------------------------------
# binding: from payloads to spaces, elements, and operation maps
# ---------------------------------------------------------------------------

def _to_complex(entry) -> complex:
    if isinstance(entry, list):
        return complex(float(entry[0]), float(entry[1]))
    return complex(float(entry), 0.0)


def _to_complex_matrix(rows) -> np.ndarray:
    return np.array([[_to_complex(e) for e in row] for row in rows], dtype=complex)


def _to_real_matrix(rows) -> np.ndarray:
    return np.array(rows, dtype=float)


def _square(rows, n: int, where: str, convert=_to_complex_matrix) -> np.ndarray:
    mat = convert(rows)
    if mat.shape != (n, n):
        raise ScenarioValidationError(
            f"{where}: expected a {n} by {n} matrix, got {mat.shape}"
        )
    return mat


@dataclass(frozen=True, eq=False)
class BoundScenario:
    """A document resolved against a concrete model space."""

    space: object
    initial: Element
    steps: tuple
    post_selection: Element | None


#: Form of a state, evolution or measurement -> the model kind it needs;
#: None for a form that fits either.
_FORM_MODEL = {
    **dict.fromkeys(
        ("pure", "matrix", "hamiltonian", "observable", "projectors", "kraus"), "quantum"
    ),
    **dict.fromkeys(("values", "permutation", "subset"), "classical"),
    "coords_matrix": None,
}


def _form(kind: str, payload: dict, where: str, role: str) -> str:
    """The form key of a schema-checked payload, if the model kind fits it."""
    form = next(key for key in payload if key in _FORM_MODEL)
    need = _FORM_MODEL[form]
    if need not in (None, kind):
        raise ScenarioValidationError(
            f"{where}.{form}: a {need} {role} form needs the {need} model"
        )
    return form


def _bind_state(space, kind: str, payload: dict, where: str) -> Element:
    form = _form(kind, payload, where, "state")
    if form == "values":
        values = np.array(payload["values"], dtype=float)
        if values.size != space.dim:
            raise ScenarioValidationError(
                f"{where}.values: expected {space.dim} entries, got {values.size}"
            )
        return Element._taking(space, values)
    d = space.psd_dim
    if form == "pure":
        amps = np.array([_to_complex(e) for e in payload["pure"]])
        if amps.size != d:
            raise ScenarioValidationError(
                f"{where}.pure: expected {d} amplitudes, got {amps.size}"
            )
        if float(np.linalg.norm(amps)) <= 1e-12:
            raise ScenarioValidationError(f"{where}.pure: amplitude vector is zero")
        return from_matrix(space, pure_state(amps))
    mat = _square(payload["matrix"], d, f"{where}.matrix")
    try:
        return from_matrix(space, mat)
    except ValueError as exc:
        raise ScenarioValidationError(f"{where}.matrix: {exc}") from exc


def _cycles_to_image(cycles, n: int):
    points = list(chain.from_iterable(cycles))
    bad = _first_bad_point(points, n)
    if bad is not None:
        i = points[bad]
        what = f"{i} appears in two cycles" if 0 <= i < n else f"index {i} is out of range"
        raise ScenarioValidationError(f"evolution.permutation: point {what}")
    flat, ends = np.array(points, dtype=np.intp), np.cumsum([0, *map(len, cycles)])
    image = np.arange(n)
    image[flat] = np.roll(flat, -1)  # each point to the next in the document,
    image[flat[ends[1:] - 1]] = flat[ends[:-1]]  # and the last of a cycle to its first
    return image


def _bind_evolution(space, kind: str, payload: dict):
    if _form(kind, payload, "evolution", "evolution") == "hamiltonian":
        h = _square(payload["hamiltonian"], space.psd_dim, "evolution.hamiltonian")
        try:
            return hamiltonian_evolution(h, space)
        except (ValueError, ConvexOpError) as exc:
            raise ScenarioValidationError(f"evolution.hamiltonian: {exc}") from exc
    image = _cycles_to_image(payload["permutation"], space.dim)
    try:
        return permutation_evolution(space, image)
    except ConvexOpError as exc:
        raise ScenarioValidationError(f"evolution.permutation: {exc}") from exc


def _bind_measure(space, kind: str, payload: dict, where: str):
    """Build the MeasurementSpec of one measure step."""
    form = _form(kind, payload, where, "measurement")
    name, source, at = payload["name"], payload[form], f"{where}.{form}"
    if form == "observable":
        obs = _square(source, space.psd_dim, at)
        try:
            spec, _ = spectral_measurement(obs, space=space, name=name)
        except (ValueError, ConvexOpError) as exc:
            raise ScenarioValidationError(f"{at}: {exc}") from exc
        return spec
    if form == "subset":
        try:
            return indicator_measurement(space, source, name=name)
        except ValueError as exc:
            raise ScenarioValidationError(f"{at}: {exc}") from exc
    parent = None
    if form == "coords_matrix":
        n = space.dim
        table = {
            label: OperationMap(
                space, _square(rows, n, f"{at}[{label!r}]", _to_real_matrix), "selective"
            )
            for label, rows in source.items()
        }
        if "parent" in payload:
            parent = OperationMap(
                space,
                _square(payload["parent"], n, f"{where}.parent", _to_real_matrix),
                "nonselective",
            )
    else:
        d = space.psd_dim
        if form == "projectors":
            source = {label: [mat] for label, mat in source.items()}
        table = {
            label: kraus_operation(
                space,
                KrausSet(tuple(_square(mat, d, f"{at}[{label!r}]") for mat in mats)),
                "selective",
            )
            for label, mats in source.items()
        }
    try:
        return MeasurementSpec(name=name, outcomes=table, parent=parent)
    except (ValueError, TypeError) as exc:
        raise ScenarioValidationError(f"{where}: {exc}") from exc


def bind_scenario(doc: ScenarioDoc) -> BoundScenario:
    """Resolve a document against a concrete space; semantic errors raise."""
    model = doc.model
    kind = model["kind"]
    if kind == "quantum":
        d = model["d"]
        if not 1 <= d <= MAX_QUANTUM_DIM:
            raise ScenarioValidationError(
                f"model.d: expected 1 to {MAX_QUANTUM_DIM}, got {d}"
            )
        space = make_quantum_space(d)
    else:
        n = model["n"]
        mu = np.array(model["mu"], dtype=float)
        if n < 1:
            raise ScenarioValidationError("model.n: need at least one point")
        if mu.size != n:
            raise ScenarioValidationError(
                f"model.mu: expected {n} entries, got {mu.size}"
            )
        if float(mu.min()) <= 0.0:
            raise ScenarioValidationError("model.mu: measure entries must be positive")
        space = make_classical_space(PhaseSpace(n, mu))

    initial = _bind_state(space, kind, doc.initial, "initial")
    group = None
    if doc.evolution is not None:
        group = _bind_evolution(space, kind, doc.evolution)

    steps = []
    # one set of maps per form payload and parent, and one spec per name on
    # top: aliases and merge-key copies of a measure node hold the same
    # payload objects, so their maps are built once however they are named
    tables, specs = {}, {}
    # maps whose entries overflow keep their inf and NaN entries, for the
    # validation checks to reject by name; the numpy arithmetic here is theirs
    with np.errstate(over="ignore", invalid="ignore"):
        for k, raw in enumerate(doc.steps):
            where = f"steps[{k}]"
            if "evolve" in raw:
                if group is None:
                    raise ScenarioValidationError(
                        f"{where}.evolve: the document declares no evolution"
                    )
                try:
                    steps.append(EvolveStep(group, float(raw["evolve"]["delta"])))
                except InvalidEvolutionError as exc:
                    raise ScenarioValidationError(f"{where}.evolve.delta: {exc}") from exc
                continue
            payload = raw["measure"]
            form = next(key for key in MEASURE_FORMS if key in payload)
            key = (form, id(payload[form]), id(payload.get("parent")))
            name = payload["name"]
            spec = specs.get((name, key))
            if spec is None:
                if key not in tables:
                    tables[key] = _bind_measure(space, kind, payload, f"{where}.measure")
                spec = tables[key]
                if spec.name != name:
                    spec = replace(spec, name=name)
                specs[name, key] = spec
            outcome = payload["outcome"]
            if outcome != UNOBSERVED and outcome not in spec.outcomes:
                raise ScenarioValidationError(
                    f"{where}.measure: unknown outcome {outcome!r}; known: "
                    f"{sorted(spec.outcomes)} or {UNOBSERVED!r}"
                )
            steps.append(MeasureStep(spec, outcome))

    post = None
    if doc.post_selection is not None:
        post = _bind_state(space, kind, doc.post_selection, "post_selection")

    return BoundScenario(
        space=space, initial=initial, steps=tuple(steps), post_selection=post
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    check: str
    target: str
    passed: bool
    detail: str


def _cone_check(element: Element, target: str, tol: float) -> CheckResult:
    low = cone_margin(element)
    what = "min eigenvalue" if element.space.cone_kind == "psd" else "min value"
    return CheckResult(
        "cone_membership",
        target,
        margin_passes(low, element.coords, tol),
        f"{what} {low:.6e}",
    )


def validate_scenario(source, tol: float = DEFAULT_TOL) -> tuple:
    """Run the physicality checks; returns all results, pass or fail.

    Checks: cone membership and normalizability of the initial state (and
    post-selection, if any), completeness of every measurement against its
    parent, the order-unit normalization of every parent, and complete
    positivity of every quantum operation.
    """
    bound = source if isinstance(source, BoundScenario) else bind_scenario(source)
    # arithmetic that overflows leaves an inf or NaN that fails its check
    with np.errstate(over="ignore", invalid="ignore"):
        checks = [_cone_check(bound.initial, "initial", tol)]
        total = unit_pairing(bound.initial)
        checks.append(
            CheckResult(
                "normalizable",
                "initial",
                pairing_passes(total, bound.initial.coords, tol),
                f"order-unit pairing {total:.6e}",
            )
        )
        specs = list({
            id(step.spec): step.spec
            for step in bound.steps
            if isinstance(step, MeasureStep)
        }.values())
        for spec in specs:
            for check, (defect, limit), what in (
                ("completeness", completeness_gap(spec, tol), "max deviation"),
                ("causality", order_unit_defect(spec.parent, tol), "order-unit defect"),
            ):
                checks.append(
                    CheckResult(check, spec.name, defect <= limit, f"{what} {defect:.6e}")
                )
        # by map, since specs of one payload under other names share their maps;
        # the verdicts are kept, never a d**4 Choi matrix
        verdicts = {}
        for spec in specs if bound.space.cone_kind == "psd" else []:
            # the outcomes in order, then the parent: the goldens pin this order
            for label, op in (*spec.outcomes.items(), ("parent", spec.parent)):
                if op not in verdicts:
                    verdicts[op] = choi_cp_check(op, tol)[1:]
                is_cp, min_eig = verdicts[op]
                checks.append(CheckResult(
                    "complete_positivity", f"{spec.name}:{label}", is_cp,
                    f"min Choi eigenvalue {min_eig:.6e}",
                ))
        if bound.post_selection is not None:
            checks.append(_cone_check(bound.post_selection, "post_selection", tol))
        return tuple(checks)


# ---------------------------------------------------------------------------
# execution and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RunReport:
    """Plain serializable run result; see :func:`render_report`.

    ``per_step`` holds one row per step, and the steps that share a
    :class:`StepRecord`, such as every evolve step, share one row dict, which
    :func:`render_json` renders once per list: do not mutate the rows.
    """

    probability: float
    per_step: tuple
    final_state: dict
    validation: tuple


def _serialize_state(space, element: Element) -> dict:
    if space.cone_kind == "psd":
        return {
            "kind": "quantum",
            "d": int(space.psd_dim),
            "matrix": _serialize_complex_matrix(to_matrix(element)),
        }
    return {
        "kind": "classical",
        "n": int(space.dim),
        "values": element.coords.tolist(),
    }


def _serialize_checks(checks) -> tuple:
    return tuple(
        {
            "check": c.check,
            "target": c.target,
            "passed": bool(c.passed),
            "detail": c.detail,
        }
        for c in checks
    )


def run_scenario(doc: ScenarioDoc, tol: float = DEFAULT_TOL) -> RunReport:
    """Validate and execute a document.

    The initial state (and nothing else) is normalized automatically, so
    documents may give unnormalized cone elements such as plain weights.
    Any validation failure aborts the run.
    """
    bound = bind_scenario(doc)
    checks = validate_scenario(bound, tol)
    failed = [c for c in checks if not c.passed]
    if failed:
        summary = "; ".join(f"{c.check} on {c.target!r} ({c.detail})" for c in failed)
        raise ScenarioValidationError(f"validation failed: {summary}", checks)
    initial = normalize_state(bound.initial, tol)
    result = run_sequence(initial, bound.steps, bound.post_selection, tol)
    rows = {}  # one row per record object, keyed by its id
    for r in result.records:
        if id(r) not in rows:
            rows[id(r)] = {
                "name": r.name,
                "outcome": r.outcome,
                "conditional_probability": float(r.conditional_probability),
            }
    per_step = tuple(rows[id(r)] for r in result.records)
    return RunReport(
        probability=float(result.probability),
        per_step=per_step,
        final_state=_serialize_state(bound.space, result.final_state),
        validation=_serialize_checks(checks),
    )


# ---------------------------------------------------------------------------
# canonical JSON rendering
# ---------------------------------------------------------------------------

def _format_real(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("reports only carry finite reals")
    if x == 0.0:
        x = 0.0  # normalize the sign of zero
    return format(x, ".17g")


#: The text of a scalar of each exact type; :func:`_render` takes a subclass,
#: such as numpy's, by the type it extends.
_SCALAR_TEXT = {
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    float: _format_real,
    int: str,
    str: _json_string,
}


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str, np.integer))


def _render(value, indent: int) -> str:
    """``value`` laid out at ``indent``."""
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = " " * indent
        lines = []
        for k, v in value.items():
            text = _SCALAR_TEXT.get(type(v))
            text = text(v) if text is not None else _render(v, indent + 2)
            lines.append(f"{pad}  {_json_string(str(k))}: {text}")
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if type(value[0]) is float and {*map(type, value)} == {float}:  # one C-level format
            text = "[" + ("%.17g, " * len(value))[:-2] % tuple(value) + "]"
            # only "inf" and "nan" hold an "n", and "-0" stands alone only for -0.0
            if not ("n" in text or "-0," in text or "-0]" in text):
                return text
        if all(map(_is_scalar, value)) or all(
            isinstance(v, (list, tuple)) and all(map(_is_scalar, v)) for v in value
        ):
            return "[" + ", ".join(_render(v, indent) for v in value) + "]"
        pad = " " * indent
        seen = {}  # the text of each item by its id: the list holds the item
        for v in value:
            if id(v) not in seen:
                seen[id(v)] = _render(v, indent + 2)
        return "[\n" + ",\n".join(f"{pad}  {seen[id(v)]}" for v in value) + "\n" + pad + "]"
    if isinstance(value, float):
        return _format_real(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return _json_string(value)
    raise TypeError(f"cannot render {type(value).__name__} in a report")


def render_json(value) -> str:
    """Canonical report text: fixed layout, reals at 17 significant digits.
    An item that a list holds more than once, such as the row that every
    evolve step of a report shares, is rendered once per list."""
    return _render(value, 0) + "\n"


def render_report(report: RunReport) -> str:
    return render_json(
        {
            "probability": report.probability,
            "per_step": list(report.per_step),
            "final_state": report.final_state,
            "validation": list(report.validation),
        }
    )


def render_validation(checks) -> str:
    return render_json({"validation": list(_serialize_checks(checks))})


# ---------------------------------------------------------------------------
# witness input files
# ---------------------------------------------------------------------------

def parse_witness_text(text: str) -> tuple:
    """Parse a witness input: a mapping with Hermitian matrices 'A' and 'B'."""
    root = _load_document(text, _WITNESS)
    out = []
    for key in ("A", "B"):
        mat = _to_complex_matrix(root[key])
        try:
            out.append(require_hermitian(mat))
        except ValueError as exc:
            raise ScenarioValidationError(f"{key}: {exc}") from exc
    return tuple(out)


def parse_witness_file(path) -> tuple:
    return parse_witness_text(_read_text(path))


def _serialize_complex_matrix(mat) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def render_witness(result) -> str:
    """Canonical report for an anti-lattice witness search."""
    data = {
        "comparable": bool(result.comparable),
        "relation": result.relation,
        "c1": None if result.c1 is None else _serialize_complex_matrix(result.c1),
        "c2": None if result.c2 is None else _serialize_complex_matrix(result.c2),
        "dominator_found": result.dominator is not None,
        "dominator": (
            None
            if result.dominator is None
            else _serialize_complex_matrix(result.dominator)
        ),
        "grid_step": float(result.grid_step),
    }
    return render_json(data)
