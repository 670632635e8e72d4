"""libyaml's path of the scenario loader, and the only module that imports PyYAML
to read a document.

:mod:`convexop.scenario` reads a plain block document line by line without
PyYAML, and imports this module on the first text that its line reader
leaves, or when that reader's nesting bound could pass the limits.  Here
:func:`_check_nesting` walks every text before libyaml (where PyYAML has it)
composes it whole, once, and SafeLoader's constructors build every node;
:class:`_Loader` adds only a check that no mapping repeats a key.  A parser
error that the walk meets is left to that compose, so a text's first error is
libyaml's own, whatever the text's size.  :func:`syntax_errors` words PyYAML's
errors as a :class:`ScenarioSyntaxError`.
"""

from contextlib import contextmanager

import yaml
from yaml.constructor import ConstructorError

from . import scenario
from .errors import ScenarioSyntaxError

_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _Loader(_SAFE_LOADER):
    """Safe YAML loading, through libyaml where PyYAML has it, that rejects
    a key repeated in one mapping instead of keeping its last value.

    :func:`load` walks the text with :func:`_check_nesting` before libyaml
    composes it.  SafeLoader's constructors build every node, filling
    collections from PyYAML's queue, so nesting costs no recursion;
    :meth:`_construct_map` rejects a repeated key.
    """

    def __init__(self, stream):
        super().__init__(stream)
        self.written = {}  # each mapping node's pairs before a merge flattened it

    def flatten_mapping(self, node):
        # PyYAML flattens in place, and a node may be flattened again: keep the first pairs
        self.written.setdefault(node, node.value[:])
        super().flatten_mapping(node)

    def _construct_map(self, node):
        """A mapping built in one pass over its own pairs in order, merge keys
        aside, raising its first problem, a repeated key too; SafeLoader's
        ``construct_mapping`` rebuilds one with merge keys and rejects other kinds."""
        data, rebuild = {}, node.id != "mapping"
        yield data
        for key_node, value_node in () if rebuild else self.written.get(node, node.value):
            if key_node.tag == "tag:yaml.org,2002:merge":
                rebuild = True
                continue
            if key_node.tag == "tag:yaml.org,2002:value":  # "=", a str as flatten_mapping has it
                key_node.tag = "tag:yaml.org,2002:str"
            key = self.construct_object(key_node)
            try:
                if key in data:
                    raise ConstructorError(problem=f"found duplicate key {key!r}",
                                           problem_mark=key_node.start_mark)
            except TypeError:
                raise ConstructorError("while constructing a mapping", node.start_mark,
                                       "found unhashable key", key_node.start_mark) from None
            data[key] = self.construct_object(value_node)
        if rebuild:  # SafeLoader's order: merged pairs first, the mapping's own keys win
            data.clear()
            data.update(self.construct_mapping(node))


_Loader.add_constructor("tag:yaml.org,2002:map", _Loader._construct_map)


def _check_nesting(text: str) -> None:
    """Reject collections nested deeper than :data:`~convexop.scenario.MAX_NESTING`,
    or whose nesting work passes :data:`~convexop.scenario.MAX_NESTING_WORK`.

    The walk stops at the text's first YAML error without raising it: every
    event before it is checked, and :func:`load`'s compose, which stops at or
    before that error, reports it as libyaml alone would."""
    limit, budget = scenario.MAX_NESTING, scenario.MAX_NESTING_WORK
    depth = work = 0
    try:
        for event in yaml.parse(text, Loader=_Loader):
            if isinstance(event, (yaml.SequenceStartEvent, yaml.MappingStartEvent)):
                depth += 1
            elif isinstance(event, (yaml.SequenceEndEvent, yaml.MappingEndEvent)):
                depth -= 1
            work += depth
            if depth > limit:
                problem = f"collections nested deeper than {limit} levels"
            elif work > budget:
                problem = f"collections too deep in all: nesting work passes {budget:,}"
            else:
                continue
            mark = event.start_mark
            raise ScenarioSyntaxError(problem, mark.line + 1, mark.column + 1)
    except yaml.YAMLError:
        pass


@contextmanager
def syntax_errors():
    """Raise PyYAML's errors inside the block as :class:`ScenarioSyntaxError`."""
    try:
        yield
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = getattr(exc, "problem", None) or "malformed document"
        if mark is not None:
            raise ScenarioSyntaxError(problem, mark.line + 1, mark.column + 1) from exc
        raise ScenarioSyntaxError(problem) from exc
    except (ValueError, KeyError, AttributeError, IndexError) as exc:
        # what PyYAML's scalar constructors raise on a value that does not fit
        # its tag: "!!int abc", "!!bool maybe", "!!timestamp x", "2001-13-01",
        # and an empty "!!int" or "!!float" (they read its first character)
        raise ScenarioSyntaxError(f"unreadable scalar: {exc}") from exc


def load(text: str):
    """The data of ``text`` as libyaml reads it whole, or a ScenarioSyntaxError."""
    _check_nesting(text)  # before libyaml composes the text
    with syntax_errors():
        return yaml.load(text, Loader=_Loader)
