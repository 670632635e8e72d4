"""A text's first error is libyaml's own, whatever the text's size.

``_libyaml.load`` walks every text with ``yaml.parse`` before libyaml
composes it.  The walk checks only the nesting limits: at a parser error it
stops, and the compose that follows reports that error, or a composer error
(an undefined alias, a repeated anchor, a second document) that comes
earlier in the text, as ``yaml.load`` alone reports it.  A walk that raised
the parser error itself would name the later syntax error instead.
"""

from unittest import mock

import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st

from convexop import _libyaml
from convexop.scenario import ScenarioSyntaxError, _load_yaml

pytestmark = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml")

DEFECTS = {
    "undefined alias": "a: *nowhere\n",
    "repeated anchor": "a: &x 1\nb: &x 2\n",
    "second document": "a: 1\n---\nb: 2\n",
}
UNCLOSED = "z: [1, 2\n"


def libyaml_error(text: str) -> str:
    """The error ``yaml.load`` raises on ``text``, as ``syntax_errors()`` words it."""
    with pytest.raises(ScenarioSyntaxError) as caught, _libyaml.syntax_errors():
        yaml.load(text, Loader=yaml.CSafeLoader)
    return str(caught.value)


def loaded_error(text: str):
    """The error ``_load_yaml`` raises on ``text``, and its ``yaml.parse`` calls."""
    with mock.patch.object(_libyaml.yaml, "parse", wraps=yaml.parse) as parse, \
            pytest.raises(ScenarioSyntaxError) as caught:
        _load_yaml(text)
    return str(caught.value), parse.call_count


@given(st.sampled_from(sorted(DEFECTS)), st.integers(0, 6000))
@example("undefined alias", 0)
@example("undefined alias", 2232)  # long enough that a size-gated walk would run
@example("repeated anchor", 2232)
@example("second document", 6000)
def test_a_composer_defect_before_a_syntax_error_is_reported_first(defect, comments):
    text = DEFECTS[defect] + "# c\n" * comments + UNCLOSED
    expected = libyaml_error(text)
    assert expected.startswith(("found undefined alias", "second occurrence",
                                "but found another document"))
    assert loaded_error(text) == (expected, 1)


@pytest.mark.parametrize("text", [
    "a: [1, 2]\n" + "# c\n" * 5000 + "b: [3, 4\n",  # a syntax error after a long text
    "a: [1, 2]\n" + "# c\n" * 5000 + "b: *nowhere\nc: [\n",
], ids=["syntax error", "undefined alias"])
def test_a_long_text_reports_libyamls_first_error_after_one_walk(text):
    assert loaded_error(text) == (libyaml_error(text), 1)
