"""Whole scenario documents against the bench's plain-numpy reference.

The bench's generators (``bench/docs.py``) write a scenario text and follow
it with density matrices or value vectors, never calling convexop.  Each
drawn document is parsed, run and rendered, the report is checked against
that reference by ``bench/check.py``, and its validation rows must be those
that ``validate_scenario`` gives for the same document.  Quantum dimensions
start at 2, since the generators draw a projector rank from ``[1, d)``, and a
classical document has at most one block per cell, since a generator's empty
block is an empty cycle, which a scenario may not hold.
"""

import json
import pathlib
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from convexop.scenario import (
    parse_scenario_text,
    render_report,
    render_validation,
    run_scenario,
    validate_scenario,
)

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "bench"))
import docs  # noqa: E402  (the bench's document generators)
from check import check_report  # noqa: E402


@st.composite
def documents(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    workload = draw(st.sampled_from(["qudit_measure", "evolve_chain", "classical_cells"]))
    if workload == "qudit_measure":
        return docs.qudit_measure_doc(rng, draw(st.integers(2, 10)))
    if workload == "evolve_chain":
        return docs.evolve_chain_doc(rng, draw(st.integers(2, 8)), steps=draw(st.integers(1, 120)),
                                     every=draw(st.integers(1, 60)))
    n = draw(st.integers(1, 2048))
    return docs.classical_cells_doc(rng, n, blocks=draw(st.integers(1, min(4, n))),
                                    rounds=draw(st.integers(1, 20)))


@settings(max_examples=100, deadline=None)
@given(documents())
def test_reports_match_the_plain_numpy_reference(doc):
    parsed = parse_scenario_text(doc.text)
    text = render_report(run_scenario(parsed))
    assert check_report(text, doc) == []
    rows = json.loads(render_validation(validate_scenario(parsed)))["validation"]
    assert json.loads(text)["validation"] == rows
