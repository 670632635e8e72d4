"""Pairings with the order unit, and what a scenario run leaves behind.

``spaces.unit_pairing(b)`` is ``<e, b>`` with the arithmetic of
``inner(unit_element(space), b)``, ``unit . (weights * b)``, and no space
holds an ``Element``.  The bit-for-bit test fails for ``g . b`` with the
cached ``g = weights * unit``, whose multiply-adds BLAS may fuse; the
collector tests fail at a space that kept its unit as an element pointing
back at it, a reference cycle per document.
"""

import gc
import pathlib
import sys
import weakref

import numpy as np
import pytest

from convexop.classical import PhaseSpace, make_classical_space
from convexop.scenario import (
    bind_scenario,
    parse_scenario_text,
    render_report,
    run_scenario,
    validate_scenario,
)
from convexop.spaces import Element, inner, unit_pairing

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "bench"))
import docs  # noqa: E402  (the bench's document generators)
from worker import MIXES  # noqa: E402

WORKLOADS = ("qudit_measure", "evolve_chain", "classical_cells")


def test_unit_pairing_keeps_the_bits_of_inner_with_the_unit():
    rng = np.random.default_rng(0)
    space = make_classical_space(PhaseSpace(1024, rng.uniform(0.1, 10.0, 1024)))
    unit = Element(space, space.unit)
    for scale in (1.0, 1e-3, 1e5):
        for _ in range(200):
            b = Element(space, scale * rng.uniform(0.0, 1.0, space.dim))
            assert unit_pairing(b) == inner(unit, b)


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_scenario_run_leaves_no_reference_cycle(workload, collector_off):
    for seed in range(4):
        for k, doc in enumerate(docs.make_pool(workload, seed, MIXES[workload])):
            render_report(run_scenario(parse_scenario_text(doc.text)))
            assert gc.collect() == 0, f"seed {seed} document {k}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_bound_space_dies_with_its_scenario(workload, collector_off):
    doc = docs.make_pool(workload, 0, MIXES[workload])[0]
    bound = bind_scenario(parse_scenario_text(doc.text))
    validate_scenario(bound)
    space = weakref.ref(bound.space)
    del bound
    assert space() is None
