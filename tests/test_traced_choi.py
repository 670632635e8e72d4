"""A traced validation sees its Choi checks.

``validate_scenario`` decides complete positivity through the public
``choi_cp_check``, so the bench's tracer, which wraps that name, counts one
call per map it checks.  ``scenarios/quantum_zx.yaml`` measures two
observables, each with two outcome maps and a parent: 6 maps, 6 rows.
"""

import pathlib
import sys

import convexop.cli  # noqa: F401  (install() wraps cli.main)
from convexop import scenario

ROOT = pathlib.Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from tracing import Tracer  # noqa: E402  (the bench's span recorder)


def test_a_traced_validation_counts_one_choi_check_per_map():
    doc = scenario.parse_scenario(ROOT / "scenarios" / "quantum_zx.yaml")
    had_yaml = "yaml" in vars(scenario)
    tracer = Tracer()
    tracer.install()
    try:
        checks = scenario.validate_scenario(doc)
    finally:
        tracer.uninstall()
        if not had_yaml:  # uninstall sets the lazily imported module as an attribute
            del scenario.yaml
    rows = [c for c in checks if c.check == "complete_positivity"]
    assert all(c.passed for c in rows)
    calls = tracer.summary()["functions"]["quantum.choi_cp_check"]["calls"]
    assert calls == len(rows) == 6
