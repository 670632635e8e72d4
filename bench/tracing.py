"""Spans around convexop's public functions, installed from outside.

A :class:`Tracer` replaces each traced function on every ``convexop``
module attribute that holds it, so callers that imported the name
(``from .quantum import kraus_operation``) see the wrapper too.  The
``yaml.safe_load`` call made by ``convexop.scenario`` is traced through a
stand-in for that module's ``yaml`` global.  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

#: Traced functions by layer, as ``module.function``.
TRACED = {
    "scenario": ("yaml_load", "parse_scenario_text", "bind_scenario",
                 "validate_scenario", "run_scenario", "render_report"),
    "quantum": ("spectral_measurement", "kraus_operation", "choi_cp_check",
                "make_quantum_space"),
    "hermitian": ("matrix_to_coords", "coords_to_matrix", "hermitian_basis"),
    "operational": ("run_sequence", "evolve", "propagator", "predict",
                    "update_state", "apply_operation"),
    "classical": ("make_classical_space", "indicator_measurement",
                  "permutation_evolution"),
    "spaces": ("inner", "normalize_state"),
    "lattice": ("anti_lattice_witness",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)


class _YamlStandIn:
    """The ``yaml`` module with ``safe_load`` swapped for a wrapper."""

    def __init__(self, module, safe_load):
        self._module = module
        self.safe_load = safe_load

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records one span per call of a traced function.

    A span is ``(name index, start, end, parent span or -1, document id)``.
    ``hooks`` maps a span name to ``hook(args, result)``, run after the
    call returns, for counters that need the call's arguments or result.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans = []
        self.doc = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name: str, fn):
        index = SPAN_NAMES.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self.hooks.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.doc)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "convexop" or key.startswith("convexop.")]
        for name in SPAN_NAMES:
            layer, fn_name = name.split(".")
            module = sys.modules[f"convexop.{layer}"]
            if name == "scenario.yaml_load":
                wrapper = self._wrap(name, module.yaml.safe_load)
                self._patch(module, "yaml", _YamlStandIn(module.yaml, wrapper))
                continue
            original = getattr(module, fn_name)
            wrapper = self._wrap(name, original)
            for owner in modules:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict:
        """Per span name: calls, total and self time in milliseconds; plus the
        time covered by top-level spans inside documents."""
        child = [0.0] * len(self.spans)
        for index, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for name in SPAN_NAMES}
        top = 0.0
        for slot, (index, start, end, parent, doc) in enumerate(self.spans):
            row = out[SPAN_NAMES[index]]
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child[slot]) * 1e3
            if parent < 0 and doc >= 0:
                top += end - start
        return {"functions": out, "top_level_s": top}

    def write(self, path) -> None:
        """All spans as JSON: times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1),
             parent, doc]
            for index, start, end, parent, doc in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": SPAN_NAMES,
                       "columns": ["name", "start_us", "end_us", "parent", "doc"],
                       "spans": rows}, handle, separators=(",", ":"))
