"""One run of one workload in a fresh process; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

``bench/run.py`` starts this with ``PYTHONPATH=src`` and BLAS limited to
one thread.  The documents are generated from the seed before any timing.
The run is a closed loop with one client: the next document starts when
the previous one has been checked.  Whole passes over the pool run until
``--seconds`` have gone by, after one untimed warm-up pass.  A reference
kernel from ``calib.py`` runs before each document, outside its timing, to
scale the times to a reference machine speed.

With ``--trace 1`` the pool runs twice for ``--seconds`` each, untraced and
then traced, which gives the tracing overhead and the per-layer spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

import convexop
from convexop import cli, scenario

import calib
import check
import docs
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

#: Documents per pass by size: d for quantum, n for classical.  As many
#: documents sit below the middle size class as above it, so the median
#: latency is the median of one class, not a tail of it or a gap between two.
MIXES = {
    "qudit_measure": {4: 1, 6: 1, 8: 1, 10: 2},
    "evolve_chain": {2: 1, 4: 1, 8: 1},
    "classical_cells": {64: 1, 256: 1, 1024: 1},
}

#: The cli_corpus calls: (verb, input, golden or None, expected exit code).
CORPUS = [
    ("run", "scenarios/quantum_zx.yaml", "tests/golden/quantum_zx.json", 0),
    ("run", "scenarios/classical_cycle.yaml", "tests/golden/classical_cycle.json", 0),
    ("run", "scenarios/postselect.yaml", "tests/golden/postselect.json", 0),
    ("witness-antilattice", "scenarios/witness_canonical.yaml",
     "tests/golden/witness_canonical.json", 0),
] + [
    ("run", f"scenarios/malformed/{name}.yaml", None, code)
    for name, code in check.MALFORMED_EXIT.items()
]

WORKLOADS = tuple(MIXES) + ("cli_corpus",)


class Run:
    """Closed-loop runner over one pool of documents.

    ``probe`` runs a reference kernel from ``calib`` and returns its seconds;
    it runs before every document, outside the document's timing.
    """

    def __init__(self, items, run_one, probe, reference_s: float):
        self.items = items
        self.run_one = run_one
        self.probe = probe
        self.reference_s = reference_s
        self.problems = []

    def one(self, item) -> bool:
        problems = self.run_one(item)
        if problems and len(self.problems) < 5:
            self.problems.append(problems[0])
        return not problems

    def passes(self, seconds: float, before=None, after=None) -> dict:
        """Whole passes until ``seconds`` elapse.  Each pass gives its
        document latencies and its speed scale: the reference time over the
        median probe time of the pass."""
        clock = time.perf_counter
        passes, failed, done = [], 0, 0
        start = clock()
        while clock() - start < seconds:
            latencies, probes = [], []
            for item in self.items:
                probes.append(self.probe())
                if before is not None:
                    before(done)
                t0 = clock()
                ok = self.one(item)
                latencies.append(clock() - t0)
                failed += not ok
                done += 1
                if after is not None:
                    after(item)
            passes.append((latencies, self.reference_s / statistics.median(probes)))
        return {"passes": passes, "failed": failed, "documents": done}


def run_document(doc) -> list:
    """text -> parse -> run -> render -> output check, through the module
    attributes so that installed wrappers see every call."""
    try:
        text = scenario.render_report(
            scenario.run_scenario(scenario.parse_scenario_text(doc.text))
        )
    except Exception as exc:  # noqa: BLE001 - a crash fails this document only
        return [f"{type(exc).__name__}: {exc}"]
    return check.check_report(text, doc)


def _cli_item(entry):
    verb, path, golden, code = entry
    golden_bytes = (ROOT / golden).read_bytes() if golden else None
    return verb, str(ROOT / path), golden_bytes, code


def run_cli_subprocess(item, env) -> list:
    verb, path, golden, code = item
    proc = subprocess.run(
        [sys.executable, "-m", "convexop", verb, path],
        cwd=ROOT, env=env, capture_output=True, timeout=60,
    )
    return check.check_cli(proc.returncode, proc.stdout, golden, code)


def run_cli_in_process(item) -> list:
    verb, path, golden, code = item
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        returned = cli.main([verb, path])
    return check.check_cli(returned, out.getvalue().encode(), golden, code)


class WasteCounters:
    """Counts that need a call's arguments: which maps came from observables
    and which distinct maps reached ``apply_operation``, per document."""

    def __init__(self):
        self.observable_maps = {}
        self.applied = {}
        self.observable_checks = 0
        self.applied_distinct = 0

    def hooks(self) -> dict:
        return {
            "quantum.spectral_measurement": self._after_spectral,
            "quantum.choi_cp_check": self._after_choi,
            "operational.apply_operation": self._after_apply,
        }

    def _after_spectral(self, args, result) -> None:
        spec, _ = result
        for op in (*spec.outcomes.values(), spec.parent):
            self.observable_maps[id(op)] = op  # held, so the id stays unique

    def _after_choi(self, args, result) -> None:
        self.observable_checks += id(args[0]) in self.observable_maps

    def _after_apply(self, args, result) -> None:
        self.applied[id(args[0])] = args[0]

    def end_document(self) -> None:
        self.applied_distinct += len(self.applied)
        self.applied.clear()
        self.observable_maps.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(loop: dict) -> dict:
    """Throughput of the median pass, so that a slow stretch in a minority of
    passes does not move it, and the median latency; both scaled to the
    reference speed.  The unscaled figures are kept as ``raw_*``."""
    per_pass = loop["documents"] / len(loop["passes"])
    raw = [t for latencies, _ in loop["passes"] for t in latencies]
    scaled = [t * scale for latencies, scale in loop["passes"] for t in latencies]
    return {
        "docs_per_s": per_pass / statistics.median(
            sum(latencies) * scale for latencies, scale in loop["passes"]),
        "doc_p50_ms": statistics.median(scaled) * 1e3,
        "failed_ratio": loop["failed"] / loop["documents"],
        "raw_docs_per_s": per_pass / statistics.median(
            sum(latencies) for latencies, _ in loop["passes"]),
        "raw_doc_p50_ms": statistics.median(raw) * 1e3,
        "speed_scale": statistics.median(scale for _, scale in loop["passes"]),
    }


def traced_metrics(run: Run, seconds: float, name: str) -> tuple:
    untraced = run.passes(seconds)
    counters = WasteCounters()
    tracer = Tracer(counters.hooks())
    evolve_steps = 0

    def before(k):
        tracer.doc = k

    def after(item):
        nonlocal evolve_steps
        counters.end_document()
        evolve_steps += getattr(item, "evolve_steps", 0)  # CLI items have none

    tracer.install()
    try:
        traced = run.passes(seconds, before, after)
    finally:
        tracer.uninstall()
    wall = sum(sum(latencies) for latencies, _ in traced["passes"])
    summary = tracer.summary()
    funcs = summary["functions"]
    metrics = {}
    for span, row in funcs.items():
        for key, value in row.items():
            metrics[f"{span}.{key}"] = value
    plain = end_to_end(untraced)["docs_per_s"]
    with_spans = end_to_end(traced)["docs_per_s"]
    metrics.update({
        "trace.docs_per_s_untraced": plain,
        "trace.docs_per_s_traced": with_spans,
        "trace.slowdown": plain / with_spans,
        "trace.coverage": summary["top_level_s"] / wall,
        "scenario.yaml_share": funcs["scenario.yaml_load"]["total_ms"] / (wall * 1e3),
        "operational.propagator.calls_per_evolve_step": _ratio(
            funcs["operational.propagator"]["calls"], evolve_steps),
        "quantum.choi_checks_per_observable": _ratio(
            counters.observable_checks, funcs["quantum.spectral_measurement"]["calls"]),
        "quantum.maps_applied_per_built": _ratio(
            counters.applied_distinct, funcs["quantum.kraus_operation"]["calls"]),
    })
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}.json")
    attempted = untraced["documents"] + traced["documents"]
    return metrics, attempted, untraced["failed"] + traced["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a CLI call is an interpreter start, so it is gauged by one; in-process
    # documents are gauged by in-process work
    compute = (calib.ComputeProbe(), calib.COMPUTE_REF_S)
    if args.workload == "cli_corpus":
        items = [_cli_item(entry) for entry in CORPUS]
        random.Random(args.seed).shuffle(items)
        if args.trace:
            run = Run(items, run_cli_in_process, *compute)
        else:
            env = dict(os.environ)
            run = Run(items, lambda item: run_cli_subprocess(item, env),
                      lambda: calib.start_probe(env), calib.START_REF_S)
    else:
        items = docs.make_pool(args.workload, args.seed, MIXES[args.workload])
        run = Run(items, run_document, *compute)

    for item in items:  # warm-up pass: caches, BLAS, page cache
        run.one(item)

    if args.trace:
        metrics, attempted, failed = traced_metrics(run, args.seconds, args.workload)
    else:
        loop = run.passes(args.seconds)
        metrics = end_to_end(loop)
        attempted, failed = loop["documents"], loop["failed"]
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_corpus" else resource.RUSAGE_SELF
        metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "provenance": {
            "numpy": np.__version__,
            "blas": _blas(),
            "pyyaml": yaml.__version__,
            "pyyaml_libyaml": bool(yaml.__with_libyaml__),
            "convexop": convexop.__version__,
        },
    }))
    return 0


def _blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
