"""Self-test of the benchmark's own generator and checks.

    python3 bench/selftest.py

Exits 0 when every case holds.  It shows that the same seed gives the same
document bytes and another seed other bytes, that correct outputs pass,
and that the checks reject a perturbed probability, a swapped outcome, a
wrong exit code and a golden off by one byte.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import check  # noqa: E402
import docs  # noqa: E402
import worker  # noqa: E402

SMALL = {"qudit_measure": {4: 1, 6: 1}, "evolve_chain": {2: 1, 4: 1},
         "classical_cells": {64: 1}}


def _report(doc) -> str:
    from convexop import parse_scenario_text, render_report, run_scenario

    return render_report(run_scenario(parse_scenario_text(doc.text)))


def cases():
    for name, mix in SMALL.items():
        first = [d.text for d in docs.make_pool(name, 7, mix)]
        again = [d.text for d in docs.make_pool(name, 7, mix)]
        other = [d.text for d in docs.make_pool(name, 8, mix)]
        yield f"{name}: same seed, same bytes", first == again
        yield f"{name}: other seed, other bytes", all(a != b for a, b in zip(first, other))
        for doc in docs.make_pool(name, 7, mix):
            problems = worker.run_document(doc)
            yield f"{name} {doc.kind} size {doc.size}: correct output passes", not problems

    doc = docs.qudit_measure_doc(np.random.default_rng(3), 4)
    data = json.loads(_report(doc))
    data["probability"] *= 1 + 1e-6
    yield "perturbed probability is rejected", bool(check.check_report(json.dumps(data), doc))

    data = json.loads(_report(doc))
    row = data["per_step"][0]
    row["outcome"] = str((int(row["outcome"]) + 1) % doc.size)
    yield "swapped outcome in the report is rejected", bool(
        check.check_report(json.dumps(data), doc))

    label = re.search(r'outcome: "(\d+)"', doc.text).group(1)
    swapped = doc.text.replace(f'outcome: "{label}"', f'outcome: "{(int(label) + 1) % 4}"', 1)
    tampered = dataclasses.replace(doc, text=swapped)
    yield "swapped outcome in the document is rejected", bool(worker.run_document(tampered))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for entry in worker.CORPUS:
        item = worker._cli_item(entry)
        yield f"cli {Path(item[1]).name}: passes", not worker.run_cli_subprocess(item, env)
        verb, path, golden, code = item
        wrong = (verb, path, golden, code + 1)
        yield f"cli {Path(path).name}: wrong exit code is rejected", bool(
            worker.run_cli_in_process(wrong))
        if golden is not None:
            off = bytearray(golden)
            off[len(off) // 2] ^= 1
            yield f"cli {Path(path).name}: golden off by one byte is rejected", bool(
                worker.run_cli_in_process((verb, path, bytes(off), code)))


def main() -> int:
    failures = 0
    for name, ok in cases():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failures += not ok
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
