"""Output checks: each returns a list of problems, empty when the output is right."""

from __future__ import annotations

import json

import numpy as np

#: Relative tolerance against the plain-numpy reference.  Reports differ from
#: it by about 1e-14 after hundreds of steps; a wrong result differs by far
#: more.  Reports are not compared byte for byte, since a BLAS change can move
#: the 17th digit.
REL_TOL = 1e-8

#: Exit codes documented in the README for the malformed scenarios.
MALFORMED_EXIT = {
    "bad_conditioning": 4,
    "bad_cp": 3,
    "bad_mu": 3,
    "bad_schema": 2,
    "bad_syntax": 2,
}


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= REL_TOL * scale


def check_report(text: str, doc) -> list:
    """Compare a rendered run report with the document's reference."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = [
        f"validation row failed: {row['check']} on {row['target']} ({row['detail']})"
        for row in data["validation"]
        if not row["passed"]
    ]
    if not _close(data["probability"], doc.probability, abs(doc.probability)):
        problems.append(
            f"probability {data['probability']!r} != reference {doc.probability!r}"
        )
    steps = data["per_step"]
    if len(steps) != len(doc.per_step):
        problems.append(f"{len(steps)} step records, reference has {len(doc.per_step)}")
    for k, (row, (name, outcome, p)) in enumerate(zip(steps, doc.per_step)):
        if (row["name"], row["outcome"]) != (name, outcome):
            problems.append(
                f"step {k}: record {row['name']}:{row['outcome']} != {name}:{outcome}"
            )
        if not _close(row["conditional_probability"], p, abs(p)):
            problems.append(
                f"step {k}: conditional probability {row['conditional_probability']!r}"
                f" != reference {p!r}"
            )
    final = data["final_state"]
    if final["kind"] != doc.kind:
        return problems + [f"final state kind {final['kind']!r} != {doc.kind!r}"]
    if doc.kind == "quantum":
        pairs = np.array(final["matrix"], dtype=float)
        got = pairs[..., 0] + 1j * pairs[..., 1]
    else:
        got = np.array(final["values"], dtype=float)
    if got.shape != doc.final.shape:
        return problems + [f"final state shape {got.shape} != {doc.final.shape}"]
    gap = float(np.abs(got - doc.final).max())
    if gap > REL_TOL * float(np.abs(doc.final).max()):
        problems.append(f"final state deviates from the reference by {gap:.3e}")
    return problems


def check_cli(code: int, stdout: bytes, golden: bytes | None, exit_code: int) -> list:
    """A call that has a golden must exit 0 and print it byte for byte; a
    malformed input must exit with its documented non-zero code."""
    problems = []
    if code != exit_code:
        problems.append(f"exit code {code}, expected {exit_code}")
    if golden is not None and stdout != golden:
        problems.append("stdout differs from the golden report")
    return problems
