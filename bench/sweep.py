"""Kernel scaling sweep: one convexop kernel at one size per child process.

    python3 bench/sweep.py --case quantum.spectral_measurement --size 16 --seed 0

prints the median call time in milliseconds as one JSON line.  The parent
side, :func:`run_sweep`, starts one child per case and kills it when it
exceeds :data:`BUDGET_S`; such a case is recorded as ``timeout`` with the
budget as its value, a lower bound on the real time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Wall-clock budget per case, child start-up included.
BUDGET_S = 6.0

QUANTUM_D = (2, 4, 8, 12, 16, 24)
CLASSICAL_N = (256, 1024, 2048)
PROBE_D = (2, 4, 6)  # the probes' product metric is a dense (d^4)^2 matrix

CASES = (
    [("quantum.spectral_measurement", "d", d) for d in QUANTUM_D]
    + [("quantum.kraus_operation", "d", d) for d in QUANTUM_D]
    + [("quantum.choi_cp_check", "d", d) for d in QUANTUM_D]
    + [("hermitian.matrix_to_coords", "d", d) for d in QUANTUM_D]
    + [("hermitian.coords_to_matrix", "d", d) for d in QUANTUM_D]
    + [("classical.make_classical_space", "n", n) for n in CLASSICAL_N]
    + [("classical.indicator_measurement", "n", n) for n in CLASSICAL_N]
    + [("probes.map_to_probe", "d", d) for d in PROBE_D]
    + [("probes.compose", "d", d) for d in PROBE_D]
    + [("probes.probe_to_map", "d", d) for d in PROBE_D]
)


def _prepare(case: str, size: int, rng):
    """Inputs built outside the timing; returns the zero-argument call."""
    import numpy as np

    import convexop as cx

    def hermitian():
        g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        return (g + g.conj().T) / 2.0

    if case.startswith("classical."):
        mu = rng.uniform(0.5, 2.0, size=size)
        ps = cx.PhaseSpace(size, mu)
        if case == "classical.make_classical_space":
            return lambda: cx.make_classical_space(ps)
        space = cx.make_classical_space(ps)
        subset = rng.choice(size, size // 2, replace=False)
        return lambda: cx.indicator_measurement(space, subset)

    space = cx.make_quantum_space(size)  # also fills the basis cache
    if case == "quantum.spectral_measurement":
        a = hermitian()
        return lambda: cx.spectral_measurement(a, space=space)
    if case == "quantum.kraus_operation":
        g = rng.normal(size=(size * size, size)) + 1j * rng.normal(size=(size * size, size))
        v, _ = np.linalg.qr(g)
        kraus = cx.KrausSet(tuple(v[r * size:(r + 1) * size] for r in range(size)))
        return lambda: cx.kraus_operation(space, kraus, "nonselective")
    if case == "quantum.choi_cp_check":
        op = cx.identity_operation(space)
        return lambda: cx.choi_cp_check(op)
    if case == "hermitian.matrix_to_coords":
        a = hermitian()
        return lambda: cx.matrix_to_coords(a)
    if case == "hermitian.coords_to_matrix":
        coords = rng.normal(size=size * size)
        return lambda: cx.coords_to_matrix(coords)

    m = cx.OperationMap(space, rng.normal(size=(space.dim, space.dim)), "selective")
    if case == "probes.map_to_probe":
        return lambda: cx.map_to_probe(m)
    if case == "probes.probe_to_map":
        p = cx.map_to_probe(m)
        return lambda: cx.probe_to_map(p)
    # compose caches the product metric on each probe, so every call gets
    # fresh probes; making one copies its coefficients, which is small next
    # to the (d^4)^2 product metric that compose then builds
    p = cx.map_to_probe(m, "t0", "t1")
    q = cx.map_to_probe(m, "t1", "t2")
    return lambda: cx.compose(
        cx.ProbeFunctional(p.boundary, p.coeffs), cx.ProbeFunctional(q.boundary, q.coeffs),
        "t1")


def time_case(case: str, size: int, seed: int, min_s: float = 0.2, reps: int = 7) -> float:
    """Median milliseconds over up to ``reps`` calls, stopping after ``min_s``."""
    import numpy as np

    call = _prepare(case, size, np.random.default_rng([seed, size]))
    times = []
    while len(times) < reps and sum(times) < min_s:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def run_sweep(seed: int, env: dict) -> tuple:
    """All cases, one child each.  Returns (metrics, per-case status)."""
    metrics, status = {}, {}
    for case, letter, size in CASES:
        name = f"{case}.{letter}{size}_ms"
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--case", case,
                 "--size", str(size), "--seed", str(seed)],
                env=env, capture_output=True, text=True, timeout=BUDGET_S,
            )
        except subprocess.TimeoutExpired:  # subprocess.run has killed the child
            metrics[name], status[name] = BUDGET_S * 1e3, "timeout"
            continue
        if proc.returncode != 0:
            raise RuntimeError(f"sweep case {name} failed:\n{proc.stderr}")
        metrics[name], status[name] = json.loads(proc.stdout.splitlines()[-1])["ms"], "ok"
    return metrics, status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", required=True, choices=sorted({c for c, _, _ in CASES}))
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(json.dumps({"ms": time_case(args.case, args.size, args.seed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
