"""The convexop benchmark: one workload per call, or all four in turn.

    python3 bench/run.py --workload qudit_measure --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Run it from anywhere inside a source checkout; it needs ``src/convexop``,
``scenarios/`` and ``tests/golden/`` next to ``bench/``.  The last line of
standard output is one JSON object: with ``--trace 0`` it carries the
``end_to_end`` metrics of BENCHMARK.json, with ``--trace 1`` the
``per_layer`` ones.  Lines before it name each metric with its unit, plus
``failed_ratio``, the figures before scaling to the reference speed (see
``calib.py``) and the provenance of the run.  Full results, and the spans of
traced runs, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402  (both stdlib-only at import time)
import sweep  # noqa: E402

WORKLOADS = ("qudit_measure", "evolve_chain", "classical_cells", "cli_corpus")
SETUP_REPEATS = 6
WORKER_TIMEOUT_S = 170


def bench_env() -> dict:
    """Child environment: the source tree on the path, BLAS on one thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict, repeats: int) -> list:
    """``repeats`` pairs of (seconds from spawning an interpreter until
    ``import convexop`` returns, seconds of the interpreter-start probe run
    just before it).  The child reads the shared monotonic clock after the
    import.  A first, untimed pair fills the page and bytecode caches."""
    code = "import time, convexop; print(repr(time.perf_counter()))"
    pairs = []
    for k in range(repeats + 1):
        probe = calib.start_probe(env)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if k:
            pairs.append((float(proc.stdout) - start, probe))
    return pairs


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_identity() -> dict:
    # the ceiling keeps git from reading a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "convexop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def provenance(env: dict, seed: int, worker: dict) -> dict:
    return {
        **_source_identity(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **worker["provenance"],
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
    }


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    env = bench_env()
    # set-up is sampled before and after the worker, so that one slow
    # stretch of a shared machine does not decide the median
    setup = [] if trace else measure_setup(env, SETUP_REPEATS)
    worker = run_worker(workload, seed, seconds, trace, env)
    if not trace:
        setup += measure_setup(env, SETUP_REPEATS)
    measured = dict(worker["metrics"])
    status = {}
    if trace:
        swept, status = sweep.run_sweep(seed, env)
        measured.update(swept)
        measured["sweep.timeouts"] = sum(s == "timeout" for s in status.values())
    else:
        measured["setup_s"] = calib.START_REF_S * statistics.median(t / p for t, p in setup)
        measured["raw_setup_s"] = statistics.median(t for t, _ in setup)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    record = {"workload": workload, "trace": trace, "result": result,
              "all_metrics": measured, "sweep_status": status,
              "provenance": provenance(env, seed, worker)}
    (out / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def print_record(record: dict) -> None:
    name = record["workload"]
    for metric, row in record["result"]["metrics"].items():
        flag = ""
        if record["sweep_status"].get(metric) == "timeout":
            flag = "  timeout (value is the budget)"
        print(f"{name} {metric} {row['value']:.6g} {row['unit']}{flag}")
    if not record["trace"]:
        measured = record["all_metrics"]
        for metric, unit in (("failed_ratio", "ratio"), ("raw_setup_s", "s"),
                             ("raw_docs_per_s", "1/s"), ("raw_doc_p50_ms", "ms"),
                             ("speed_scale", "ratio")):
            print(f"{name} {metric} {measured[metric]:.6g} {unit}")
    print(f"{name} provenance {json.dumps(record['provenance'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    needed = [ROOT / "src" / "convexop" / "__init__.py", ROOT / "scenarios", ROOT / "tests" / "golden",
              ROOT / "BENCHMARK.json"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print(f"error: not a convexop checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_one(name, args.seed, args.seconds, args.trace, spec))
            print_record(records[-1])
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
        return 0
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
