"""Benchmark of the repro MPDE stack: one workload, one seed, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload mpde_direct --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``mpde_direct``, ``mpde_matrix_free``, ``service_sweep`` and
``shooting_baseline``.  With ``--trace 0`` the last line holds the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced run.

This launcher imports nothing heavy.  It pins BLAS/OpenMP threads to one in
the environment of every process it starts, runs ``SETUP_SAMPLES - 1``
fresh set-up-only processes and then one fresh measured process, and takes
``setup_s`` as the median over those processes of the time from process
start to the ``READY`` line (imports, circuit build and compile, discarded
warm-up requests).  Unlike the window's times, set-up is not scaled by the
host-speed probe: a probe after a one-second set-up predicts its speed no
better than chance on the recording host (see ``README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

# Set in every benchmark process before numpy is imported: the host has few
# CPUs and OpenBLAS would otherwise start one thread per core and compete
# with the service's worker threads.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# A fixed string-hash seed gives every process the same set and dict
# order, and with it the same allocation pattern.  With random seeds, peak
# RSS after the same four mpde_direct solves ranged 88-99 MB over six
# processes; with seed 0 it was 89.2-89.3 MB in four of five.
HASH_SEED = "0"
SETUP_SAMPLES = 3
# The whole run must end within this many seconds.
RUN_BUDGET_S = 170.0
HERE = Path(__file__).resolve().parent
REQUIRED = (Path("src") / "repro" / "__init__.py", Path("tests") / "goldens" / "scenarios.json")
SPEC_PATH = HERE.parent / "BENCHMARK.json"


def units(spec: dict, section: str) -> dict:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    return {entry["name"]: entry["unit"] for entry in spec[section]}


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: list[str], env: dict, deadline: float) -> tuple[float, list[str]]:
    """Start one fresh worker; return its set-up seconds and its output lines."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    # Kill a worker that outlives the run budget; reading then ends at EOF.
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 0.0), process.kill)
    watchdog.start()
    setup_s = None
    lines = []
    try:
        for line in process.stdout:
            line = line.rstrip("\n")
            if line == "READY" and setup_s is None:
                setup_s = time.perf_counter() - start
            else:
                lines.append(line)
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if code != 0 or setup_s is None:
        raise WorkerFailed(f"worker {' '.join(args)} exited with code {code}")
    return setup_s, lines


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[entry["name"] for entry in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-requests", type=int, default=0,
                        help="stop after this many timed requests (self-check)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="scale the references, so the checker must fire (self-check)")
    args = parser.parse_args(argv)

    missing = [str(path) for path in REQUIRED if not path.is_file()]
    if missing:
        print(f"run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = HASH_SEED
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.corrupt_reference:
        common.append("--corrupt-reference")

    try:
        setups = [
            run_worker([*common, "--seconds", "0", "--setup-only"], env, deadline)[0]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        setup_s, lines = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--max-requests", str(args.max_requests)],
            env,
            deadline,
        )
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    results = [line[len("RESULT "):] for line in lines if line.startswith("RESULT ")]
    if not results:
        print("benchmark failed: the worker printed no result", file=sys.stderr)
        return 1
    for line in lines:
        if line.startswith("INFO "):
            print(line[len("INFO "):])
    print(json.dumps({"setup_s_samples": setups}))

    result = json.loads(results[-1])
    values = result["metrics"]
    if args.trace:
        declared = units(spec, "per_layer")
    else:
        values["setup_s"] = statistics.median(setups)
        declared = units(spec, "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
