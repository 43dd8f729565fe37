"""Self-check of the benchmark: a few requests per workload, every metric, the checker.

Run from the repository root (takes about two minutes)::

    python3 perfbench/selfcheck.py

It checks that

* ``BENCHMARK.json`` keeps to its schema;
* every workload prints, untraced and traced, exactly the metrics that
  ``BENCHMARK.json`` declares, each with its declared unit, and is correct;
* a deliberately corrupted reference makes ``correct_fraction`` fall below 1
  on every workload, so the checker fires;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  command exits non-zero without printing a result.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_out" / "selfcheck"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message: str) -> None:
    print(f"SELFCHECK FAILED: {message}")
    raise SystemExit(1)


def check_schema(spec: dict) -> None:
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys are {sorted(spec)}")
    names = []
    for entry in spec["workloads"]:
        if set(entry) != {"name", "why"} or len(entry["why"]) > 200 or "\n" in entry["why"]:
            fail(f"bad workload entry {entry}")
        names.append(entry["name"])
    for entry in spec["end_to_end"]:
        if set(entry) != {"name", "unit", "better", "bound"} or not 0 < entry["bound"] <= 0.25:
            fail(f"bad end-to-end entry {entry}")
        names.append(entry["name"])
    for entry in spec["per_layer"]:
        if set(entry) != {"name", "unit", "better"}:
            fail(f"bad per-layer entry {entry}")
        names.append(entry["name"])
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(entry["unit"]) or entry["better"] not in ("higher", "lower"):
            fail(f"bad unit or direction in {entry}")
    bad = [name for name in names if not NAME.match(name)]
    if bad or len(set(names)) != len(names):
        fail(f"names invalid or repeated: {bad or names}")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    if not 1 <= spec["run_seconds"] <= 60 or not 2 <= len(spec["workloads"]) <= 8:
        fail("run_seconds or the number of workloads is out of range")


def run(spec, workload, *extra, cwd=ROOT):
    command = [*spec["command"], "--workload", workload, "--seed", "7",
               "--seconds", "60", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(completed, label) -> dict:
    if completed.returncode != 0:
        fail(f"{label} exited {completed.returncode}: {completed.stderr[-2000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label} result keys are {sorted(result)}")
    return result


def check_metrics(result, declared, label) -> None:
    if set(result["metrics"]) != set(declared):
        fail(f"{label} metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(declared))}")
    for name, metric in result["metrics"].items():
        if metric["unit"] != declared[name] or not isinstance(metric["value"], (int, float)):
            fail(f"{label} metric {name} is {metric}, declared unit {declared[name]}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_schema(spec)
    end_to_end = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}

    for entry in spec["workloads"]:
        name = entry["name"]
        result = last_json(run(spec, name, "--trace", "0", "--max-requests", "3"), name)
        check_metrics(result, end_to_end, name)
        if not result["correct"] or result["metrics"]["correct_fraction"]["value"] != 1.0:
            fail(f"{name} is not correct: {result}")
        traced = last_json(run(spec, name, "--trace", "1", "--max-requests", "4"),
                           f"{name} traced")
        check_metrics(traced, per_layer, f"{name} traced")
        corrupt = last_json(
            run(spec, name, "--trace", "0", "--max-requests", "3", "--corrupt-reference"),
            f"{name} corrupted",
        )
        if corrupt["metrics"]["correct_fraction"]["value"] >= 1.0 or corrupt["correct"]:
            fail(f"{name}: a corrupted reference did not lower correct_fraction")
        print(f"ok {name}: {result['attempted']} requests, "
              f"corrupted correct_fraction {corrupt['metrics']['correct_fraction']['value']}")

    # Without the program's sources the command must fail and print no result.
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, SCRATCH / path)
    bare = run(spec, spec["workloads"][0]["name"], "--trace", "0", cwd=SCRATCH)
    shutil.rmtree(SCRATCH)
    if bare.returncode == 0 or bare.stdout.strip():
        fail(f"bare checkout: exit {bare.returncode}, stdout {bare.stdout[-500:]!r}")
    print(f"ok bare directory: exit {bare.returncode}")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
