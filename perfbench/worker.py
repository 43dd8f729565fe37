"""One benchmark process: set up one workload, run its timed window, check, report.

``run.py`` starts this script once per set-up sample and once for the
measured run, always as a fresh process.  It prints ``READY`` when set-up
ends (the launcher times set-up up to that line), ``INFO <json>`` lines for
the human reader, and finally ``RESULT <json>`` with the measurements.

The untraced window alternates slices of requests (one request for a
single client, about ``SLICE_S`` seconds for several) with one host-speed
probe while no request is in flight.  Each slice's times are scaled by the
host factor of the two probes around it (see ``hostspeed.py``); the
unscaled figures are printed in an ``INFO`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import THREAD_ENV  # noqa: E402  (stdlib-only launcher module)

# Pin BLAS/OpenMP threads before numpy is imported (``workloads`` imports it).
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TRACE_DIR = Path(".perfbench_out")
# In the traced run, traced and untraced requests alternate in slices of
# this many requests per client, so both halves see the same host load.
TRACE_SLICE = {1: 1, 2: 8}
RATIO_PAIRS = 8
# Untraced slice length per client count.  The host changes speed within a
# second, so a single client is probed around every request: on the
# recording host that halved the p90 spread of mpde_direct against probing
# once a second.  Two clients cannot pause per request without leaving the
# service idle, so they are probed once a second.
SLICE_S = {1: 0.0, 2: 1.0}


@dataclass
class Record:
    index: int
    request: object
    outcome: object
    latency_s: float
    traced: bool
    error: str = ""
    host: float = 1.0  # host factor of the slice the request ran in


@dataclass
class Window:
    records: list
    slices: list  # (seconds, host factor) per slice of requests; probes excluded
    peak_rss_mb: float


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {key: os.environ.get(key) for key in THREAD_ENV},
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def _timed_call(workload, index, request, tracer, traced) -> Record:
    start = time.perf_counter()
    error = ""
    try:
        if traced and workload.clients == 1:
            outcome = tracer.call_request(index, workload.call, request)
        else:
            outcome = workload.call(request)
    except Exception as exc:  # a failed request counts against success_fraction
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if not error:
        outcome = workload.summarize(outcome)
    return Record(index, request, outcome, end - start, traced, error)


def run_window(workload, seconds: float, max_requests: int, tracer=None) -> Window:
    """Closed loop of ``workload.clients`` clients until ``seconds`` pass.

    Each client starts at least one request per slice and no request after
    its slice ends; requests in flight finish and count.  Untraced, a
    host-speed probe runs before the first slice and after every slice, with
    no request in flight.  Peak RSS is read when ``rss_requests`` requests
    have completed, so it does not grow with the request rate.
    """
    requests = workload.requests[:max_requests] if max_requests else workload.requests
    records: list[Record] = []
    rss: list[float] = []
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds
    cursor = [0]

    def client(limit: int, traced: bool, stop: float) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= limit:
                    return
                cursor[0] += 1
            record = _timed_call(workload, index, requests[index], tracer, traced)
            with lock:
                records.append(record)
                if len(records) == workload.rss_requests:
                    rss.append(peak_rss_mb())
            if time.perf_counter() >= stop:
                return

    def run_slice(limit: int, traced: bool, stop: float) -> float:
        start = time.perf_counter()
        if workload.clients == 1:
            client(limit, traced, stop)
        else:
            threads = [
                threading.Thread(target=client, args=(limit, traced, stop), name=f"client-{i}")
                for i in range(workload.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return time.perf_counter() - start

    slices: list[tuple[float, float]] = []
    size = TRACE_SLICE[workload.clients] * workload.clients
    traced = False
    probe = hostspeed.probe() if tracer is None else 0.0
    while cursor[0] < len(requests) and time.perf_counter() < deadline:
        if tracer is None:
            first = len(records)
            stop = min(time.perf_counter() + SLICE_S[workload.clients], deadline)
            seconds = run_slice(len(requests), False, stop)
            after = hostspeed.probe()
            host = hostspeed.factor([probe, after])
            probe = after
            for record in records[first:]:
                record.host = host
            slices.append((seconds, host))
            continue
        if traced:
            tracer.enable()
        else:
            tracer.disable()
        slices.append((run_slice(min(cursor[0] + size, len(requests)), traced, deadline), 1.0))
        traced = not traced
    if tracer is not None:
        tracer.disable()
    records.sort(key=lambda record: record.index)
    return Window(records, slices, rss[0] if rss else peak_rss_mb())


def judge(workload, records) -> tuple[list[bool], list[bool]]:
    """Per record: converged, and within tolerance of the reference."""
    success, correct = [], []
    for record in records:
        if record.error:
            ok, right = False, False
        else:
            ok, right = workload.check(record.request, record.outcome)
        success.append(bool(ok))
        correct.append(bool(ok and right))
    return success, correct


def end_to_end(window: Window, success, correct) -> tuple[dict, dict]:
    """The end-to-end metrics (times scaled by host factor) and the unscaled times."""
    records = window.records
    n_ok = sum(1 for s, c in zip(success, correct) if s and c)
    raw = np.array([record.latency_s for record in records])
    scaled = np.array([record.latency_s / record.host for record in records])
    busy = sum(seconds for seconds, _ in window.slices)
    scaled_busy = sum(seconds / host for seconds, host in window.slices)
    metrics = dict(zip(("latency_s.p50", "latency_s.p90"), np.percentile(scaled, [50, 90])))
    unscaled = dict(zip(("latency_s.p50", "latency_s.p90"), np.percentile(raw, [50, 90])))
    metrics["requests_per_s"] = n_ok / scaled_busy
    unscaled["requests_per_s"] = n_ok / busy
    metrics.update({
        "peak_rss_mb": window.peak_rss_mb,
        "success_fraction": sum(success) / len(records),
        "correct_fraction": sum(correct) / len(records),
    })
    hosts = [host for _, host in window.slices]
    unscaled.update(host_factor_median=float(np.median(hosts)), host_factor_min=min(hosts),
                    host_factor_max=max(hosts), slices=len(hosts), busy_s=busy)
    return {k: float(v) for k, v in metrics.items()}, {k: float(v) for k, v in unscaled.items()}


def paper_ratio(workload) -> dict:
    """Shooting p50 over MPDE p50 on the switching mixer at the same disparity."""
    if workload.name != "shooting_baseline":
        return {"paper.shooting_p50_s": 0.0, "paper.mpde_p50_s": 0.0,
                "paper.shooting_over_mpde": 0.0}
    amplitudes = workload.requests[:RATIO_PAIRS]
    workloads.switching_mixer_mpde(amplitudes[0])  # warm the MPDE path
    shooting, mpde = [], []
    for amplitude in amplitudes:
        for method, times in ((workloads.switching_mixer_shooting, shooting),
                              (workloads.switching_mixer_mpde, mpde)):
            start = time.perf_counter()
            _, converged = method(amplitude)
            times.append(time.perf_counter() - start)
            if not converged:
                raise RuntimeError(f"{method.__name__}({amplitude}) did not converge")
    shoot_p50, mpde_p50 = float(np.median(shooting)), float(np.median(mpde))
    return {"paper.shooting_p50_s": shoot_p50, "paper.mpde_p50_s": mpde_p50,
            "paper.shooting_over_mpde": shoot_p50 / mpde_p50}


def layer_metrics(workload, tracer, records, counters_before) -> dict:
    """Per-layer metrics of the traced run, per traced request unless noted."""
    traced = [record for record in records if record.traced]
    plain = [record for record in records if not record.traced]
    n = max(len(traced), 1)
    busy, own, calls = tracer.layer_times()
    counts = tracer.counts

    metrics = {
        "rf.build_s": busy["rf.build"] / n,
        "circuits.compile_s": busy["circuits.compile"] / n,
        "circuits.compile_calls": calls["circuits.compile"] / n,
        "circuits.eval_s": busy["circuits.eval"] / n,
        "circuits.eval_calls": calls["circuits.eval"] / n,
        "circuits.eval_points": counts["circuits.eval_points"] / n,
        "core.solve_s": busy["core.solve"] / n,
        "core.solve_self_s": own["core.solve"] / n,
        "core.assemble_s": busy["core.assemble"] / n,
        "core.newton_iterations": counts["core.newton_iterations"] / n,
        "linalg.lu_s": busy["linalg.lu"] / n,
        "linalg.lu_calls": calls["linalg.lu"] / n,
        "linalg.jacobian_factorizations": counts["linalg.jacobian_factorizations"] / n,
        "linalg.gmres_s": busy["linalg.gmres"] / n,
        "linalg.gmres_self_s": own["linalg.gmres"] / n,
        "linalg.gmres_iterations": counts["linalg.gmres_iterations"] / n,
        "linalg.precond_build_s": busy["linalg.precond_build"] / n,
        "linalg.precond_apply_s": busy["linalg.precond_apply"] / n,
        "linalg.precond_apply_self_s": own["linalg.precond_apply"] / n,
        "linalg.precond_apply_calls": calls["linalg.precond_apply"] / n,
        "linalg.harmonic_lu_s": busy["linalg.harmonic_lu"] / n,
        "linalg.harmonic_lus": counts["linalg.harmonic_lus"] / n,
        "linalg.newton_s": busy["linalg.newton"] / n,
        "linalg.newton_self_s": own["linalg.newton"] / n,
        "linalg.newton_iterations": counts["linalg.newton_iterations"] / n,
        "analysis.dc_s": busy["analysis.dc"] / n,
        "analysis.transient_s": busy["analysis.transient"] / n,
        "analysis.transient_self_s": own["analysis.transient"] / n,
        "analysis.transient_steps": counts["analysis.transient_steps"] / n,
        "analysis.shooting_s": busy["analysis.shooting"] / n,
        "analysis.shooting_iterations": counts["analysis.shooting_iterations"] / n,
        "analysis.pss_s": busy["analysis.pss"] / n,
        "analysis.pss_self_s": own["analysis.pss"] / n,
        "analysis.hb_s": busy["analysis.hb"] / n,
        "analysis.hb_self_s": own["analysis.hb"] / n,
        "scenarios.build_s": busy["scenarios.build"] / n,
        "scenarios.solve_case_s": busy["scenarios.solve_case"] / n,
        "scenarios.metrics_s": own["scenarios.run"] / n,
        "resilience.recovery_attempts": counts["resilience.recovery_attempts"] / n,
    }
    metrics.update(service_metrics(workload, tracer, records, traced, counters_before))
    if workload.clients == 1:
        # Request wall time the benchmark's root span does not hand to a layer.
        metrics["other_s"] = own["request"] / n
    metrics["trace.requests"] = float(len(traced))
    metrics["trace.spans"] = float(len(tracer.spans))
    traced_p50 = float(np.median([r.latency_s for r in traced])) if traced else 0.0
    plain_p50 = float(np.median([r.latency_s for r in plain])) if plain else 0.0
    metrics["trace.latency_s.p50_traced"] = traced_p50
    metrics["trace.latency_s.p50_untraced"] = plain_p50
    metrics["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0 if plain_p50 else 0.0
    return metrics


def service_counters(workload) -> tuple[int, int, int, int]:
    if workload.svc is None:
        return 0, 0, 0, 0
    cache = workload.svc.cache.stats()
    snapshot = workload.svc.telemetry()
    return cache.hits, cache.lookups, snapshot.retries, snapshot.shed


def service_metrics(workload, tracer, records, traced, counters_before) -> dict:
    """Queue, cache and retry metrics; zero for the single-client workloads."""
    names = ("service.execute_s", "service.queue_wait_s.p50", "service.queue_wait_s.p90",
             "service.cache_hit_ratio", "service.cache_hits", "service.cache_lookups",
             "service.retries", "service.sheds")
    if workload.clients == 1:
        return dict.fromkeys(names, 0.0)
    n = max(len(traced), 1)
    hits, lookups, retries, sheds = (
        after - before
        for after, before in zip(service_counters(workload), counters_before)
    )
    executes = tracer.durations("service.execute")
    waits = [record.outcome.queue_wait_s for record in records if record.outcome is not None]
    other = [
        record.latency_s - record.outcome.queue_wait_s - executes.get(record.outcome.id, 0.0)
        for record in traced
        if record.outcome is not None
    ]
    p50, p90 = np.percentile(waits, [50, 90]) if waits else (0.0, 0.0)
    return {
        "service.execute_s": sum(executes.values()) / n,
        "service.queue_wait_s.p50": float(p50),
        "service.queue_wait_s.p90": float(p90),
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "service.cache_hits": float(hits),
        "service.cache_lookups": float(lookups),
        "service.retries": retries / len(records),
        "service.sheds": sheds / len(records),
        # Client wall time not spent queued or executing: submit and wake-up.
        "other_s": float(np.mean(other)) if other else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up (a set-up time sample)")
    parser.add_argument("--max-requests", type=int, default=0,
                        help="stop after this many timed requests (self-check)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="scale the references, so the checker must fire (self-check)")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.corrupt_reference)
    workload.setup()
    tracer = Tracer() if args.trace else None
    counters_before = service_counters(workload)
    print("READY", flush=True)
    if args.setup_only:
        workload.close()
        return 0
    try:
        window = run_window(workload, args.seconds, args.max_requests, tracer)
        records = window.records
        if args.trace:
            metrics = layer_metrics(workload, tracer, records, counters_before)
    finally:
        workload.close()
    success, correct = judge(workload, records)
    if args.trace:
        metrics.update(paper_ratio(workload))
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print("INFO " + json.dumps({"trace_file": str(trace_path)}), flush=True)
    else:
        metrics, raw = end_to_end(window, success, correct)
        print("INFO " + json.dumps({"unscaled": raw}), flush=True)
    errors = sorted({record.error for record in records if record.error})
    print("INFO " + json.dumps({"host": host_info()}), flush=True)
    print("INFO " + json.dumps({"latency_samples": len(records), "errors": errors[:5]}),
          flush=True)
    result = {
        "attempted": len(records),
        "failed": sum(1 for s, c in zip(success, correct) if not (s and c)),
        "metrics": metrics,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
