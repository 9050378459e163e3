"""Benchmark of the dephasing-discord CLI, end to end and per layer.

    python3 bench/run.py --workload {sweeps,sessions,oracles} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from src/.
The run first times set-up (fresh interpreters that import the CLI and build
its parser), then runs the workload in one worker process (worker.py) with
BLAS/OpenMP threads pinned to 1.  It prints a report, and as its last line one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, their times scaled to the reference host
speed of host.py, and the per-layer metrics with --trace 1.
See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import host

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweeps", "sessions", "oracles")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# One untimed interpreter writes the bytecode caches; the median of the rest,
# scaled to the reference host speed, is setup_s.
SETUP_RUNS = 5
CALIBRATIONS_PER_SETUP = 5
SETUP_TIMEOUT_S = 60.0
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from dephasing_discord.cli import main; main(['--help'])"
)
# The whole run, set-up included, must end well within 180 s.
RUN_LIMIT_S = 170.0

# Layers whose self time every workload exercises; the others report calls
# in the metrics and their self time in the report (a zero time is no timing).
SELF_TIME_LAYERS = (
    "bath.gamma_closed",
    "evolution.eigenvalues",
    "correlations.mutual_information",
    "correlations.classical_closed",
    "core.DiscordPoint",
    "dfe.scan_trajectory",
    "cli.main",
)


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env.pop("PYTHONPATH", None)
    return env


def measure_setup(env: dict) -> tuple[list[float], float]:
    """Set-up times of fresh interpreters, and the median calibration time
    taken around them."""
    times, calibration = [], []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, SRC], env=env, cwd=ROOT, stdout=subprocess.DEVNULL
        )
        # A blocking wait: with a timeout, Popen.wait polls in steps of up to 50 ms.
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        if code:
            raise subprocess.CalledProcessError(code, "set-up interpreter")
        if i:
            times.append(time.perf_counter() - start)
        calibration += [host.calibrate() for _ in range(CALIBRATIONS_PER_SETUP)]
    return times, statistics.median(calibration)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup: list[float], setup_host_s: float, worker: dict) -> dict:
    """Times scaled to the reference host speed (host.py); memory as measured."""
    s = worker["summary"]
    scale = host.REFERENCE_S / s["host_s"]
    return {
        "setup_s": metric(statistics.median(setup) * host.REFERENCE_S / setup_host_s, "s"),
        "rows_per_s": metric(s["rows_per_s"] / scale, "rows/s"),
        "call_ms_p50": metric(s["latency_ms"]["p50"] * scale, "ms"),
        "call_ms_p90": metric(s["latency_ms"]["p90"] * scale, "ms"),
        "peak_rss_mb": metric(worker["peak_rss_mb"], "MB"),
    }


def per_layer(worker: dict) -> dict:
    trace, traced = worker["trace"], worker["traced"]
    metrics = {}
    for name, layer in trace["layers"].items():
        metrics[f"{name}.calls"] = metric(layer["calls"], "count")
        if name in SELF_TIME_LAYERS:
            metrics[f"{name}.self_s"] = metric(layer["self_s"], "s")
    metrics["dfe.gamma_per_solve"] = metric(trace["gamma_per_solve"], "count")
    metrics["cli.rows"] = metric(traced["rows"], "count")
    metrics["cli.bytes_out"] = metric(traced["bytes_out"], "bytes")
    metrics["cli.exit_2"] = metric(traced["exit_2"], "count")
    metrics["cli.exit_3"] = metric(traced["exit_3"], "count")
    metrics["probe.underflow_exit_2"] = metric(worker["probe"]["exit_2"], "count")
    metrics["trace.overhead"] = metric(100.0 * trace["overhead"], "%")
    metrics["trace.self_share"] = metric(100.0 * trace["self_share"], "%")
    return metrics


def report(args, machine: dict, setup: list[float], setup_host_s: float, worker: dict) -> None:
    s = worker["summary"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("machine: " + json.dumps(machine))
    print(
        "setup_s raw: " + ", ".join(f"{t:.4f}" for t in setup)
        + f"  (median of {len(setup)} fresh interpreters; calibration {1e3 * setup_host_s:.4f} ms)"
    )
    print(
        f"host: calibration median {1e3 * s['host_s']:.4f} ms over {s['units']} units, reference "
        f"{1e3 * host.REFERENCE_S:.4f} ms; raw rows_per_s {s['rows_per_s']:.6g}, call_ms p50 "
        f"{s['latency_ms']['p50']:.6g}, p90 {s['latency_ms']['p90']:.6g}"
    )
    print(
        f"measured {s['measured_s']:.3f} s in {s['attempted']} ops ({s['units']} units); "
        f"wall {s['wall_s']:.3f} s, cpu {s['cpu_s']:.3f} s including checks"
    )
    print(f"output: {s['rows']} rows, {s['bytes_out']} bytes; {s['rows_per_s_total']:.1f} rows/s over all measured time")
    print(
        f"failed {s['failed']} of {s['attempted']}: exit 2 {s['exit_2']}, exit 3 {s['exit_3']}, "
        f"exceptions {s['exceptions']}, check failures {s['check_failures']}"
    )
    for kind, entry in s["failure_kinds"].items():
        print(f"  {entry['count']:6d}  {kind}\n          first: {entry['first']}")
    det = worker["determinism"]
    print(
        f"checks: every row; {worker['mpmath_samples']} sampled rows and crossings against mpmath; "
        f"determinism {det['repeated']} repeated ops, mismatches {det['mismatches']}"
    )
    print("digest: " + json.dumps(worker["digest"]))
    if "trace" in worker:
        trace = worker["trace"]
        print(
            f"trace: untraced {s['measured_s']:.3f} s, traced {worker['traced']['measured_s']:.3f} s "
            f"for the same ops, overhead {100 * trace['overhead']:.1f}%; layer self times cover "
            f"{100 * trace['self_share']:.2f}% of traced time; gamma_closed calls per solve "
            f"{trace['gamma_per_solve']:.2f}; missing bindings {trace['missing']}"
        )
        print(f"  {'layer':34s} {'calls':>9s} {'self_s':>10s} {'total_s':>10s}")
        for name, layer in trace["layers"].items():
            print(f"  {name:34s} {layer['calls']:9d} {layer['self_s']:10.4f} {layer['total_s']:10.4f}")
        probe = worker["probe"]
        print(
            f"underflow probe (skipped configurations, not workload operations): {probe['attempted']} calls, "
            f"exit 2 {probe['exit_2']}, exit 3 {probe['exit_3']}, exceptions {probe['exceptions']}, "
            f"check failures {probe['check_failures']}"
        )
        for kind, entry in probe["failure_kinds"].items():
            print(f"  {entry['count']:6d}  {kind}\n          first: {entry['first']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "dephasing_discord", "cli.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2

    env = pinned_env()
    machine = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
        "threads_pinned": {k: env[k] for k in THREAD_VARS},
    }
    try:
        setup, setup_host_s = measure_setup(env)
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    remaining = RUN_LIMIT_S - (time.perf_counter() - started)
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {remaining:.0f} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(done.stdout.strip().splitlines()[-1])
    machine.update(worker["versions"])
    machine["loadavg_end"] = os.getloadavg()

    report(args, machine, setup, setup_host_s, worker)
    s = worker["summary"]
    phases = [s, worker["traced"]] if args.trace else [s]
    checked = phases + [worker["probe"]] if args.trace else phases
    correct = not worker["determinism"]["mismatches"] and not any(p["check_failures"] for p in checked)
    result = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": per_layer(worker) if args.trace else end_to_end(setup, setup_host_s, worker),
    }
    samples = {
        "setup_s": f"{len(setup)} interpreters",
        "rows_per_s": f"{s['units']} units",
        "call_ms_p50": f"{s['latency_ms']['n']} units",
        "call_ms_p90": f"{s['latency_ms']['n']} units, {s['latency_ms']['beyond_p90']} beyond",
    }
    print(f"metrics (correct: {correct}):")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']:8s} {samples.get(name, '')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
