"""Run one workload in this process and print its measurements as JSON.

Started by run.py with BLAS/OpenMP threads pinned to 1.  Each operation is a
call of ``dephasing_discord.cli.main(argv)`` with stdout and stderr captured;
the call is timed, and its output is checked afterwards, outside the timing.
Whole passes of units run until their measured time reaches --seconds.
After each unit, host.calibrate measures the host's speed.

With --trace 1 the units run for half the time, and each call is made twice
in a row: untraced, then with the layer spans of spans.py installed.  The
median ratio of the two times of a call is the tracing overhead; pairing the
calls keeps the host's drift in speed out of it.  Then the underflow probe runs:
configurations the workloads skip because D underflows (workloads.py), which
the program rejects with exit 2.  They are not operations of the workload;
a probe call that succeeds has its output checked like any other.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import host  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dephasing_discord import cli  # noqa: E402

# Rows per operation compared with mpmath after the measurement.
SAMPLES_PER_OP = {"sweeps": 10, "sessions": 1, "oracles": 3}
# The output digest covers the first units, which every run completes.
DIGEST_UNITS = {"sweeps": 16, "sessions": 50, "oracles": 4}
DETERMINISM_REPEATS = 3
PROBE_CALLS = 8
# A run stops starting units after this much wall time, checks included.
WALL_CAP_S = 120.0
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class Sink:
    """Stand-in for sys.stdout/sys.stderr that keeps what is written."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def call(argv) -> tuple[int | None, float, str, str]:
    """One in-process CLI call: (exit code or None if it raised, seconds, stdout, error line)."""
    out, err = Sink(), Sink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an exception escaping main is a failed operation
        code = None
        err.write(f"exception {type(exc).__name__}: {exc}\n")
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    stderr = err.text().strip()
    return code, elapsed, out.text(), stderr.splitlines()[0] if stderr else ""


class Run:
    """The operations of one phase and what was learned from them."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.sample_rng = np.random.default_rng([seed, 9])
        self.records: list[dict] = []
        self.samples: list[tuple[int, tuple]] = []
        self.units: list[list] = []
        self.calibration: list[float] = []
        self.measured_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def run_units(self, units, seconds: float, twin: "Run | None" = None, tracer=None) -> None:
        """Run whole passes of ``units``; with ``twin``, repeat each call into
        it with ``tracer`` installed."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for unit in units:
            self.units.append(unit)
            for op in unit:
                self.run_op(op, len(self.units) - 1)
                if twin is not None:
                    tracer.install()
                    try:
                        twin.run_op(op, len(self.units) - 1)
                    finally:
                        tracer.uninstall()
            self.calibration.append(host.calibrate())
            if len(self.units) % workloads.PASS[self.workload]:
                continue
            if self.measured_s >= seconds or time.perf_counter() - wall0 > WALL_CAP_S:
                break
        self.wall_s = time.perf_counter() - wall0
        self.cpu_s = time.process_time() - cpu0

    def run_op(self, op, unit: int) -> None:
        code, elapsed, stdout, error = call(op.argv)
        self.measured_s += elapsed
        record = {
            "unit": unit,
            "kind": op.kind,
            "seconds": elapsed,
            "code": code,
            "rows": 0,
            "bytes": len(stdout.encode()),
            "sha256": hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest(),
            "failure": None,
        }
        if code != 0:
            record["failure"] = f"exit {code}: {error}" if code is not None else error
        else:
            scan = checks.scan(op, stdout, self.sample_rng, SAMPLES_PER_OP[self.workload])
            record["rows"] = scan.rows
            if scan.problem:
                record["failure"] = "check: " + scan.problem
            index = len(self.records)
            self.samples.extend((index, s) for s in scan.samples)
        self.records.append(record)

    def verify_samples(self) -> int:
        """Compare the sampled rows with mpmath; return how many were compared."""
        import mpmath

        mpmath.mp.dps = 40
        for index, sample in self.samples:
            problem = checks.verify_sample(mpmath, sample)
            if problem and self.records[index]["failure"] is None:
                self.records[index]["failure"] = "check: " + problem
        return len(self.samples)


def failure_kinds(records) -> dict[str, dict]:
    """Failures grouped by message with numbers and the configuration blanked;
    each kind keeps its count and its first message in full."""
    kinds: dict[str, dict] = {}
    for r in records:
        if r["failure"]:
            head, _, message = r["failure"].split(" for Physics(")[0].partition(": ")
            kind = f"{head}: {_NUMBER.sub('#', message)}"[:160]
            entry = kinds.setdefault(kind, {"count": 0, "first": r["failure"][:400]})
            entry["count"] += 1
    return dict(sorted(kinds.items(), key=lambda kv: -kv[1]["count"]))


def unit_totals(records) -> list[tuple[int, float]]:
    """(rows, seconds) of each unit: a sweeps call, a session, an oracle pair."""
    totals: dict[int, list] = {}
    for r in records:
        entry = totals.setdefault(r["unit"], [0, 0.0])
        entry[0] += r["rows"]
        entry[1] += r["seconds"]
    return [tuple(entry) for entry in totals.values()]


def latency_ms(units) -> dict:
    """Median and p90 of unit times (statistics.quantiles, exclusive method).
    On sweeps the p90 lands inside the group of fig2 calls, near its median."""
    ms = [1e3 * seconds for _, seconds in units]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return {"p50": statistics.median(ms), "p90": p90, "n": len(ms), "beyond_p90": sum(v > p90 for v in ms)}


def digests(run: Run) -> dict:
    n_units = min(DIGEST_UNITS[run.workload], len(run.units))
    n_ops = sum(len(u) for u in run.units[:n_units])
    combined = hashlib.sha256("".join(r["sha256"] for r in run.records[:n_ops]).encode()).hexdigest()
    out = {"units": n_units, "ops": n_ops, "sha256": combined}
    ops = (op for unit in run.units for op in unit)
    for op, record in zip(ops, run.records[:n_ops]):
        if op.kind == "figure":
            out[op.figure] = record["sha256"]
    return out


def determinism(run: Run) -> dict:
    """Repeat the cheapest operations of the digested units; outputs must match byte for byte."""
    ops = [op for unit in run.units[: DIGEST_UNITS[run.workload]] for op in unit]
    first = list(zip(ops, run.records))
    first.sort(key=lambda pair: pair[1]["seconds"])
    mismatches = []
    for op, record in first[:DETERMINISM_REPEATS]:
        code, _, stdout, _ = call(op.argv)
        if hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest() != record["sha256"]:
            mismatches.append(" ".join(op.argv[:2]))
    return {"repeated": min(DETERMINISM_REPEATS, len(first)), "mismatches": mismatches}


def summary(run: Run) -> dict:
    records = run.records
    units = unit_totals(records)
    failed = sum(r["failure"] is not None for r in records)
    rows = sum(r["rows"] for r in records)
    return {
        "attempted": len(records),
        "failed": failed,
        "check_failures": sum(bool(r["failure"] and r["failure"].startswith("check:")) for r in records),
        "exit_2": sum(r["code"] == 2 for r in records),
        "exit_3": sum(r["code"] == 3 for r in records),
        "exceptions": sum(r["code"] is None for r in records),
        "failure_kinds": failure_kinds(records),
        "rows": rows,
        "bytes_out": sum(r["bytes"] for r in records),
        "measured_s": run.measured_s,
        "wall_s": run.wall_s,
        "cpu_s": run.cpu_s,
        "rows_per_s": statistics.median(rows / seconds for rows, seconds in units),
        "rows_per_s_total": rows / run.measured_s,
        "latency_ms": latency_ms(units),
        "units": len(run.units),
        "host_s": statistics.median(run.calibration or [host.REFERENCE_S]),
    }


def traced_layers(tracer: spans.Tracer, measured_s: float) -> dict:
    solves = tracer.calls[spans.SOLVE]
    return {
        "layers": {
            name: {"calls": tracer.calls[name], "self_s": tracer.self_s[name], "total_s": tracer.total_s[name]}
            for name in spans.LAYERS
        },
        "missing": tracer.missing,
        "gamma_per_solve": tracer.gamma_in_solve / solves if solves else 0.0,
        "self_share": sum(tracer.self_s.values()) / measured_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    run = Run(args.workload, args.seed)
    units = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        replay, tracer = Run(args.workload, args.seed), spans.Tracer()
        run.run_units(units, args.seconds / 2, replay, tracer)
        replay.units = run.units
    else:
        run.run_units(units, args.seconds)
    result = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    result["mpmath_samples"] = run.verify_samples()
    result["summary"] = summary(run)
    result["digest"] = digests(run)
    result["determinism"] = determinism(run)
    if args.trace:
        # The traced calls must give the untraced bytes; a mismatch is a determinism failure.
        pairs = list(zip(run.records, replay.records))
        result["determinism"]["mismatches"] += [
            f"traced call {i}" for i, (a, b) in enumerate(pairs) if a["sha256"] != b["sha256"]
        ]
        result["traced"] = summary(replay)
        result["trace"] = traced_layers(tracer, replay.measured_s)
        result["trace"]["overhead"] = statistics.median(b["seconds"] / a["seconds"] for a, b in pairs) - 1.0
        probe = Run(args.workload, args.seed)
        for op in workloads.underflow_probe(args.seed, PROBE_CALLS):
            probe.run_op(op, len(probe.records))
        probe.verify_samples()
        result["probe"] = summary(probe)
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": sys.modules["scipy"].__version__ if "scipy" in sys.modules else None,
        "mpmath": sys.modules["mpmath"].__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
