"""The closed loop, the metrics and the report behind ``run.py``.

Imported by ``run.py`` once ``src/`` of the checkout is on ``sys.path``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import magrev
import workloads
from magrev.ppsp import TrainingDivergedError
from tracing import PER_LAYER, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 3
# Each vCPU of a shared host drifts in speed on its own, by up to 40 % over a
# few seconds, and the scheduler keeps a process on one vCPU for seconds at a
# time.  Moving this process to the next allowed CPU before each request and
# each set-up probe samples all of them evenly, which keeps the run-to-run
# spread down.  It acts on this process only.
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("hit_rate", "fraction", "higher"),
    ("within_60rpm_rate", "fraction", "higher"),
    ("success_rate", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _pin(i: int) -> None:
    os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def setup_probe(t_start: float, workload: str, seed: int) -> None:
    """One set-up in a fresh interpreter: import magrev, plus PPSP training
    on network-multi-1s.  Prints its seconds, training-data generation
    excluded."""
    generate_s = 0.0
    if workload == "network-multi-1s":
        _, generate_s = workloads.train_detector(seed)
    print(json.dumps({"setup_s": time.perf_counter() - t_start - generate_s}))


def measure_setup(workload: str, seed: int) -> list[float]:
    runs = []
    try:
        for k in range(SETUP_PROBES):
            _pin(k)  # the probe inherits this CPU
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
            )
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    finally:
        os.sched_setaffinity(0, CPUS)
    return runs


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Loop:
    """Closed loop with one caller over the cases, in order.  Keeps the
    first outcome of every case and checks that repeats match it byte for
    byte."""

    def __init__(self, cases, request):
        self.cases = cases
        self.request = request
        self.first: dict[int, workloads.Outcome] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[int] = []
        self.invalid: list[str] = []

    def call(self, i: int) -> None:
        key = i % len(self.cases)
        case = self.cases[key]
        _pin(i)
        self.attempted += 1
        try:
            outcome = self.request(case)
        except workloads.FAILURES as exc:
            self.failed += 1
            outcome = workloads.Outcome(
                digest_line=f"error:{type(exc).__name__}:{exc}",
                abs_errors_rpm=tuple(math.inf for _ in case.truth_rpm),
            )
        except workloads.InvalidOutput as exc:
            self.invalid.append(f"case {key}: {exc}")
            return
        if key not in self.first:
            self.first[key] = outcome
        elif self.first[key].digest_line != outcome.digest_line:
            self.mismatches.append(key)

    def window(self, seconds: float) -> tuple[list[float], float, int]:
        """Requests until ``seconds`` have passed.  Returns each request's
        latency, the elapsed seconds and how many requests failed."""
        latencies = []
        failed_before = self.failed
        t0 = time.perf_counter()
        deadline = t0 + seconds
        i = 0
        while (start := time.perf_counter()) < deadline:
            self.call(i)
            latencies.append(time.perf_counter() - start)
            i += 1
        return latencies, time.perf_counter() - t0, self.failed - failed_before

    def complete(self) -> None:
        """Run, untimed, every case the timed window did not reach."""
        for i in range(len(self.cases)):
            if i not in self.first:
                self.call(i)

    def accuracy(self) -> dict[str, float]:
        """Against generator truth, over the first outcome of every case."""
        errors, pct = [], []
        for i, case in enumerate(self.cases):
            for truth, err in zip(case.truth_rpm, self.first[i].abs_errors_rpm):
                errors.append(err)
                pct.append(min(workloads.ERROR_CAP_PCT, 100.0 * err / truth))
        return {
            "hit_rate": sum(e <= workloads.HIT_RPM for e in errors) / len(errors),
            "within_60rpm_rate": sum(e <= workloads.GROSS_RPM for e in errors) / len(errors),
            "mean_error_pct.pipeline": sum(pct) / len(pct),
        }

    def method_errors(self) -> dict[str, float]:
        """Sweep only: mean error (%) per method over every trial.  Every
        distance has the same number of trials, so this is the mean over
        distances of BenchResult.mean_error_pct."""
        outcomes = [self.first[i] for i in range(len(self.cases))]
        return {
            f"mean_error_pct.{m}": sum(o.extra[m] for o in outcomes) / len(outcomes)
            for m in ("pipeline", "autocorrelation", "peak")
        }

    def digest(self) -> tuple[str, list[str]]:
        lines = [f"{i}:{self.first[i].digest_line}" for i in sorted(self.first)]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest(), lines


def untraced(loop: Loop, seconds: float, workload: str, seed: int):
    setup_runs = measure_setup(workload, seed)
    loop.call(0)  # warm-up: lazy imports and FFT plans
    latencies, elapsed, failed = loop.window(seconds)
    loop.complete()
    if loop.invalid or len(loop.first) < len(loop.cases):
        return {}, {}, {}
    accuracy = loop.accuracy()
    requests_per_s = (len(latencies) - failed) / elapsed
    report = {
        f"{'trial' if workload == 'sweep' else 'capture'}s_per_s": requests_per_s,
        "timed_requests": len(latencies),
        "mean_error_pct.pipeline": accuracy.pop("mean_error_pct.pipeline"),
        "gross_error_rate": 1.0 - accuracy["within_60rpm_rate"],
    }
    if workload == "sweep":
        report.update(loop.method_errors())
    metrics = {
        "setup_s": statistics.median(setup_runs),
        "requests_per_s": requests_per_s,
        "latency_p50_ms": 1000.0 * percentile(latencies, 0.5),
        "latency_p90_ms": 1000.0 * percentile(latencies, 0.9),
        **accuracy,
        "success_rate": (loop.attempted - loop.failed) / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "setup_runs_s": setup_runs,
        "latencies_ms": [1000.0 * t for t in latencies],
    }
    return metrics, report, details


def traced(loop: Loop, tracer: Tracer, seconds: float):
    """An untraced window of ``seconds / 2``, then one traced pass over
    every case; the difference in requests per second is the overhead."""
    loop.call(0)  # warm-up
    latencies, elapsed, failed = loop.window(seconds / 2.0)
    untraced_rps = (len(latencies) - failed) / elapsed
    failed_before = loop.failed
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i in range(len(loop.cases)):
            with tracer.request(i):
                loop.call(i)
        traced_rps = (len(loop.cases) - (loop.failed - failed_before)) / (time.perf_counter() - t0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(len(loop.cases), untraced_rps, traced_rps)
    report = {
        "untraced_requests_per_s": untraced_rps,
        "traced_requests_per_s": traced_rps,
        "hooks_missing": tracer.missing,
    }
    return metrics, report


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_used": CPUS,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "magrev": magrev.__version__,
    }


def run(args) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()  # set-up is traced too: training, generation
        try:
            cases, request, generate_s = workloads.build(args.workload, work_dir, args.seed)
        except TrainingDivergedError as exc:
            print(f"set-up failed: {exc}")
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        finally:
            if tracer:
                tracer.uninstall()
        loop = Loop(cases, request)
        details = {}
        if tracer:
            metrics, report = traced(loop, tracer, args.seconds)
            units = {name: unit for name, unit, _ in PER_LAYER}
            tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics, report, details = untraced(loop, args.seconds, args.workload, args.seed)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        os.sched_setaffinity(0, CPUS)
        shutil.rmtree(work_dir, ignore_errors=True)

    unit = "trial" if args.workload == "sweep" else "capture"
    digest, lines = loop.digest()
    correct = not loop.mismatches and not loop.invalid and len(loop.first) == len(cases)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "request": unit,
        "cases": len(cases),
        "input_generation_s": generate_s,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "fail_rate": loop.failed / loop.attempted,
        **report,
        "digest": digest,
        "mismatched_cases": loop.mismatches,
        "invalid": loop.invalid,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(
        json.dumps({**summary, "metrics": metrics, **details, "estimates": lines}, indent=1) + "\n"
    )
    for key, value in summary.items():
        print(f"{key}: {value}")
    for key, value in metrics.items():
        print(f"{key}: {value!r} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def main(t_start: float) -> int:
    if Path(magrev.__file__).resolve().parent != ROOT / "src" / "magrev":
        print(f"perfbench: magrev imported from {magrev.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description="magrev benchmark; see perfbench/README.md")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(t_start, args.workload, args.seed)
        return 0
    return run(args)
