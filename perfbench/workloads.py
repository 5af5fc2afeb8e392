"""Seeded inputs and the request each benchmark workload sends to magrev.

Every library call goes through a module attribute (``magrev.estimator.
estimate_rpm``, not a name bound at import), so the traced run can wrap the
same attributes that the library's own callers look up.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import magrev.detector
import magrev.estimator
import magrev.evaluation
import magrev.sensor_io
import magrev.signals
from magrev.estimator import PipelineConfig, PipelineError
from magrev.evaluation import SweepScenario
from magrev.ppsp import PpspConfig
from magrev.signals import ArrayGeometry, CoilParams, MotorProfile, NoiseProfile

FS_HZ = 8192.0
SENSORS_CM = ((-12.0, 0.0), (-4.0, 0.0), (4.0, 0.0), (12.0, 0.0))
F0_RANGE_HZ = (20.0, 140.0)
STREAM_NOISE = NoiseProfile(
    mains_components=((60.0, 0.03), (120.0, 0.015)),
    broadband_sigma=0.01,
    shared_fraction=0.3,
)
# one fine-grid step at gamma = 50: 8192 / (8192 * 50) Hz * 60 = 1.2 RPM
HIT_RPM = 1.2
# one coarse bin (1 Hz) in RPM: bin-low and octave errors exceed it
GROSS_RPM = 60.0
ERROR_CAP_PCT = 100.0
# flags the library sets today, plus the two that ROADMAP item 1 names
KNOWN_FLAGS = frozenset(
    {"fallback", "low_confidence", "harmonic_shortfall", "fine_at_edge", "mains_adjacent"}
)

# network-multi-1s: PPSP at full size, trained on a short fixed schedule
TRAIN_SAMPLES = 8
TRAIN_EPOCHS = 2
TRAIN_BATCH = 8

# sweep: the default scenario reduced to fewer distances and trials
SWEEP_DISTANCES_CM = (5.0, 25.0, 45.0, 65.0, 85.0, 105.0)
SWEEP_TRIALS_PER_CELL = 6


class InvalidOutput(Exception):
    """A request returned something the correctness gate rejects."""


@dataclass
class Case:
    """One input: what the request receives and the speeds it should read."""

    payload: object
    truth_rpm: tuple[float, ...]


@dataclass
class Outcome:
    """What one request returned, reduced to what the gate and metrics need."""

    digest_line: str
    abs_errors_rpm: tuple[float, ...]
    extra: dict = field(default_factory=dict)


def _seed(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *tags)))


def _stratified_f0(rng: np.random.Generator, count: int) -> np.ndarray:
    """Fractional fundamentals, uniform over F0_RANGE_HZ: one draw in each
    of ``count`` equal strata, so every part of the range is covered."""
    lo, hi = F0_RANGE_HZ
    return lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count


def _motor(
    rng: np.random.Generator, f0: float, n_harm: int, position_cm
) -> MotorProfile:
    """``n_harm`` harmonics with random amplitudes and phases, scaled so the
    clean induced voltage at the source peaks at 1 V."""
    harmonics = [
        (k, float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.0, 2.0 * math.pi)))
        for k in range(1, n_harm + 1)
    ]
    probe = MotorProfile(period_s=1.0 / f0, harmonics=harmonics)
    peak = float(np.abs(magrev.signals.induce_voltage(probe, CoilParams(), 0.25, FS_HZ)).max())
    return MotorProfile(
        period_s=1.0 / f0,
        harmonics=[(k, a / peak, ph) for k, a, ph in harmonics],
        position_cm=position_cm,
    )


def write_captures(
    work_dir: Path, seed: int, count: int, duration_s: float, motors: int
) -> list[Case]:
    """Simulate ``count`` 4-coil captures and store each as 16-bit WAV."""
    rng = _seed(seed, motors, int(duration_s * 1000))
    geometry = ArrayGeometry(sensor_positions_cm=SENSORS_CM)
    first = _stratified_f0(rng, count)
    # 2, 3 or 4 harmonics in equal shares, shuffled across the speed strata
    n_harms = rng.permutation(2 + np.arange(count * motors) % 3)
    cases = []
    for i in range(count):
        f0s = [float(first[i])]
        if motors == 2:
            # the second motor sits 10-110 Hz away (cyclically in the range),
            # which keeps its marginal uniform and the two ladders distinct
            lo, hi = F0_RANGE_HZ
            f0s.append(lo + (f0s[0] - lo + rng.uniform(10.0, 110.0)) % (hi - lo))
            positions = [(-8.0, rng.uniform(5.0, 10.0)), (8.0, rng.uniform(5.0, 10.0))]
        else:
            positions = [(rng.uniform(-10.0, 10.0), rng.uniform(5.0, 10.0))]
        profiles = [
            _motor(rng, f0, int(n_harms[i * motors + j]), pos)
            for j, (f0, pos) in enumerate(zip(f0s, positions))
        ]
        trace = magrev.signals.simulate_mixture(
            profiles, geometry, STREAM_NOISE, CoilParams(), duration_s, FS_HZ,
            int(rng.integers(2**31)),
        )
        path = work_dir / f"capture_{i:04d}.wav"
        magrev.sensor_io.save_trace_wav(trace, path)
        cases.append(Case(payload=path, truth_rpm=tuple(60.0 * f for f in f0s)))
    return cases


def train_detector(seed: int):
    """Full-size PPSP weights from seeded synthetic samples.  Returns
    (weights, seconds spent generating the samples)."""
    t0 = time.perf_counter()
    samples = magrev.detector.synthesize_training_set(TRAIN_SAMPLES, seed)
    generate_s = time.perf_counter() - t0
    weights, _ = magrev.detector.train(
        samples, PpspConfig(), TRAIN_EPOCHS, batch_size=TRAIN_BATCH, seed=seed
    )
    return weights, generate_s


def sweep_cases(seed: int) -> list[Case]:
    """One single-trial scenario per (distance, speed, trial) of the reduced
    sweep.  Speeds, noise and pipeline are the defaults; each trial's master
    seed is drawn from the default master seed and the benchmark seed."""
    base = SweepScenario()
    cases = []
    for distance in SWEEP_DISTANCES_CM:
        for rpm in base.speeds_rpm:
            for trial in range(SWEEP_TRIALS_PER_CELL):
                ss = np.random.SeedSequence((base.master_seed, seed, len(cases)))
                scenario = replace(
                    base,
                    distances_cm=(distance,),
                    speeds_rpm=(rpm,),
                    trials_per_cell=1,
                    master_seed=int(ss.generate_state(1)[0]),
                )
                cases.append(Case(payload=scenario, truth_rpm=(rpm,)))
    return cases


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def _check_estimate(est) -> None:
    values = (est.rpm, est.fine_hz, est.coarse_hz)
    if not all(math.isfinite(v) and v > 0.0 for v in values):
        raise InvalidOutput(f"estimate not finite and positive: {est!r}")
    unknown = set(est.flags) - KNOWN_FLAGS
    if unknown:
        raise InvalidOutput(f"unknown flags {sorted(unknown)}")


def _read(estimates, case: Case) -> Outcome:
    for est in estimates:
        _check_estimate(est)
    line = ";".join(f"{e.rpm!r},{e.coarse_hz!r},{'|'.join(e.flags)}" for e in estimates)
    errors = tuple(
        min((abs(e.rpm - truth) for e in estimates), default=math.inf)
        for truth in case.truth_rpm
    )
    return Outcome(digest_line=line, abs_errors_rpm=errors)


def stream_request(case: Case, config: PipelineConfig) -> Outcome:
    trace = magrev.sensor_io.load_trace_wav(case.payload)
    return _read([magrev.estimator.estimate_rpm(trace, config)], case)


def multi_request(case: Case, config: PipelineConfig, weights) -> Outcome:
    trace = magrev.sensor_io.load_trace_wav(case.payload)
    return _read(magrev.estimator.estimate_rpm_multi(trace, 2, config, weights=weights), case)


def sweep_request(case: Case) -> Outcome:
    scenario = case.payload
    result = magrev.evaluation.run_distance_sweep(scenario)
    if result.fingerprint != scenario.fingerprint():
        raise InvalidOutput("BenchResult.fingerprint differs from the scenario's")
    errors = {m: v[0] for m, v in result.mean_error_pct.items()}
    if not all(math.isfinite(v) and 0.0 <= v <= ERROR_CAP_PCT for v in errors.values()):
        raise InvalidOutput(f"error outside [0, {ERROR_CAP_PCT}] %: {errors}")
    truth = case.truth_rpm[0]
    # a dropped pipeline trial is scored at the cap, so it is never a hit
    abs_err = math.inf if result.dropped["pipeline"] else errors["pipeline"] * truth / 100.0
    line = ";".join(
        f"{m},{errors[m]!r},{result.dropped[m]}" for m in sorted(errors)
    )
    return Outcome(digest_line=line, abs_errors_rpm=(abs_err,), extra=errors)


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------

# capture workloads: (capture seconds, cases, motors per capture)
CAPTURES = {
    "stream-1s": (1.0, 240, 1),
    "stream-8s": (8.0, 90, 1),
    "network-multi-1s": (1.0, 150, 2),
}
WORKLOADS = (*CAPTURES, "sweep")
FAILURES = (PipelineError, ValueError)


def build(name: str, work_dir: Path, seed: int):
    """Inputs and request function of workload ``name``.  Returns (cases,
    request, seconds spent generating inputs).  PPSP training runs here and
    is not counted as generation."""
    t0 = time.perf_counter()
    if name == "sweep":
        return sweep_cases(seed), sweep_request, time.perf_counter() - t0
    duration_s, count, motors = CAPTURES[name]
    cases = write_captures(work_dir, seed, count, duration_s, motors)
    generate_s = time.perf_counter() - t0
    if motors == 1:
        return cases, functools.partial(stream_request, config=PipelineConfig()), generate_s
    weights, train_generate_s = train_detector(seed)
    request = functools.partial(
        multi_request, config=PipelineConfig(detector="network"), weights=weights
    )
    return cases, request, generate_s + train_generate_s
