"""Benchmarks: error metrics, reference baselines, the distance sweep, and
the two-sensor alignment map.

The distance sweep is the headline experiment: a motor is placed at a range
of distances from a small linear sensor array, every method estimates its
speed from the same traces, and the relative mean absolute error (in percent)
is aggregated per distance.  Baselines run on the raw first channel; the
pipeline gets the full multi-channel trace.  Failed trials are scored at the
100 percent error cap and counted separately, so a method that stops working
saturates instead of vanishing from the average.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .dsp import NoiseReference, default_segment_len, welch_psd
from .estimator import PipelineConfig, PipelineError, estimate_rpm
from .fields import BOOLEAN, check_fields, instance_of, integer, list_of, real, row
from .ppsp import PpspWeights
from .sensor_io import json_fingerprint, write_json, write_table
from .signals import (
    ArrayGeometry,
    CoilParams,
    MotorProfile,
    NoiseProfile,
    compute_ser,
    induce_voltage,
    simulate_array,
)

__all__ = [
    "BenchResult",
    "SERMAP_FIELDS",
    "SerMap",
    "SweepScenario",
    "autocorrelation_baseline",
    "calibrated_map_speed",
    "peak_detection_baseline",
    "run_distance_sweep",
    "run_ser_map",
]

ERROR_CAP_PCT = 100.0


# ---------------------------------------------------------------------------
# Baselines (single raw channel)
# ---------------------------------------------------------------------------


def _biased_autocorrelation(x: np.ndarray) -> np.ndarray:
    """sum_t x[t] * x[t + lag] / n for lags 0..n-1: |X|^2 of a transform
    padded to 2n points has no circular wrap-around."""
    n = x.size
    spec = np.fft.rfft(x, 2 * n)
    return np.fft.irfft(spec.real**2 + spec.imag**2, 2 * n)[:n] / n


def autocorrelation_baseline(
    signal: np.ndarray,
    sample_rate_hz: float,
    f_min_hz: float,
    f_max_hz: float,
) -> float:
    """Speed in RPM from the dominant period of the biased autocorrelation.

    The search covers lags round(fs / f_max) .. round(fs / f_min) inclusive,
    and the estimate is 60 * fs / argmax_lag.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be one dimensional")
    if not 0 < f_min_hz < f_max_hz:
        raise ValueError("need 0 < f_min < f_max")
    n = x.size
    lag_min = int(round(sample_rate_hz / f_max_hz))
    lag_max = int(round(sample_rate_hz / f_min_hz))
    if lag_min < 1 or lag_max >= n:
        raise ValueError("frequency band maps to lags outside the signal")
    window = _biased_autocorrelation(x)[lag_min : lag_max + 1]
    lag = lag_min + int(np.argmax(window))
    return 60.0 * sample_rate_hz / lag


def peak_detection_baseline(
    signal: np.ndarray,
    sample_rate_hz: float,
    f_min_hz: float,
    f_max_hz: float,
    segment_len: int | None = None,
) -> float:
    """Speed in RPM from the tallest Welch density bin inside the band."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be one dimensional")
    if not 0 < f_min_hz < f_max_hz:
        raise ValueError("need 0 < f_min < f_max")
    if segment_len is None:
        segment_len = default_segment_len(sample_rate_hz, x.size)
    spec = welch_psd(x, sample_rate_hz, segment_len=segment_len)
    sel = np.flatnonzero(
        (spec.frequencies >= f_min_hz) & (spec.frequencies <= f_max_hz)
    )
    if sel.size == 0:
        raise ValueError("no spectral bins inside the band")
    best = sel[int(np.argmax(spec.densities[sel]))]
    return 60.0 * float(spec.frequencies[best])


# ---------------------------------------------------------------------------
# Distance sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepScenario:
    """Full description of one benchmark run; everything that affects the
    numbers lives here so the fingerprint pins the result."""

    sample_rate_hz: float = 8192.0
    duration_s: float = 1.0
    distances_cm: tuple[float, ...] = tuple(float(d) for d in range(5, 110, 5))
    # chosen so no low harmonic of any speed falls into the whitener's
    # mains-suppression band around 60 Hz
    speeds_rpm: tuple[float, ...] = (2400.0, 4800.0, 6000.0, 7200.0, 8400.0)
    trials_per_cell: int = 20
    master_seed: int = 20260816
    sensor_positions_cm: tuple[tuple[float, float], ...] = (
        (-12.0, 0.0),
        (-4.0, 0.0),
        (4.0, 0.0),
        (12.0, 0.0),
    )
    effective_speed_cm_s: float = 1000.0
    reference_distance_cm: float = 5.0
    amplitude_falloff_exponent: float = 2.0
    harmonic_shape: tuple[tuple[int, float], ...] = (
        (1, 1.0),
        (2, 0.6),
        (3, 0.35),
        (4, 0.2),
    )
    target_peak_v: float = 0.6
    target_peak_rpm: float = 3000.0
    mains: tuple[tuple[float, float], ...] = ((60.0, 0.15),)
    broadband_sigma_v: float = 0.008
    shared_fraction: float = 0.3
    baseline_f_min_hz: float = 25.0
    baseline_f_max_hz: float = 150.0
    use_noise_reference: bool = True
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    def __post_init__(self):
        """Real fields become floats, JSON lists the tuples above, and a
        ``pipeline`` dict a :class:`PipelineConfig`.  A value of the wrong kind
        or out of range, an empty baseline band, a motor shape no trial can
        use, or a network pipeline without weights, is a ValueError naming its field."""
        if isinstance(self.pipeline, dict):
            object.__setattr__(self, "pipeline", PipelineConfig(**self.pipeline))
        elif not isinstance(self.pipeline, PipelineConfig):
            raise TypeError("pipeline must be a PipelineConfig or a dict of its keys")
        check_fields(self, _SCENARIO_FIELDS)
        if self.pipeline.detector == "network" and self.pipeline.weights_path is None:
            raise ValueError("pipeline must give a weights_path for the network detector")
        if not self.baseline_f_min_hz < self.baseline_f_max_hz:
            raise ValueError("baseline_f_min_hz must be below baseline_f_max_hz")
        _sweep_sensing(self)  # the motor, array and noise models check their own fields

    def fingerprint(self) -> str:
        return json_fingerprint(asdict(self))


# every field not named below the first line is a finite real number
_SCENARIO_FIELDS = {
    **{f.name: real() for f in fields(SweepScenario)},
    **dict.fromkeys(("sample_rate_hz", "duration_s"), real("> 0")),
    **dict.fromkeys(("distances_cm", "speeds_rpm"), list_of(real("> 0"), non_empty=True)),
    **dict.fromkeys(("target_peak_rpm", "baseline_f_min_hz"), real("> 0")),
    "trials_per_cell": integer(">= 1"),
    "master_seed": integer(">= 0"),
    "sensor_positions_cm": list_of(row("[x, y]", real(), real())),
    "harmonic_shape": list_of(row("[order, amplitude]", integer(">= 1"), real())),
    "mains": list_of(row("[frequency, amplitude]", real(), real())),
    "use_noise_reference": BOOLEAN,
    "pipeline": instance_of(PipelineConfig),
}


def _sweep_sensing(scenario: SweepScenario) -> tuple[ArrayGeometry, NoiseProfile]:
    """The sweep's sensor array and noise model, after checking the motor
    shape at the fastest speed a trial simulates."""
    fastest = max(*scenario.speeds_rpm, scenario.target_peak_rpm)
    try:
        motor = MotorProfile.from_rpm(fastest, [(k, a, 0.0) for k, a in scenario.harmonic_shape])
    except ValueError as exc:
        raise ValueError(f"harmonic_shape: {exc}") from None
    if not any(a for _, a in scenario.harmonic_shape):
        raise ValueError("harmonic_shape needs an amplitude other than 0")
    if scenario.sample_rate_hz <= 2.0 * motor.max_harmonic_hz:
        raise ValueError(f"speeds_rpm and target_peak_rpm reach {fastest} RPM, with harmonics "
                         f"up to {motor.max_harmonic_hz} Hz: sample_rate_hz is too low")
    geometry = ArrayGeometry(
        sensor_positions_cm=scenario.sensor_positions_cm,
        effective_speed_cm_s=scenario.effective_speed_cm_s,
        reference_distance_cm=scenario.reference_distance_cm,
        amplitude_falloff_exponent=scenario.amplitude_falloff_exponent,
    )
    noise = NoiseProfile(
        mains_components=scenario.mains,
        broadband_sigma=scenario.broadband_sigma_v,
        shared_fraction=scenario.shared_fraction,
    )
    return geometry, noise


@dataclass
class BenchResult:
    """Aggregated sweep output: mean error (percent) per method and
    distance, plus failure counts."""

    distances_cm: list[float]
    mean_error_pct: dict[str, list[float]]
    dropped: dict[str, int]
    fingerprint: str
    scenario: dict


def _scaled_profile(
    rpm: float,
    scenario: SweepScenario,
    coil: CoilParams,
    rng: np.random.Generator,
) -> MotorProfile:
    """Harmonic shape with random phases, field amplitudes scaled so that a
    spin at ``target_peak_rpm`` would induce a clean voltage peaking at
    ``target_peak_v``.

    The field amplitudes describe the magnet and do not depend on speed, so
    the voltage actually induced at ``rpm`` scales with the speed ratio."""
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(scenario.harmonic_shape))
    harmonics = [
        (k, a, float(ph)) for (k, a), ph in zip(scenario.harmonic_shape, phases)
    ]
    anchor = MotorProfile.from_rpm(scenario.target_peak_rpm, harmonics=harmonics)
    peak = float(
        np.abs(induce_voltage(anchor, coil, 1.0, scenario.sample_rate_hz)).max()
    )
    if peak == 0.0:
        raise ValueError("harmonic shape produces a silent signal")
    scale = scenario.target_peak_v / peak
    harmonics = [(k, a * scale, ph) for k, a, ph in harmonics]
    return MotorProfile.from_rpm(rpm, harmonics=harmonics)


METHODS = ("pipeline", "autocorrelation", "peak")


def _sweep_trial(
    scenario: SweepScenario,
    rpm: float,
    distance: float,
    seed: tuple[int, ...],
    setup: tuple[ArrayGeometry, NoiseProfile, CoilParams, PpspWeights | None],
) -> dict[str, float]:
    """Simulate one trial and read it with every method; a read that fails
    is NaN.  ``setup`` is what the sweep builds once: (geometry, noise,
    coil, network weights or None).

    The methods look up ``estimate_rpm``, the baselines and
    ``simulate_array`` at call time, so a wrapper installed on this module
    sees every call."""
    geometry, noise, coil, weights = setup
    sim_seed, profile_seed, ref_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(3)
    )
    position = (0.0, float(distance))
    profile = _scaled_profile(rpm, scenario, coil, np.random.default_rng(profile_seed))
    capture = (geometry, noise, coil, scenario.duration_s, scenario.sample_rate_hz)
    trace = simulate_array(profile.at_position(position), *capture, sim_seed)
    reference = None
    if scenario.use_noise_reference:
        silent = MotorProfile.from_rpm(rpm, harmonics=[(1, 0.0, 0.0)])
        noise_only = simulate_array(silent.at_position(position), *capture, ref_seed)
        reference = NoiseReference.from_signal(noise_only.channels[0])
    raw = trace.channels[0]
    band = (scenario.sample_rate_hz, scenario.baseline_f_min_hz, scenario.baseline_f_max_hz)
    reads = {
        "pipeline": lambda: estimate_rpm(
            trace, scenario.pipeline, noise_reference=reference, weights=weights
        ).rpm,
        "autocorrelation": lambda: autocorrelation_baseline(raw, *band),
        "peak": lambda: peak_detection_baseline(raw, *band),
    }
    values = {}
    for method, read in reads.items():
        try:
            values[method] = read()
        except (PipelineError, ValueError):
            values[method] = math.nan
    return values


def run_distance_sweep(
    scenario: SweepScenario | None = None,
    out_dir: str | Path | None = None,
) -> BenchResult:
    """Run the full distance x speed x trial grid for the pipeline and both
    baselines.

    Per-trial randomness is seeded from (master_seed, distance index, speed
    index, trial index), so any cell can be reproduced in isolation.  A
    network detector's weights are read once per sweep.  When ``out_dir`` is
    given, writes trials.csv, aggregate.csv, and summary.json.
    """
    if scenario is None:
        scenario = SweepScenario()
    weights = None
    if scenario.pipeline.detector == "network":
        weights = PpspWeights.load(scenario.pipeline.weights_path)
    setup = (*_sweep_sensing(scenario), CoilParams(), weights)
    # errors[method][distance index] holds one error per (speed, trial)
    errors = {m: [[] for _ in scenario.distances_cm] for m in METHODS}
    dropped = dict.fromkeys(METHODS, 0)
    trial_rows: list[tuple] = []
    grid = itertools.product(
        enumerate(scenario.distances_cm),
        enumerate(scenario.speeds_rpm),
        range(scenario.trials_per_cell),
    )
    for (di, distance), (si, rpm), trial in grid:
        seed = (scenario.master_seed, di, si, trial)
        values = _sweep_trial(scenario, rpm, distance, seed, setup)
        for method, value in values.items():
            failed = math.isnan(value)
            err = ERROR_CAP_PCT if failed else min(ERROR_CAP_PCT, abs(value - rpm) / rpm * 100.0)
            dropped[method] += failed
            errors[method][di].append(err)
            trial_rows.append((distance, rpm, trial, method, value, err, int(failed)))
    mean_error = {
        m: [float(np.mean(cell)) for cell in errors[m]] for m in METHODS
    }
    result = BenchResult(
        distances_cm=[float(d) for d in scenario.distances_cm],
        mean_error_pct=mean_error,
        dropped=dropped,
        fingerprint=scenario.fingerprint(),
        scenario=asdict(scenario),
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        trials_header = (
            "distance_cm", "speed_rpm", "trial", "method",
            "rpm_estimate", "error_pct", "failed",
        )
        write_table(out_dir / "trials.csv", trials_header, trial_rows)
        write_table(
            out_dir / "aggregate.csv",
            ("distance_cm", "method", "mean_error_pct"),
            (
                (distance, method, result.mean_error_pct[method][i])
                for i, distance in enumerate(result.distances_cm)
                for method in METHODS
            ),
        )
        write_json(out_dir / "summary.json", asdict(result))
    return result


# ---------------------------------------------------------------------------
# Two-sensor alignment map
# ---------------------------------------------------------------------------


def calibrated_map_speed(
    target_cm: tuple[float, float] = (-4.0, 11.0),
    delta_t_s: float = 0.004,
    sensor_positions_cm: tuple[tuple[float, float], ...] = (
        (-8.0, -8.0),
        (8.0, -8.0),
    ),
) -> float:
    """Effective propagation speed (cm/s) that makes the alignment-map peak
    for a ``delta_t_s`` compensation land on ``target_cm``: the inter-sensor
    path difference at the target divided by the compensation delay."""
    if len(sensor_positions_cm) != 2:
        raise ValueError("the alignment map uses exactly two sensors")
    if delta_t_s == 0.0:
        raise ValueError("delta_t_s must be nonzero")
    tx, ty = target_cm
    (x0, y0), (x1, y1) = sensor_positions_cm
    d0 = math.hypot(tx - x0, ty - y0)
    d1 = math.hypot(tx - x1, ty - y1)
    return (d1 - d0) / delta_t_s


@dataclass
class SerMap:
    """Signal-enhancement ratio over a grid of candidate source positions."""

    x_cm: np.ndarray
    y_cm: np.ndarray
    values: np.ndarray  # shape (len(y_cm), len(x_cm))
    delta_t_s: float

    def peak(self) -> tuple[float, float, float]:
        iy, ix = np.unravel_index(int(np.nanargmax(self.values)), self.values.shape)
        return float(self.x_cm[ix]), float(self.y_cm[iy]), float(self.values[iy, ix])

    def save_csv(self, path: str | Path) -> None:
        write_table(
            path,
            ("y_cm\\x_cm", *self.x_cm),
            ((y, *row) for y, row in zip(self.y_cm, self.values)),
        )


# the alignment-map settings that run_ser_map checks and `magrev sermap` takes
SERMAP_FIELDS = dict.fromkeys(
    ("sample_rate_hz", "duration_s", "speed_rpm", "effective_speed_cm_s", "step_cm"),
    real("> 0"),
)


def run_ser_map(
    delta_t_s: float,
    *,
    sample_rate_hz: float = 8192.0,
    duration_s: float = 0.5,
    speed_rpm: float = 1200.0,
    sensor_positions_cm: tuple[tuple[float, float], ...] = (
        (-8.0, -8.0),
        (8.0, -8.0),
    ),
    effective_speed_cm_s: float | None = None,
    x_range_cm: tuple[float, float] = (-8.0, 8.0),
    y_range_cm: tuple[float, float] = (0.0, 15.0),
    step_cm: float = 1.0,
) -> SerMap:
    """Noiseless two-sensor enhancement map.

    For every grid position the motor is simulated there, the second channel
    is advanced by ``delta_t_s``, and the enhancement ratio of the summed
    pair is recorded.  Positions whose true inter-sensor delay matches the
    compensation score exactly 1.0.  Grid cells that coincide with a sensor
    have no defined ratio and are stored as NaN.

    The default sensor pair sits below the scanned region: when a cell hugs
    one sensor, path loss makes that channel dominate and the ratio drifts
    toward 1 regardless of alignment, smearing the map with false highs.
    A setting of ``SERMAP_FIELDS`` outside its kind is a ValueError naming it;
    ``effective_speed_cm_s=None`` calibrates the speed to ``delta_t_s``.
    """
    if len(sensor_positions_cm) != 2:
        raise ValueError("the alignment map uses exactly two sensors")
    if effective_speed_cm_s is None:
        effective_speed_cm_s = calibrated_map_speed(
            delta_t_s=delta_t_s, sensor_positions_cm=sensor_positions_cm
        )
    check_fields(dict(sample_rate_hz=sample_rate_hz, duration_s=duration_s, speed_rpm=speed_rpm,
                      effective_speed_cm_s=effective_speed_cm_s, step_cm=step_cm), SERMAP_FIELDS)
    xs = np.arange(x_range_cm[0], x_range_cm[1] + step_cm / 2, step_cm)
    ys = np.arange(y_range_cm[0], y_range_cm[1] + step_cm / 2, step_cm)
    # Slow fundamental with a rich overtone stack: misalignments of a few
    # dozen samples decorrelate the induced waveform, while the full period
    # (longer than any inter-sensor delay on this grid) never re-aligns.
    harmonics = [
        (1, 1.0, 0.0),
        (2, 0.8, 0.9),
        (3, 0.65, 1.7),
        (4, 0.5, 2.6),
        (5, 0.4, 3.3),
        (6, 0.3, 4.1),
        (7, 0.22, 5.0),
        (8, 0.16, 5.8),
    ]
    silent = NoiseProfile(mains_components=(), broadband_sigma=0.0, shared_fraction=0.0)
    coil = CoilParams()
    geometry = ArrayGeometry(
        sensor_positions_cm=sensor_positions_cm,
        effective_speed_cm_s=effective_speed_cm_s,
    )
    sensor_xy = np.asarray(sensor_positions_cm, dtype=np.float64)
    values = np.zeros((ys.size, xs.size))
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            gaps = np.sqrt(((sensor_xy - (x, y)) ** 2).sum(axis=1))
            if gaps.min() < 1e-9:
                values[iy, ix] = np.nan
                continue
            profile = MotorProfile.from_rpm(
                speed_rpm, harmonics=harmonics, position_cm=(float(x), float(y))
            )
            trace = simulate_array(
                profile, geometry, silent, coil, duration_s, sample_rate_hz, 0
            )
            values[iy, ix] = compute_ser(
                trace.channels[0], trace.channels[1], delta_t_s, sample_rate_hz
            )
    return SerMap(x_cm=xs, y_cm=ys, values=values, delta_t_s=delta_t_s)
