"""Synthetic magnetic-field sensing of rotating machinery.

A rotating motor leaks a periodic magnetic field whose fundamental period is
the mechanical rotation period.  A pickup coil near the motor sees the time
derivative of that field, scaled by the coil constant and attenuated with
distance.  This module synthesizes those signals for arrays of sensors,
including a configurable environment noise model, and provides the
signal-to-ensemble ratio (SER) used to probe spatial coherence between two
sensors.

Units: positions and distances in centimeters, time in seconds, frequencies
in Hz, field amplitudes in tesla-like arbitrary units, voltages in volts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

MU_0 = 4.0e-7 * math.pi


@dataclass
class MotorProfile:
    """Harmonic description of one rotating source.

    Parameters
    ----------
    period_s : float
        Rotation period P in seconds.  The fundamental frequency is 1/P.
    harmonics : list of (order, amplitude, phase)
        Field harmonic components (k, D_k, phi_k); the field contribution of
        component k is D_k * cos(2*pi*k*t/P - phi_k).
    position_cm : tuple of float
        Source location in the sensing plane, centimeters.
    """

    period_s: float
    harmonics: list[tuple[int, float, float]]
    position_cm: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        self.period_s = float(self.period_s)
        if not (self.period_s > 0.0 and math.isfinite(self.period_s)):
            raise ValueError("period_s must be positive and finite")
        orders = [k for k, _, _ in self.harmonics]
        if any(int(k) != k or k < 1 for k in orders):
            raise ValueError("harmonic orders must be integers >= 1")
        if len(set(orders)) != len(orders):
            raise ValueError("harmonic orders must be distinct")
        self.harmonics = [(int(k), float(d), float(p)) for k, d, p in self.harmonics]
        self.position_cm = (float(self.position_cm[0]), float(self.position_cm[1]))

    @property
    def fundamental_hz(self) -> float:
        return 1.0 / self.period_s

    @property
    def rpm(self) -> float:
        return 60.0 / self.period_s

    @property
    def max_harmonic_hz(self) -> float:
        if not self.harmonics:
            return 0.0
        return max(k for k, _, _ in self.harmonics) / self.period_s

    @classmethod
    def from_rpm(cls, rpm: float, harmonics, **kwargs) -> "MotorProfile":
        if rpm <= 0:
            raise ValueError("rpm must be positive")
        return cls(period_s=60.0 / rpm, harmonics=list(harmonics), **kwargs)

    def at_position(self, position_cm: tuple[float, float]) -> "MotorProfile":
        """Copy of this profile relocated to ``position_cm``."""
        return replace(self, position_cm=position_cm)



@dataclass
class CoilParams:
    """Pickup coil constants.  The induced voltage scales with
    mu_0 * relative_permeability * turns * area_m2."""

    relative_permeability: float = 300.0
    turns: int = 3500
    area_m2: float = 3.14e-4

    def __post_init__(self):
        self.relative_permeability = float(self.relative_permeability)
        if isinstance(self.turns, bool) or not float(self.turns).is_integer():
            raise ValueError(f"turns must be an integer, got {self.turns!r}")
        self.turns = int(self.turns)
        self.area_m2 = float(self.area_m2)
        if self.relative_permeability <= 0 or self.turns < 1 or self.area_m2 <= 0:
            raise ValueError("coil parameters must be positive")

    @property
    def scale(self) -> float:
        return MU_0 * self.relative_permeability * self.turns * self.area_m2



@dataclass
class ArrayGeometry:
    """Sensor layout and propagation model.

    ``effective_speed_cm_s`` is the stand-in propagation speed used to turn
    path-length differences into inter-channel delays; it is a calibration
    constant of the deployment, not a physical wave speed.  Amplitude decays
    as (reference_distance_cm / d) ** amplitude_falloff_exponent, so received
    power falls off with twice that exponent.
    """

    sensor_positions_cm: list[tuple[float, float]]
    effective_speed_cm_s: float = 1000.0
    reference_distance_cm: float = 5.0
    amplitude_falloff_exponent: float = 2.0

    def __post_init__(self):
        if len(self.sensor_positions_cm) < 1:
            raise ValueError("at least one sensor position is required")
        self.sensor_positions_cm = [
            (float(x), float(y)) for x, y in self.sensor_positions_cm
        ]
        self.effective_speed_cm_s = float(self.effective_speed_cm_s)
        self.reference_distance_cm = float(self.reference_distance_cm)
        self.amplitude_falloff_exponent = float(self.amplitude_falloff_exponent)
        if self.effective_speed_cm_s <= 0:
            raise ValueError("effective_speed_cm_s must be positive")
        if self.reference_distance_cm <= 0:
            raise ValueError("reference_distance_cm must be positive")
        if self.amplitude_falloff_exponent < 2.0:
            raise ValueError("amplitude_falloff_exponent must be >= 2")

    @property
    def n_sensors(self) -> int:
        return len(self.sensor_positions_cm)

    def distances_cm(self, source_cm: tuple[float, float]) -> np.ndarray:
        pos = np.asarray(self.sensor_positions_cm, dtype=np.float64)
        src = np.asarray(source_cm, dtype=np.float64)
        return np.sqrt(((pos - src) ** 2).sum(axis=1))



@dataclass
class NoiseProfile:
    """Environment noise: mains tones plus broadband white noise.

    ``shared_fraction`` is the portion of noise power common to all channels;
    the remainder is drawn independently per channel.  Per-channel noise power
    is sigma^2 + sum(A_j^2 / 2) regardless of the split.
    """

    mains_components: list[tuple[float, float]] = field(default_factory=list)
    broadband_sigma: float = 0.0
    shared_fraction: float = 0.0

    def __post_init__(self):
        self.mains_components = [
            (float(f), float(a)) for f, a in self.mains_components
        ]
        self.broadband_sigma = float(self.broadband_sigma)
        self.shared_fraction = float(self.shared_fraction)
        if any(f <= 0 or a < 0 for f, a in self.mains_components):
            raise ValueError("mains components need positive frequency, amplitude >= 0")
        if self.broadband_sigma < 0:
            raise ValueError("broadband_sigma must be >= 0")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ValueError("shared_fraction must be in [0, 1]")

    @property
    def is_silent(self) -> bool:
        return self.broadband_sigma == 0.0 and not any(
            a > 0 for _, a in self.mains_components
        )


@dataclass
class SensorTrace:
    """Multi-channel capture: ``channels`` has shape (n_channels, n_samples)."""

    channels: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.channels = np.atleast_2d(np.asarray(self.channels, dtype=np.float64))
        if self.channels.ndim != 2:
            raise ValueError("channels must be a 2-D array")
        if self.channels.shape[1] < 1:
            raise ValueError("channels must contain samples")
        if not np.all(np.isfinite(self.channels)):
            raise ValueError("channels must be finite (no NaN or inf samples)")
        if not (self.sample_rate_hz > 0 and math.isfinite(self.sample_rate_hz)):
            raise ValueError("sample_rate_hz must be positive and finite")
        self.sample_rate_hz = float(self.sample_rate_hz)

    @property
    def n_channels(self) -> int:
        return self.channels.shape[0]

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


# ---------------------------------------------------------------------------
# Field and voltage synthesis
# ---------------------------------------------------------------------------


def _voltage_at(profile: MotorProfile, coil: CoilParams, t: np.ndarray) -> np.ndarray:
    # Faraday's law: the minus sign cancels against d/dt cos = -w sin,
    # leaving +scale * D_k * k * w0 * sin(k*w0*t - phi_k) per harmonic.
    out = np.zeros(t.shape, dtype=np.float64)
    w0 = 2.0 * math.pi / profile.period_s
    for k, d_k, phi_k in profile.harmonics:
        out += d_k * k * w0 * np.sin(w0 * k * t - phi_k)
    return coil.scale * out


def _check_nyquist(profile: MotorProfile, fs: float) -> None:
    fmax = profile.max_harmonic_hz
    if fmax > 0 and fs <= 2.0 * fmax:
        raise ValueError(
            f"sample rate {fs} Hz cannot represent harmonic content up to "
            f"{fmax} Hz (need fs > {2.0 * fmax})"
        )


def _time_grid(duration_s: float, fs: float) -> np.ndarray:
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if fs <= 0:
        raise ValueError("fs must be positive")
    n = int(round(duration_s * fs))
    if n < 1:
        raise ValueError("duration too short for one sample")
    return np.arange(n, dtype=np.float64) / fs


def induce_voltage(
    profile: MotorProfile, coil: CoilParams, duration_s: float, fs: float
) -> np.ndarray:
    """Sample the coil voltage induced by the motor's field.

    Harmonic k appears with amplitude coil.scale * D_k * k * (2*pi/P); higher
    harmonics are emphasized linearly in k relative to the field itself.
    """
    _check_nyquist(profile, fs)
    return _voltage_at(profile, coil, _time_grid(duration_s, fs))


def apply_path_loss(
    amplitude: float | np.ndarray, distance_cm: float, geometry: ArrayGeometry
) -> float | np.ndarray:
    """Scale an amplitude by (reference_distance / distance) ** exponent."""
    if distance_cm <= 0:
        raise ValueError("distance_cm must be positive")
    factor = (geometry.reference_distance_cm / distance_cm) ** (
        geometry.amplitude_falloff_exponent
    )
    return amplitude * factor


# ---------------------------------------------------------------------------
# Array simulation
# ---------------------------------------------------------------------------


def _noise_channels(
    noise: NoiseProfile,
    n_channels: int,
    t: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the noise block.  Draw order is fixed (shared white, shared mains
    phases, then per-channel white and mains phases) so a given seed always
    produces the same bits."""
    n = t.size
    out = np.zeros((n_channels, n), dtype=np.float64)
    if noise.is_silent:
        return out
    s = noise.shared_fraction
    w_shared = math.sqrt(s)
    w_indep = math.sqrt(1.0 - s)

    shared_white = rng.standard_normal(n)
    shared = noise.broadband_sigma * w_shared * shared_white
    for f_j, a_j in noise.mains_components:
        phi = rng.uniform(0.0, 2.0 * math.pi)
        shared = shared + a_j * w_shared * np.sin(2.0 * math.pi * f_j * t + phi)

    for i in range(n_channels):
        ch = shared + noise.broadband_sigma * w_indep * rng.standard_normal(n)
        for f_j, a_j in noise.mains_components:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            ch = ch + a_j * w_indep * np.sin(2.0 * math.pi * f_j * t + phi)
        out[i] = ch
    return out


def simulate_mixture(
    profiles: list[MotorProfile],
    geometry: ArrayGeometry,
    noise: NoiseProfile,
    coil: CoilParams,
    duration_s: float,
    fs: float,
    seed: int | None,
) -> SensorTrace:
    """Simulate an array capture of one or more rotating sources.

    Each channel receives every source delayed by
    round((d_i - d_0) / effective_speed * fs) samples (d_i is the source to
    sensor-i distance) and attenuated by the path-loss law, plus one draw of
    the noise model.  Channels of a single source are exact integer-sample
    shifts of each other because the closed-form voltage is evaluated on
    shifted time grids.
    """
    if not profiles:
        raise ValueError("at least one motor profile is required")
    for p in profiles:
        _check_nyquist(p, fs)
    t = _time_grid(duration_s, fs)
    m = geometry.n_sensors
    channels = np.zeros((m, t.size), dtype=np.float64)

    for profile in profiles:
        dists = geometry.distances_cm(profile.position_cm)
        delays_s = (dists - dists[0]) / geometry.effective_speed_cm_s
        delay_samples = np.round(delays_s * fs).astype(int)
        for i in range(m):
            att = apply_path_loss(1.0, dists[i], geometry)
            t_i = t - delay_samples[i] / fs
            channels[i] += att * _voltage_at(profile, coil, t_i)

    if not noise.is_silent:
        rng = np.random.default_rng(seed)
        channels += _noise_channels(noise, m, t, rng)
    return SensorTrace(channels=channels, sample_rate_hz=fs)


def simulate_array(
    profile: MotorProfile,
    geometry: ArrayGeometry,
    noise: NoiseProfile,
    coil: CoilParams,
    duration_s: float,
    fs: float,
    seed: int | None,
) -> SensorTrace:
    """Single-source convenience wrapper around :func:`simulate_mixture`."""
    return simulate_mixture([profile], geometry, noise, coil, duration_s, fs, seed)


# ---------------------------------------------------------------------------
# Signal-to-ensemble ratio
# ---------------------------------------------------------------------------


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def compute_ser(
    s1: np.ndarray, s2: np.ndarray, delta_t_s: float, fs: float
) -> float:
    """Signal-to-ensemble ratio of two channels at trial delay ``delta_t_s``.

    SER = RMS(s1 + shift(s2)) / (RMS(s1) + RMS(s2)), where s2 is advanced by
    round(delta_t_s * fs) samples so that a positive delta_t_s tests whether
    s2 lags s1 by that amount.  All RMS values are taken over the overlapping
    window.  Identical alignment gives 1, an inverted copy gives 0, and
    independent equal-power noise sits near 1/sqrt(2).
    """
    a = np.asarray(s1, dtype=np.float64)
    b = np.asarray(s2, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError("s1 and s2 must be 1-D arrays of equal length")
    if fs <= 0:
        raise ValueError("fs must be positive")
    n = a.size
    m = int(round(delta_t_s * fs))
    if abs(m) >= n:
        raise ValueError("|delta_t_s| must be shorter than the capture")
    lo = max(0, -m)
    hi = n - max(0, m)
    aw = a[lo:hi]
    bw = b[lo + m : hi + m]
    denom = _rms(aw) + _rms(bw)
    if denom == 0.0:
        raise ValueError("SER undefined: both windows have zero energy")
    return _rms(aw + bw) / denom
